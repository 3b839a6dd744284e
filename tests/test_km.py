"""The complex assembly: chain maps, homotopy, block structure, grading."""
from __future__ import annotations

from dataclasses import replace

import pytest

from kustinmiller import FreeModuleMap, Ideal, ideal_quotient, lift_through, make_ring
from kustinmiller.complexes import betti, minimize, verify_complex
from kustinmiller.km import (compute_alpha, compute_beta, compute_homotopy,
                             deg_T, km_input, kustin_miller_complex, unproject)
from kustinmiller.resolutions import minimal_free_resolution
from kustinmiller.unproj import HypothesisFailed, hom_module, select_phi


def test_deg_T_segre(c_i, c_j):
    assert c_i.twists[-1] == (5,)
    assert c_j.twists[-1] == (4,)
    assert deg_T(c_i, c_j) == 1


def test_deg_T_equal_complexes_rejected(c_j):
    with pytest.raises(HypothesisFailed):
        deg_T(c_j, c_j)


def test_deg_T_octahedron_link():
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, 7)], [1] * 7)
    P = R.parse
    I = Ideal(R, [P("x_1*x_2"), P("x_3*x_4"), P("x_5*x_6")])
    J = Ideal(R, [R.var("z"), R.var("x_2"), R.var("x_4"), R.var("x_6")])
    ci = minimal_free_resolution(I)
    cj = minimal_free_resolution(J)
    assert deg_T(ci, cj) == 2
    homs = hom_module(J, I)
    data = select_phi(homs, I, J, 2, t_name="x_7")
    # degree bookkeeping: deg(l) - deg(u) equals the new variable's degree
    for u, l in zip(data.gens, data.lifts):
        if not l.is_zero():
            assert l.homogeneous_degree() - u.homogeneous_degree() == 2


def _fake_data(I, J, cj):
    from kustinmiller.unproj import UnprojectionData
    u = tuple(cj.differential(1).row(0))
    return UnprojectionData(I.ring, I, J, u, u, 1, "T")


def test_km_input_rejects_small_codimension():
    R = make_ring([f"x_{i}" for i in range(1, 5)], [1] * 4)
    P = R.parse
    # 4-cycle: I = (x_1 x_3, x_2 x_4) has codimension 2; J = link ideal has 3
    I = Ideal(R, [P("x_1*x_3"), P("x_2*x_4")])
    J = Ideal(R, [R.var("x_1"), R.var("x_2"), R.var("x_3")])
    ci = minimal_free_resolution(I)
    cj = minimal_free_resolution(J)
    with pytest.raises(HypothesisFailed):
        km_input(ci, cj, _fake_data(I, J, cj))


def test_alpha_identity_in_degree_zero(c_i, c_j, segre_data):
    inp = km_input(c_i, c_j, segre_data)
    alpha = compute_alpha(inp)
    assert str(alpha.component(0).entry(0, 0)) == "1"
    assert alpha.verify()
    for i in range(1, c_i.length + 1):
        lhs = c_j.differential(i).compose(alpha.component(i))
        rhs = alpha.component(i - 1).compose(c_i.differential(i))
        assert lhs == rhs


def test_beta_first_component_is_negated_lifts(c_i, c_j, segre_data):
    inp = km_input(c_i, c_j, segre_data)
    beta = compute_beta(inp)
    row = beta.component(1)
    assert [str(e) for e in row.row(0)] == \
        ["-x_1*x_3", "-x_1*x_4", "-x_2*x_3", "-x_2*x_4"]
    assert beta.verify()


def test_homotopy_identities_exact(c_i, c_j, segre_data):
    inp = km_input(c_i, c_j, segre_data)
    alpha = compute_alpha(inp)
    beta = compute_beta(inp)
    h = compute_homotopy(alpha, beta, c_i)
    g = c_j.length
    assert h[0].is_zero() and h[g - 1].is_zero()
    for i in range(1, g):
        lhs = beta.component(i).compose(alpha.component(i))
        rhs = h[i - 1].compose(c_i.differential(i)) + c_i.differential(i).compose(h[i])
        assert lhs == rhs


def test_homotopy_zero_when_beta_alpha_zero(c_i, c_j, segre_data):
    from kustinmiller.complexes import ChainMap
    inp = km_input(c_i, c_j, segre_data)
    alpha = compute_alpha(inp)
    # a zero beta of the correct shape makes every right-hand side zero
    comps_b = {i: FreeModuleMap.zero(
        c_i.ring,
        c_i.twists[i - 1] if i - 1 <= c_i.length else (),
        [t + 1 for t in c_j.twists[i]])
        for i in range(1, c_j.length + 1)}
    beta = ChainMap(c_j, c_i, 1, comps_b)
    h = compute_homotopy(alpha, beta, c_i)
    assert all(m.is_zero() for m in h)


def test_homotopy_degree_bookkeeping(c_i, c_j, segre_data):
    """h_i is homogeneous of internal degree equal to the new variable's:
    its source twists sit exactly deg_t above the twists of C_I."""
    inp = km_input(c_i, c_j, segre_data)
    h = compute_homotopy(compute_alpha(inp), compute_beta(inp), c_i)
    dt = segre_data.deg_t
    for i, m in enumerate(h):
        assert m.target_twists == c_i.twists[i]
        assert m.source_twists == tuple(t + dt for t in c_i.twists[i])


def test_km_complex_betti_and_dsquared(km_out):
    assert betti(km_out.complex).totals() == [1, 9, 16, 9, 1]
    assert verify_complex(km_out.complex)


def test_km_f1_golden_up_to_column_sign(km_out, c_i):
    f1 = km_out.complex.differential(1)
    big = km_out.complex.ring
    expected = [
        "z_2*z_3 - z_1*z_4", "-x_4*z_3 + x_3*z_4", "x_4*z_1 - x_3*z_2",
        "x_2*z_2 - x_1*z_4", "-x_2*z_1 + x_1*z_3",
        "-x_1*x_3 + z_1*T", "-x_1*x_4 + z_2*T",
        "-x_2*x_3 + z_3*T", "-x_2*x_4 + z_4*T",
    ]
    got = list(f1.row(0))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        w = big.parse(e)
        assert g == w or g == -w


def test_km_f2_block_structure(km_out, c_i, c_j):
    f2 = km_out.complex.differential(2)
    big = km_out.complex.ring
    T = big.var("T")
    # rows: B_1 (5) then A_1 (4); cols: B_2 (5), A_2 (6), B_1 (5)
    assert f2.rows == 9 and f2.cols == 16
    b2 = c_i.differential(2).map_ring(big)
    for r in range(5):
        for c in range(5):
            assert f2.entry(r, c) == b2.entry(r, c)
    # zero lower-left block
    for r in range(5, 9):
        for c in range(5):
            assert f2.entry(r, c).is_zero()
    # T-identity columns: top-right block is h_1 + T * I
    for r in range(5):
        for c in range(5):
            e = f2.entry(r, 11 + c)
            coeff_T = dict(e.sorted_terms()).get(tuple([0] * 8 + [1]))
            if r == c:
                assert coeff_T == big.field.one
            else:
                assert coeff_T is None
    # bottom-middle is -a_2, bottom-right is -alpha_1
    a2 = c_j.differential(2).map_ring(big)
    for r in range(4):
        for c in range(6):
            assert f2.entry(5 + r, 5 + c) == -a2.entry(r, c)
    al1 = km_out.alpha.component(1).map_ring(big)
    for r in range(4):
        for c in range(5):
            assert f2.entry(5 + r, 11 + c) == -al1.entry(r, c)


def test_km_block_rank_identity(km_out, c_i, c_j):
    g = c_j.length
    ra = [c_j.rank(i) for i in range(g + 1)]
    rb = [c_i.rank(i) for i in range(g)] + [0]
    C = km_out.complex
    assert C.rank(0) == 1
    assert C.rank(1) == rb[1] + ra[1]
    for i in range(2, g - 1):
        assert C.rank(i) == rb[i] + ra[i] + rb[i - 1]
    assert C.rank(g - 1) == ra[g - 1] + rb[g - 2]
    assert C.rank(g) == 1


def test_km_upper_left_blocks_are_b(km_out, c_i):
    """Setting T to zero and projecting to the B blocks recovers C_I."""
    C = km_out.complex
    big = C.ring
    g = C.length
    for i in range(1, g - 1):
        d = C.differential(i)
        b = c_i.differential(i).map_ring(big)
        for r in range(b.rows):
            for c in range(b.cols):
                assert d.entry(r, c) == b.entry(r, c)


def test_km_beta_top_scalar(km_out):
    v = km_out.beta_top_scalar
    assert v != 0


def test_km_minimized_betti_palindromic(km_out):
    totals = betti(minimize(km_out.complex)).totals()
    assert totals == totals[::-1]


def test_km_hat_lifts_recorded(km_out):
    assert km_out.data.hat_lifts is not None
    assert len(km_out.data.hat_lifts) == 4
    for l in km_out.data.hat_lifts:
        assert not l.is_zero()


def test_km_middle_blocks_codimension_five():
    """A g = 5 pair (4-dimensional cross-polytope link data) exercises the
    three-row middle differential and its alternating T-block sign."""
    from kustinmiller.simplicial import (SimplicialComplex, stanley_reisner_ideal,
                                         stellar_resolution, stellar_subdivide)
    facets = []
    for a in ("x_1", "x_2"):
        for b in ("x_3", "x_4"):
            for c in ("x_5", "x_6"):
                for d in ("x_7", "x_8"):
                    facets.append({a, b, c, d})
    cross = SimplicialComplex([f"x_{i}" for i in range(1, 9)], facets)
    res = stellar_resolution(cross, ["x_1", "x_3", "x_5", "x_7"], new_vertex="x_9")
    assert betti(res).totals() == [1, 9, 20, 20, 9, 1]
    sub = stellar_subdivide(cross, ["x_1", "x_3", "x_5", "x_7"], "x_9")
    target = stanley_reisner_ideal(sub, res.ring)
    direct = minimal_free_resolution(target)
    assert betti(res) == betti(direct)
    from kustinmiller.complexes import verify_resolution
    assert verify_resolution(res, target)


def test_km_q_matrix_certificate(c_i, c_j):
    """The top differential's entries factor through the first one."""
    a1 = c_j.differential(1)
    ag = c_j.differential(c_j.length)
    ring = c_j.ring
    chat = FreeModuleMap.from_rows(ring, [[ag.entry(r, 0) for r in range(ag.rows)]], [0])
    Q = lift_through(a1, chat)
    assert a1.compose(Q) == chat
    assert Q.rows == Q.cols == 4


def test_unproject_matches_manual_pipeline(ideal_i, ideal_j, km_out):
    """unproject runs resolve -> hom_module -> select_phi -> km_input ->
    kustin_miller_complex; the manual chain on the same resolutions agrees."""
    out = unproject(ideal_i, ideal_j)
    assert out.data.lifts == km_out.data.lifts
    ci = minimal_free_resolution(ideal_i)
    cj = minimal_free_resolution(ideal_j)
    data = select_phi(hom_module(ideal_j, ideal_i), ideal_i, ideal_j, 1, t_name="T")
    manual = kustin_miller_complex(km_input(ci, cj, data))
    assert (out.data.lifts, out.data.hat_lifts) == (manual.data.lifts, manual.data.hat_lifts)
    assert out.complex.twists == manual.complex.twists
    assert out.complex.diffs == manual.complex.diffs
    assert betti(out.complex) == betti(km_out.complex)


def test_unproject_given_phi_on_permuted_generators(ideal_i, ideal_j, segre_ring, segre_data):
    perm = [2, 0, 3, 1]
    J_perm = Ideal(segre_ring, [ideal_j.gens[k] for k in perm])
    lifts_perm = [segre_data.lifts[k] for k in perm]
    given = unproject(ideal_i, J_perm, phi=lifts_perm)
    found = unproject(ideal_i, ideal_j)
    assert given.data.lifts == found.data.lifts
    assert given.complex == found.complex


@pytest.mark.parametrize("face", [["x_1", "x_5"], ["x_1", "x_3", "x_5"]], ids=["edge", "facet"])
def test_unproject_given_phi_with_zero_lifts(face):
    """On the octahedron's stellar pairs phi has zero lifts; passing the
    phi found back in reproduces the complex."""
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, 7)], [1] * 7)
    I = Ideal(R, [R.parse(m) for m in ("x_1*x_2", "x_3*x_4", "x_5*x_6")])
    prod = R.parse("*".join(face))
    J = Ideal(R, (R.var("z"),) + ideal_quotient(I, prod).gens)
    out = unproject(I, J)
    assert out.data.lifts == (prod, R.zero, R.zero, R.zero)
    given = unproject(I, J, phi=out.data.lifts)
    assert given.data.lifts == out.data.lifts
    assert given.complex == out.complex


def test_unproject_rejects_equal_ideals(ideal_i):
    with pytest.raises(HypothesisFailed):
        unproject(ideal_i, ideal_i)


def test_km_input_rejects_data_that_disagrees_with_the_resolutions(c_i, c_j, segre_data):
    """phi's data must carry the degree the resolutions give T, and be given
    on the generators of C_J's first differential, in that order."""
    with pytest.raises(HypothesisFailed, match="deg_t = 2 disagrees with the resolutions' "
                                               "grading, which gives 1"):
        km_input(c_i, c_j, replace(segre_data, deg_t=2))
    with pytest.raises(HypothesisFailed, match="phi is given on generators that differ"):
        km_input(c_i, c_j, replace(segre_data, gens=segre_data.gens[::-1]))


def test_unproject_rejects_an_inhomogeneous_lift_before_resolving(ideal_i, ideal_j, segre_data,
                                                                  monkeypatch):
    """An inhomogeneous lift in phi raises HypothesisFailed naming its
    position and the polynomial, before I or J is resolved."""
    import kustinmiller.km as km_module

    def no_resolution(_ideal):
        raise AssertionError("an ideal was resolved")

    monkeypatch.setattr(km_module, "minimal_free_resolution", no_resolution)
    R = ideal_i.ring
    lifts = list(segre_data.lifts)
    lifts[1] = R.parse("x_1*x_3 + x_1")
    with pytest.raises(HypothesisFailed, match=r"lift 2 of 4 in phi is not homogeneous: "
                                               r"x_1\*x_3 \+ x_1"):
        unproject(ideal_i, ideal_j, phi=lifts)
