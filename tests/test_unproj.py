"""Hom modules, phi selection, and the unprojection ideal."""
from __future__ import annotations

import math
from unittest import mock

import pytest

from kustinmiller import (FreeModuleMap, Ideal, cyclic_polytope_boundary, ideal_equal,
                          make_ring, minimal_free_resolution, stanley_reisner_ideal, syzygies)
from kustinmiller.gb import _Engine
from kustinmiller.unproj import (HypothesisFailed, hom_module, select_phi,
                                 transport_lifts, unprojection_data_from_lifts,
                                 unprojection_ideal)

from conftest import packed

PHI_IMAGES = ["x_1*x_3", "x_1*x_4", "x_2*x_3", "x_2*x_4"]


def _hom_pairing_is_zero(I, J, v):
    """Oracle: v pairs to zero mod I with every syzygy of J's gens over R/I."""
    ring = I.ring
    row = FreeModuleMap.from_rows(ring, [list(J.gens) + list(I.gens)], [0])
    Z = syzygies(row)
    t = len(J.gens)
    for c in range(Z.cols):
        acc = ring.zero
        for j in range(t):
            acc = acc + Z.entry(j, c) * v[j]
        if not I.contains(acc):
            return False
    return True


def test_hom_module_inclusion_first(ideal_i, ideal_j):
    homs = hom_module(ideal_j, ideal_i)
    assert homs[0] == tuple(ideal_j.gens)


def test_hom_module_segre_phi(ideal_i, ideal_j):
    homs = hom_module(ideal_j, ideal_i)
    images = [[str(e) for e in v] for v in homs]
    assert PHI_IMAGES in images


def test_hom_module_vectors_satisfy_syzygy_pairing(ideal_i, ideal_j):
    for v in hom_module(ideal_j, ideal_i):
        assert _hom_pairing_is_zero(ideal_i, ideal_j, v)


# hom_module's exact output, recorded before its kernel came from
# projected_syzygies; on cyclic (4, 8) the pair is the cyclic driver's
HOM_SEGRE = [["z_1", "z_2", "z_3", "z_4"], PHI_IMAGES]
HOM_CYCLIC_4_8 = [
    ["z*x_3", "z*x_4", "x_2*x_4", "z*x_5", "x_2*x_5", "x_3*x_5", "x_2*x_6", "x_3*x_6",
     "x_4*x_6"],
    ["x_1*x_3*x_7", "x_1*x_4*x_7", "0", "x_1*x_5*x_7", "0", "0", "0", "0", "0"],
]


def _cyclic_pair(d, n):
    """(J, I) as cyclic_resolution(d, n) hands them to hom_module."""
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, n)], [1] * n)
    I = stanley_reisner_ideal(cyclic_polytope_boundary(d, n - 1), R)
    link = cyclic_polytope_boundary(d - 2, n - 2,
                                    names=["z"] + [f"x_{i}" for i in range(2, n - 1)])
    c_j = minimal_free_resolution(stanley_reisner_ideal(link, R))
    return Ideal(R, c_j.differential(1).row(0)), I


def test_hom_module_pinned_output(ideal_i, ideal_j):
    assert [[str(e) for e in v] for v in hom_module(ideal_j, ideal_i)] == HOM_SEGRE
    assert [[str(e) for e in v] for v in hom_module(*_cyclic_pair(4, 8))] == HOM_CYCLIC_4_8


def test_hom_module_principal_free_case():
    # J = (x), I = 0: J mod I is free, and Hom is generated by the unit image
    R = make_ring(["x", "y"], [1, 1])
    I = Ideal(R, [])
    J = Ideal(R, [R.var("x")])
    homs = hom_module(J, I)
    assert homs[0] == (R.var("x"),)
    assert (R.one,) in homs


def test_hom_module_j_equals_i(ideal_i):
    # Hom of the pair (I, I) degenerates: everything is an R/I-multiple of
    # the inclusion, which is itself zero mod I
    homs = hom_module(ideal_i, ideal_i)
    assert homs[0] == tuple(ideal_i.gens)
    for v in homs[1:]:
        assert all(ideal_i.contains(e) for e in v)


def test_hom_module_octahedron_link(octahedron):
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, 7)], [1] * 7)
    P = R.parse
    I = Ideal(R, [P("x_1*x_2"), P("x_3*x_4"), P("x_5*x_6")])
    J = Ideal(R, [R.var("z"), R.var("x_2"), R.var("x_4"), R.var("x_6")])
    homs = hom_module(J, I)
    for v in homs:
        assert _hom_pairing_is_zero(I, J, v)
    # a hom of degree 2 exists whose image on z is the complementary facet
    data = select_phi(homs, I, J, 2, t_name="x_7")
    assert [str(l) for l in data.lifts] == ["x_1*x_3*x_5", "0", "0", "0"]


def test_select_phi_segre(segre_data):
    assert [str(l) for l in segre_data.lifts] == PHI_IMAGES
    assert segre_data.deg_t == 1


# select_phi's lifts, recorded before its normal form and generation check
# shared one lazily completed engine per candidate
PHI_CYCLIC = {
    (4, 8): HOM_CYCLIC_4_8[1],
    (4, 9): ["x_1*x_3*x_8", "x_1*x_4*x_8", "0", "x_1*x_5*x_8", "0", "0", "x_1*x_6*x_8",
             "0", "0", "0", "0", "0", "0", "0"],
}


@pytest.mark.parametrize("d, n", sorted(PHI_CYCLIC))
def test_select_phi_pinned_lifts(d, n):
    J, I = _cyclic_pair(d, n)
    data = select_phi(hom_module(J, I), I, J, 1)
    assert [str(l) for l in data.lifts] == PHI_CYCLIC[(d, n)]


def test_select_phi_skips_inclusion_multiples(ideal_i, ideal_j, segre_ring):
    """A degree-1 multiple of the inclusion is no candidate.  A candidate
    shifted by x_4 * inclusion - (x_4*z_1 - x_3*z_2, 0, 0, 0), whose lead
    x_3*z_2 only an S-pair of degree 1 reduces, gives the same phi."""
    incl, phi = hom_module(ideal_j, ideal_i)
    P = segre_ring.parse
    multiple = tuple(P("x_4") * e for e in incl)
    shift = (multiple[0] - P("x_4*z_1 - x_3*z_2"),) + multiple[1:]
    shifted = tuple(a + b for a, b in zip(phi, shift))
    for gens in ([incl, multiple, phi], [incl, multiple, shifted]):
        data = select_phi(gens, ideal_i, ideal_j, 1)
        assert [str(l) for l in data.lifts] == PHI_IMAGES


def test_select_phi_rejects_non_generating_pair(ideal_i, ideal_j, segre_ring):
    """A vector outside span(inclusion, phi) + I * R^t fails the generation
    check."""
    zero = segre_ring.zero
    gens = hom_module(ideal_j, ideal_i) + [(segre_ring.var("x_1"), zero, zero, zero)]
    with pytest.raises(HypothesisFailed, match="no homomorphism of degree 1"):
        select_phi(gens, ideal_i, ideal_j, 1)


def test_select_phi_wrong_degree(ideal_i, ideal_j):
    homs = hom_module(ideal_j, ideal_i)
    with pytest.raises(HypothesisFailed):
        select_phi(homs, ideal_i, ideal_j, 5)


def test_select_phi_rejects_nonpositive_degree(ideal_i, ideal_j):
    homs = hom_module(ideal_j, ideal_i)
    with pytest.raises(HypothesisFailed):
        select_phi(homs, ideal_i, ideal_j, 0)


def test_unprojection_ideal_golden(segre_data):
    U = unprojection_ideal(segre_data)
    tails = [str(g) for g in U.gens[-4:]]
    assert tails == ["-x_1*x_3 + z_1*T", "-x_1*x_4 + z_2*T",
                     "-x_2*x_3 + z_3*T", "-x_2*x_4 + z_4*T"]


def test_unprojection_relations_homogeneous(segre_data):
    U = unprojection_ideal(segre_data)
    for g in U.gens:
        assert g.is_homogeneous()
    for u, l in zip(segre_data.gens, segre_data.lifts):
        if not l.is_zero():
            assert l.homogeneous_degree() == u.homogeneous_degree() + segre_data.deg_t


def test_unprojection_ideal_is_segre_minor_ideal(segre_data, segre_ring):
    """The unprojection ideal equals the 2x2 minors of a generic 3x3 matrix;
    the minors are expanded by hand right here."""
    U = unprojection_ideal(segre_data)
    big = U.ring
    P = big.parse
    grid = [["T", "x_1", "x_2"],
            ["x_3", "z_1", "z_3"],
            ["x_4", "z_2", "z_4"]]
    minors = []
    for r1, r2 in ((0, 1), (0, 2), (1, 2)):
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            minors.append(P(grid[r1][c1]) * P(grid[r2][c2])
                          - P(grid[r1][c2]) * P(grid[r2][c1]))
    assert ideal_equal(U, Ideal(big, minors))


def test_user_supplied_lifts_roundtrip(ideal_i, ideal_j, segre_data):
    data = unprojection_data_from_lifts(ideal_i, ideal_j, segre_data.lifts, 1)
    assert data.lifts == segre_data.lifts


def test_user_supplied_lifts_validated(ideal_i, ideal_j, segre_ring):
    bogus = [segre_ring.parse(s) for s in
             ("x_1*x_3", "x_1*x_4", "x_2*x_3", "x_1*x_2")]
    with pytest.raises(HypothesisFailed):
        unprojection_data_from_lifts(ideal_i, ideal_j, bogus, 1)


def test_transport_lifts_reorders(ideal_i, ideal_j, segre_data, segre_ring):
    perm = [2, 0, 3, 1]
    J_perm = Ideal(segre_ring, [ideal_j.gens[k] for k in perm])
    lifts_perm = [segre_data.lifts[k] for k in perm]
    data = unprojection_data_from_lifts(ideal_i, J_perm, lifts_perm, 1)
    back = transport_lifts(data, ideal_j.gens)
    assert back == segre_data.lifts


def test_containment_checked(segre_ring):
    # I = (x_1^2) is not contained in J = (z_1)
    I = Ideal(segre_ring, [segre_ring.parse("x_1^2")])
    J = Ideal(segre_ring, [segre_ring.parse("z_1")])
    with pytest.raises(HypothesisFailed):
        hom_module(J, I)


def test_pairs_of_one_term_vectors_are_never_queued():
    """The S-vector of two one-term vectors is 0, so an untracked engine on
    the Stanley-Reisner ideal of C(4, 8) queues no pair, and the membership
    engine of the C(4, 8) unprojection step queues 5 (77 with such pairs)."""
    R = make_ring([f"x_{i}" for i in range(1, 9)], [1] * 8)
    sr = stanley_reisner_ideal(cyclic_polytope_boundary(4, 8), R)
    eng = _Engine(R, 1, [0])
    for f in sr.gens:
        eng.add_input(packed(R, {(0, m): c for m, c in f.sorted_terms()}))
    assert eng.pairs == []

    R = make_ring(["z"] + [f"x_{i}" for i in range(1, 8)], [1] * 8)
    I = stanley_reisner_ideal(cyclic_polytope_boundary(4, 7), R)
    J = stanley_reisner_ideal(
        cyclic_polytope_boundary(2, 6, names=["z"] + [f"x_{i}" for i in range(2, 7)]), R)
    first = {}
    complete_through = _Engine.complete_through

    def first_call(eng, degree):
        first.setdefault(eng, (degree, len(eng.pairs)))
        return complete_through(eng, degree)

    with mock.patch.object(_Engine, "complete_through", first_call):
        hom_module(J, I)
    # only the membership engine is completed through a finite degree first
    assert [n for degree, n in first.values() if degree < math.inf] == [5]
