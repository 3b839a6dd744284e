"""Groebner engine: bases, normal forms, syzygies, lifting, colon ideals."""
from __future__ import annotations

import ast
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kustinmiller import (GREVLEX, LEX, QQ, CoefficientField, FreeModuleMap, Ideal, NotLiftable,
                          groebner, ideal_equal, ideal_quotient, lift_through, make_ring,
                          normal_form, syzygies)
from kustinmiller import complexes, km
from kustinmiller.cli import InputFile
from kustinmiller.gb import (_EXP_MAX, _Engine, keep_independent, minimal_column_generators,
                             projected_syzygies)
from kustinmiller.km import compute_beta, km_input, unproject
from kustinmiller.resolutions import minimal_free_resolution
from kustinmiller.simplicial import cyclic_polytope_boundary, stanley_reisner_ideal

from conftest import dense


def _spoly(R, f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = R.monomial(tuple(a - b for a, b in zip(lcm, lf)), 1)
    mg = R.monomial(tuple(a - b for a, b in zip(lcm, lg)), 1)
    return mf * f.monic() - mg * g.monic()


def test_groebner_already_reduced():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    G = Ideal(R, [x * x, x * y]).groebner()
    assert [str(e) for e in G.generators.row(0)] == ["x^2", "x*y"]
    assert G.reduced


def test_groebner_pfaffian_membership(ideal_i, segre_ring):
    p = segre_ring.parse("z_2*z_3 - z_1*z_4")
    assert ideal_i.contains(p)
    assert normal_form(p, ideal_i.groebner()).is_zero()


def test_groebner_twisted_cubic_lex():
    # homogeneous for the weights (1, 2, 3); lex is weight-blind
    R = make_ring(["x", "y", "z"], [1, 2, 3], order=LEX)
    x, y, z = R.gens()
    G = Ideal(R, [y - x ** 2, z - x ** 3]).groebner()
    got = {str(e) for e in G.generators.row(0)}
    assert got == {"x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2"}


def test_groebner_twisted_cubic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs, ys, zs = sympy.symbols("x y z")
    gb = sympy.groebner([ys - xs ** 2, zs - xs ** 3], xs, ys, zs, order="lex")
    expect = {str(e).replace("**", "^").replace(" ", "") for e in gb.exprs}
    R = make_ring(["x", "y", "z"], [1, 2, 3], order=LEX)
    x, y, z = R.gens()
    G = Ideal(R, [y - x ** 2, z - x ** 3]).groebner()
    got = {str(e).replace(" ", "") for e in G.generators.row(0)}
    assert got == expect


def test_groebner_inhomogeneous_rejected():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    with pytest.raises(ValueError):
        Ideal(R, [x + y * y])


def test_normal_form_member_is_zero(ideal_i):
    G = ideal_i.groebner()
    for g in ideal_i.gens:
        assert normal_form(g, G).is_zero()


def test_normal_form_unit_survives():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    G = Ideal(R, [x * x, x * y, y * y]).groebner()
    assert str(normal_form(R.one, G)) == "1"


def test_normal_form_nonmember(ideal_i, segre_ring):
    # x_1 x_3 * x_2 x_4 is not in the codimension-3 prime
    p = segre_ring.parse("x_1*x_3*x_2*x_4")
    r = normal_form(p, ideal_i.groebner())
    assert not r.is_zero()
    # independent route: reduce against the basis computed from shuffled input
    shuffled = list(ideal_i.gens)
    random.Random(3).shuffle(shuffled)
    G2 = Ideal(segre_ring, shuffled).groebner()
    assert not normal_form(p, G2).is_zero()
    assert dense(G2.generators) == dense(ideal_i.groebner().generators)


def test_syzygies_koszul_pair():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    row = FreeModuleMap.from_rows(R, [[x, y]], [0])
    S = syzygies(row)
    assert S.cols == 1
    col = [S.entry(0, 0), S.entry(1, 0)]
    assert [str(col[0]), str(col[1])] in (["y", "-x"], ["-y", "x"])
    assert row.compose(S).is_zero()


def test_syzygies_of_pfaffian_row_match_skew_matrix(c_i, segre_ring):
    b1 = c_i.differential(1)
    b2 = c_i.differential(2)
    S = syzygies(b1)
    assert b1.compose(S).is_zero()
    # span equality both ways
    GS = groebner(S)
    G2 = groebner(b2)
    assert normal_form(b2, GS).is_zero()
    assert normal_form(S, G2).is_zero()


def test_syzygies_injective_map():
    R = make_ring(["x"], [1])
    m = FreeModuleMap.from_rows(R, [[R.var("x")]], [0])
    assert syzygies(m).cols == 0


def _spans_within(R, twists, gens, members) -> bool:
    """Every vector of `members` lies in the span of `gens` in R^len(twists)."""
    eng = _Engine(R, len(twists), twists)
    for v in gens:
        eng.add_input(v)
    eng.complete()
    return all(not eng.reduce(v) for v in members)


@pytest.mark.parametrize("field", [QQ, CoefficientField.prime_field(32003)],
                         ids=["QQ", "GF32003"])
def test_untracked_inputs_give_projected_kernel(field, ideal_i):
    """projected_syzygies(m, k) tracks only the first k inputs and spans the
    kernel of the whole map projected onto those k coordinates; the first k
    rows of syzygies(m) are the reference."""
    R = make_ring([f"x_{i}" for i in range(1, 5)] + [f"z_{i}" for i in range(1, 5)],
                  [1] * 8, field)
    pfaffians = [str(g) for g in ideal_i.gens]
    extra = ["x_2*x_3", "z_1*z_4", "x_1*z_1 - 2*x_4*z_3"]
    m = FreeModuleMap.from_rows(R, [[R.parse(p) for p in pfaffians + extra]], [0])
    Z = syzygies(m)
    for k in range(1, m.cols + 1):
        P = projected_syzygies(m, k)
        twists = m.source_twists[:k]
        assert P.target_twists == twists
        assert P.source_twists == tuple(sorted(P.source_twists))
        assert len({frozenset(v.items()) for v in P.columns}) == P.cols
        reference = [{(r, mono): c for (r, mono), c in v.items() if r < k} for v in Z.columns]
        reference = [v for v in reference if v]
        assert _spans_within(R, twists, P.columns, reference)
        assert _spans_within(R, twists, reference, P.columns)
    assert P.columns == Z.columns and P.source_twists == Z.source_twists
    # the untracked columns enlarge the projection beyond the Pfaffians' own
    # syzygies: x_2*x_3 times the first Pfaffian lies in the extra columns
    k = len(pfaffians)
    twists = m.source_twists[:k]
    x2x3_e0 = {(0, mono): c for mono, c in R.parse("x_2*x_3").terms.items()}
    assert _spans_within(R, twists, projected_syzygies(m, k).columns, [x2x3_e0])
    own = syzygies(m.submatrix([0], range(k)))
    assert not _spans_within(R, twists, own.columns, [x2x3_e0])


def test_lift_through_identity_certificate(c_i):
    b = c_i.differential(2)
    X = lift_through(b, b)
    assert b.compose(X) == b


def test_lift_through_simple():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    b = FreeModuleMap.from_rows(R, [[x, y]], [0])
    c = FreeModuleMap.from_rows(R, [[x * x + y * y]], [0])
    X = lift_through(b, c)
    assert b.compose(X) == c


def test_lift_through_not_liftable():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    b = FreeModuleMap.from_rows(R, [[x]], [0])
    c = FreeModuleMap.from_rows(R, [[y]], [0])
    with pytest.raises(NotLiftable):
        lift_through(b, c)


_finalize = _Engine.finalize
DATA = Path(__file__).parent / "data"
GF32003 = CoefficientField.prime_field(32003)


def _lift_off_the_full_basis(b, c):
    """Reference for `lift_through`: the same read-off, from an engine that
    processes every pair and reduces its whole basis."""
    with mock.patch.object(_Engine, "finalize", lambda eng, degree=math.inf: _finalize(eng)):
        return lift_through(b, c)


def _assert_lift_matches_full_basis(b, c):
    """lift_through(b, c) equals the reference column for column, or both
    raise NotLiftable with the same message."""
    try:
        want = _lift_off_the_full_basis(b, c)
    except NotLiftable as e:
        with pytest.raises(NotLiftable) as got:
            lift_through(b, c)
        assert str(got.value) == str(e)
        return
    assert lift_through(b, c) == want


def _segre_lifts(field, order):
    """Every (b, c) that `unproject` lifts while it builds alpha, beta and
    the homotopy for the Segre pair with the golden phi."""
    fi, fj, fphi = (InputFile(str(DATA / name), field, order) for name in
                    ("segre_pfaffians.txt", "segre_koszul_j.txt", "segre_phi.txt"))
    calls = []

    def record(b, c):
        calls.append((b, c))
        return lift_through(b, c)

    with mock.patch.object(complexes, "lift_through", record), \
            mock.patch.object(km, "lift_through", record):
        unproject(fi.ideal(), fj.ideal(), phi=fphi.polynomials())
    return calls


@pytest.mark.parametrize("field, order", [(QQ, GREVLEX), (GF32003, GREVLEX), (QQ, LEX)],
                         ids=["qq", "fp32003", "lex"])
def test_lift_through_matches_the_full_basis_on_the_segre_chain_maps(field, order):
    """The lifts behind alpha (through the dual differentials, whose twists
    are negative), beta and the homotopy (whose right-hand sides have zero
    columns) equal the lifts read off the fully reduced basis."""
    calls = _segre_lifts(field, order)
    assert len(calls) == 8
    assert any(min(b.target_twists) < 0 for b, _c in calls)
    assert any(not col for _b, c in calls for col in c.columns)
    for b, c in calls:
        _assert_lift_matches_full_basis(b, c)


def test_lift_through_matches_the_full_basis_with_a_twist_shift(c_i, segre_ring):
    """kappa != 0, a zero column, and a column outside the image, which
    raises the same NotLiftable with the same index."""
    b = c_i.differential(2)
    x_1 = segre_ring.var("x_1")
    zero = FreeModuleMap.zero(segre_ring, b.target_twists, [7])
    unit = FreeModuleMap.identity(segre_ring, b.target_twists).submatrix(range(b.rows), [1])
    for kappa in (-2, 3):
        c = FreeModuleMap.block([[b.scaled_by(x_1), zero]]).shifted(kappa)
        _assert_lift_matches_full_basis(b, c)
        assert b.compose(lift_through(b, c)).columns == c.columns
        bad = FreeModuleMap.block([[b.scaled_by(x_1), unit, zero]]).shifted(kappa)
        with pytest.raises(NotLiftable, match="column 5 is not in the image"):
            lift_through(b, bad)
        _assert_lift_matches_full_basis(b, bad)
    _assert_lift_matches_full_basis(b, FreeModuleMap.zero(segre_ring, b.target_twists, [3, 4]))


@st.composite
def _weighted_lift_problem(draw):
    """b and c over x, y, z of weights 1, 2, 3: c holds combinations of b's
    columns, random columns that may lie outside the image and zero
    columns, in shuffled order, with its twists shifted by kappa."""
    R = draw(st.sampled_from([make_ring(["x", "y", "z"], [1, 2, 3]),
                              make_ring(["x", "y", "z"], [1, 2, 3], order=LEX)]))
    monos = {d: [(d - 2 * j - 3 * k, j, k) for k in range(d // 3 + 1)
                 for j in range((d - 3 * k) // 2 + 1)] for d in range(7)}

    def matrix(tgt, src):
        rows = [[sum((R.monomial(e, c) for e, c in draw(st.dictionaries(
                      st.sampled_from(monos[s - t]), st.integers(-3, 3), max_size=3)).items()),
                     R.zero)
                 if 0 <= s - t <= 6 else R.zero for s in src] for t in tgt]
        return FreeModuleMap.from_rows(R, rows, tgt, src)

    tgt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    src = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    b = matrix(tgt, src)
    combos = b.compose(matrix(src, draw(st.lists(st.integers(2, 6), max_size=3))))
    loose = matrix(tgt, draw(st.lists(st.integers(1, 5), max_size=2)))
    zero = FreeModuleMap.zero(R, tgt, draw(st.lists(st.integers(0, 5), max_size=1)))
    c = FreeModuleMap.block([[combos, loose, zero]])
    c = c.submatrix(range(c.rows), draw(st.permutations(range(c.cols))))
    return b, c.shifted(draw(st.integers(-2, 2)))


@settings(max_examples=100, deadline=None)
@given(_weighted_lift_problem())
def test_lift_through_matches_the_full_basis_weighted(problem):
    _assert_lift_matches_full_basis(*problem)


def test_beta_lift_through_b2_leaves_the_higher_pairs_unprocessed(c_i, c_j, segre_data):
    """The lift behind beta_2 reads degrees up to 4, so the engine stops
    there: six pairs of degree 5 and 6 are never processed."""
    engines = []

    def keep(eng, degree=math.inf):
        engines.append((eng, degree))
        _finalize(eng, degree)

    with mock.patch.object(_Engine, "finalize", keep):
        compute_beta(km_input(c_i, c_j, segre_data))
    (eng, degree), = [(e, d) for e, d in engines if e.comp_twists == c_i.twists[1]]
    assert degree == 4
    assert sum(len(pending) for pending in eng.alive.values()) == 6
    assert min(deg for deg, *_rest in eng.pairs) > degree


def test_ideal_quotient_monomial():
    R = make_ring([f"x_{i}" for i in range(1, 7)], [1] * 6)
    g = {n: R.var(n) for n in R.names}
    I = Ideal(R, [g["x_1"] * g["x_2"], g["x_3"] * g["x_4"], g["x_5"] * g["x_6"]])
    f = g["x_1"] * g["x_3"] * g["x_5"]
    Q = ideal_quotient(I, f)
    expect = Ideal(R, [g["x_2"], g["x_4"], g["x_6"]])
    assert ideal_equal(Q, expect)
    # both inclusions, checked by membership
    for q in Q.gens:
        assert I.contains(q * f)
    for e in expect.gens:
        assert Q.contains(e)


def test_ideal_quotient_by_unit_and_variable():
    R = make_ring(["x"], [1])
    x = R.var("x")
    I = Ideal(R, [x * x])
    assert ideal_equal(ideal_quotient(I, R.one), I)
    assert ideal_equal(ideal_quotient(I, x), Ideal(R, [x]))
    with pytest.raises(ValueError):
        ideal_quotient(I, R.zero)


def test_ideal_equal_shuffled(ideal_i, segre_ring):
    shuffled = list(ideal_i.gens)
    random.Random(1).shuffle(shuffled)
    assert ideal_equal(ideal_i, Ideal(segre_ring, shuffled))


def test_ideal_equal_distinguishes():
    R = make_ring(["x"], [1])
    x = R.var("x")
    assert not ideal_equal(Ideal(R, [x]), Ideal(R, [x * x]))
    R2 = make_ring(["y"], [1])
    with pytest.raises(ValueError):
        ideal_equal(Ideal(R, [x]), Ideal(R2, [R2.var("y")]))


def _random_homogeneous(R, rng, deg, max_terms=4):
    from itertools import combinations_with_replacement
    gens = R.gens()
    monos = list(combinations_with_replacement(range(len(gens)), deg))
    rng.shuffle(monos)
    p = R.zero
    for mono in monos[: rng.randint(1, max_terms)]:
        c = rng.randint(-4, 4)
        if not c:
            continue
        t = R.constant(c)
        for i in mono:
            t = t * gens[i]
        p = p + t
    return p


def test_gb_properties_random():
    """Inputs reduce to zero; every S-pair of the basis reduces to zero;
    permuted inputs give the identical reduced basis."""
    rng = random.Random(42)
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    for _ in range(60):
        polys = [p for p in (_random_homogeneous(R, rng, rng.randint(1, 3))
                             for _ in range(rng.randint(2, 3))) if not p.is_zero()]
        if not polys:
            continue
        I = Ideal(R, polys)
        G = I.groebner()
        basis = list(G.generators.row(0))
        for p in polys:
            assert normal_form(p, G).is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(_spoly(R, basis[i], basis[j]), G).is_zero()
        shuffled = list(polys)
        rng.shuffle(shuffled)
        G2 = Ideal(R, shuffled).groebner()
        assert dense(G2.generators) == dense(G.generators)


def test_syzygy_completeness_monomial_oracle():
    """For a monomial row the pairwise relations (lcm/m_i) e_i - (lcm/m_j) e_j
    generate the whole kernel; every one must reduce to zero against the
    computed syzygy columns."""
    rng = random.Random(31)
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    gens = R.gens()
    for _ in range(25):
        monos = set()
        for _k in range(rng.randint(2, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            if any(e):
                monos.add(e)
        monos = sorted(monos)
        if len(monos) < 2:
            continue
        polys = [R.monomial(e, 1) for e in monos]
        row = FreeModuleMap.from_rows(R, [polys], [0])
        S = syzygies(row)
        assert row.compose(S).is_zero()
        G = groebner(S)
        for i in range(len(monos)):
            for j in range(i + 1, len(monos)):
                lcm = tuple(max(a, b) for a, b in zip(monos[i], monos[j]))
                col = [R.zero] * len(monos)
                col[i] = R.monomial(tuple(a - b for a, b in zip(lcm, monos[i])), 1)
                col[j] = -R.monomial(tuple(a - b for a, b in zip(lcm, monos[j])), 1)
                taylor = FreeModuleMap.from_rows(
                    R, [[c] for c in col], row.source_twists)
                assert normal_form(taylor, G).is_zero()


def test_syzygy_properties_random():
    """m * syz(m) = 0 and syz(syz(m)) composes to zero against syz(m)."""
    rng = random.Random(9)
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    for _ in range(20):
        polys = [p for p in (_random_homogeneous(R, rng, rng.randint(1, 2))
                             for _ in range(3)) if not p.is_zero()]
        if len(polys) < 2:
            continue
        m = FreeModuleMap.from_rows(R, [polys], [0])
        S = syzygies(m)
        assert m.compose(S).is_zero()
        if S.cols:
            S2 = syzygies(S)
            assert S.compose(S2).is_zero()


def _kept_by_full_completion(m: FreeModuleMap, vecs) -> list[int]:
    """Reference for `keep_independent`: run the whole pair queue after
    every kept vector."""
    eng = _Engine(m.ring, m.rows, m.target_twists)
    kept = []
    for i, vec in enumerate(vecs):
        r = eng.reduce(vec)
        if r:
            kept.append(i)
            eng.add_input(r)
            eng.complete()
    return kept


@st.composite
def _dependent_columns(draw):
    """A homogeneous matrix over QQ or GF(32003) in x, y, z whose columns are
    random ones followed by random combinations of them, in shuffled order."""
    field = draw(st.sampled_from([QQ, CoefficientField.prime_field(32003)]))
    R = make_ring(["x", "y", "z"], [1, 1, 1], field)
    coeff = st.integers(-3, 3) if field == QQ else st.integers(0, 32002)
    monos = {d: [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
             for d in range(5)}

    def matrix(tgt, src):
        rows = [[sum((R.monomial(e, c) for e, c in draw(st.dictionaries(
                      st.sampled_from(monos[s - t]), coeff, max_size=3)).items()), R.zero)
                 if 0 <= s - t <= 4 else R.zero for s in src] for t in tgt]
        return FreeModuleMap.from_rows(R, rows, tgt, src)

    tgt = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    src = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    base = matrix(tgt, src)
    combos = base.compose(matrix(src, draw(st.lists(st.integers(2, 4), max_size=3))))
    m = FreeModuleMap.block([[base, combos]])
    return m.submatrix(range(m.rows), draw(st.permutations(range(m.cols))))


@settings(max_examples=120, deadline=None)
@given(_dependent_columns())
def test_keep_independent_matches_full_completion(m):
    """Completing the pair queue only up to each vector's degree keeps the
    same columns as completing it fully after every kept vector, both in
    the degree order of `minimal_column_generators` and in any order."""
    def degree_then_lead(c):
        comp, mono = max(m.columns[c], key=lambda cm: (-cm[0], m.ring.mkey(cm[1])))
        return m.source_twists[c], comp, [-x for x in m.ring.mkey(mono)]

    order = sorted((c for c in range(m.cols) if m.columns[c]), key=degree_then_lead)
    kept = _kept_by_full_completion(m, [m.columns[c] for c in order])
    assert minimal_column_generators(m) == m.submatrix(range(m.rows), [order[i] for i in kept])
    no_base = FreeModuleMap(m.ring, [], m.target_twists, [])
    assert (keep_independent(no_base, m)[0]
            == _kept_by_full_completion(m, list(m.columns)))


_PACKING_RINGS = {
    "grevlex": make_ring(["x", "y", "z", "w"], [1, 1, 1, 1]),
    "weighted-grevlex": make_ring(["x", "y", "z"], [1, 2, 3]),
    "lex": make_ring(["x", "y", "z"], [1, 1, 1], order=LEX),
}


def _module_terms(nvars):
    exponent = st.one_of(st.integers(0, 5), st.sampled_from([_EXP_MAX - 1, _EXP_MAX]))
    return st.tuples(st.integers(0, 3), st.tuples(*[exponent] * nvars))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_PACKING_RINGS)), data=st.data())
def test_packed_terms_follow_the_module_order(kind, data):
    """A packed term round-trips; its int order is (-component,) +
    ring.mkey(monomial); a product is an addition; the divisibility test is
    the componentwise <= of exponents; the packed lcm of two terms of one
    component is the packed componentwise max, weighted degree included."""
    R = _PACKING_RINGS[kind]
    eng = _Engine(R, 1, [0])
    (ca, a), (cb, b) = data.draw(_module_terms(R.nvars)), data.draw(_module_terms(R.nvars))
    pa, pb = eng._pack(ca, a), eng._pack(cb, b)
    assert eng._unpack(pa) == (ca, a)
    assert eng._unpack(pb) == (cb, b)
    ka, kb = (-ca,) + R.mkey(a), (-cb,) + R.mkey(b)
    assert (pa < pb) == (ka < kb)
    assert (pa == pb) == (ka == kb)
    assert eng._wdeg(pa) == R.wdeg(a)
    assert eng._divides(pa, eng._pack(ca, b)) == all(x <= y for x, y in zip(a, b))
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) <= _EXP_MAX:
        one = eng._pack(0, (0,) * R.nvars)
        assert eng._pack(ca, product) == pa + eng._pack(0, b) - one
    lcm = eng._pack(ca, tuple(map(max, a, b)))
    ea, eb = _lead_elem(eng, pa), _lead_elem(eng, eng._pack(ca, b))
    assert eng._lcm_with(eb)(ea) == lcm
    assert eng._lcm_with(ea)(eb) == lcm


def _lead_elem(eng, lead):
    """A basis element whose vector is its lead term alone."""
    return eng._elem({lead: eng.K.one}, lead)


def test_pair_criteria_queue_a_pinned_number_of_pairs():
    """Resolving the Stanley-Reisner ideal of C(4, 9) pushes 390 pairs,
    records 3 Koszul syzygies and reduces 633 vectors (inputs and S-vectors
    of the pairs still alive when popped).  A change to the lcm minimality
    or the coprime test moves the first two counts; dropping the chain
    criterion makes 636 reductions."""
    R = make_ring([f"x_{i}" for i in range(1, 10)], [1] * 9)
    sr = stanley_reisner_ideal(cyclic_polytope_boundary(4, 9), R)
    counts = {"pushed": 0, "koszul": 0, "reduced": 0}
    push, koszul, process = _Engine._push_pair, _Engine._record_koszul, _Engine._process

    def counted_push(eng, i, j, lcm):
        counts["pushed"] += 1
        return push(eng, i, j, lcm)

    def counted_koszul(eng, i, j):
        counts["koszul"] += 1
        return koszul(eng, i, j)

    def counted_process(eng, vec):
        counts["reduced"] += 1
        return process(eng, vec)

    with mock.patch.object(_Engine, "_push_pair", counted_push), \
            mock.patch.object(_Engine, "_record_koszul", counted_koszul), \
            mock.patch.object(_Engine, "_process", counted_process):
        res = minimal_free_resolution(sr)
    assert complexes.betti(res).totals() == [1, 30, 81, 81, 30, 1]
    assert counts == {"pushed": 390, "koszul": 3, "reduced": 633}


# per ring: a lead with wdeg * max weight = 2**16 - 1, and one just past it
_LEADS_AT_THE_BOUND = {
    "grevlex": ((16383, 16383, 16383, 16386), (16384, 16384, 16384, 16384)),
    "weighted-grevlex": ((2, 0, 7281), (3, 0, 7281)),
    "lex": ((_EXP_MAX, _EXP_MAX, 1), (_EXP_MAX, _EXP_MAX, 2)),
}


@pytest.mark.parametrize("kind", sorted(_PACKING_RINGS))
def test_packed_lcm_at_the_degree_bound(kind):
    """The lcm's weighted degree comes from one product that is exact while
    wdeg(lead) * max weight < 2**16: a lead just below that bound takes the
    packed route, one just past it the tuple route, and both give the
    packed componentwise max."""
    R = _PACKING_RINGS[kind]
    eng = _Engine(R, 1, [0])
    wmax = max(R.weights)
    below, past = _LEADS_AT_THE_BOUND[kind]
    assert R.wdeg(below) * wmax == (1 << 16) - 1 < R.wdeg(past) * wmax
    others = [(0,) * R.nvars, (1,) * R.nvars, tuple(range(R.nvars)),
              (_EXP_MAX,) + (0,) * (R.nvars - 1), (0,) * (R.nvars - 1) + (_EXP_MAX,)]
    for a, wide in ((below, False), (past, True)):
        ea = _lead_elem(eng, eng._pack(0, a))
        assert ea.wide == wide
        for b in others:
            eb = _lead_elem(eng, eng._pack(0, b))
            assert eng._lcm_with(eb)(ea) == eng._pack(0, tuple(map(max, a, b)))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_exponent_past_the_field_width_raises(order):
    """An exponent above the engine's field width raises ValueError, both in
    an input and in an S-vector, instead of wrapping into the next field."""
    R = make_ring(["x", "y"], [1, 1], order=order)
    x, y = R.gens()
    big = x ** _EXP_MAX
    assert normal_form(big, Ideal(R, [y]).groebner()) == big
    with pytest.raises(ValueError, match="exponent above"):
        Ideal(R, [x * big]).groebner()
    # the S-vector of x^M - y^M and x*y holds y^(M+1)
    with pytest.raises(ValueError, match="exponent above"):
        Ideal(R, [big - y ** _EXP_MAX, x * y]).groebner()


def test_only_gb_names_the_engine():
    """No module of the package but gb names `_Engine` or any other
    underscore member of gb (a module-level name, a method or an attribute
    defined there): gb alone builds and drives the Groebner engine, and the
    other modules reach it through gb's public operations."""
    package = Path(__file__).parents[1] / "src" / "kustinmiller"
    gb_tree = ast.parse((package / "gb.py").read_text())
    private = {t.id for stmt in gb_tree.body if isinstance(stmt, ast.Assign)
               for t in stmt.targets if isinstance(t, ast.Name)}
    for node in ast.walk(gb_tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private.add(node.name)
        elif isinstance(node, ast.Attribute):
            private.add(node.attr)
    private = {n for n in private if n.startswith("_") and not n.startswith("__")}
    assert {"_Engine", "_EXP_MAX", "_reduce", "_engine"} <= private
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "gb.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gb":
                names = [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Name):
                names = [node.id] if node.id in private else []
            elif isinstance(node, ast.Attribute):
                names = [node.attr] if node.attr in private else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names]
    assert found == []
