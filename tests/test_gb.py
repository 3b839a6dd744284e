"""Groebner engine: bases, normal forms, syzygies, lifting, colon ideals."""
from __future__ import annotations

import ast
import contextlib
import gc
import math
import random
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kustinmiller import (GREVLEX, LEX, QQ, CoefficientField, FreeModuleMap, Ideal, NotLiftable,
                          groebner, ideal_equal, ideal_quotient, lift_through, make_ring,
                          normal_form, syzygies)
from kustinmiller import complexes, gb, km, resolutions, unproj
from kustinmiller.cli import InputFile
from kustinmiller.gb import (_Engine, keep_independent, minimal_column_generators,
                             minimal_columns_with_syzygies, minimal_generators,
                             projected_syzygies, shared_engines)
from kustinmiller.km import compute_beta, km_input, unproject
from kustinmiller.unproj import HypothesisFailed
from kustinmiller.resolutions import minimal_free_resolution
from kustinmiller.rings import _EXP_MAX, _GUARD
from kustinmiller.simplicial import (cyclic_polytope_boundary, cyclic_resolution,
                                     stanley_reisner_ideal)

from conftest import dense, packed


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
        reference = [v for v in Z.submatrix(range(k), range(Z.cols)).columns if v]
        assert _spans_within(R, twists, P.columns, reference)
        assert _spans_within(R, twists, reference, P.columns)
    assert P.columns == Z.columns and P.source_twists == Z.source_twists
    # the untracked columns enlarge the projection beyond the Pfaffians' own
    # syzygies: x_2*x_3 times the first Pfaffian lies in the extra columns
    k = len(pfaffians)
    twists = m.source_twists[:k]
    x2x3_e0 = packed(R, {(0, mono): c for mono, c in R.parse("x_2*x_3").sorted_terms()})
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


def _segre_pair(field, order=GREVLEX):
    """I, J and the golden phi of the Segre pair, read afresh over the given
    field and order (the files name QQ and grevlex, which would win over
    InputFile's defaults)."""
    files = [InputFile(str(DATA / name)) for name in
             ("segre_pfaffians.txt", "segre_koszul_j.txt", "segre_phi.txt")]
    names = files[0].ring.names
    R = make_ring(names, [1] * len(names), field, order)
    I, J, phi = ([R.parse(line) for line in f.section("ideal")] for f in files)
    return Ideal(R, I), Ideal(R, J), phi


def _segre_lifts(field, order):
    """Every (b, c) that `unproject` lifts while it builds alpha, beta and
    the homotopy for the Segre pair with the golden phi."""
    I, J, phi = _segre_pair(field, order)
    calls = []

    def record(b, c):
        calls.append((b, c))
        return lift_through(b, c)

    with mock.patch.object(complexes, "lift_through", record), \
            mock.patch.object(km, "lift_through", record):
        unproject(I, J, phi=phi)
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


def _outcome(f, *args):
    """f(*args), or the message of the NotLiftable it raises."""
    try:
        return f(*args)
    except NotLiftable as e:
        return f"NotLiftable: {e}"


@settings(max_examples=100, deadline=None)
@given(_weighted_lift_problem())
def test_shared_engine_serves_syzygies_and_lifts_in_any_order(problem):
    """Inside `shared_engines`, b's one engine serves `syzygies(b)` then a
    lift, a lift then `syzygies(b)`, and a lift at c's top degree then one
    at a lower bound (c's columns below that degree), and each result, or
    NotLiftable message, equals the one computed outside the block, where
    every call builds its own engine.  The pool holds b's engine, kept with
    b, once `syzygies(b)` has run, and nothing before: a lift keeps no
    engine."""
    b, c = problem
    top = max((s for s, col in zip(c.source_twists, c.columns) if col), default=None)
    low = c.submatrix(range(c.rows), [j for j, s in enumerate(c.source_twists)
                                      if top is not None and s < top])
    calls = {"syz": (syzygies, b), "lift": (lift_through, b, c), "low": (lift_through, b, low)}
    want = {k: _outcome(*call) for k, call in calls.items()}
    for order in (("syz", "lift"), ("lift", "syz"), ("lift", "low")):
        with shared_engines():
            for i, k in enumerate(order):
                assert _outcome(*calls[k]) == want[k]
                assert [m for m, _eng in gb._POOL.get().values()] == (
                    [b] if "syz" in order[:i + 1] else [])


def test_the_pool_keeps_only_the_engines_of_the_resolution():
    """Inside `shared_engines`, after `minimal_free_resolution(I)`, a lift
    through a copy of one of its differentials and `transport_lifts` (a
    lift through J's generators), the pool holds one engine per
    differential of the resolution, each kept with that differential, and
    no engine of the matrices lifted through."""
    I, J, phi = _segre_pair(QQ)
    with shared_engines():
        C = minimal_free_resolution(I)
        d2 = C.differential(2)
        assert d2.compose(lift_through(d2.shifted(0), d2)) == d2
        unproj.transport_lifts(I, J, phi, J.gens)
        pool = gb._POOL.get()
        assert sorted(pool) == sorted(id(d) for d in C.diffs)
        assert all(pool[id(d)][0] is d for d in C.diffs)


def test_shared_engines_are_dropped_when_the_block_ends(c_i):
    """After the block ends, normally or by `unproject` raising
    HypothesisFailed inside it, no pool is left and every engine it held is
    garbage."""
    refs = []
    tracked = gb._tracked_engine

    def record(m, built=None):
        eng = tracked(m, built)
        refs.append(weakref.ref(eng))
        return eng

    with mock.patch.object(gb, "_tracked_engine", record):
        with shared_engines():
            syzygies(c_i.differential(2))
            assert len(gb._POOL.get()) == 1
        assert gb._POOL.get() is None
        R = make_ring(["x", "y", "z"], [1, 1, 1])
        x, y, _z = R.gens()
        with pytest.raises(HypothesisFailed, match="too small"):
            unproject(Ideal(R, [x * y]), Ideal(R, [x, y]))
        assert gb._POOL.get() is None
    assert len(refs) >= 3
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_beta_lift_through_b2_leaves_the_higher_pairs_unprocessed(c_i, c_j, segre_data,
                                                                  ideal_i, ideal_j):
    """The lift behind beta_2 reads degrees up to 4, so the engine stops
    there: six pairs of degree 5 and 6 are never processed.  Inside
    `unproject`, beta's and the homotopy's lifts through b_2 build no
    engine: they reuse the one that resolved C_I."""
    engines = []

    def keep(eng, degree=math.inf):
        engines.append((eng, degree))
        return _finalize(eng, degree)

    with mock.patch.object(_Engine, "finalize", keep):
        compute_beta(km_input(c_i, c_j, segre_data))
    (eng, degree), = [(e, d) for e, d in engines if e.comp_twists == c_i.twists[1]]
    assert degree == 4
    assert sum(len(pending) for pending in eng.alive.values()) == 6
    assert min(deg for deg, *_rest in eng.pairs) > degree

    built, through_b2 = [], []

    def count(eng, *args, init=_Engine.__init__):
        built.append(eng)
        init(eng, *args)

    def record(b, c):
        before = len(built)
        X = lift_through(b, c)
        if (b.target_twists, b.source_twists) == c_i.twists[1:3]:
            through_b2.append(len(built) - before)
        return X

    with mock.patch.object(_Engine, "__init__", count), \
            mock.patch.object(complexes, "lift_through", record), \
            mock.patch.object(km, "lift_through", record):
        unproject(ideal_i, ideal_j, phi=segre_data.lifts)
    assert through_b2 == [0, 0]


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


def _kept_by_full_completion(m: FreeModuleMap, vecs, base=()) -> list[int]:
    """Reference for `keep_independent`: an engine on the base's columns,
    completed, and the whole pair queue run again after every kept
    vector."""
    eng = _Engine(m.ring, m.rows, m.target_twists)
    for vec in base:
        eng.add_input(vec)
    eng.complete()
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
@given(_dependent_columns(), st.integers(1, 4))
def test_keep_independent_matches_full_completion(m, nbase):
    """Completing the pair queue only up to each vector's degree keeps the
    same columns as completing it fully after every kept vector, both in
    the degree order of `minimal_column_generators` and in any order, with
    no base and with the first columns of m as the base."""
    def degree_then_lead(c):
        comp, mono = max(map(m.ring._codec.unpack, m.columns[c]),
                         key=lambda cm: (-cm[0], m.ring.mkey(cm[1])))
        return m.source_twists[c], comp, [-x for x in m.ring.mkey(mono)]

    order = sorted((c for c in range(m.cols) if m.columns[c]), key=degree_then_lead)
    kept = _kept_by_full_completion(m, [m.columns[c] for c in order])
    assert minimal_column_generators(m) == m.submatrix(range(m.rows), [order[i] for i in kept])
    no_base = FreeModuleMap(m.ring, [], m.target_twists, [])
    assert (keep_independent(no_base, m)[0]
            == _kept_by_full_completion(m, list(m.columns)))
    nbase = min(nbase, m.cols - 1)
    base = m.submatrix(range(m.rows), range(nbase))
    rest = m.submatrix(range(m.rows), range(nbase, m.cols))
    assert (keep_independent(base, rest)[0]
            == _kept_by_full_completion(rest, list(rest.columns), base.columns))


def test_keep_inserts_only_what_it_keeps():
    """`_Engine.keep` on tracked columns: a column outside the span is
    inserted monic with the unit of the next tracked input; one in the span
    returns None, records no syzygy and leaves the input count, so the next
    kept column takes the unit it would have taken."""
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    x, y = (packed(R, {(0, m): 1}) for m in ((1, 0, 0), (0, 1, 0)))
    eng = _Engine(R, 1, [0])
    unit = [R._codec.base(1 + j) for j in range(2)]
    assert eng.keep({t: 3 for t in x}, tracked=True) == {**x, unit[0]: Fraction(1, 3)}
    assert eng.ninputs == 1
    assert eng.keep({t: 2 for t in x}, tracked=True) is None
    assert (eng.ninputs, eng.syzygies) == (1, [])
    assert eng.keep(y, tracked=True) == {**y, unit[1]: 1}
    assert eng.ninputs == 2
    koszul = list(eng.syzygies)     # the coprime pair of x and y records one
    assert eng.keep(y) is None and eng.keep({**x, **y}, tracked=True) is None
    assert (eng.ninputs, eng.syzygies, len(eng.basis)) == (2, koszul, 2)


def _walk_resolution(I: Ideal) -> int:
    """At every kernel step of the minimal resolution of R/I, check that
    `minimal_columns_with_syzygies` returns exactly the columns, twists and
    column order of `minimal_column_generators` and then `syzygies`; the
    number of steps whose minimal generators span more than one degree, so
    that pruning keeps columns past the lowest degree."""
    mixed = 0
    ker = syzygies(FreeModuleMap.from_rows(I.ring, [list(minimal_generators(I))], [0]))
    while ker.cols:
        got = minimal_columns_with_syzygies(ker)
        d = minimal_column_generators(ker)
        assert got == (d, syzygies(d))
        mixed += len(set(d.source_twists)) > 1
        ker = got[1]
    return mixed


def _sr_ideal(d, n):
    R = make_ring([f"x_{i}" for i in range(1, n + 1)], [1] * n)
    return stanley_reisner_ideal(cyclic_polytope_boundary(d, n), R)


_PRUNING_CASES = {
    "sr-4-8": lambda: _sr_ideal(4, 8),
    "sr-4-9": lambda: _sr_ideal(4, 9),
    "sr-6-10": lambda: _sr_ideal(6, 10),
    **{f"{name}-{fid}": lambda k=k, field=field: _segre_pair(field)[k]
       for k, name in enumerate(("segre_pfaffians", "segre_koszul_j"))
       for fid, field in (("qq", QQ), ("fp32003", GF32003))},
    **{name: lambda name=name: InputFile(str(DATA / f"{name}.txt")).ideal()
       for name in ("koszul_mixed_degrees", "lex_weighted_fp", "multidegree_monomial")},
}


def test_pruning_on_the_syzygy_engine_matches_the_two_steps():
    """On the SR ideals of C(4, 8), C(4, 9) and C(6, 10), the Segre pair over
    QQ and GF(32003) and three mixed-degree ideals, every step equals the
    separate pruning and syzygy steps; the mixed-degree ideals keep columns
    past the lowest degree, so the second syzygy engine runs too."""
    mixed = {name: _walk_resolution(make()) for name, make in _PRUNING_CASES.items()}
    assert mixed["multidegree_monomial"] >= 2
    assert mixed["koszul_mixed_degrees"] >= 1 and mixed["lex_weighted_fp"] >= 1


_MIXED_RINGS = [((1, 1, 1, 1), GREVLEX), ((1, 2, 1, 3), LEX)]


@st.composite
def _mixed_degree_ideal(draw):
    """An ideal of 2 to 5 random homogeneous generators in 2 or 3 distinct
    degrees, in 4 variables, over QQ or GF(32003), under grevlex or under
    lex with weights."""
    weights, order = draw(st.sampled_from(_MIXED_RINGS))
    field = draw(st.sampled_from([QQ, GF32003]))
    R = make_ring(["x", "y", "z", "w"], list(weights), field, order)
    coeff = st.integers(1, 3) if field == QQ else st.integers(1, 32002)
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True))
    gens = []
    for e in degrees + draw(st.lists(st.sampled_from(degrees), max_size=2)):
        monos = [m for m in product(range(e + 1), repeat=4) if R.wdeg(m) == e]
        terms = draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3))
        gens.append(sum((R.monomial(m, c * draw(st.sampled_from([1, -1])))
                         for m, c in terms.items()), R.zero))
    return Ideal(R, gens)


@settings(max_examples=40, deadline=None)
@given(_mixed_degree_ideal())
def test_pruning_on_the_syzygy_engine_matches_the_two_steps_random(I):
    """Random ideals with generators in several degrees: every step equals
    the separate pruning and syzygy steps."""
    _walk_resolution(I)


@settings(max_examples=120, deadline=None)
@given(_dependent_columns())
def test_pruning_on_the_syzygy_engine_matches_on_dependent_columns(m):
    """Columns that are k-linear combinations of others in their own degree,
    in the lowest degree and above it, are pruned as the separate steps
    prune them."""
    d = minimal_column_generators(m)
    assert minimal_columns_with_syzygies(m) == (d, syzygies(d))


def _segre_changed(seed):
    """I, J and phi of the Segre pair over GF(32003) after a block-diagonal
    change of the x and of the z coordinates drawn from `seed`: each block
    is L*U, L unit lower triangular and U upper triangular with a nonzero
    diagonal, so it is invertible."""
    I, J, phi = _segre_pair(GF32003)
    R, p = I.ring, 32003
    rng = random.Random(seed)
    sigma = {}
    for prefix in ("x", "z"):
        names = [v for v in R.names if v.startswith(prefix)]
        n = len(names)
        low = [[int(i == j) if j >= i else rng.randrange(p) for j in range(n)] for i in range(n)]
        up = [[0 if j < i else rng.randrange(1 if j == i else 0, p) for j in range(n)]
              for i in range(n)]
        for i, v in enumerate(names):
            sigma[v] = sum((R.var(w).scale(sum(low[i][k] * up[k][j] for k in range(n)) % p)
                            for j, w in enumerate(names)), R.zero)
    changed = [[g.substitute(sigma, R) for g in gens] for gens in (I.gens, J.gens, phi)]
    return Ideal(R, changed[0]), Ideal(R, changed[1]), changed[2]


def _resolution_completing_every_kernel(I: Ideal):
    """`minimal_free_resolution` with the kernel ranks withheld, so that no
    step stops at a rank-one kernel's generator."""
    full = minimal_columns_with_syzygies
    with mock.patch.object(resolutions, "minimal_columns_with_syzygies",
                           lambda m, rank=None: full(m)):
        return minimal_free_resolution(I)


def _assert_stop_changes_nothing(make):
    """The resolution of make(), with and without the rank-one stop, on
    fresh ideals: the same twists and differentials."""
    got, want = minimal_free_resolution(make()), _resolution_completing_every_kernel(make())
    assert got.twists == want.twists
    assert got.diffs == want.diffs


@pytest.mark.parametrize("name", sorted({**_PRUNING_CASES, "sr-6-12": None}))
def test_rank_one_stop_matches_completing_every_kernel(name):
    """`minimal_free_resolution` equals the route that completes every
    kernel, differential for differential, on the SR ideals of C(4, 8),
    C(4, 9), C(6, 10) and C(6, 12), the Segre pair over QQ and GF(32003)
    and three mixed-degree ideals.  Each SR resolution and J's Koszul
    complex end in a rank-one kernel whose generator sits in its engine's
    top pair degree; I's ker(d_2) is generated in degree 5, below the
    engine's degree-6 and degree-7 pairs.  A `_kernel` that stops after the
    first syzygy whatever the rank fails the four SR ideals, J over QQ and
    over GF(32003), multidegree_monomial and the random Segre pairs below;
    I, koszul_mixed_degrees and lex_weighted_fp have no kernel of rank
    above one past the first step, so they pass it."""
    _assert_stop_changes_nothing(_PRUNING_CASES.get(name) or (lambda: _sr_ideal(6, 12)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_one_stop_matches_completing_every_kernel_random(seed):
    """The same on random coordinate changes of the Segre pair over
    GF(32003), where the stop leaves ker(d_2) of I with unprocessed pairs."""
    for k in range(2):
        _assert_stop_changes_nothing(lambda: _segre_changed(seed)[k])


@st.composite
def _rank_one_kernel(draw):
    """(m, r): a matrix of r + 1 columns of weighted degrees 1 to 3 in r = 1
    or 2 rows whose span has rank r, so its kernel has rank one, over one
    of the mixed-degree rings.  Every entry carries a common factor of
    degree 0 to 2; in about a third of the cases the kernel's generator
    lies below the engine's top pair degree."""
    weights, order = draw(st.sampled_from(_MIXED_RINGS))
    R = make_ring(["x", "y", "z", "w"], list(weights), draw(st.sampled_from([QQ, GF32003])), order)

    def form(e):
        monos = [m for m in product(range(e + 1), repeat=4) if R.wdeg(m) == e]
        terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(1, 5),
                                     min_size=1, max_size=3))
        return sum((R.monomial(m, c) for m, c in terms.items()), R.zero)

    r = draw(st.integers(1, 2))
    h = form(draw(st.integers(0, 2)))
    twists = draw(st.lists(st.integers(1, 3), min_size=r + 1, max_size=r + 1))
    rows = [[h * form(t) for t in twists] for _ in range(r)]
    m = FreeModuleMap.from_rows(R, rows, [0] * r, [t + h.degree() for t in twists])
    if r == 2:
        assume(any(m.entry(0, i) * m.entry(1, j) != m.entry(0, j) * m.entry(1, i)
                   for i in range(3) for j in range(i)))
    return m, r


@settings(max_examples=150, deadline=None)
@given(_rank_one_kernel())
def test_rank_one_stop_matches_completing_the_kernel_random(case):
    """`minimal_columns_with_syzygies(m, rank)` stops where the kernel of d,
    its minimal columns, has rank one.  It returns the d of the call
    without a rank, which completes the kernel, and the one column of that
    kernel that pruning keeps."""
    m, r = case
    d, ker = minimal_columns_with_syzygies(m, r)
    full_d, full_ker = minimal_columns_with_syzygies(m)
    assert d == full_d
    assert ker == minimal_column_generators(full_ker)


def _random_forms(R, rng, degree, count):
    """`count` forms of the given degree in a standard graded ring, each a
    sum of three random terms."""
    def mono():
        e = [0] * len(R.names)
        for _ in range(degree):
            e[rng.randrange(len(e))] += 1
        return tuple(e)
    return [sum((R.monomial(mono(), rng.randrange(1, 32003)) for _ in range(3)), R.zero)
            for _ in range(count)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([6, 7]))
def test_lift_through_an_engine_stopped_at_its_generator(seed, degree):
    """Inside one `shared_engines` block, the engine that resolved ker(d_2)
    of a randomly changed Segre I stops at degree 5, its generator's
    degree, with pairs of higher degree still queued.  A lift through d_2
    at degree 6 or 7 completes it further; its result, or NotLiftable
    message, equals the lift through an engine completed in full in a block
    of its own, for a right-hand side in the image and for one with a
    random column.  `verify_resolution` in the same block completes every
    kernel it reads, the stopped one included: every engine it builds, and
    the pooled one, has an empty pair queue when it returns."""
    I = _segre_changed(seed)[0]
    R, rng = I.ring, random.Random(seed)
    built = []
    init = _Engine.__init__

    def record(eng, *args):
        init(eng, *args)
        built.append(eng)

    with shared_engines():
        C = minimal_free_resolution(I)
        d2 = C.differential(2)
        eng = gb._POOL.get()[id(d2)][1]
        assert eng.pairs and min(p[0] for p in eng.pairs) > 5
        pick = FreeModuleMap.from_rows(
            R, [_random_forms(R, rng, degree - s, 2) for s in d2.source_twists],
            d2.source_twists, [degree, degree])
        image = d2.compose(pick)
        loose = FreeModuleMap.from_rows(R, [[f] for f in _random_forms(R, rng, degree - 2, d2.rows)],
                                        d2.target_twists, [degree])
        rhs = (image, FreeModuleMap.block([[image, loose]]))
        got = [_outcome(lift_through, d2, c) for c in rhs]
        with mock.patch.object(_Engine, "__init__", record):
            assert complexes.verify_resolution(C, I)
        assert built and not any(e.pairs for e in built) and not eng.pairs
    for c, lifted in zip(rhs, got):
        with shared_engines():
            syzygies(d2)
            assert _outcome(lift_through, d2, c) == lifted
    assert not isinstance(got[0], str) and got[1].startswith("NotLiftable")


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
    codec = R._codec
    (ca, a), (cb, b) = data.draw(_module_terms(R.nvars)), data.draw(_module_terms(R.nvars))
    pa, pb = codec.pack(ca, a), codec.pack(cb, b)
    assert codec.unpack(pa) == (ca, a)
    assert codec.unpack(pb) == (cb, b)
    ka, kb = (-ca,) + R.mkey(a), (-cb,) + R.mkey(b)
    assert (pa < pb) == (ka < kb)
    assert (pa == pb) == (ka == kb)
    assert codec.wdeg(pa) == R.wdeg(a)
    assert codec.divides(pa, codec.pack(ca, b)) == all(x <= y for x, y in zip(a, b))
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) <= _EXP_MAX:
        one = codec.pack(0, (0,) * R.nvars)
        assert codec.pack(ca, product) == pa + codec.pack(0, b) - one
    lcm = codec.pack(ca, tuple(map(max, a, b)))
    ea, eb = _lead_elem(eng, pa), _lead_elem(eng, codec.pack(ca, b))
    assert eng._lcm_with(eb)(ea) == lcm
    assert eng._lcm_with(ea)(eb) == lcm


@st.composite
def _packed_algebra_case(draw):
    """Matrices over one of the packing rings, over QQ or GF(32003), with
    random homogeneous entries of weighted degree at most 4."""
    base = _PACKING_RINGS[draw(st.sampled_from(sorted(_PACKING_RINGS)))]
    field = draw(st.sampled_from([QQ, CoefficientField.prime_field(32003)]))
    R = make_ring(base.names, base.weights, field, base.order)
    coeff = st.integers(-3, 3) if field == QQ else st.integers(0, 32002)
    monos = {d: [m for m in product(range(d + 1), repeat=R.nvars) if R.wdeg(m) == d]
             for d in range(5)}

    def poly(d):
        if not 0 <= d <= 4:
            return R.zero
        terms = draw(st.dictionaries(st.sampled_from(monos[d]), coeff, max_size=3))
        return sum((R.monomial(m, c) for m, c in terms.items()), R.zero)

    def matrix(tgt, src):
        return FreeModuleMap.from_rows(R, [[poly(s - t) for s in src] for t in tgt], tgt, src)

    tgt = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    src = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    shift = draw(st.integers(-1, 1))
    right = matrix([s + shift for s in src], draw(st.lists(st.integers(0, 4), max_size=3)))
    return R, matrix(tgt, src), matrix(tgt, src), right, poly(draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(_packed_algebra_case(), st.data())
def test_packed_matrix_algebra_matches_polynomial_entries(case, data):
    """Over grevlex, weighted grevlex and lex rings and over both fields,
    every matrix operation on packed columns equals the matrix built entry
    by entry with Polynomial arithmetic on the `row` views, and `from_rows`
    gives its rows back."""
    R, a, b, right, p = case

    def rows(m):
        return [list(m.row(r)) for r in range(m.rows)]

    A, B, C = rows(a), rows(b), rows(right)
    assert rows(FreeModuleMap.from_rows(R, A, a.target_twists, a.source_twists)) == A
    assert rows(a.compose(right)) == [
        [sum((A[r][k] * C[k][j] for k in range(a.cols)), R.zero) for j in range(right.cols)]
        for r in range(a.rows)]
    assert rows(a + b) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
    assert rows(a.scaled_by(p)) == [[p * x for x in row] for row in A]
    assert rows(a.transpose()) == [[A[r][c] for r in range(a.rows)] for c in range(a.cols)]
    pick_rows = data.draw(st.permutations(range(a.rows)))[:data.draw(st.integers(0, a.rows))]
    pick_cols = data.draw(st.lists(st.integers(0, a.cols - 1), max_size=4))
    assert rows(a.submatrix(pick_rows, pick_cols)) == [[A[r][c] for c in pick_cols]
                                                       for r in pick_rows]
    zeros = [[R.zero] * m.cols for m in (a, b)]
    assert rows(FreeModuleMap.block([[a, None], [b, a]])) == (
        [ra + zeros[0] for ra in A] + [rb + ra for ra, rb in zip(A, B)])
    name = data.draw(st.sampled_from(R.names))
    for target, assignments in ((R.extended(["T"], [2]), {}),
                                (R.without(name), {name: R.without(name).zero})):
        assert rows(a.map_ring(target, assignments)) == [
            [x.substitute(assignments, target) for x in row] for row in A]


@settings(max_examples=100, deadline=None)
@given(_packed_algebra_case(), st.data())
def test_unchecked_operations_build_what_the_constructor_checks(case, data):
    """compose, transpose, submatrix, block, shifted, unary -, + and the
    entrywise normal form modulo an ideal (`Ideal.reduce`) build their
    result without the constructor's row and degree check of every term.
    Each result equals the matrix the checked constructor rebuilds from its
    parts: a term in a row out of range or of a degree the twists
    forbid raises there, and twists or columns left as a list compare
    unequal."""
    R, a, b, right, p = case
    pick_rows = data.draw(st.permutations(range(a.rows)))[:data.draw(st.integers(0, a.rows))]
    pick_cols = data.draw(st.lists(st.integers(0, a.cols - 1), max_size=4))
    results = [a.compose(right), a.transpose(), a.submatrix(pick_rows, pick_cols),
               FreeModuleMap.block([[a, None], [b, a]]), a.shifted(data.draw(st.integers(-2, 2))),
               -a, a + b, a - b, Ideal(R, [p]).reduce(a)]
    for m in results:
        assert FreeModuleMap(m.ring, m.columns, m.target_twists, m.source_twists) == m


def _lead_elem(eng, lead):
    """A basis element whose vector is its lead term alone."""
    return eng._elem({lead: eng.K.one}, lead)


def _engine_counts(run) -> dict:
    """Engines built, pairs pushed, coprime pairs met (`_record_koszul`
    calls), Koszul syzygies recorded (those calls that append one) and
    vectors reduced into an engine (inputs, S-vectors of the pairs still
    alive when popped, and columns tested by `_Engine.keep`) while `run()`
    runs."""
    counts = {"engines": 0, "pushed": 0, "koszul": 0, "koszul_recorded": 0, "reduced": 0}

    def counted(name, method):
        def wrapper(eng, *args, **kwargs):
            counts[name] += 1
            return method(eng, *args, **kwargs)
        return mock.patch.object(_Engine, method.__name__, wrapper)

    def record_koszul(eng, i, j, method=_Engine._record_koszul):
        counts["koszul"] += 1
        before = len(eng.syzygies)
        method(eng, i, j)
        counts["koszul_recorded"] += len(eng.syzygies) - before

    with counted("engines", _Engine.__init__), counted("pushed", _Engine._push_pair), \
            mock.patch.object(_Engine, "_record_koszul", record_koszul), \
            counted("reduced", _Engine._process), counted("reduced", _Engine.keep):
        run()
    return counts


def test_pair_criteria_queue_a_pinned_number_of_pairs():
    """Resolving the Stanley-Reisner ideal of C(4, 9) by `syzygies` and
    `minimal_column_generators` in turn builds 11 engines, pushes 390 pairs,
    meets 1 coprime pair, whose Koszul syzygy it records, and reduces 877
    vectors.  Running the pair update for one-term vectors in components of
    one-term vectors too meets 3 coprime pairs and records the same one;
    dropping the lcm minimality test pushes 545 pairs and meets 138 coprime
    pairs, dropping the coprime test pushes 379 and meets none, and dropping
    the chain criterion makes 883 reductions."""
    def resolve():
        d = FreeModuleMap.from_rows(sr.ring, [list(minimal_generators(sr))], [0])
        ranks = [d.cols]
        while (ker := syzygies(d)).cols:
            d = minimal_column_generators(ker)
            ranks.append(d.cols)
        assert ranks == [30, 81, 81, 30, 1]

    sr = _sr_ideal(4, 9)
    assert _engine_counts(resolve) == {"engines": 11, "pushed": 390, "koszul": 1,
                                       "koszul_recorded": 1, "reduced": 877}


def test_minimal_free_resolution_prunes_on_the_syzygy_engines():
    """`minimal_free_resolution` of the same ideal builds 7 engines: the
    ideal's Groebner basis, the one its generators, all of one degree, are
    pruned on, and one engine per syzygy step, since no step keeps a column
    past its lowest degree.  They push 237 pairs, meet 1 coprime pair, whose
    Koszul syzygy they record, and reduce 538 vectors.  Running the pair
    update for one-term vectors in components of one-term vectors too meets
    3 coprime pairs; dropping the lcm minimality test pushes 392 pairs and
    meets 138 coprime pairs, dropping the coprime test pushes 238 and meets
    none, and dropping the chain criterion makes 544 reductions."""
    sr = _sr_ideal(4, 9)
    res = []
    counts = _engine_counts(lambda: res.append(minimal_free_resolution(sr)))
    assert complexes.betti(res[0]).totals() == [1, 30, 81, 81, 30, 1]
    assert counts == {"engines": 7, "pushed": 237, "koszul": 1,
                      "koszul_recorded": 1, "reduced": 538}


def test_mixed_degree_steps_prune_on_one_engine():
    """`minimal_free_resolution` of `multidegree_monomial`, whose kernels
    keep columns in up to five degrees, builds 9 engines: the Groebner
    basis, one for pruning the generators, and at most two per syzygy step,
    the pruning engine and, where a higher degree keeps a column, the
    engine of d's syzygies.  They push 21 pairs, meet 6 coprime pairs,
    record a Koszul syzygy for each, and reduce 69 vectors.  Running the
    pair update for one-term vectors in components of one-term vectors too
    meets 18 coprime pairs and records the same 6; dropping the coprime
    test pushes 27 pairs and makes 75 reductions."""
    I = InputFile(str(DATA / "multidegree_monomial.txt")).ideal()
    res = []
    counts = _engine_counts(lambda: res.append(minimal_free_resolution(I)))
    assert complexes.betti(res[0]).totals() == [1, 5, 9, 7, 2]
    assert counts == {"engines": 9, "pushed": 21, "koszul": 6,
                      "koszul_recorded": 6, "reduced": 69}


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["qq", "fp32003"])
def test_unproject_lifts_through_the_engines_that_resolved_c_i(field):
    """One `unproject` of the Segre pair builds 18 engines with phi given
    (23 with the block made a null context: beta's 3 lifts and the
    homotopy's 2 go through C_I's differentials), pushing 46 pairs (70) and
    reducing 110 vectors (149); without phi 20 engines (25), 192 pairs (216)
    and 332 reductions (371), over QQ and GF(32003) alike.  The engine of
    ker(d_2) of C_I, a kernel of rank one, stops at its generator and
    leaves one pair unreduced (112 and 334 reductions when every kernel is
    completed).  Each output equals the one computed with the block a null
    context, differential for differential.  A pool keyed by the matrix's
    shape rather than by the matrix lifts through engines built on other
    columns and raises HypothesisFailed; one keyed by its twists gives the
    same output here but builds 16 engines and records 14 Koszul syzygies
    with phi."""
    want = {True: {"engines": 18, "pushed": 46, "koszul": 28, "koszul_recorded": 26,
                   "reduced": 110},
            False: {"engines": 20, "pushed": 192, "koszul": 37, "koszul_recorded": 20,
                    "reduced": 332}}
    for given_phi in (True, False):
        I, J, phi = _segre_pair(field)     # fresh ideals: no cached Groebner basis
        out = []
        counts = _engine_counts(lambda: out.append(unproject(I, J, phi=phi if given_phi else None)))
        assert counts == want[given_phi]
        with mock.patch.object(km, "shared_engines", contextlib.nullcontext):
            ref = unproject(I, J, phi=phi if given_phi else None)
        assert out[0].complex.diffs == ref.complex.diffs
        assert out[0].beta.components == ref.beta.components
        assert out[0].homotopy == ref.homotopy


def test_seeded_segre_unproject_stops_at_the_rank_one_generator():
    """One `unproject` of the Segre pair over GF(32003) after the coordinate
    change of seed 1 builds 18 engines, pushes 114 pairs and reduces 173
    vectors with phi given, and 20 engines, 492 pairs and 588 reductions
    without.  Completing every kernel, as before the rank-one stop, pushes
    115 and 493 pairs and reduces 181 and 596 vectors: the engine of
    ker(d_2) of C_I stops at its generator in degree 5, and the lifts
    through d_2 complete it only as far as they read."""
    want = {True: {"engines": 18, "pushed": 114, "koszul": 30, "koszul_recorded": 24,
                   "reduced": 173},
            False: {"engines": 20, "pushed": 492, "koszul": 24, "koszul_recorded": 18,
                    "reduced": 588}}
    for given_phi in (True, False):
        I, J, phi = _segre_changed(1)
        assert _engine_counts(lambda: unproject(I, J, phi=phi if given_phi else None)) \
            == want[given_phi]


def test_cyclic_step_lifts_through_the_engines_that_resolved_c_i():
    """`cyclic_resolution(4, 9)` builds 23 engines, pushes 955 pairs and
    reduces 2458 vectors (30, 1066 and 2634 with the block a null context:
    7 of its 12 lifts go through C_I's differentials), and its resolution
    equals the one computed with the block a null context."""
    out = []
    counts = _engine_counts(lambda: out.append(cyclic_resolution(4, 9)))
    assert counts == {"engines": 23, "pushed": 955, "koszul": 17, "koszul_recorded": 8,
                      "reduced": 2458}
    with mock.patch.object(km, "shared_engines", contextlib.nullcontext):
        assert cyclic_resolution(4, 9).diffs == out[0].diffs


# The Gebauer-Moeller update without the early return for one-term vectors
# in components that hold only one-term vectors, kept as the oracle.
def _reference_update_pairs(self, t: int):
    """Gebauer-Moeller update after inserting basis element t.

    A pair of two one-term vectors is never queued: its S-vector is 0,
    and a tracked element always carries its unit."""
    basis = self.basis
    ft = basis[t]
    cf, lt, xt = ft.comp, ft.lm, ft.x
    codec = self.codec
    guards, target, dshift = codec.guards, codec.dtarget, codec.dshift
    exps, flip = codec.exps, codec.flip

    # chain criterion against the pending pairs of the same component;
    # l and lcm(i, t) lie in one component, so they are equal when their
    # exponent fields are, and those of lcm(i, t) are min(x_i, x_t)
    alive = self.alive.get(cf, {})
    dt = lt + dshift
    xtg = xt | guards
    for (i, j), l in list(alive.items()):
        if (dt - l) & guards == target:
            lx = (l & exps) ^ flip
            for k in (i, j):
                d = xtg - basis[k].x
                take = d & guards
                if lx == xt - (d & (take - (take >> _GUARD))):
                    break
            else:
                del alive[(i, j)]

    # the earlier elements of component cf, in index order; t is last
    cands = self.leads[cf][:-1]
    if not cands:
        return
    lcm = self._lcm_with(ft)
    lcm_dict: dict[int, list[int]] = {}
    for _dk, i in cands:
        lcm_dict.setdefault(lcm(basis[i]), []).append(i)
    minimal: list[int] = []
    for l in sorted(lcm_dict):
        for d in minimal:
            if (d - l) & guards == target:
                break
        else:
            minimal.append(l + dshift)
    times_t = lt - codec.base(cf)   # multiplies a term of cf by ft's monomial
    for d in minimal:
        l = d - dshift
        group = lcm_dict[l]
        coprime = [i for i in group
                   if l == basis[i].lm + times_t and basis[i].single and ft.single]
        i = min(group)
        if coprime:
            self._record_koszul(coprime[0], t)
        elif len(basis[i].vec) > 1 or len(ft.vec) > 1:
            self._push_pair(i, t, l)


class _ReferenceEngine(_Engine):
    _update_pairs = _reference_update_pairs


@st.composite
def _pair_update_inputs(draw):
    """Inputs over one of the packing rings, over QQ or GF(32003), in one to
    three components: mostly one-term monomials, some columns of two or
    three terms, each tracked or not, and after each input maybe a bound to
    complete the engine through."""
    base = _PACKING_RINGS[draw(st.sampled_from(sorted(_PACKING_RINGS)))]
    field = draw(st.sampled_from([QQ, GF32003]))
    R = make_ring(base.names, base.weights, field, base.order)
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    coeff = st.integers(1, 3) if field == QQ else st.integers(1, 32002)
    monos = {d: [m for m in product(range(d + 1), repeat=R.nvars) if R.wdeg(m) == d]
             for d in range(4)}
    inputs = []
    for _ in range(draw(st.integers(1, 14))):
        deg = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
            r = draw(st.integers(0, len(twists) - 1))
            terms[r, draw(st.sampled_from(monos[deg - twists[r]]))] = field.coerce(draw(coeff))
        inputs.append((packed(R, terms), draw(st.booleans()),
                       draw(st.sampled_from([None, None, 1, 2, 3, 4]))))
    return R, twists, inputs


@settings(max_examples=200, deadline=None)
@given(_pair_update_inputs())
def test_pair_update_matches_the_full_gebauer_moeller_update(case):
    """The engine keeps the pair heap, the pending pairs and the syzygies of
    an engine that runs the full update on every insert, after every input,
    after every partial completion and after `complete`."""
    R, twists, inputs = case
    engines = [cls(R, len(twists), twists) for cls in (_Engine, _ReferenceEngine)]

    def assert_same_state():
        new, ref = ((eng.pairs, eng.alive, eng.syzygies, [e.vec for e in eng.basis])
                    for eng in engines)
        assert new == ref

    for vec, tracked, bound in inputs:
        for eng in engines:
            eng.add_input(vec, tracked)
        assert_same_state()
        if bound is not None:
            for eng in engines:
                eng.complete_through(bound)
            assert_same_state()
    for eng in engines:
        eng.complete()
    assert_same_state()


def test_hom_kernel_updates_pairs_only_where_a_pair_can_form():
    """cyclic (4, 9)'s Hom kernel, of [S^T | I-blocks] with 846 columns in
    52 components, inserts 863 vectors, 764 of them of one term.  Only 361
    inserts reach the lcms with earlier leads: 811 do with the full update
    on every insert."""
    counts = {"inserts": 0, "lcms": 0}

    def counted(name, method):
        def wrapper(eng, arg):
            counts[name] += 1
            return method(eng, arg)
        return mock.patch.object(_Engine, method.__name__, wrapper)

    real = unproj.projected_syzygies

    def hom_kernel(m, k):
        if m.cols != 846:
            return real(m, k)
        with counted("inserts", _Engine._update_pairs), counted("lcms", _Engine._lcm_with):
            return real(m, k)

    with mock.patch.object(unproj, "projected_syzygies", hom_kernel):
        cyclic_resolution(4, 9)
    assert counts == {"inserts": 863, "lcms": 361}


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
    pack = R._codec.pack
    wmax = max(R.weights)
    below, past = _LEADS_AT_THE_BOUND[kind]
    assert R.wdeg(below) * wmax == (1 << 16) - 1 < R.wdeg(past) * wmax
    others = [(0,) * R.nvars, (1,) * R.nvars, tuple(range(R.nvars)),
              (_EXP_MAX,) + (0,) * (R.nvars - 1), (0,) * (R.nvars - 1) + (_EXP_MAX,)]
    for a, wide in ((below, False), (past, True)):
        ea = _lead_elem(eng, pack(0, a))
        assert ea.wide == wide
        for b in others:
            eb = _lead_elem(eng, pack(0, b))
            assert eng._lcm_with(eb)(ea) == pack(0, tuple(map(max, a, b)))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_exponent_past_the_field_width_raises(order):
    """An exponent above the field width of a packed term raises ValueError
    instead of wrapping into the next field: in an engine input, in an
    S-vector, in a matrix built from rows, and in a product or an entrywise
    scaling of matrices, each of which reaches exactly _EXP_MAX unharmed."""
    R = make_ring(["x", "y"], [1, 1], order=order)
    x, y = R.gens()
    big = x ** _EXP_MAX
    assert normal_form(big, Ideal(R, [y]).groebner()) == big
    with pytest.raises(ValueError, match="exponent above"):
        Ideal(R, [x * big]).groebner()
    # the S-vector of x^M - y^M and x*y holds y^(M+1)
    with pytest.raises(ValueError, match="exponent above"):
        Ideal(R, [big - y ** _EXP_MAX, x * y]).groebner()
    with pytest.raises(ValueError, match="exponent above"):
        FreeModuleMap.from_rows(R, [[x * big]])
    at = FreeModuleMap.from_rows(R, [[big, y ** _EXP_MAX]])
    below = FreeModuleMap.from_rows(R, [[x ** (_EXP_MAX - 1), y ** (_EXP_MAX - 1)]])
    times_x = FreeModuleMap.from_rows(R, [[x], [R.zero]], [_EXP_MAX - 1] * 2)
    assert dense(below.compose(times_x)) == ((big,),)
    with pytest.raises(ValueError, match="exponent above"):
        at.compose(times_x)
    assert dense(below.scaled_by(y)) == ((x ** (_EXP_MAX - 1) * y, y ** _EXP_MAX),)
    with pytest.raises(ValueError, match="exponent above"):
        at.scaled_by(y)


_PACKAGE = Path(__file__).parents[1] / "src" / "kustinmiller"


def _named_outside(names, owners) -> list[str]:
    """`file:line: name` for each use of one of `names`, as a name, an
    attribute or an imported name, in the package modules not in `owners`."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in used if n in names]
    return found


def _private_members(module: str) -> set[str]:
    """The underscore names, not dunders, that a package module defines: a
    module-level name, a function, a class, a method or an attribute."""
    tree = ast.parse((_PACKAGE / module).read_text())
    names = {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
             for t in stmt.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_only_gb_names_the_engine():
    """No module of the package but gb names `_Engine` or any other
    underscore member of gb (a module-level name, a method or an attribute
    defined there): gb alone builds and drives the Groebner engine, and the
    other modules reach it through gb's public operations.  rings, which gb
    imports, is below it and never names gb."""
    private = _private_members("gb.py")
    assert {"_Engine", "_Elem", "_reduce", "_engine"} <= private
    assert _named_outside(private, {"gb.py", "rings.py"}) == []
    assert "gb" not in {node.module.split(".")[-1] for node in ast.walk(
        ast.parse((_PACKAGE / "rings.py").read_text())) if isinstance(node, ast.ImportFrom)}


def test_only_rings_and_gb_name_private_members_of_rings():
    """No module of the package but rings and gb names an underscore member
    of rings, such as `PolyRing._index`: the other modules read rings
    through its public names."""
    private = _private_members("rings.py")
    assert {"_index", "_codec", "_TermCodec", "_Parser"} <= private
    assert _named_outside(private, {"gb.py", "rings.py"}) == []


def test_only_rings_and_gb_read_packed_terms():
    """The packed term format is private to rings and gb: no other module
    names the codec or its constants, or reads `FreeModuleMap.columns` or
    `Polynomial.terms`, whose keys are packed terms, or calls `mkey`, the
    order on exponent tuples that tests keep as a reference.  They build
    polynomials with `var`, `monomial` and `constant` and read them with
    `sorted_terms`, `lead_monomial` and `str`; they build matrices with
    `from_rows` and `from_columns`, and read them with `entry`, `row`,
    `column`, `nonzero_columns` and `unit_entry`."""
    from kustinmiller import rings
    codec = {"_codec", "_TermCodec", "_muladd_kernel", "_too_large",
             "_FIELD", "_GUARD", "_EXP_MAX", "_WMASK"}
    assert all(hasattr(rings, n) for n in codec - {"_codec"})
    assert {"terms", "mkey"} <= {n for c in (rings.Polynomial, rings.PolyRing)
                                 for n in c.__slots__}
    assert _named_outside(codec | {"columns", "terms", "mkey"}, {"gb.py", "rings.py"}) == []
