"""Groebner engine: bases, normal forms, syzygies, lifting, colon ideals."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kustinmiller import (LEX, QQ, CoefficientField, FreeModuleMap, Ideal, NotLiftable,
                          groebner, ideal_equal, ideal_quotient, lift_through, make_ring,
                          normal_form, syzygies)
from kustinmiller.gb import _Engine, minimal_column_generators, projected_syzygies

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
    return all(not eng.has_value(eng.reduce(v)) for v in members)


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
    """Reference for `_Engine.keep_independent`: run the whole pair queue
    after every kept vector."""
    eng = _Engine(m.ring, m.rows, m.target_twists)
    kept = []
    for i, vec in enumerate(vecs):
        r = eng.reduce(vec)
        if eng.has_value(r):
            kept.append(i)
            eng._insert(r)
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
    eng = _Engine(m.ring, m.rows, m.target_twists)
    order = sorted((c for c in range(m.cols) if m.columns[c]),
                   key=lambda c: (m.source_twists[c], eng._negkey(*eng.lead(m.columns[c]))))
    kept = _kept_by_full_completion(m, [m.columns[c] for c in order])
    assert minimal_column_generators(m) == m.submatrix(range(m.rows), [order[i] for i in kept])
    assert (eng.keep_independent(list(m.columns))
            == _kept_by_full_completion(m, list(m.columns)))
