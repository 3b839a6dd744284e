"""Ring construction, exact arithmetic, parsing and grading."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kustinmiller import (GREVLEX, LEX, QQ, CoefficientField, FreeModuleMap,
                          Polynomial, make_ring)
from kustinmiller.rings import PRIME_BOUND, _is_prime

from conftest import dense


def test_make_ring_eta_eight_variables(segre_ring):
    assert segre_ring.eta == 8
    assert segre_ring.nvars == 8


def test_make_ring_smallest():
    R = make_ring(["x"], [1])
    assert R.eta == 1


def test_make_ring_weighted_eta():
    R = make_ring(["x", "y", "z"], [1, 2, 3])
    assert R.eta == 6


def test_make_ring_errors():
    with pytest.raises(ValueError):
        make_ring(["x", "x"], [1, 1])
    with pytest.raises(ValueError):
        make_ring(["x"], [0])
    with pytest.raises(ValueError):
        make_ring(["x"], [-2])
    with pytest.raises(ValueError):
        make_ring([], [])
    with pytest.raises(ValueError):
        CoefficientField.prime_field(6)


def test_prime_field_large_characteristic():
    import time
    t0 = time.perf_counter()
    F = CoefficientField.prime_field(10**18 + 3)
    assert time.perf_counter() - t0 < 1
    assert F.mul(F.inv(12345), 12345) == 1
    # composites: 10^18 + 1, a Carmichael number, and a strong pseudoprime
    # to every prime base up to 37
    for n in (10**18 + 1, 561, 318665857834031151167461):
        with pytest.raises(ValueError, match="must be prime"):
            CoefficientField.prime_field(n)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        CoefficientField.prime_field(2**89 - 1)   # a prime above the bound
    assert [n for n in range(60) if _is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_field_arithmetic():
    F = CoefficientField.prime_field(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    R = make_ring(["x", "y"], [1, 1], field=F)
    p = R.parse("3*x + 5*x")
    assert str(p) == "x"


_rationals = st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**12))


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals)
def test_rational_field_matches_fraction_arithmetic(a, b):
    x, y = QQ.coerce(a), QQ.coerce(b)
    assert x == a and y == b
    assert QQ.add(x, y) == Fraction(a) + Fraction(b)
    assert QQ.mul(x, y) == Fraction(a) * Fraction(b)
    assert QQ.neg(x) == -Fraction(a)
    if a:
        assert QQ.inv(x) == 1 / Fraction(a)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
       st.fractions(max_denominator=10**12))
def test_prime_field_matches_modular_arithmetic(m, n, q):
    p = 32003
    F = CoefficientField.prime_field(p)
    a, b = F.coerce(m), F.coerce(n)
    assert (a, b) == (m % p, n % p)
    assert F.add(a, b) == (m + n) % p
    assert F.mul(a, b) == (m * n) % p
    assert F.neg(a) == -m % p
    if a:
        assert F.inv(a) == pow(m, -1, p)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
    if q.denominator % p:
        assert F.coerce(q) == q.numerator * pow(q.denominator, -1, p) % p
    else:
        with pytest.raises(ZeroDivisionError):
            F.coerce(q)


def test_rational_coefficients_are_ints_when_integral():
    for x in (0, 7, -3, Fraction(6, 3), Fraction(-4, 1), True):
        c = QQ.coerce(x)
        assert type(c) is int and c == x
    assert type(QQ.coerce(Fraction(1, 2))) is Fraction
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(4) == Fraction(1, 4)
    assert type(QQ.zero) is int and type(QQ.one) is int
    R = make_ring(["x"], [1])
    assert all(type(c) is int for c in R.parse("3*x^2 - x + 4/2").terms.values())


def test_int_and_integral_fraction_coefficients_agree():
    """A QQ coefficient may be an int or a Fraction with denominator 1, as
    arithmetic leaves it; both give the same polynomial and the same text."""
    R = make_ring(["x", "y"], [1, 1])
    ints = Polynomial(R, {(1, 0): 2, (0, 1): -1, (0, 0): 1})
    fracs = Polynomial(R, {(1, 0): Fraction(2), (0, 1): Fraction(-1), (0, 0): Fraction(1)})
    assert ints == fracs
    assert hash(ints) == hash(fracs)
    assert str(ints) == str(fracs) == "2*x - y + 1"
    halved = R.parse("1/2*x") * R.constant(2)
    assert type(halved.terms[(1, 0)]) is Fraction
    assert halved == R.var("x") and hash(halved) == hash(R.var("x")) and str(halved) == "x"
    m_ints = FreeModuleMap(R, [{(0, (1, 0)): 2, (1, (0, 1)): -1}], [0, 0], [1])
    m_fracs = FreeModuleMap(R, [{(0, (1, 0)): Fraction(2), (1, (0, 1)): Fraction(-1)}],
                            [0, 0], [1])
    assert m_ints == m_fracs
    assert ([str(e) for row in dense(m_ints) for e in row]
            == [str(e) for row in dense(m_fracs) for e in row] == ["2*x", "-y"])


def test_poly_arith_cancellation(segre_ring):
    p = segre_ring.parse("x_1*x_3")
    assert (p - p).is_zero()


def test_poly_arith_pfaffian_entry_stays_two_terms(segre_ring):
    p = segre_ring.parse("z_2*z_3")
    q = segre_ring.parse("z_1*z_4")
    r = p - q
    assert len(r.terms) == 2
    assert str(r) == "z_2*z_3 - z_1*z_4"


def test_poly_arith_difference_of_squares():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_poly_arith_ring_mismatch():
    R1 = make_ring(["x"], [1])
    R2 = make_ring(["y"], [1])
    with pytest.raises(ValueError):
        R1.var("x") + R2.var("y")


def test_substitute_kills_variable():
    R = make_ring(["z", "x", "y"], [1, 1, 1])
    p = R.parse("z*x + x*y")
    small = make_ring(["x", "y"], [1, 1])
    q = p.substitute({"z": small.zero}, small)
    assert str(q) == "x*y"


def test_substitute_identity():
    R = make_ring(["x", "y"], [1, 1])
    p = R.parse("x^2 - 3*y^2")
    assert p.substitute({}, R) == p


def test_substitute_rename_new_variable():
    # the driver convention: the adjoined variable becomes the last vertex
    R = make_ring(["x_1", "x_2", "T"], [1, 1, 1])
    target = make_ring(["x_1", "x_2", "x_3"], [1, 1, 1])
    p = R.parse("T*x_1 - x_2^2")
    q = p.substitute({"T": target.var("x_3")}, target)
    assert q == target.parse("x_3*x_1 - x_2^2")


def test_substitute_unmapped_variable_error():
    R = make_ring(["x", "y"], [1, 1])
    small = make_ring(["x"], [1])
    with pytest.raises(ValueError):
        R.parse("x + y").substitute({}, small)


# -- ring changes: the exponent remap against a term-by-term expansion --------


def _expand_image(p, target, assignments):
    """Reference image of p: each term rebuilt as a product of target.var(...)
    (or of its assignment), one factor per unit of exponent."""
    out = target.zero
    for mono, c in p.terms.items():
        t = target.constant(c)
        for name, e in zip(p.ring.names, mono):
            img = assignments[name] if name in assignments else target.var(name)
            for _ in range(e):
                t = t * img
        out = out + t
    return out


def _monomials(weights, d):
    """Exponent tuples of weighted degree d."""
    if not weights:
        return [()] if d == 0 else []
    return [(e,) + rest for e in range(d // weights[0] + 1)
            for rest in _monomials(weights[1:], d - e * weights[0])]


def _matrix(draw, R, coeff, tgt_tw, src_tw):
    """A random homogeneous matrix over R with the given twists."""
    rows = []
    for t in tgt_tw:
        row = []
        for s in src_tw:
            monos = _monomials(R.weights, s - t) if s >= t else []
            terms = draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=4)
                         if monos else st.just({}))
            row.append(sum((R.monomial(m, c) for m, c in terms.items()), R.zero))
        rows.append(row)
    return FreeModuleMap.from_rows(R, rows, tgt_tw, src_tw)


@st.composite
def _ring_change(draw):
    """Random homogeneous matrices over QQ or GF(32003) in x, y, z, and a
    ring map that appends a variable or sends one variable to zero.

    Returns a namespace: `m`; `n` with m's twists; `b`, whose target twists
    are m's source twists shifted by `b_shift`, so m.compose(b) is defined;
    a homogeneous polynomial `p` (possibly zero); and the ring map
    (`target`, `assignments`).
    """
    field = draw(st.sampled_from([QQ, CoefficientField.prime_field(32003)]))
    R = make_ring(["x", "y", "z"], draw(st.lists(st.integers(1, 2), min_size=3, max_size=3)),
                  field)
    coeff = st.integers(-5, 5) if field == QQ else st.integers(0, 32002)
    tgt_tw = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    src_tw = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    m = _matrix(draw, R, coeff, tgt_tw, src_tw)
    n = _matrix(draw, R, coeff, tgt_tw, src_tw)
    b_shift = draw(st.integers(-1, 1))
    b = _matrix(draw, R, coeff, [s + b_shift for s in src_tw],
                draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    p = _matrix(draw, R, coeff, [0], [draw(st.integers(0, 2))]).entry(0, 0)
    if draw(st.booleans()):
        target = R.extended(["T"], [draw(st.integers(1, 3))])
        assignments = {}
    else:
        name = draw(st.sampled_from(R.names))
        target = R.without(name)
        assignments = {name: target.zero}
    return SimpleNamespace(m=m, n=n, b=b, b_shift=b_shift, p=p, target=target,
                           assignments=assignments)


@settings(max_examples=120, deadline=None)
@given(_ring_change())
def test_remap_matches_term_expansion(case):
    m, target, assignments = case.m, case.target, case.assignments
    out = m.map_ring(target, assignments)
    assert out.ring == target
    assert (out.target_twists, out.source_twists) == (m.target_twists, m.source_twists)
    for row, out_row in zip(dense(m), dense(out)):
        for e, got in zip(row, out_row):
            want = _expand_image(e, target, assignments)
            assert got == want == e.substitute(assignments, target)
            assert list(got.terms.items()) == list(want.terms.items())  # same term order


def _dense_equal(mat, rows, target_twists, source_twists):
    """mat has exactly these dense rows and twists."""
    return (dense(mat) == tuple(tuple(r) for r in rows)
            and mat.target_twists == tuple(target_twists)
            and mat.source_twists == tuple(source_twists))


@settings(max_examples=120, deadline=None)
@given(_ring_change(), st.data())
def test_sparse_core_matches_dense_reference(case, data):
    """Every matrix operation agrees with entrywise Polynomial arithmetic
    over the dense rows."""
    m, n, b, p = case.m, case.n, case.b, case.p
    R = m.ring
    A, N, B = (list(map(list, dense(x))) for x in (m, n, b))
    tt, st_ = m.target_twists, m.source_twists
    ref = [[sum((A[r][k] * B[k][c] for k in range(m.cols)), R.zero) for c in range(b.cols)]
           for r in range(m.rows)]
    assert _dense_equal(m.compose(b), ref, tt, [s - case.b_shift for s in b.source_twists])
    assert _dense_equal(m.transpose(), [[A[r][c] for r in range(m.rows)] for c in range(m.cols)],
                        [-s for s in st_], [-t for t in tt])
    assert _dense_equal(m + n, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, N)], tt, st_)
    assert _dense_equal(m - n, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, N)], tt, st_)
    assert _dense_equal(-m, [[-x for x in row] for row in A], tt, st_)
    d = p.homogeneous_degree() if p else 0
    assert _dense_equal(m.scaled_by(p), [[p * x for x in row] for row in A], tt,
                        [s + d for s in st_])
    assert _dense_equal(FreeModuleMap.block([[m, n], [n, m]]),
                        [ra + rb for ra, rb in zip(A, N)] + [rb + ra for ra, rb in zip(A, N)],
                        tt + tt, st_ + st_)
    zeros = [[R.zero] * k for k in (m.cols, n.cols)]
    assert _dense_equal(FreeModuleMap.block([[m, None], [None, n]]),
                        [ra + zeros[1] for ra in A] + [zeros[0] + rb for rb in N],
                        tt + tt, st_ + st_)
    for grid in ([[m, None], [None, None]], [[m, None], [n, None]]):
        with pytest.raises(ValueError, match="made only of None"):
            FreeModuleMap.block(grid)
    rows = data.draw(st.permutations(range(m.rows)).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda k: perm[:k])))
    cols = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=4))
    assert _dense_equal(m.submatrix(rows, cols), [[A[r][c] for c in cols] for r in rows],
                        [tt[r] for r in rows], [st_[c] for c in cols])
    assert _dense_equal(m.shifted(3), A, [t + 3 for t in tt], [s + 3 for s in st_])
    image = m.map_ring(case.target, case.assignments)
    assert _dense_equal(image, [[x.substitute(case.assignments, case.target) for x in row]
                                for row in A], tt, st_)
    assert m.is_zero() == all(x.is_zero() for row in A for x in row)
    assert (m == n) == (A == N)
    assert m == FreeModuleMap.from_rows(R, A, tt, st_)
    assert m != m.shifted(1)


def test_matrix_constructors_reject_bad_input():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    good = {(0, (1, 0)): 1, (1, (0, 1)): 2}
    assert dense(FreeModuleMap(R, [good], [0, 0], [1])) == ((x,), (2 * y,))
    with pytest.raises(ValueError, match="degree"):
        FreeModuleMap(R, [{(0, (2, 0)): 1}], [0], [1])       # x^2 where degree 1 is due
    with pytest.raises(ValueError, match="out of range"):
        FreeModuleMap(R, [{(1, (1, 0)): 1}], [0], [1])       # row 1 of a one-row map
    with pytest.raises(ValueError, match="column count"):
        FreeModuleMap(R, [good, good], [0, 0], [1])
    other = make_ring(["x", "y"], [1, 1], CoefficientField.prime_field(7))
    with pytest.raises(ValueError, match="different ring"):
        FreeModuleMap.from_rows(R, [[x, other.var("y")]])
    with pytest.raises(ValueError, match="different lengths"):
        FreeModuleMap.from_rows(R, [[x, y], [x]], [0, 0])
    with pytest.raises(ValueError, match="inhomogeneous"):
        FreeModuleMap.from_rows(R, [[x + y * y]])


def test_ring_change_errors_and_nonzero_assignment():
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    small = R.without("z")
    p = R.parse("x*z + y^2")
    m = FreeModuleMap.from_rows(R, [[p, R.var("x")]])
    other = make_ring(["x", "y"], [1, 1], CoefficientField.prime_field(7))
    bad = [
        (other, {"z": other.zero}),                    # field change
        (small, {"z": R.zero}),                        # assignment in the wrong ring
        (small, {}),                                   # z unassigned, absent from target
    ]
    for target, assignments in bad:
        with pytest.raises(ValueError):
            p.substitute(assignments, target)
        with pytest.raises(ValueError):
            m.map_ring(target, assignments)
    # a nonzero assignment is a true substitution, which only
    # Polynomial.substitute applies; map_ring is an exponent remap
    x, y = small.gens()
    assert p.substitute({"z": x - y}, small) == small.parse("x^2 - x*y + y^2")
    with pytest.raises(ValueError, match="Polynomial.substitute"):
        m.map_ring(small, {"z": x - y})


def test_canonical_text_example(segre_ring):
    p = segre_ring.parse("z_2*z_3-z_1*z_4")
    assert str(p) == "z_2*z_3 - z_1*z_4"
    assert segre_ring.parse(str(p)) == p


def test_parse_fraction_coefficients():
    R = make_ring(["x", "y"], [1, 1])
    p = R.parse("3/2*x^2 - 1/3*y^2 + x*y")
    assert p.terms[(2, 0)] == Fraction(3, 2)
    assert p.terms[(0, 2)] == Fraction(-1, 3)


def test_parse_implicit_multiplication():
    R = make_ring(["x", "y"], [1, 1])
    assert R.parse("2x y") == R.parse("2*x*y")
    assert R.parse("(x + y)^2") == R.parse("x^2 + 2*x*y + y^2")


def _random_poly(R, rng, max_deg=3, max_terms=5):
    gens = R.gens()
    p = R.zero
    for _ in range(rng.randint(1, max_terms)):
        t = R.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_deg)):
            t = t * gens[rng.randrange(len(gens))]
        p = p + t
    return p


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_parse_print_roundtrip(seed):
    rng = random.Random(seed)
    R = make_ring(["x", "y", "z"], [1, 2, 1], order=GREVLEX if seed % 2 else LEX)
    p = _random_poly(R, rng)
    assert R.parse(str(p)) == p


def test_homogeneous_product_degree():
    R = make_ring(["x", "y", "z"], [1, 2, 3])
    rng = random.Random(11)
    monos = list(combinations_with_replacement(range(3), 2))
    for _ in range(100):
        gens = R.gens()
        p = R.zero
        for i, j in rng.sample(monos, 2):
            p = p + gens[i] * gens[j] * R.constant(rng.randint(1, 5))
        # p is a sum of degree-2 products of weighted variables: need same wdeg
        if not p.is_homogeneous() or p.is_zero():
            continue
        q = R.var("z")
        assert (p * q).homogeneous_degree() == p.homogeneous_degree() + 3


def test_distributivity_random_triples():
    R = make_ring(["x", "y"], [1, 1])
    rng = random.Random(5)
    for _ in range(1000):
        a = _random_poly(R, rng, max_deg=2, max_terms=3)
        b = _random_poly(R, rng, max_deg=2, max_terms=3)
        c = _random_poly(R, rng, max_deg=2, max_terms=3)
        assert a * (b + c) == a * b + a * c


def test_monomial_order_total_and_multiplicative():
    R = make_ring(["x", "y", "z"], [1, 1, 1])
    monos = list(combinations_with_replacement(range(3), 0)) + \
        list(combinations_with_replacement(range(3), 1)) + \
        list(combinations_with_replacement(range(3), 2))

    def as_exp(c):
        e = [0, 0, 0]
        for i in c:
            e[i] += 1
        return tuple(e)

    exps = [as_exp(c) for c in monos]
    keys = [R.mkey(e) for e in exps]
    assert len(set(keys)) == len(keys)  # total on distinct monomials
    # multiplicative: a > b implies a + c > b + c
    for a in exps:
        for b in exps:
            if R.mkey(a) > R.mkey(b):
                for c in exps:
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert R.mkey(ac) > R.mkey(bc)


def test_grevlex_refines_weighted_degree():
    R = make_ring(["x", "y"], [1, 3])
    assert R.mkey((0, 1)) > R.mkey((2, 0))  # wdeg 3 beats wdeg 2
