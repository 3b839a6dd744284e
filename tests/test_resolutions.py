"""Pfaffians, Buchsbaum-Eisenbud complexes, Koszul complexes, resolutions."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kustinmiller import Ideal, ideal_equal, make_ring
from kustinmiller.complexes import betti, verify_complex, verify_resolution
from kustinmiller.resolutions import (SkewMatrix, buchsbaum_eisenbud_complex,
                                      koszul_complex, minimal_free_resolution,
                                      pfaffian)

GOLDEN_PFAFFIANS = [
    "z_2*z_3 - z_1*z_4",
    "-x_4*z_3 + x_3*z_4",
    "x_4*z_1 - x_3*z_2",
    "x_2*z_2 - x_1*z_4",
    "-x_2*z_1 + x_1*z_3",
]


def _pfaffian_by_matchings(entries):
    """Independent oracle: signed sum over perfect matchings.

    The sign is that of the permutation (i1 j1 i2 j2 ...) obtained by writing
    the matching with i < j inside pairs and sorted by first element.
    """
    n = len(entries)
    assert n % 2 == 0
    idx = list(range(n))

    def matchings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k, second in enumerate(rest):
            for m in matchings(rest[:k] + rest[k + 1:]):
                yield [(first, second)] + m

    def perm_sign(perm):
        inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                  if perm[a] > perm[b])
        return -1 if inv % 2 else 1

    ring = entries[0][0].ring if hasattr(entries[0][0], "ring") else None
    total = ring.zero if ring else 0
    for m in matchings(idx):
        flat = [v for pair in m for v in pair]
        prod = ring.one if ring else 1
        for i, j in m:
            prod = prod * entries[i][j]
        term = prod if perm_sign(flat) > 0 else -prod
        total = total + term
    return total


def _det(entries, ring):
    n = len(entries)
    if n == 0:
        return ring.one
    out = ring.zero
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        sub = _det(minor, ring)
        term = entries[0][j] * sub
        out = out + (term if j % 2 == 0 else -term)
    return out


def test_pfaffian_2x2():
    R = make_ring(["c"], [1])
    c = R.var("c")
    m = SkewMatrix(R, [[R.zero, c], [-c, R.zero]])
    assert pfaffian(m) == c


def test_pfaffian_4x4_closed_form():
    R = make_ring(list("abcdef"), [1] * 6)
    a, b, c, d, e, f = R.gens()
    z = R.zero
    m = SkewMatrix(R, [
        [z, a, b, c],
        [-a, z, d, e],
        [-b, -d, z, f],
        [-c, -e, -f, z]])
    assert pfaffian(m) == a * f - b * e + c * d
    assert pfaffian(m) == _pfaffian_by_matchings(m.entries)


def test_pfaffian_submatrix_of_b2(b2, segre_ring):
    sub = b2.delete((0,))
    assert str(pfaffian(sub)) == "z_2*z_3 - z_1*z_4"


def test_pfaffian_odd_and_nonskew_rejected():
    R = make_ring(["a"], [1])
    a = R.var("a")
    with pytest.raises(ValueError):
        pfaffian(SkewMatrix(R, [[R.zero]]))
    with pytest.raises(ValueError):
        SkewMatrix(R, [[R.zero, a], [a, R.zero]])


def test_pfaffian_squares_to_determinant_random():
    rng = random.Random(17)
    R = make_ring(["t"], [1])
    for n in (2, 4, 6):
        for _ in range(8):
            ent = [[R.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = R.constant(Fraction(rng.randint(-5, 5)))
                    ent[i][j] = c
                    ent[j][i] = -c
            m = SkewMatrix(R, ent)
            pf = pfaffian(m)
            assert pf * pf == _det(ent, R)
            assert pf == _pfaffian_by_matchings(ent)


def test_resbe_golden(c_i):
    assert [str(e) for e in c_i.differential(1).row(0)] == GOLDEN_PFAFFIANS
    assert betti(c_i).totals() == [1, 5, 5, 1]
    assert verify_complex(c_i)


def test_resbe_3x3():
    R = make_ring(["a", "b", "c"], [1, 1, 1])
    a, b, c = R.gens()
    z = R.zero
    m = SkewMatrix(R, [[z, a, b], [-a, z, c], [-b, -c, z]])
    C = buchsbaum_eisenbud_complex(m)
    assert [str(e) for e in C.differential(1).row(0)] == ["c", "-b", "a"]
    assert verify_complex(C)


def test_resbe_generic_5x5():
    R = make_ring([f"y_{i}" for i in range(10)], [1] * 10)
    gens = R.gens()
    ent = [[R.zero] * 5 for _ in range(5)]
    k = 0
    for i in range(5):
        for j in range(i + 1, 5):
            ent[i][j] = gens[k]
            ent[j][i] = -gens[k]
            k += 1
    m = SkewMatrix(R, ent)
    C = buchsbaum_eisenbud_complex(m)
    assert C.differential(1).compose(C.differential(2)).is_zero()
    # cross-check all five signed Pfaffians against the matching-sum oracle
    for i in range(5):
        keep = [r for r in range(5) if r != i]
        sub = [[ent[r][c] for c in keep] for r in keep]
        oracle = _pfaffian_by_matchings(sub)
        got = C.differential(1).entry(0, i)
        assert got == (oracle if i % 2 == 0 else -oracle)


def test_resbe_rejects_even_size():
    R = make_ring(["a"], [1])
    a = R.var("a")
    m = SkewMatrix(R, [[R.zero, a], [-a, R.zero]])
    with pytest.raises(ValueError):
        buchsbaum_eisenbud_complex(m)


def test_resbe_self_dual_betti(c_i):
    totals = betti(c_i).totals()
    assert totals == totals[::-1]


def test_koszul_ranks(segre_ring):
    C = koszul_complex([segre_ring.var(f"z_{i}") for i in range(1, 5)])
    assert betti(C).totals() == [1, 4, 6, 4, 1]
    assert verify_complex(C)


def test_koszul_single_element():
    R = make_ring(["x"], [1])
    C = koszul_complex([R.var("x")])
    assert C.length == 1
    assert C.twists == ((0,), (1,))


def test_koszul_pair_differential():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    C = koszul_complex([x, y])
    d2 = C.differential(2)
    assert [str(d2.entry(0, 0)), str(d2.entry(1, 0))] == ["-y", "x"]


def test_minimal_free_resolution_koszul_shape(segre_ring):
    I = Ideal(segre_ring, [segre_ring.var(f"z_{i}") for i in range(1, 5)])
    C = minimal_free_resolution(I)
    assert betti(C).totals() == [1, 4, 6, 4, 1]
    assert verify_resolution(C, I)


def test_minimal_free_resolution_zero_ideal():
    R = make_ring(["x"], [1])
    C = minimal_free_resolution(Ideal(R, []))
    assert C.length == 0 and C.twists == ((0,),)


def test_minimal_free_resolution_pentagon(pentagon_skew):
    R = pentagon_skew.ring
    P = R.parse
    pentagon = Ideal(R, [P("x_1*x_3"), P("x_1*x_4"), P("x_2*x_4"),
                         P("x_2*x_5"), P("x_3*x_5")])
    C = minimal_free_resolution(pentagon)
    assert betti(C).totals() == [1, 5, 5, 1]
    assert verify_resolution(C, pentagon)
    # cross-check against the Pfaffian presentation of the same ideal
    BE = buchsbaum_eisenbud_complex(pentagon_skew)
    assert ideal_equal(Ideal(R, list(BE.differential(1).row(0))), pentagon)
    assert betti(BE) == betti(C)


def test_gorenstein_palindromic_betti_corpus(segre_ring, ideal_i):
    R6 = make_ring([f"x_{i}" for i in range(1, 7)], [1] * 6)
    octa = Ideal(R6, [R6.parse("x_1*x_2"), R6.parse("x_3*x_4"), R6.parse("x_5*x_6")])
    for I in (ideal_i, octa):
        totals = betti(minimal_free_resolution(I)).totals()
        assert totals == totals[::-1]
