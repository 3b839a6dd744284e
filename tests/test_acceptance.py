"""Acceptance criteria: golden transcripts, exact identities, oracle
equivalences and the randomized property suites.

Each test prints one pass line with its measured runtime; every comparison
is exact (symbolic equality), with wall-clock ceilings where stated.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from kustinmiller import (FreeModuleMap, Ideal, CoefficientField,
                          ideal_equal, lift_through, make_ring, normal_form)
from kustinmiller.complexes import betti, dualize, minimize, verify_complex, verify_resolution
from kustinmiller.km import compute_alpha, compute_beta, compute_homotopy, deg_T, km_input, kustin_miller_complex
from kustinmiller.resolutions import (SkewMatrix, buchsbaum_eisenbud_complex,
                                      koszul_complex, minimal_free_resolution,
                                      pfaffian)
from kustinmiller.simplicial import (cyclic_polytope_boundary, cyclic_resolution,
                                     stanley_reisner_ideal, stellar_resolution,
                                     stellar_subdivide)
from kustinmiller.unproj import hom_module, select_phi, unprojection_data_from_lifts

from conftest import dense

O3_GRID = """\
       0 1 2 3
total: 1 5 5 1
    0: 1 . . .
    1: . 5 5 .
    2: . . . 1"""

O6_GRID = """\
       0 1 2 3 4
total: 1 4 6 4 1
    0: 1 4 6 4 1"""

O7_GRID = """\
       0 1  2 3 4
total: 1 9 16 9 1
    0: 1 .  . . .
    1: . 9 16 9 .
    2: . .  . . 1"""


def _report(n, label, t0, limit=None):
    dt = time.monotonic() - t0
    if limit is not None:
        assert dt < limit, f"criterion {n} exceeded its {limit}s budget: {dt:.1f}s"
    print(f"criterion {n}: PASS ({label}, {dt:.2f}s)")


def _octahedron_pair():
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, 7)], [1] * 7)
    P = R.parse
    I = Ideal(R, [P("x_1*x_2"), P("x_3*x_4"), P("x_5*x_6")])
    J = Ideal(R, [R.var("z"), R.var("x_2"), R.var("x_4"), R.var("x_6")])
    return R, I, J


B2_ROWS = [
    ["0", "x_1", "x_2", "x_3", "x_4"],
    ["-x_1", "0", "0", "z_1", "z_2"],
    ["-x_2", "0", "0", "z_3", "z_4"],
    ["-x_3", "-z_1", "-z_3", "0", "0"],
    ["-x_4", "-z_2", "-z_4", "0", "0"],
]


def test_criterion_1_golden_pipeline():
    t0 = time.monotonic()
    R = make_ring([f"x_{i}" for i in range(1, 5)] + [f"z_{i}" for i in range(1, 5)],
                  [1] * 8)
    P = R.parse
    b2 = SkewMatrix(R, [[P(e) for e in row] for row in B2_ROWS])
    ci = buchsbaum_eisenbud_complex(b2)
    cj = koszul_complex([R.var(f"z_{i}") for i in range(1, 5)])
    assert betti(ci).render() == O3_GRID
    assert betti(cj).render() == O6_GRID
    I = Ideal(R, list(ci.differential(1).row(0)))
    J = Ideal(R, list(cj.differential(1).row(0)))
    data = select_phi(hom_module(J, I), I, J, deg_T(ci, cj), t_name="T")
    out = kustin_miller_complex(km_input(ci, cj, data))
    assert betti(out.complex).render() == O7_GRID
    _report(1, "golden Betti grids from the transcribed matrix", t0, limit=10)


def test_criterion_2_golden_differentials(km_out, c_i, c_j):
    t0 = time.monotonic()
    big = km_out.complex.ring
    f1 = km_out.complex.differential(1)
    expected = [
        "z_2*z_3 - z_1*z_4", "-x_4*z_3 + x_3*z_4", "x_4*z_1 - x_3*z_2",
        "x_2*z_2 - x_1*z_4", "-x_2*z_1 + x_1*z_3",
        "-x_1*x_3 + z_1*T", "-x_1*x_4 + z_2*T",
        "-x_2*x_3 + z_3*T", "-x_2*x_4 + z_4*T",
    ]
    for got, want in zip(f1.row(0), [big.parse(e) for e in expected]):
        assert got == want or got == -want
    f2 = km_out.complex.differential(2)
    b2 = c_i.differential(2).map_ring(big)
    a2 = c_j.differential(2).map_ring(big)
    t_mono = tuple([0] * 8 + [1])
    for r in range(5):
        for c in range(5):
            assert f2.entry(r, c) == b2.entry(r, c)              # b_2 upper left
    for r in range(5, 9):
        for c in range(5):
            assert f2.entry(r, c).is_zero()                      # zero lower left
    for r in range(5):
        for c in range(5):
            coeff = f2.entry(r, 11 + c).terms.get(t_mono)        # T identity block
            assert (coeff == big.field.one) if r == c else (coeff is None)
    for r in range(4):
        for c in range(6):
            assert f2.entry(5 + r, 5 + c) == -a2.entry(r, c)
    _report(2, "printed first and second differentials", t0)


def test_criterion_3_complex_and_homotopy_identities(c_i, c_j, segre_data, km_out):
    t0 = time.monotonic()
    corpus = [c_i, c_j, km_out.complex, dualize(c_i), dualize(c_j)]
    # octahedron stellar instance, built at the operation level
    R, I, J = _octahedron_pair()
    ci2 = minimal_free_resolution(I)
    cj2 = minimal_free_resolution(J)
    J2 = Ideal(R, list(cj2.differential(1).row(0)))
    data2 = select_phi(hom_module(J2, I), I, J2, deg_T(ci2, cj2), t_name="x_7")
    out2 = kustin_miller_complex(km_input(ci2, cj2, data2))
    corpus += [ci2, cj2, out2.complex]
    for C in corpus:
        assert verify_complex(C)
    for inp, ci in ((km_input(c_i, c_j, segre_data), c_i),
                    (km_input(ci2, cj2, data2), ci2)):
        alpha = compute_alpha(inp)
        beta = compute_beta(inp)
        h = compute_homotopy(alpha, beta, ci)
        g = inp.g
        assert h[0].is_zero() and h[g - 1].is_zero()
        for i in range(1, g):
            lhs = beta.component(i).compose(alpha.component(i))
            rhs = h[i - 1].compose(ci.differential(i)) + ci.differential(i).compose(h[i])
            assert lhs == rhs
    _report(3, "d^2 = 0 and exact homotopy identities", t0)


def test_criterion_4_resolution_verification(km_out):
    t0 = time.monotonic()
    assert verify_resolution(km_out.complex, km_out.ideal)
    _report(4, "kernel equals image at all positions", t0, limit=60)


def test_criterion_5_segre_identification(km_out):
    t0 = time.monotonic()
    big = km_out.complex.ring
    P = big.parse
    grid = [["T", "x_1", "x_2"], ["x_3", "z_1", "z_3"], ["x_4", "z_2", "z_4"]]
    minors = []
    for r1, r2 in ((0, 1), (0, 2), (1, 2)):
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            minors.append(P(grid[r1][c1]) * P(grid[r2][c2])
                          - P(grid[r1][c2]) * P(grid[r2][c1]))
    assert ideal_equal(km_out.ideal, Ideal(big, minors))
    _report(5, "unprojection ideal is the rank-one locus", t0)


def test_criterion_6_stellar_driver(octahedron):
    t0 = time.monotonic()
    res = stellar_resolution(octahedron, ["x_1", "x_3", "x_5"], new_vertex="x_7")
    sub = stellar_subdivide(octahedron, ["x_1", "x_3", "x_5"], "x_7")
    target = stanley_reisner_ideal(sub, res.ring)
    direct = minimal_free_resolution(target)
    assert betti(res) == betti(direct)
    assert verify_resolution(res, target)
    _report(6, "stellar driver matches the direct resolution", t0, limit=120)


def test_criterion_7_cyclic_driver():
    t0 = time.monotonic()
    for dim, n in ((4, 8), (4, 9), (6, 10)):
        res = cyclic_resolution(dim, n)
        target = stanley_reisner_ideal(cyclic_polytope_boundary(dim, n), res.ring)
        assert verify_resolution(res, target)
        assert betti(res) == betti(minimal_free_resolution(target))
        for d in res.diffs:
            for row in dense(d):
                for e in row:
                    assert e.is_zero() or not e.is_constant()
    _report(7, "cyclic driver minimal and oracle-equal", t0, limit=300)


def test_criterion_8_phi_independence(c_i, c_j, segre_data, ideal_i, ideal_j):
    t0 = time.monotonic()
    out1 = kustin_miller_complex(km_input(c_i, c_j, segre_data))
    x1 = ideal_i.ring.var("x_1")
    shifted = [l + x1 * u for l, u in zip(segre_data.lifts, segre_data.gens)]
    data2 = unprojection_data_from_lifts(ideal_i, ideal_j, shifted, 1)
    out2 = kustin_miller_complex(km_input(c_i, c_j, data2))
    assert betti(minimize(out1.complex)) == betti(minimize(out2.complex))
    _report(8, "Betti tables agree for phi and phi + x_1*inclusion", t0)


def _random_homogeneous(R, rng, deg, max_terms=4):
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


def _spoly(R, f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    mf = R.monomial(tuple(a - b for a, b in zip(lcm, lf)), 1)
    mg = R.monomial(tuple(a - b for a, b in zip(lcm, lg)), 1)
    return mf * f.monic() - mg * g.monic()


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    rng = random.Random(20240814)
    fields = [None, CoefficientField.prime_field(101)]
    gb_cases = 0
    while gb_cases < 500:
        nv = rng.choice((2, 3))
        field = fields[gb_cases % 2]
        R = (make_ring([f"v_{i}" for i in range(nv)], [1] * nv)
             if field is None else
             make_ring([f"v_{i}" for i in range(nv)], [1] * nv, field=field))
        polys = [p for p in (_random_homogeneous(R, rng, rng.randint(1, 3))
                             for _ in range(rng.randint(2, 3))) if not p.is_zero()]
        if not polys:
            continue
        G = Ideal(R, polys).groebner()
        basis = list(G.generators.row(0))
        for p in polys:
            assert normal_form(p, G).is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(_spoly(R, basis[i], basis[j]), G).is_zero()
        gb_cases += 1

    # lifting certificates: c = b * Y must lift back with b * X = c
    for _ in range(50):
        R = make_ring(["x", "y", "z"], [1, 1, 1])
        cols = [p for p in (_random_homogeneous(R, rng, rng.randint(1, 2))
                            for _ in range(3)) if not p.is_zero()]
        if len(cols) < 2:
            continue
        b = FreeModuleMap.from_rows(R, [cols], [0])
        y_entries = [[_random_homogeneous(R, rng, 1)] for _ in cols]
        try:
            Y = FreeModuleMap.from_rows(R, y_entries, b.source_twists)
        except ValueError:
            continue
        c = b.compose(Y)
        X = lift_through(b, c)
        assert b.compose(X) == c

    # dualize is an involution on random Koszul complexes
    for _ in range(25):
        n = rng.randint(1, 4)
        R = make_ring([f"t_{i}" for i in range(max(n, 2))], [1] * max(n, 2))
        seq = [R.var(f"t_{i}") for i in range(n)]
        C = koszul_complex(seq)
        assert dualize(dualize(C)) == C

    # Pf^2 = det on random skew specializations
    def det(ent, R):
        m = len(ent)
        if m == 0:
            return R.one
        out = R.zero
        for j in range(m):
            if ent[0][j].is_zero():
                continue
            minor = [[row[k] for k in range(m) if k != j] for row in ent[1:]]
            term = ent[0][j] * det(minor, R)
            out = out + (term if j % 2 == 0 else -term)
        return out

    R = make_ring(["u"], [1])
    for n in (2, 4, 6):
        for _ in range(10):
            ent = [[R.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = R.constant(Fraction(rng.randint(-9, 9)))
                    ent[i][j] = c
                    ent[j][i] = -c
            m = SkewMatrix(R, ent)
            pf = pfaffian(m)
            assert pf * pf == det(ent, R)
    _report(9, "500 GB cases, lifts, duals, Pfaffians", t0)
