"""Chain complexes, duals, Betti tables, minimization, lifting, verification."""
from __future__ import annotations

import pytest

from kustinmiller import QQ, CoefficientField, FreeModuleMap, Ideal, NotLiftable, make_ring
from kustinmiller.complexes import (ChainComplex, betti, dualize,
                                    eliminate_variable, extend_to_chain_map,
                                    minimize, verify_complex, verify_resolution)
from kustinmiller.resolutions import koszul_complex, minimal_free_resolution

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


def test_verify_complex_koszul(c_j):
    assert verify_complex(c_j)


def test_verify_complex_failure():
    R = make_ring(["x"], [1])
    x = R.var("x")
    d1 = FreeModuleMap.from_rows(R, [[x]], [0])
    d2 = FreeModuleMap.from_rows(R, [[x]], [1])
    C = ChainComplex(R, [(0,), (1,), (2,)], [d1, d2])
    assert not verify_complex(C)


def test_verify_complex_km_output(km_out):
    assert verify_complex(km_out.complex)


def test_dualize_koszul_symmetric(c_j):
    d = dualize(c_j)
    assert betti(d).totals() == [1, 4, 6, 4, 1]
    assert verify_complex(d)


def test_dualize_zero_complex():
    R = make_ring(["x"], [1])
    Z = ChainComplex(R, [()], [])
    assert dualize(Z) == Z


def test_dualize_first_differential_is_transpose(c_i):
    d = dualize(c_i)
    assert d.differential(1) == c_i.differential(3).transpose()


def test_dualize_involution(c_i, c_j, km_out):
    for C in (c_i, c_j, km_out.complex):
        assert dualize(dualize(C)) == C


def test_betti_grids_match_transcripts(c_i, c_j, km_out):
    assert betti(c_i).render() == O3_GRID
    assert betti(c_j).render() == O6_GRID
    assert betti(km_out.complex).render() == O7_GRID


def test_extend_identity_chain_map(c_i):
    f0 = FreeModuleMap.identity(c_i.ring, c_i.twists[0])
    cm = extend_to_chain_map(f0, c_i, c_i, shift=0)
    assert cm.verify()
    assert cm.component(0) == f0
    for i in range(1, c_i.length + 1):
        lhs = c_i.differential(i).compose(cm.component(i))
        rhs = cm.component(i - 1).compose(c_i.differential(i))
        assert lhs == rhs


def test_extend_zero_chain_map(c_i):
    f0 = FreeModuleMap.zero(c_i.ring, c_i.twists[0], c_i.twists[0])
    cm = extend_to_chain_map(f0, c_i, c_i, shift=0)
    assert cm.verify()
    # the canonical lift of zero is zero
    for i in range(c_i.length + 1):
        assert cm.component(i).is_zero()


def test_extend_not_liftable():
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    # target is not exact: a length-1 complex whose d_1 = (x)
    tgt = ChainComplex.from_differentials(R, [FreeModuleMap.from_rows(R, [[x]], [0])])
    src = koszul_complex([x, y])
    f0 = FreeModuleMap.identity(R, (0,))
    with pytest.raises(NotLiftable):
        extend_to_chain_map(f0, src, tgt, shift=0)


def test_minimize_keeps_minimal(c_i):
    assert minimize(c_i) == c_i


def test_minimize_unit_differential():
    R = make_ring(["x"], [1])
    d = FreeModuleMap.from_rows(R, [[R.one]], [0])
    C = ChainComplex(R, [(0,), (0,)], [d])
    M = minimize(C)
    assert M.length == 0 and M.twists == ((),)


def test_minimize_mixed_unit_block():
    # R <- R^2 with d = (x, 1): splitting the unit leaves the kernel R(-1)
    # alone in position 1 (the complex is not a resolution: H_1 = R(-1))
    R = make_ring(["x"], [1])
    x = R.var("x")
    d = FreeModuleMap.from_rows(R, [[x, R.one]], [0])
    C = ChainComplex(R, [(0,), (1, 0)], [d])
    M = minimize(C)
    assert M.twists == ((), (1,))


# Koszul complex on (x, y, z) plus two split unit summands, mixed by base
# changes: unit entries sit in the adjacent differentials d_2 and d_3.  The
# expected outputs were recorded from the dense row-and-column-op minimize.
_UNIT_COMPLEXES = {
    "QQ": ([["x", "y", "z", "-x"]],
           [["x + 2*y", "z", "y", "1", "x + 2*y"], ["x", "0", "-z", "0", "x"],
            ["0", "x", "y", "0", "0"], ["x + 3*y", "2*z", "y", "1", "x + 3*y"]],
           [["-3*y", "-1"], ["-y", "0"], ["x", "0"], ["-x*y - x*z - y*z", "0"],
            ["3*y + z", "1"]]),
    "GF7": ([["x", "y", "z", "6*x"]],
            [["x + 2*y", "z", "y", "1", "x + 2*y"], ["x", "0", "6*z", "0", "x"],
             ["0", "x", "y", "0", "0"], ["x + 3*y", "2*z", "y", "1", "x + 3*y"]],
            [["4*y", "6"], ["6*y", "0"], ["x", "0"], ["6*x*y + 6*x*z + 6*y*z", "0"],
             ["3*y + z", "1"]]),
}
_UNIT_MINIMIZED = {
    "QQ": ([["y", "z", "-x"]], [["0", "-z", "x"], ["x", "y", "0"], ["z", "0", "y"]],
           [["-y"], ["x"], ["z"]]),
    "GF7": ([["y", "z", "6*x"]], [["0", "6*z", "x"], ["x", "y", "0"], ["z", "0", "y"]],
            [["6*y"], ["x"], ["z"]]),
}


@pytest.mark.parametrize("field", ["QQ", "GF7"])
def test_minimize_pins_differentials(field):
    R = make_ring(["x", "y", "z"], [1, 1, 1],
                  CoefficientField.prime_field(7) if field == "GF7" else QQ)
    twists = [(0,), (1, 1, 1, 1), (2, 2, 2, 1, 2), (3, 2)]
    diffs = [FreeModuleMap.from_rows(R, [[R.parse(e) for e in row] for row in rows],
                                     twists[i], twists[i + 1])
             for i, rows in enumerate(_UNIT_COMPLEXES[field])]
    C = ChainComplex(R, twists, diffs)
    assert verify_complex(C)
    M = minimize(C)
    assert M.twists == ((0,), (1, 1, 1), (2, 2, 2), (3,))
    got = tuple([[str(e) for e in row] for row in dense(d)] for d in M.diffs)
    assert got == _UNIT_MINIMIZED[field]


def test_minimize_is_homotopy_equivalent_presentation():
    # non-minimal presentation of (x, y): generators (x, y, x + y)
    R = make_ring(["x", "y"], [1, 1])
    x, y = R.gens()
    from kustinmiller import syzygies
    d1 = FreeModuleMap.from_rows(R, [[x, y, x + y]], [0])
    d2 = syzygies(d1)
    C = ChainComplex.from_differentials(R, [d1, d2])
    M = minimize(C)
    assert betti(M).totals() == [1, 2, 1]
    assert verify_resolution(M, Ideal(R, [x, y]))


def test_eliminate_variable_absent():
    R = make_ring(["z", "x", "y"], [1, 1, 1])
    x, y = R.var("x"), R.var("y")
    C = koszul_complex([x, y])
    E = eliminate_variable(C, "z")
    assert E.ring.names == ("x", "y")
    assert betti(E).totals() == [1, 2, 1]


def test_eliminate_variable_zero_complex():
    R = make_ring(["z", "x"], [1, 1])
    Z = ChainComplex(R, [()], [])
    E = eliminate_variable(Z, "z")
    assert E.twists == ((),)


def test_eliminate_variable_misuse_detected():
    R = make_ring(["z", "x"], [1, 1])
    z, x = R.gens()
    d1 = FreeModuleMap.from_rows(R, [[x + z]], [0])
    d2 = FreeModuleMap.from_rows(R, [[x - z]], [1])
    C = ChainComplex(R, [(0,), (1,), (2,)], [d1, d2])
    assert not verify_complex(C)  # (x+z)(x-z) != 0
    # after z -> 0 the compositions become x^2 != 0 as well
    with pytest.raises(ValueError):
        eliminate_variable(C, "z")


def test_verify_resolution_koszul(c_j, segre_ring):
    J = Ideal(segre_ring, [segre_ring.var(f"z_{i}") for i in range(1, 5)])
    assert verify_resolution(c_j, J)


def test_verify_resolution_truncation_fails(c_i, ideal_i):
    T = ChainComplex(c_i.ring, c_i.twists[:3], c_i.diffs[:2])
    assert not verify_resolution(T, ideal_i)


def test_verify_resolution_km(km_out):
    assert verify_resolution(km_out.complex, km_out.ideal)


def test_verify_resolution_of_every_minimal_resolution(segre_ring, ideal_i, ideal_j):
    for I in (ideal_i, ideal_j):
        C = minimal_free_resolution(I)
        assert verify_resolution(C, I)


def test_chain_map_zero_component_shapes(km_out):
    beta = km_out.beta
    comp0 = beta.component(0)
    assert comp0.rows == 0 and comp0.cols == 1
