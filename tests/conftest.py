"""Shared fixtures: the codimension-3 Pfaffian example and the octahedron,
and `dense`, the tests' one reader of a matrix's rows."""
from __future__ import annotations

import pytest

from kustinmiller import Ideal, make_ring
from kustinmiller.km import km_input, kustin_miller_complex
from kustinmiller.resolutions import SkewMatrix, buchsbaum_eisenbud_complex, koszul_complex
from kustinmiller.simplicial import SimplicialComplex
from kustinmiller.unproj import hom_module, select_phi

B2_ROWS = [
    ["0", "x_1", "x_2", "x_3", "x_4"],
    ["-x_1", "0", "0", "z_1", "z_2"],
    ["-x_2", "0", "0", "z_3", "z_4"],
    ["-x_3", "-z_1", "-z_3", "0", "0"],
    ["-x_4", "-z_2", "-z_4", "0", "0"],
]


def dense(m):
    """The rows of a FreeModuleMap as tuples of polynomials, zeros included."""
    return tuple(m.row(r) for r in range(m.rows))


PFAFFIANS = [
    "z_2*z_3 - z_1*z_4",
    "-x_4*z_3 + x_3*z_4",
    "x_4*z_1 - x_3*z_2",
    "x_2*z_2 - x_1*z_4",
    "-x_2*z_1 + x_1*z_3",
]


@pytest.fixture(scope="session")
def segre_ring():
    return make_ring([f"x_{i}" for i in range(1, 5)] + [f"z_{i}" for i in range(1, 5)],
                     [1] * 8)


@pytest.fixture(scope="session")
def b2(segre_ring):
    P = segre_ring.parse
    return SkewMatrix(segre_ring, [[P(e) for e in row] for row in B2_ROWS])


@pytest.fixture(scope="session")
def c_i(b2):
    return buchsbaum_eisenbud_complex(b2)


@pytest.fixture(scope="session")
def c_j(segre_ring):
    return koszul_complex([segre_ring.var(f"z_{i}") for i in range(1, 5)])


@pytest.fixture(scope="session")
def ideal_i(segre_ring, c_i):
    return Ideal(segre_ring, list(c_i.differential(1).row(0)))


@pytest.fixture(scope="session")
def ideal_j(segre_ring, c_j):
    return Ideal(segre_ring, list(c_j.differential(1).row(0)))


@pytest.fixture(scope="session")
def segre_data(ideal_i, ideal_j):
    homs = hom_module(ideal_j, ideal_i)
    return select_phi(homs, ideal_i, ideal_j, 1, t_name="T")


@pytest.fixture(scope="session")
def km_out(c_i, c_j, segre_data):
    return kustin_miller_complex(km_input(c_i, c_j, segre_data))


@pytest.fixture(scope="session")
def octahedron():
    facets = []
    for a in ("x_1", "x_2"):
        for b in ("x_3", "x_4"):
            for c in ("x_5", "x_6"):
                facets.append({a, b, c})
    return SimplicialComplex([f"x_{i}" for i in range(1, 7)], facets)


@pytest.fixture(scope="session")
def pentagon_skew():
    R = make_ring([f"x_{i}" for i in range(1, 6)], [1] * 5)
    P = R.parse
    rows = [
        ["0", "x_1", "0", "0", "x_5"],
        ["-x_1", "0", "x_2", "0", "0"],
        ["0", "-x_2", "0", "x_3", "0"],
        ["0", "0", "-x_3", "0", "x_4"],
        ["-x_5", "0", "0", "-x_4", "0"],
    ]
    return SkewMatrix(R, [[P(e) for e in row] for row in rows])
