"""Simplicial combinatorics and the two resolution drivers."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from kustinmiller import Ideal, ideal_equal, make_ring, simplicial
from kustinmiller.cli import main
from kustinmiller.complexes import ChainComplex, betti, minimize, verify_resolution
from kustinmiller.resolutions import minimal_free_resolution
from kustinmiller.simplicial import (SimplicialComplex, cyclic_polytope_boundary,
                                     cyclic_resolution, face_numerator, link,
                                     stanley_reisner_ideal, stellar_resolution,
                                     stellar_subdivide, twist_numerator)
from kustinmiller.unproj import HypothesisFailed

DATA = Path(__file__).parent / "data"


def four_cycle():
    return SimplicialComplex(
        ["x_1", "x_2", "x_3", "x_4"],
        [{"x_1", "x_2"}, {"x_2", "x_3"}, {"x_3", "x_4"}, {"x_1", "x_4"}])


def test_simplicial_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(["a", "b"], [{"a"}, {"a", "b"}])  # containment
    with pytest.raises(ValueError):
        SimplicialComplex(["a", "b"], [{"a"}])  # b in no facet
    with pytest.raises(ValueError):
        SimplicialComplex(["a"], [{"a", "b"}])  # undeclared vertex


def test_sr_ideal_four_cycle():
    R = make_ring([f"x_{i}" for i in range(1, 5)], [1] * 4)
    I = stanley_reisner_ideal(four_cycle(), R)
    assert [str(g) for g in I.gens] == ["x_1*x_3", "x_2*x_4"]


def test_sr_ideal_octahedron(octahedron):
    R = make_ring([f"x_{i}" for i in range(1, 7)], [1] * 6)
    I = stanley_reisner_ideal(octahedron, R)
    assert [str(g) for g in I.gens] == ["x_1*x_2", "x_3*x_4", "x_5*x_6"]


def test_sr_ideal_pentagon():
    R = make_ring([f"x_{i}" for i in range(1, 6)], [1] * 5)
    pent = cyclic_polytope_boundary(2, 5)
    I = stanley_reisner_ideal(pent, R)
    # non-edges of the 5-cycle, enumerated by hand
    assert {str(g) for g in I.gens} == \
        {"x_1*x_3", "x_1*x_4", "x_2*x_4", "x_2*x_5", "x_3*x_5"}


def test_sr_ideal_unknown_vertex():
    R = make_ring(["y"], [1])
    with pytest.raises(ValueError):
        stanley_reisner_ideal(four_cycle(), R)


def _cyclic_facets_geometric(d, n):
    """Independent oracle: supporting-hyperplane test on the moment curve.

    Vertex i sits at (i, i^2, ..., i^d); a d-subset spans a facet iff all
    remaining vertices lie strictly on one side of its hyperplane.  Exact
    rational arithmetic via Fraction determinants.
    """
    pts = {i: [Fraction(i) ** k for k in range(1, d + 1)] for i in range(1, n + 1)}

    def det(mat):
        m = [row[:] for row in mat]
        size = len(m)
        sign = Fraction(1)
        for col in range(size):
            piv = next((r for r in range(col, size) if m[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                sign = -sign
            for r in range(col + 1, size):
                f = m[r][col] / m[col][col]
                for c in range(col, size):
                    m[r][c] -= f * m[col][c]
        for i in range(size):
            sign *= m[i][i]
        return sign

    facets = set()
    for S in combinations(range(1, n + 1), d):
        signs = set()
        for other in range(1, n + 1):
            if other in S:
                continue
            rows = [[Fraction(1)] + pts[i] for i in S] + [[Fraction(1)] + pts[other]]
            v = det(rows)
            if v == 0:
                signs.add(0)
            else:
                signs.add(1 if v > 0 else -1)
        if len(signs) == 1 and 0 not in signs:
            facets.add(frozenset(S))
    return facets


@pytest.mark.parametrize("d,n", [(2, 5), (2, 6), (3, 6), (4, 6), (4, 7), (3, 7)])
def test_cyclic_polytope_gale_matches_geometry(d, n):
    C = cyclic_polytope_boundary(d, n)
    got = {frozenset(int(v.split("_")[1]) for v in f) for f in C.facets}
    assert got == _cyclic_facets_geometric(d, n)


def test_cyclic_polytope_pentagon():
    C = cyclic_polytope_boundary(2, 5)
    got = {tuple(sorted(f)) for f in C.facets}
    assert got == {("x_1", "x_2"), ("x_2", "x_3"), ("x_3", "x_4"),
                   ("x_4", "x_5"), ("x_1", "x_5")}


def test_cyclic_polytope_simplex_boundary():
    C = cyclic_polytope_boundary(3, 4)
    assert len(C.facets) == 4  # all 3-subsets of a 4-set


def test_cyclic_polytope_c46():
    C = cyclic_polytope_boundary(4, 6)
    assert len(C.facets) == 9
    R = make_ring([f"x_{i}" for i in range(1, 7)], [1] * 6)
    I = stanley_reisner_ideal(C, R)
    # brute-forced minimal non-faces: the two complementary triangles
    assert {str(g) for g in I.gens} == {"x_1*x_3*x_5", "x_2*x_4*x_6"}


def test_cyclic_polytope_facet_counts():
    # f_(d-1)(C(4, n)) = n(n-3)/2 by the classical count
    for n in (6, 7, 8, 9):
        assert len(cyclic_polytope_boundary(4, n).facets) == n * (n - 3) // 2


def test_cyclic_polytope_bad_parameters():
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(1, 5)
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(4, 4)


def test_link_vertex_in_four_cycle():
    L = link(four_cycle(), ["x_1"])
    assert set(L.facets) == {frozenset({"x_2"}), frozenset({"x_4"})}


def test_link_of_facet_is_empty_complex(octahedron):
    L = link(octahedron, ["x_1", "x_3", "x_5"])
    assert L.facets == (frozenset(),)
    assert L.vertices == ()


def test_link_nonface_rejected(octahedron):
    with pytest.raises(ValueError):
        link(octahedron, ["x_1", "x_2"])


def test_stellar_edge_of_four_cycle_gives_five_cycle():
    sub = stellar_subdivide(four_cycle(), ["x_1", "x_2"], "x_5")
    got = {tuple(sorted(f)) for f in sub.facets}
    assert got == {("x_2", "x_3"), ("x_3", "x_4"), ("x_1", "x_4"),
                   ("x_1", "x_5"), ("x_2", "x_5")}


def test_stellar_facet_of_octahedron(octahedron):
    sub = stellar_subdivide(octahedron, ["x_1", "x_3", "x_5"], "x_7")
    assert len(sub.facets) == 10
    assert all(len(f) == 3 for f in sub.facets)


def test_stellar_at_vertex_preserves_facet_count():
    C = four_cycle()
    sub = stellar_subdivide(C, ["x_1"], "x_5")
    assert len(sub.facets) == len(C.facets)


def test_stellar_guards():
    C = four_cycle()
    with pytest.raises(ValueError):
        stellar_subdivide(C, ["x_1", "x_3"], "x_5")  # not a face
    with pytest.raises(ValueError):
        stellar_subdivide(C, ["x_1"], "x_2")  # vertex exists
    with pytest.raises(ValueError):
        stellar_subdivide(C, [], "x_9")


def test_stellar_subdivision_ideal_description(octahedron):
    """SR ideal of the subdivision: old generators not divisible by the face
    product, the face product itself, and the new vertex times the minimal
    generators of the link complement."""
    F = {"x_1", "x_3", "x_5"}
    sub = stellar_subdivide(octahedron, F, "x_7")
    R = make_ring([f"x_{i}" for i in range(1, 8)], [1] * 7)
    I_sub = stanley_reisner_ideal(sub, R)
    P = R.parse
    expect = Ideal(R, [P("x_1*x_2"), P("x_3*x_4"), P("x_5*x_6"),
                       P("x_1*x_3*x_5"),
                       P("x_2*x_7"), P("x_4*x_7"), P("x_6*x_7")])
    assert ideal_equal(I_sub, expect)


def test_stellar_resolution_octahedron(octahedron):
    res = stellar_resolution(octahedron, ["x_1", "x_3", "x_5"], new_vertex="x_7")
    sub = stellar_subdivide(octahedron, ["x_1", "x_3", "x_5"], "x_7")
    target = stanley_reisner_ideal(sub, res.ring)
    direct = minimal_free_resolution(
        stanley_reisner_ideal(sub, res.ring))
    assert betti(res) == betti(direct)
    assert verify_resolution(res, target)
    # the driver output is already minimal here: pruning changes nothing
    assert betti(minimize(res)) == betti(res)


def test_stellar_resolution_strict_mode(octahedron):
    res = stellar_resolution(octahedron, ["x_1", "x_3", "x_5"],
                             new_vertex="x_7", strict=True)
    assert betti(res).totals() == [1, 7, 12, 7, 1]


def test_stellar_resolution_rejects_small_codimension():
    with pytest.raises(HypothesisFailed):
        stellar_resolution(four_cycle(), ["x_1", "x_2"], new_vertex="x_5")


@pytest.mark.parametrize("face, new_vertex, message", [
    ([], "x_7", "cannot subdivide at the empty face"),
    (["x_1", "x_2"], "x_7", "['x_1', 'x_2'] is not a face"),
    (["x_1", "x_3"], "x_1", "vertex 'x_1' already present"),
], ids=["empty-face", "not-a-face", "vertex-present"])
def test_stellar_resolution_rejects_empty_face(octahedron, face, new_vertex, message):
    """The empty face, a set that is not a face and a vertex already present
    are rejected up front, with `stellar_subdivide`'s messages, not deep in
    the pipeline as a degree failure."""
    with pytest.raises(ValueError) as e:
        stellar_resolution(octahedron, face, new_vertex=new_vertex)
    assert str(e.value) == message


def test_cyclic_resolution_guards():
    with pytest.raises(HypothesisFailed):
        cyclic_resolution(5, 9)
    with pytest.raises(HypothesisFailed):
        cyclic_resolution(2, 8)
    with pytest.raises(HypothesisFailed):
        cyclic_resolution(4, 7)


def test_cyclic_resolution_small_case():
    res = cyclic_resolution(4, 8)
    R8 = res.ring
    assert R8.names == tuple(f"x_{i}" for i in range(1, 9))
    target = stanley_reisner_ideal(cyclic_polytope_boundary(4, 8), R8)
    assert verify_resolution(res, target)


def _cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope on x_1 .. x_2d, where
    x_(2i-1) and x_(2i) are opposite."""
    pairs = [(f"x_{2 * i + 1}", f"x_{2 * i + 2}") for i in range(d)]
    return SimplicialComplex([v for p in pairs for v in p], [set(f) for f in product(*pairs)])


@pytest.mark.parametrize("d, n", [(4, 8), (4, 9), (6, 10)])
def test_cyclic_resolution_matches_the_f_vector(d, n):
    """`cyclic_resolution` runs the same check under strict, and it passes."""
    res = cyclic_resolution(d, n, strict=True)
    assert len(res.ring.names) == n
    assert twist_numerator(res) == face_numerator(cyclic_polytope_boundary(d, n))


@pytest.mark.parametrize("dim, face", [(3, ["x_1", "x_3"]), (3, ["x_1", "x_3", "x_5"]),
                                       (4, ["x_1", "x_3"]), (5, ["x_1", "x_3"])],
                         ids=["octahedron-edge", "octahedron-facet", "cross-4", "cross-5"])
def test_stellar_resolution_matches_the_f_vector(dim, face):
    """phi(z) = x^F for the auxiliary z of degree 1, so the new vertex has
    degree |F| - 1: the facet case weights it by 2 in the face numerator.
    `stellar_resolution` runs the same check under strict, and it passes."""
    cx = _cross_polytope(dim)
    new = f"x_{2 * dim + 1}"
    res = stellar_resolution(cx, face, new_vertex=new, strict=True)
    sub = stellar_subdivide(cx, face, new)
    weights = {new: len(face) - 1}
    assert res.ring.names == sub.vertices
    assert res.ring.weights == tuple(weights.get(v, 1) for v in sub.vertices)
    assert twist_numerator(res) == face_numerator(sub, weights)


def _twist_shifted(monkeypatch):
    """Make the z elimination of both resolutions return its complex with
    every twist one higher: still a complex, but with a wrong Hilbert
    numerator."""
    real = simplicial.eliminate_variable

    def shifted(complex_, name):
        res = real(complex_, name)
        return ChainComplex(res.ring, [[a + 1 for a in tw] for tw in res.twists],
                            [d.shifted(1) for d in res.diffs])
    monkeypatch.setattr(simplicial, "eliminate_variable", shifted)


@pytest.mark.parametrize("argv", [
    ["cyclic", "--dim", "4", "--vertices", "8"],
    ["stellar", "--facets", str(DATA / "octahedron.txt"), "--face", "x_1 x_3 x_5"],
], ids=["cyclic", "stellar"])
def test_strict_f_vector_check_rejects_a_wrong_twist(monkeypatch, capsys, argv):
    """Under --strict a wrong twist exits 3 and names the f-vector check;
    without it the check does not run and the shifted complex is printed."""
    _twist_shifted(monkeypatch)
    assert main(["--strict", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypothesis error: f-vector check: ")
    assert main(argv) == 0


def test_default_resolutions_skip_the_f_vector_check(monkeypatch, octahedron):
    def fail(*args):
        raise AssertionError("the f-vector check ran without strict")
    monkeypatch.setattr(simplicial, "_check_f_vector", fail)
    cyclic_resolution(4, 8)
    stellar_resolution(octahedron, ["x_1", "x_3"], new_vertex="x_7")


@pytest.mark.parametrize("cx, face, totals", [
    (_cross_polytope(3), ["x_1", "x_3"], [1, 6, 10, 6, 1]),
    (cyclic_polytope_boundary(4, 7), ["x_1", "x_2"], [1, 13, 24, 13, 1]),
    (cyclic_polytope_boundary(4, 7), ["x_1", "x_2", "x_3", "x_4"], [1, 11, 20, 11, 1]),
], ids=["octahedron-edge", "c47-edge", "c47-facet"])
def test_stellar_resolution_matches_the_direct_resolution(cx, face, totals):
    """The stellar driver's output resolves the Stanley-Reisner ideal of the
    subdivision, and minimized it has the Betti table of the direct minimal
    resolution."""
    new = f"x_{len(cx.vertices) + 1}"
    res = stellar_resolution(cx, face, new_vertex=new)
    target = stanley_reisner_ideal(stellar_subdivide(cx, face, new), res.ring)
    assert verify_resolution(res, target)
    direct = minimal_free_resolution(target)
    assert betti(minimize(res)) == betti(direct)
    assert betti(direct).totals() == totals


@pytest.mark.parametrize("cx", [_cross_polytope(3), cyclic_polytope_boundary(4, 7)],
                         ids=["octahedron", "c47"])
def test_stellar_resolution_at_a_vertex_fails_the_hypotheses(cx):
    """At a vertex phi(z) = x_v has the degree of z, so T would have degree 0."""
    with pytest.raises(HypothesisFailed, match="non-positive degree 0"):
        stellar_resolution(cx, ["x_1"], new_vertex=f"x_{len(cx.vertices) + 1}")
