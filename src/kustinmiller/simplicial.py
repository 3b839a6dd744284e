"""Simplicial complexes, Stanley-Reisner ideals, and the two resolution
drivers: the cyclic-polytope recursion step and stellar subdivision."""
from __future__ import annotations

from collections import Counter
from itertools import combinations

from .complexes import ChainComplex, eliminate_variable
from .gb import Ideal, ideal_quotient
from .km import unproject
from .rings import QQ, GREVLEX, CoefficientField, PolyRing, make_ring
from .unproj import HypothesisFailed


class SimplicialComplex:
    """Facet list on named vertices; facets are pairwise non-contained."""

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        vindex = {v: i for i, v in enumerate(vertices)}
        if len(vindex) != len(vertices):
            raise ValueError("duplicate vertex names")
        fsets = {frozenset(f) for f in facets}
        for f in fsets:
            for v in f:
                if v not in vindex:
                    raise ValueError(f"facet vertex {v!r} is not declared")
            for g in fsets:
                if f < g:
                    raise ValueError(f"facet {sorted(f)} is contained in {sorted(g)}")
        covered = set().union(*fsets) if fsets else set()
        if covered != set(vertices):
            missing = sorted(set(vertices) - covered)
            raise ValueError(f"vertices {missing} lie in no facet")
        self.vertices = vertices
        self.facets = tuple(sorted(fsets, key=lambda f: (len(f), sorted(vindex[v] for v in f))))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and set(self.vertices) == set(other.vertices)
                and set(self.facets) == set(other.facets))

    def __repr__(self):
        return f"<SimplicialComplex on {len(self.vertices)} vertices, {len(self.facets)} facets>"

    def is_face(self, F) -> bool:
        F = frozenset(F)
        return any(F <= G for G in self.facets)

    def faces(self) -> set[frozenset]:
        out = set()
        for G in self.facets:
            Gs = sorted(G)
            for k in range(len(Gs) + 1):
                out.update(frozenset(c) for c in combinations(Gs, k))
        return out


def stanley_reisner_ideal(C: SimplicialComplex, R: PolyRing) -> Ideal:
    """Ideal of squarefree monomials of the minimal non-faces of C."""
    index = {name: i for i, name in enumerate(R.names)}
    for v in C.vertices:
        if v not in index:
            raise ValueError(f"vertex {v!r} is not a ring variable")
    faces = C.faces()
    maxsize = max((len(f) for f in C.facets), default=0) + 1
    verts = sorted(C.vertices, key=index.__getitem__)
    gens = []
    for size in range(1, maxsize + 1):
        for S in combinations(verts, size):
            fs = frozenset(S)
            if fs in faces:
                continue
            if all(fs - {v} in faces for v in S):
                m = R.one
                for v in S:
                    m = m * R.var(v)
                gens.append(m)
    gens.sort(key=lambda m: (m.homogeneous_degree(), -m.lead_key()))
    return Ideal(R, gens)


def cyclic_polytope_boundary(d: int, n: int, names=None) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope: facets obey Gale evenness.

    A d-subset of 1..n is a facet iff every maximal run of consecutive
    elements touching neither endpoint has even length.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if n < d + 1:
        raise ValueError("need at least d + 1 vertices")
    if names is None:
        names = [f"x_{i}" for i in range(1, n + 1)]
    names = list(names)
    if len(names) != n:
        raise ValueError("need one name per vertex")
    facets = []
    for S in combinations(range(1, n + 1), d):
        runs = []
        run = [S[0]]
        for a in S[1:]:
            if a == run[-1] + 1:
                run.append(a)
            else:
                runs.append(run)
                run = [a]
        runs.append(run)
        ok = all(1 in r or n in r or len(r) % 2 == 0 for r in runs)
        if ok:
            facets.append({names[i - 1] for i in S})
    return SimplicialComplex(names, facets)


def link(C: SimplicialComplex, F) -> SimplicialComplex:
    """The complex {G : G disjoint from F, G union F a face of C}."""
    F = frozenset(F)
    if not C.is_face(F):
        raise ValueError(f"{sorted(F)} is not a face")
    facets = [G - F for G in C.facets if F <= G]
    vertices = sorted(set().union(*facets) if facets else set(),
                      key=C.vertices.index)
    return SimplicialComplex(vertices, facets)


def stellar_subdivide(C: SimplicialComplex, F, v: str) -> SimplicialComplex:
    """Replace the star of F by cones from the new vertex v."""
    F = frozenset(F)
    if not F:
        raise ValueError("cannot subdivide at the empty face")
    if not C.is_face(F):
        raise ValueError(f"{sorted(F)} is not a face")
    if v in C.vertices:
        raise ValueError(f"vertex {v!r} already present")
    facets = []
    for G in C.facets:
        if F <= G:
            for f in sorted(F):
                facets.append((G - {f}) | {v})
        else:
            facets.append(G)
    covered = set().union(*facets)
    # subdividing at a vertex deletes it: keep only vertices still in use
    vertices = [w for w in C.vertices if w in covered] + [v]
    return SimplicialComplex(vertices, facets)


def face_numerator(cx: SimplicialComplex, weights=None) -> dict[int, int]:
    """Sum over the faces F of cx of prod_(v in F) t^w(v) times
    prod_(v not in F) (1 - t^w(v)), w(v) the weight of vertex v (default 1):
    the numerator of the Hilbert series of the Stanley-Reisner ring
    (Bruns-Herzog, ch. 5), read off faces() alone.  With unit weights it is
    sum_k f_(k-1) t^k (1 - t)^(n - k)."""
    w = {v: 1 for v in cx.vertices} | (weights or {})
    out = Counter()
    for face in cx.faces():
        poly = {sum(w[v] for v in face): 1}
        for v in cx.vertices:
            if v not in face:
                step = Counter()
                for e, c in poly.items():
                    step[e] += c
                    step[e + w[v]] -= c
                poly = step
        out.update(poly)
    return {e: c for e, c in out.items() if c}


def twist_numerator(res: ChainComplex) -> dict[int, int]:
    """Sum over the positions i and twists a of res of (-1)^i t^a: the same
    numerator, read off a free resolution."""
    out = Counter()
    for i, twists in enumerate(res.twists):
        for a in twists:
            out[a] += (-1) ** i
    return {e: c for e, c in out.items() if c}


def _check_f_vector(res: ChainComplex, cx: SimplicialComplex, weights=None):
    """HypothesisFailed unless res's twists give cx's face numerator."""
    got, want = twist_numerator(res), face_numerator(cx, weights)
    if got != want:
        raise HypothesisFailed(
            f"f-vector check: the twists of the resolution give the Hilbert numerator "
            f"{sorted(got.items())}, the faces give {sorted(want.items())}")


def stellar_resolution(C: SimplicialComplex, F, new_vertex: str | None = None,
                       strict: bool = False, *, field: CoefficientField = QQ) -> ChainComplex:
    """Resolution of the Stanley-Reisner ring of the stellar subdivision.

    Runs one unprojection step on the pair (image of the Stanley-Reisner
    ideal, link ideal) over an auxiliary ring with a variable z and
    coefficients in `field`, then sets z to zero.  The new vertex becomes
    the adjoined variable, whose weight is dictated by the grading of the
    two resolutions.  With `strict`, the output's twists are also checked
    against the f-vector of the subdivision, with the new vertex weighted
    by |F| - 1, the degree that phi(z) = x^F gives it.
    """
    F = frozenset(F)
    n = len(C.vertices)
    if new_vertex is None:
        new_vertex = f"x_{n + 1}"
    subdivided = stellar_subdivide(C, F, new_vertex)
    if "z" in C.vertices:
        raise ValueError("the auxiliary variable z collides with a vertex name")
    R = make_ring(["z"] + list(C.vertices), [1] * (n + 1), field, GREVLEX)
    I = stanley_reisner_ideal(C, R)
    prod = R.one
    for v in sorted(F, key=C.vertices.index):
        prod = prod * R.var(v)
    J = Ideal(R, (R.var("z"),) + ideal_quotient(I, prod).gens)
    out = unproject(I, J, t_name=new_vertex, strict=strict)
    res = eliminate_variable(out.complex, "z")
    if strict:
        _check_f_vector(res, subdivided, {new_vertex: len(F) - 1})
    return res


def cyclic_resolution(d: int, n: int, *, strict: bool = False,
                      field: CoefficientField = QQ) -> ChainComplex:
    """Minimal resolution of the Stanley-Reisner ideal of the cyclic
    polytope boundary, built by one unprojection step.

    Resolves the dimension-d ideal on one fewer vertex and the
    dimension-(d-2) ideal on the vertex set (z, x_2..x_(n-2)), runs the
    construction with the new variable named x_n, and sets z to zero.
    Coefficients lie in `field`; `strict` is passed to `unproject`, and
    then also checks the output's twists against the f-vector of C(d, n).
    """
    if d % 2 != 0:
        raise HypothesisFailed("odd dimensions are not supported; use even d")
    if d < 4:
        raise HypothesisFailed("need d >= 4")
    if n - d < 4:
        raise HypothesisFailed(f"codimension {n - d} is too small: need n - d >= 4")
    R = make_ring(["z"] + [f"x_{i}" for i in range(1, n)], [1] * n, field, GREVLEX)
    inner = cyclic_polytope_boundary(d, n - 1)
    I = stanley_reisner_ideal(inner, R)
    link_complex = cyclic_polytope_boundary(
        d - 2, n - 2, names=["z"] + [f"x_{i}" for i in range(2, n - 1)])
    J = stanley_reisner_ideal(link_complex, R)
    out = unproject(I, J, t_name=f"x_{n}", strict=strict)
    res = eliminate_variable(out.complex, "z")
    if any(d.unit_entry() is not None for d in res.diffs):
        raise HypothesisFailed("cyclic recursion output is not minimal: unit entry found")
    if strict:
        _check_f_vector(res, cyclic_polytope_boundary(d, n))
    return res
