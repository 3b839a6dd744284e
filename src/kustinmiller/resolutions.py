"""Resolution builders: minimal free resolutions by iterated syzygies,
Buchsbaum-Eisenbud Pfaffian complexes, and Koszul complexes."""
from __future__ import annotations

from itertools import combinations

from .complexes import ChainComplex, minimize
from .gb import FreeModuleMap, Ideal, minimal_column_generators, minimal_generators, syzygies
from .rings import Polynomial, PolyRing


class SkewMatrix:
    """A square skew-symmetric matrix of homogeneous polynomials."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("skew matrix must be square")
        for i in range(n):
            if not entries[i][i].is_zero():
                raise ValueError("skew matrix needs a zero diagonal")
            for j in range(n):
                if entries[i][j] != -entries[j][i]:
                    raise ValueError(f"not skew-symmetric at ({i}, {j})")
                e = entries[i][j]
                if not e.is_zero() and not e.is_homogeneous():
                    raise ValueError(f"inhomogeneous entry at ({i}, {j}): {e}")
        self.ring = ring
        self.entries = entries

    @property
    def size(self) -> int:
        return len(self.entries)

    def delete(self, rows_cols) -> "SkewMatrix":
        keep = [i for i in range(self.size) if i not in set(rows_cols)]
        return SkewMatrix(self.ring, [[self.entries[i][j] for j in keep] for i in keep])


def pfaffian(m: SkewMatrix) -> Polynomial:
    """Pfaffian of an even skew matrix, expanded along the first row.

    Normalized so that Pf(((0, c), (-c, 0))) = c; Pf(m)^2 = det(m).
    """
    n = m.size
    if n % 2 != 0:
        raise ValueError("Pfaffian needs an even-size matrix")
    if n == 0:
        return m.ring.one
    if n == 2:
        return m.entries[0][1]
    out = m.ring.zero
    sign = 1
    for j in range(1, n):
        e = m.entries[0][j]
        if not e.is_zero():
            sub = pfaffian(m.delete((0, j)))
            out = out + (e * sub if sign > 0 else -(e * sub))
        sign = -sign
    return out


def buchsbaum_eisenbud_complex(m: SkewMatrix) -> ChainComplex:
    """Length-3 complex R <- R^n <- R^n <- R from an odd skew matrix.

    d_1 holds the signed maximal Pfaffians, (-1)^(i+1) Pf(m with row and
    column i deleted), d_2 = m, and d_3 = d_1 transposed with the twists
    that make everything homogeneous.
    """
    n = m.size
    if n % 2 == 0:
        raise ValueError("Buchsbaum-Eisenbud needs an odd-size skew matrix")
    ring = m.ring
    pfs = []
    for i in range(n):
        p = pfaffian(m.delete((i,)))
        pfs.append(p if i % 2 == 0 else -p)
    if any(p.is_zero() for p in pfs):
        raise ValueError("a maximal Pfaffian vanishes; input is degenerate")
    b1_twists = [p.homogeneous_degree() for p in pfs]
    d1 = FreeModuleMap.from_rows(ring, [pfs], [0], b1_twists)
    # twists of the middle module, read off any nonzero entry per column
    b2_twists = []
    for j in range(n):
        tw = None
        for i in range(n):
            e = m.entries[i][j]
            if not e.is_zero():
                tw = e.homogeneous_degree() + b1_twists[i]
                break
        if tw is None:
            raise ValueError(f"zero column {j} in skew matrix")
        b2_twists.append(tw)
    d2 = FreeModuleMap.from_rows(ring, m.entries, b1_twists, b2_twists)
    tops = {b1_twists[i] + b2_twists[i] for i in range(n)}
    if len(tops) != 1:
        raise ValueError("skew matrix twists are not self-dual")
    top = tops.pop()
    d3 = FreeModuleMap.from_rows(ring, [[p] for p in pfs], b2_twists, [top])
    C = ChainComplex(ring, [(0,), tuple(b1_twists), tuple(b2_twists), (top,)],
                     [d1, d2, d3])
    if not d1.compose(d2).is_zero() or not d2.compose(d3).is_zero():
        raise ValueError("Pfaffian complex failed d*d = 0; input is not skew-consistent")
    return C


def koszul_complex(seq) -> ChainComplex:
    """Exterior-algebra complex on a sequence of homogeneous elements."""
    seq = list(seq)
    if not seq:
        raise ValueError("Koszul complex needs at least one element")
    ring = seq[0].ring
    degs = []
    for f in seq:
        if f.ring != ring:
            raise ValueError("Koszul elements from different rings")
        degs.append(f.homogeneous_degree())
    n = len(seq)
    bases = [list(combinations(range(n), k)) for k in range(n + 1)]
    twists = [tuple(sum(degs[i] for i in S) for S in bases[k]) for k in range(n + 1)]
    diffs = []
    for k in range(1, n + 1):
        index = {S: i for i, S in enumerate(bases[k - 1])}
        cols = []
        for S in bases[k]:
            col = {}
            for pos, i in enumerate(S):
                f = seq[i] if pos % 2 == 0 else -seq[i]
                r = index[S[:pos] + S[pos + 1:]]
                col.update(((r, mono), v) for mono, v in f.terms.items())
            cols.append(col)
        diffs.append(FreeModuleMap(ring, cols, twists[k - 1], twists[k]))
    return ChainComplex(ring, twists, diffs)


def minimal_free_resolution(I: Ideal) -> ChainComplex:
    """Minimal graded free resolution of R/I by iterated syzygies.

    Each syzygy step is pruned to minimal generators and the whole complex
    is minimized at the end, so no differential carries a unit entry.
    """
    ring = I.ring
    gens = minimal_generators(I)
    if not gens:
        return ChainComplex(ring, [(0,)], [])
    d = FreeModuleMap.from_rows(ring, [list(gens)], [0])
    diffs = [d]
    while True:
        ker = syzygies(d)
        if ker.cols == 0:
            break
        d = minimal_column_generators(ker)
        diffs.append(d)
    return minimize(ChainComplex.from_differentials(ring, diffs))
