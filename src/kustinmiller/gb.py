"""Groebner engine for ideals and submodules of graded free modules.

One Buchberger core serves four jobs: reduced Groebner bases, normal forms,
kernels and lifting (solving b*X = c).  Kernels and lifts come from the
extended-basis method: a tracked generator carries a representation block in
extra components that ride along through all reductions, so an S-pair that
reduces to zero *is* a syzygy of the inputs and a member's accumulated
representation *is* its expression in the generators.

Every kernel comes from `projected_syzygies(m, k)`, the kernel of m
projected onto its first k coordinates: only the first k columns are
tracked.  `syzygies` is the case k = m.cols; the syzygies of J mod I, the
Hom kernel and colon ideals project onto the coordinates they need.  A
kernel needs no interreduced basis, so only `groebner` and `lift_through`
interreduce.

Module terms are ordered position-over-term: component 0 is largest, and the
representation block sits below all value components, which makes it an
elimination order for free.
"""
from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from .rings import ExponentRemap, MonomialOrder, Polynomial, PolyRing


class NotLiftable(Exception):
    """A column is not in the image of the map it should lift through."""


# ---------------------------------------------------------------------------
# graded matrices


def _axpy(K, dst: dict, src: dict, c, shift=None, new=None):
    """dst += c * x^shift * src for vectors {(component, mono): coeff} over
    the field K; keys that enter dst are appended to `new`."""
    add, mul = K.add, K.mul
    for (comp, mono), s in src.items():
        k = (comp, mono if shift is None else tuple(map(operator.add, mono, shift)))
        old = dst.get(k)
        if old is None:
            v = mul(c, s)
            if v:
                dst[k] = v
                if new is not None:
                    new.append(k)
        else:
            v = add(old, mul(c, s))
            if v:
                dst[k] = v
            else:
                del dst[k]


class FreeModuleMap:
    """Homogeneous matrix between graded free modules.

    Twists follow the R(-d) convention: a generator of degree d has twist
    entry d, and entry (r, c) is zero or homogeneous of weighted degree
    source_twists[c] - target_twists[r].

    Column c is stored as the Groebner engine's vector: a dict
    {(r, exponent tuple): nonzero coefficient}, with no zero entries.  The
    constructor takes these columns; `from_rows` builds from dense rows of
    polynomials.  Matrices are immutable, so columns may be shared.
    """

    __slots__ = ("ring", "columns", "target_twists", "source_twists")

    def __init__(self, ring: PolyRing, columns, target_twists, source_twists):
        columns = tuple(columns)
        target_twists = tuple(int(t) for t in target_twists)
        source_twists = tuple(int(t) for t in source_twists)
        if len(columns) != len(source_twists):
            raise ValueError("column count does not match source twists")
        nrows = len(target_twists)
        wdeg = ring.wdeg
        for c, col in enumerate(columns):
            s = source_twists[c]
            for r, mono in col:
                if not 0 <= r < nrows:
                    raise ValueError(f"row {r} of column {c} is out of range")
                if wdeg(mono) != s - target_twists[r]:
                    raise ValueError(
                        f"entry at ({r}, {c}) has a term of degree {wdeg(mono)}, "
                        f"twists demand {s - target_twists[r]}")
        self.ring = ring
        self.columns = columns
        self.target_twists = target_twists
        self.source_twists = source_twists

    # -- construction helpers --

    @staticmethod
    def from_rows(ring, rows, target_twists=None, source_twists=None) -> "FreeModuleMap":
        """Build from dense rows of homogeneous polynomials.

        Omitted target twists are 0; an omitted source twist is read off the
        first nonzero entry of its column (0 for a zero column).
        """
        rows = [list(r) for r in rows]
        if target_twists is None:
            target_twists = [0] * len(rows)
        if len(rows) != len(target_twists):
            raise ValueError("row count does not match target twists")
        ncols = len(rows[0]) if rows else len(source_twists or ())
        columns = [{} for _ in range(ncols)]
        degrees = [None] * ncols
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("rows of different lengths")
            for c, e in enumerate(row):
                if e.ring != ring:
                    raise ValueError("matrix entry from a different ring")
                if not e.is_homogeneous():
                    raise ValueError(f"inhomogeneous entry at ({r}, {c}): {e}")
                if e and degrees[c] is None:
                    degrees[c] = e.degree() + target_twists[r]
                for mono, v in e.terms.items():
                    columns[c][(r, mono)] = v
        if source_twists is None:
            source_twists = [0 if d is None else d for d in degrees]
        return FreeModuleMap(ring, columns, target_twists, source_twists)

    @staticmethod
    def zero(ring, target_twists, source_twists) -> "FreeModuleMap":
        return FreeModuleMap(ring, [{} for _ in source_twists], target_twists, source_twists)

    @staticmethod
    def identity(ring, twists) -> "FreeModuleMap":
        one = (0,) * ring.nvars
        cols = [{(i, one): ring.field.one} for i in range(len(twists))]
        return FreeModuleMap(ring, cols, twists, twists)

    # -- shape and views --

    @property
    def rows(self) -> int:
        return len(self.target_twists)

    @property
    def cols(self) -> int:
        return len(self.source_twists)

    def entry(self, r: int, c: int) -> Polynomial:
        return Polynomial(self.ring, {m: v for (k, m), v in self.columns[c].items() if k == r})

    def row(self, r: int) -> tuple[Polynomial, ...]:
        return tuple(self.entry(r, c) for c in range(self.cols))

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Dense rows of polynomials, zeros included, built on every access.

        Nothing in the library or its tests reads this view; it stays only
        because the benchmark under perfbench/ still does, and goes once
        the benchmark reads `columns`."""
        rows = [[{} for _ in self.columns] for _ in self.target_twists]
        for c, col in enumerate(self.columns):
            for (r, m), v in col.items():
                rows[r][c][m] = v
        return tuple(tuple(Polynomial(self.ring, t) for t in row) for row in rows)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleMap)
                and self.ring == other.ring
                and self.columns == other.columns
                and self.target_twists == other.target_twists
                and self.source_twists == other.source_twists)

    def __repr__(self):
        return f"<FreeModuleMap {self.rows}x{self.cols} over {self.ring!r}>"

    # -- algebra --

    def compose(self, other: "FreeModuleMap") -> "FreeModuleMap":
        """Matrix product self * other; source twists may differ from
        other's target twists by a uniform shift (internal-degree offset).

        Column j of the product is the sum, over the terms b*x^m at row k of
        column j of `other`, of b*x^m times column k of `self`.
        """
        if self.ring != other.ring:
            raise ValueError("ring mismatch in composition")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in composition")
        if self.cols:
            offs = {self.source_twists[k] - other.target_twists[k] for k in range(self.cols)}
            if len(offs) != 1:
                raise ValueError("composition twists differ by a non-uniform shift")
            kappa = offs.pop()
        else:
            kappa = 0
        K = self.ring.field
        acols = self.columns
        cols = []
        for bcol in other.columns:
            out: dict = {}
            for (k, mono), b in bcol.items():
                _axpy(K, out, acols[k], b, mono)
            cols.append(out)
        return FreeModuleMap(self.ring, cols, self.target_twists,
                             [s + kappa for s in other.source_twists])

    def transpose(self) -> "FreeModuleMap":
        cols = [{} for _ in self.target_twists]
        for c, col in enumerate(self.columns):
            for (r, m), v in col.items():
                cols[r][(c, m)] = v
        return FreeModuleMap(self.ring, cols,
                             [-t for t in self.source_twists],
                             [-t for t in self.target_twists])

    def __add__(self, other):
        if (self.ring != other.ring or self.target_twists != other.target_twists
                or self.source_twists != other.source_twists):
            raise ValueError("twist mismatch in matrix sum")
        K = self.ring.field
        cols = []
        for a, b in zip(self.columns, other.columns):
            out = dict(a)
            _axpy(K, out, b, K.one)
            cols.append(out)
        return FreeModuleMap(self.ring, cols, self.target_twists, self.source_twists)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        cols = [{k: neg(v) for k, v in col.items()} for col in self.columns]
        return FreeModuleMap(self.ring, cols, self.target_twists, self.source_twists)

    def scaled_by(self, p: Polynomial) -> "FreeModuleMap":
        """Entrywise product with a homogeneous ring element."""
        d = 0 if p.is_zero() else p.homogeneous_degree()
        K = self.ring.field
        cols = []
        for col in self.columns:
            out: dict = {}
            for mono, a in p.terms.items():
                _axpy(K, out, col, a, mono)
            cols.append(out)
        return FreeModuleMap(self.ring, cols, self.target_twists,
                             [s + d for s in self.source_twists])

    def shifted(self, c: int) -> "FreeModuleMap":
        """Same matrix viewed with both twist lists shifted by c."""
        return FreeModuleMap(self.ring, self.columns,
                             [t + c for t in self.target_twists],
                             [s + c for s in self.source_twists])

    def submatrix(self, rows, cols) -> "FreeModuleMap":
        """The rows (distinct indices) and columns picked, in the given order."""
        rows = list(rows)
        new_row = {r: i for i, r in enumerate(rows)}
        picked = [{(new_row[r], m): v for (r, m), v in self.columns[c].items() if r in new_row}
                  for c in cols]
        return FreeModuleMap(self.ring, picked,
                             [self.target_twists[r] for r in rows],
                             [self.source_twists[c] for c in cols])

    @staticmethod
    def block(blocks) -> "FreeModuleMap":
        """Assemble from a grid of blocks with consistent twists.

        A None block is zero, with the target twists of its block row and
        the source twists of its block column; a block row or block column
        made only of None has no size and raises ValueError.
        """
        def common(line, attr, name):
            tws = {getattr(b, attr) for b in line if b is not None}
            if not tws:
                raise ValueError(f"block {name} made only of None")
            if len(tws) != 1:
                raise ValueError(f"block {name} with inconsistent {attr.replace('_', ' ')}")
            return tws.pop()

        target = []
        offsets = []
        for brow in blocks:
            offsets.append(len(target))
            target.extend(common(brow, "target_twists", "row"))
        ring = next(b for b in blocks[0] if b is not None).ring
        source = []
        cols = []
        for j in range(len(blocks[0])):
            bcol = [brow[j] for brow in blocks]
            tw = common(bcol, "source_twists", "column")
            source.extend(tw)
            for c in range(len(tw)):
                col = {}
                for off, b in zip(offsets, bcol):
                    if b is not None:
                        for (r, m), v in b.columns[c].items():
                            col[(r + off, m)] = v
                cols.append(col)
        return FreeModuleMap(ring, cols, target, source)

    def map_ring(self, target_ring: PolyRing, assignments=None) -> "FreeModuleMap":
        """Image under a ring map that appends variables or sends some to
        zero: the keys of every column go through one `ExponentRemap`.

        A nonzero assignment raises ValueError; `Polynomial.substitute` is
        the general ring map.
        """
        remap = ExponentRemap.of(self.ring, target_ring, assignments or {})
        if remap is None:
            raise ValueError("map_ring takes only zero assignments; "
                             "use Polynomial.substitute for a nonzero one")
        image = remap.monomial
        cols = [{(r, n): v for (r, m), v in col.items() if (n := image(m)) is not None}
                for col in self.columns]
        return FreeModuleMap(target_ring, cols, self.target_twists, self.source_twists)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A homogeneous ideal, carrying its generators and a cached reduced GB."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise ValueError("ideal generator from a different ring")
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous ideal generator {g}")
        self.ring = ring
        self.gens = gens
        self._gb = None

    def as_row(self) -> FreeModuleMap:
        return FreeModuleMap.from_rows(self.ring, [list(self.gens)], [0])

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = groebner(self.as_row())
        return self._gb

    def reduce(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        return normal_form(p, self.groebner())

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


# ---------------------------------------------------------------------------
# the Buchberger core


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


class _Elem:
    __slots__ = ("vec", "tail", "lm", "key", "single")

    def __init__(self, vec, lm, key, single):
        self.vec = vec
        self.lm = lm
        self.key = key
        self.single = single
        tail = dict(vec)
        del tail[lm]
        self.tail = tail


class _Engine:
    """Incremental Buchberger over a free module.

    Value components are 0..nvalue-1.  Tracking is decided per input: the
    j-th input added with tracked=True gets a unit in representation
    component nvalue+j, and a reduction that leaves only such terms is
    recorded as a syzygy in the coordinates of the tracked inputs.  An
    untracked input gets no unit, so each syzygy is a kernel vector
    projected onto the tracked inputs; `projected_syzygies` is the one
    routine that reads them, after `complete` and without `finalize`.

    Pairs are processed lowest degree first, kept per component of their
    lead.  After `complete_through(d)` the basis is a Groebner basis up to
    degree d, enough for membership in degree d, so `keep_independent`
    completes lazily, only that far before each test.
    """

    def __init__(self, ring: PolyRing, nvalue: int, comp_twists):
        self.ring = ring
        self.K = ring.field
        self.nvalue = nvalue
        self.comp_twists = tuple(comp_twists)
        self.basis: list[_Elem] = []
        self.leads: dict[int, list[tuple[tuple, int]]] = {}
        self.pairs: list = []
        self.alive: dict[int, dict[tuple[int, int], tuple]] = {}
        self.syzygies: list[dict] = []
        self.ninputs = 0
        self._zero_mono = (0,) * ring.nvars

    # -- term order --

    def _key(self, comp, mono):
        return (-comp,) + self.ring.mkey(mono)

    def _negkey(self, comp, mono):
        return tuple(-x for x in self._key(comp, mono))

    def lead(self, vec: dict):
        """Leading (component, monomial) of a nonzero vector: the largest
        monomial of its smallest component."""
        c0 = min(c for c, _m in vec)
        return c0, max((m for c, m in vec if c == c0), key=self.ring.mkey)

    def monic(self, vec: dict):
        """The lead of a nonzero vector and the vector scaled so that its
        lead coefficient is one."""
        lm = self.lead(vec)
        lc = vec[lm]
        if lc != self.K.one:
            inv = self.K.inv(lc)
            mul = self.K.mul
            vec = {k: mul(v, inv) for k, v in vec.items()}
        return lm, vec

    def reduce(self, vec: dict, skip_idx: int | None = None) -> dict:
        """Full normal form of the value part; representation terms ride along."""
        work = dict(vec)
        out: dict = {}
        nval = self.nvalue
        heap = [(self._negkey(c, m), c, m) for (c, m) in work if c < nval]
        heapq.heapify(heap)
        leads = self.leads
        basis = self.basis
        K = self.K
        negkey = self._negkey
        while heap:
            _, comp, mono = heapq.heappop(heap)
            cm = (comp, mono)
            c = work.get(cm)
            if c is None:
                continue
            idx = None
            for lmono, k in leads.get(comp, ()):
                if k != skip_idx and _divides(lmono, mono):
                    idx = k
                    break
            del work[cm]
            if idx is None:
                out[cm] = c
            else:
                g = basis[idx]
                shift = tuple(map(operator.sub, mono, g.lm[1]))
                new: list = []
                _axpy(K, work, g.tail, K.neg(c), shift, new)
                for k in new:
                    if k[0] < nval:
                        heapq.heappush(heap, (negkey(*k),) + k)
        out.update(work)  # leftover representation terms
        return out

    def has_value(self, vec: dict) -> bool:
        nval = self.nvalue
        return any(c < nval for (c, _m) in vec)

    # -- Buchberger --

    def add_input(self, vec: dict, tracked: bool = False):
        """Insert one generator (a dict over value components)."""
        v = dict(vec)
        if tracked:
            v[(self.nvalue + self.ninputs, self._zero_mono)] = self.K.one
            self.ninputs += 1
        self._process(v)

    def _process(self, vec: dict):
        r = self.reduce(vec)
        if not self.has_value(r):
            if r:
                self.syzygies.append(r)
            return
        self._insert(r)

    def _insert(self, vec: dict):
        # representation components come after the value ones, so the lead
        # of a vector with a value part is a value term
        lm, vec = self.monic(vec)
        nval = self.nvalue
        single = all(c == lm[0] for (c, _m) in vec if c < nval)
        elem = _Elem(vec, lm, self._key(*lm), single)
        idx = len(self.basis)
        self.basis.append(elem)
        self.leads.setdefault(lm[0], []).append((lm[1], idx))
        self._update_pairs(idx)

    def _pair_degree(self, comp, lcm):
        return self.ring.wdeg(lcm) + self.comp_twists[comp]

    def _push_pair(self, i, j, lcm):
        comp = self.basis[i].lm[0]
        self.alive.setdefault(comp, {})[(i, j)] = lcm
        heapq.heappush(self.pairs, (self._pair_degree(comp, lcm),
                                    self._key(comp, lcm), i, j))

    def _record_koszul(self, i, j):
        """Closed-form syzygy for a coprime pair of single-component elements."""
        if self.ninputs == 0:
            return
        fi, fj = self.basis[i], self.basis[j]
        comp = fi.lm[0]
        nval = self.nvalue
        p = {m: c for (cc, m), c in fi.vec.items() if cc == comp}
        q = {m: c for (cc, m), c in fj.vec.items() if cc == comp}
        rep_i = {k: c for k, c in fi.vec.items() if k[0] >= nval}
        rep_j = {k: c for k, c in fj.vec.items() if k[0] >= nval}
        syz: dict = {}
        K = self.K
        for m, c in q.items():
            _axpy(K, syz, rep_i, c, m)
        for m, c in p.items():
            _axpy(K, syz, rep_j, K.neg(c), m)
        if syz:
            self.syzygies.append(syz)

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update after inserting basis element t."""
        ft = self.basis[t]
        cf, mf = ft.lm

        def lcm_with(i):
            return tuple(max(a, b) for a, b in zip(self.basis[i].lm[1], mf))

        # chain criterion against the pending pairs of the same component
        alive = self.alive.get(cf, {})
        for (i, j), l in list(alive.items()):
            if (_divides(mf, l) and l != lcm_with(i) and l != lcm_with(j)):
                del alive[(i, j)]

        # the earlier elements of component cf, in index order; t is last
        cands = self.leads[cf][:-1]
        if not cands:
            return
        lcm_dict: dict[tuple, list[int]] = {}
        for lm, i in cands:
            lcm_dict.setdefault(tuple(map(max, lm, mf)), []).append(i)
        minimal: list[tuple] = []
        for l in sorted(lcm_dict, key=lambda m: self._key(cf, m)):
            if all(not _divides(l2, l) for l2 in minimal):
                minimal.append(l)
        for l in minimal:
            group = lcm_dict[l]
            coprime = [i for i in group
                       if l == tuple(a + b for a, b in zip(self.basis[i].lm[1], mf))
                       and self.basis[i].single and ft.single]
            if coprime:
                self._record_koszul(coprime[0], t)
            else:
                self._push_pair(min(group), t, l)

    def complete(self):
        """Process the pair queue until empty."""
        self.complete_through(math.inf)

    def complete_through(self, degree):
        """Process the pairs of degree at most `degree`, lowest first."""
        pairs = self.pairs
        while pairs and pairs[0][0] <= degree:
            _deg, _key, i, j = heapq.heappop(pairs)
            lcm = self.alive[self.basis[i].lm[0]].pop((i, j), None)
            if lcm is None:
                continue
            fi, fj = self.basis[i], self.basis[j]
            si = tuple(a - b for a, b in zip(lcm, fi.lm[1]))
            sj = tuple(a - b for a, b in zip(lcm, fj.lm[1]))
            s: dict = {}
            _axpy(self.K, s, fi.vec, self.K.one, si)
            _axpy(self.K, s, fj.vec, self.K.neg(self.K.one), sj)
            self._process(s)

    def finalize(self):
        """Complete, then minimalize and interreduce to the reduced GB."""
        self.complete()
        order = sorted(range(len(self.basis)), key=lambda k: self.basis[k].key)
        kept: list[int] = []
        for k in order:
            c, m = self.basis[k].lm
            if not any(self.basis[k2].lm[0] == c and _divides(self.basis[k2].lm[1], m)
                       for k2 in kept):
                kept.append(k)
        kept.sort(key=lambda k: self.basis[k].key, reverse=True)
        self.basis = [self.basis[k] for k in kept]
        self.leads = {}
        for idx, e in enumerate(self.basis):
            self.leads.setdefault(e.lm[0], []).append((e.lm[1], idx))
        for idx, e in enumerate(self.basis):
            r = self.reduce(e.vec, skip_idx=idx)
            single = all(c == e.lm[0] for (c, _m) in r if c < self.nvalue)
            self.basis[idx] = _Elem(r, e.lm, e.key, single)

    def keep_independent(self, vecs) -> list[int]:
        """Indices of the nonzero vectors that are not in the span of the
        inputs and of the vectors kept before them; each one kept joins the
        basis.

        The engine must have no tracked input.  Before a vector of degree d is
        tested, the pairs of degree at most d are processed: that makes the
        basis a Groebner basis up to degree d, which is all a degree-d
        membership test needs."""
        kept = []
        for i, vec in enumerate(vecs):
            if not vec:
                continue
            self.complete_through(self._pair_degree(*self.lead(vec)))
            r = self.reduce(vec)
            if self.has_value(r):
                kept.append(i)
                self._insert(r)
        return kept

    # -- views --

    def rep_of_remainder(self, rem: dict) -> dict:
        """Representation block of a reduced vector, reindexed from zero."""
        nval = self.nvalue
        return {(comp - nval, mono): c for (comp, mono), c in rem.items() if comp >= nval}


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of the column span of a module map."""

    generators: FreeModuleMap
    order: MonomialOrder
    reduced: bool
    _engine: _Engine

    @property
    def ring(self):
        return self.generators.ring


def groebner(gens: FreeModuleMap) -> GroebnerBasis:
    """Reduced Groebner basis of the column span of gens."""
    eng = _Engine(gens.ring, gens.rows, gens.target_twists)
    for vec in gens.columns:
        if vec:
            eng.add_input(vec)
    eng.finalize()
    cols = [e.vec for e in eng.basis]
    degs = [gens.ring.wdeg(e.lm[1]) + gens.target_twists[e.lm[0]] for e in eng.basis]
    mat = FreeModuleMap(gens.ring, cols, gens.target_twists, degs)
    return GroebnerBasis(mat, gens.ring.order, True, eng)


def normal_form(v, G: GroebnerBasis):
    """Remainder of v against G; v - result lies in the span of G."""
    if isinstance(v, Polynomial):
        if G.generators.rows != 1:
            raise ValueError("module shape mismatch: polynomial against module basis")
        if v.ring != G.ring:
            raise ValueError("ring mismatch")
        rem = G._engine.reduce({(0, m): c for m, c in v.terms.items()})
        return Polynomial(v.ring, {m: c for (_c, m), c in rem.items()})
    if isinstance(v, FreeModuleMap):
        if v.ring != G.ring:
            raise ValueError("ring mismatch")
        if v.rows != G.generators.rows:
            raise ValueError("module shape mismatch")
        outcols = [G._engine.reduce(vec) for vec in v.columns]
        return FreeModuleMap(v.ring, outcols, v.target_twists, v.source_twists)
    raise TypeError(f"cannot take normal form of {v!r}")


def projected_syzygies(m: FreeModuleMap, k: int) -> FreeModuleMap:
    """Generators of ker(m) projected onto its first k coordinates.

    Only the first k columns are tracked inputs, so the rest of the kernel
    is never built, and the basis is not interreduced.  The columns are
    monic, distinct and sorted by degree, then by descending lead.
    """
    eng = _Engine(m.ring, m.rows, m.target_twists)
    for c, vec in enumerate(m.columns):
        eng.add_input(vec, tracked=c < k)
    eng.complete()
    twists = m.source_twists[:k]
    seen = set()
    keyed = []
    for syz in eng.syzygies:
        vec = eng.rep_of_remainder(syz)
        if not vec:
            continue
        lm, vec = eng.monic(vec)
        fs = frozenset(vec.items())
        if fs in seen:
            continue
        seen.add(fs)
        keyed.append((m.ring.wdeg(lm[1]) + twists[lm[0]], eng._negkey(*lm), vec))
    keyed.sort(key=lambda dkv: dkv[:2])
    return FreeModuleMap(m.ring, [v for _d, _k, v in keyed], twists,
                         [d for d, _k, _v in keyed])


def syzygies(m: FreeModuleMap) -> FreeModuleMap:
    """Generators of ker(m), as columns with correct twists."""
    return projected_syzygies(m, m.cols)


def lift_through(b: FreeModuleMap, c: FreeModuleMap) -> FreeModuleMap:
    """Solve b * X = c for homogeneous X; NotLiftable if some column fails."""
    if b.ring != c.ring:
        raise ValueError("ring mismatch")
    if b.rows != c.rows:
        raise ValueError("shape mismatch: maps have different targets")
    if b.rows:
        offs = {c.target_twists[r] - b.target_twists[r] for r in range(b.rows)}
        if len(offs) != 1:
            raise ValueError("lift targets differ by a non-uniform twist shift")
        kappa = offs.pop()
    else:
        kappa = 0
    eng = _Engine(b.ring, b.rows, b.target_twists)
    for vec in b.columns:
        eng.add_input(vec, tracked=True)
    eng.finalize()  # the lifts are read off the reduced basis
    xcols = []
    for j, vec in enumerate(c.columns):
        rem = eng.reduce(vec)
        if eng.has_value(rem):
            raise NotLiftable(f"column {j} is not in the image")
        rep = eng.rep_of_remainder(rem)
        xcols.append({k: eng.K.neg(v) for k, v in rep.items()})
    return FreeModuleMap(b.ring, xcols, [t + kappa for t in b.source_twists],
                         c.source_twists)


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal I : f = {g : g*f in I}."""
    if f.is_zero():
        raise ValueError("cannot take an ideal quotient by zero")
    if f.ring != I.ring:
        raise ValueError("ring mismatch")
    row = FreeModuleMap.from_rows(I.ring, [[f] + list(I.gens)], [0])
    gens = [g for g in projected_syzygies(row, 1).row(0) if g]
    return Ideal(I.ring, minimal_generators(Ideal(I.ring, gens)))


def ideal_equal(I1: Ideal, I2: Ideal) -> bool:
    """True iff the two ideals have the same reduced Groebner basis."""
    if I1.ring != I2.ring:
        raise ValueError("ideals live in different rings")
    return I1.groebner().generators == I2.groebner().generators


def minimal_generators(I: Ideal) -> tuple[Polynomial, ...]:
    """A minimal homogeneous generating set, greedily pruned by degree."""
    return minimal_column_generators(I.groebner().generators).row(0)


def minimal_column_generators(m: FreeModuleMap) -> FreeModuleMap:
    """Prune columns that lie in the span of earlier (lower-degree) ones."""
    eng = _Engine(m.ring, m.rows, m.target_twists)
    order = sorted((c for c in range(m.cols) if m.columns[c]),
                   key=lambda c: (m.source_twists[c], eng._negkey(*eng.lead(m.columns[c]))))
    kept = eng.keep_independent([m.columns[c] for c in order])
    return m.submatrix(range(m.rows), [order[i] for i in kept])
