"""Groebner engine for ideals and submodules of graded free modules.

One Buchberger core serves four jobs: reduced Groebner bases, normal forms,
kernels and lifting (solving b*X = c).  Kernels and lifts come from the
extended-basis method: a tracked generator carries a representation block in
extra components that ride along through all reductions, so an S-pair that
reduces to zero *is* a syzygy of the inputs and a member's accumulated
representation *is* its expression in the generators.

Every kernel is read off an engine by `_kernel`.  `projected_syzygies(m, k)`
is the kernel of m projected onto its first k coordinates: only the first
k columns are tracked.  `syzygies` is the case k = m.cols; the syzygies of
J mod I, the Hom kernel and colon ideals project onto the coordinates they
need.  A kernel of rank one is free, so `_kernel` given that rank stops at
its generator; only a step of a minimal resolution passes it, and every
other kernel is completed.  Every membership test in a column span is one
engine method, `_Engine.keep`, which inserts a column iff it reduces to a
nonzero value part, and one loop, `_keep`, which completes the engine
through each column's degree before keeping it: `keep_independent` runs it
over a base, `minimal_column_generators` on an empty engine, and so does a
step of a minimal resolution, `minimal_columns_with_syzygies`, whose
pruning engine tracks the lowest degree and gives the syzygies too when
only that degree keeps columns.  Only `groebner` and `lift_through`
interreduce, a lift only through the top degree of its right-hand side, on
a view that leaves the engine free to complete further
(`_Engine.finalize`).  `syzygies`, `minimal_columns_with_syzygies` and
`lift_through` use the tracked engine on a matrix's columns; inside
`shared_engines` (one `km.unproject`) the engine a kernel was computed on is
kept with its matrix until the block ends (`_tracked_engine`), so the lifts
through a resolution's differentials reuse the engines that computed it,
and a lift keeps no engine of its own.

Module terms are ordered position-over-term: component 0 is largest, and the
representation block sits below all value components, which makes it an
elimination order for free.  Polynomials, matrices and the engine share one
term format, the ring's packed terms (`rings._TermCodec`): `Polynomial.terms`
(in row 0), `FreeModuleMap.columns` and the engine's vectors are all dicts
{packed term: coeff}.  A polynomial becomes a matrix entry by a shift of
its component bits, a column enters the engine as it is and the basis,
syzygies, lifts and kept columns leave as columns, and every multiply-add,
in a product of polynomials, in `compose` as in a reduction, is the ring's
one kernel.  The format is private to rings and gb, and no other
module builds or drives an engine: membership in a column span is
`keep_independent(base, m)`, and `Ideal.reduce` reduces a matrix entrywise.
"""
from __future__ import annotations

import copy
import heapq
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .rings import _GUARD, _WMASK, Polynomial, PolyRing, packed_remap


class NotLiftable(Exception):
    """A column is not in the image of the map it should lift through."""


# ---------------------------------------------------------------------------
# graded matrices


class FreeModuleMap:
    """Homogeneous matrix between graded free modules.

    Twists follow the R(-d) convention: a generator of degree d has twist
    entry d, and entry (r, c) is zero or homogeneous of weighted degree
    source_twists[c] - target_twists[r].

    Column c is stored as the Groebner engine's vector: a dict from the
    ring's packed terms (row, monomial) to nonzero coefficients.  A
    polynomial holds the same terms in row 0, so other modules build from
    polynomials with `from_rows` and `from_columns` and read polynomials
    back with `entry`, `row` and `column`, which only move component bits.
    Matrices are immutable, so columns may be shared.
    """

    __slots__ = ("ring", "columns", "target_twists", "source_twists")

    def __init__(self, ring: PolyRing, columns, target_twists, source_twists):
        columns = tuple(columns)
        target_twists = tuple(int(t) for t in target_twists)
        source_twists = tuple(int(t) for t in source_twists)
        if len(columns) != len(source_twists):
            raise ValueError("column count does not match source twists")
        nrows = len(target_twists)
        codec = ring._codec
        cs, ds, dmask = codec.cs, codec.ds, codec.dmask
        for c, col in enumerate(columns):
            s = source_twists[c]
            for t in col:
                r = -(t >> cs)
                if not 0 <= r < nrows:
                    raise ValueError(f"row {r} of column {c} is out of range")
                if (t >> ds) & dmask != s - target_twists[r]:
                    raise ValueError(
                        f"entry at ({r}, {c}) has a term of degree {(t >> ds) & dmask}, "
                        f"twists demand {s - target_twists[r]}")
        self.ring = ring
        self.columns = columns
        self.target_twists = target_twists
        self.source_twists = source_twists

    @classmethod
    def _unchecked(cls, ring, columns, target_twists, source_twists) -> "FreeModuleMap":
        """Build without the row and degree check of every term: for the
        operations whose result is well formed when their operands are."""
        m = object.__new__(cls)
        m.ring = ring
        m.columns = tuple(columns)
        m.target_twists = tuple(target_twists)
        m.source_twists = tuple(source_twists)
        return m

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
                if e:
                    columns[c][r] = e
                    if degrees[c] is None:
                        degrees[c] = e.degree() + target_twists[r]
        if source_twists is None:
            source_twists = [0 if d is None else d for d in degrees]
        return FreeModuleMap.from_columns(ring, columns, target_twists, source_twists)

    @staticmethod
    def from_columns(ring, columns, target_twists, source_twists) -> "FreeModuleMap":
        """Build from sparse columns, each a dict {row: polynomial}."""
        cs = ring._codec.cs
        return FreeModuleMap(ring, [{t - (r << cs): v for r, e in col.items()
                                     for t, v in e.terms.items()} for col in columns],
                             target_twists, source_twists)

    @staticmethod
    def zero(ring, target_twists, source_twists) -> "FreeModuleMap":
        return FreeModuleMap(ring, [{} for _ in source_twists], target_twists, source_twists)

    @staticmethod
    def identity(ring, twists) -> "FreeModuleMap":
        return FreeModuleMap.from_columns(ring, [{i: ring.one} for i in range(len(twists))],
                                          twists, twists)

    # -- shape and views --

    @property
    def rows(self) -> int:
        return len(self.target_twists)

    @property
    def cols(self) -> int:
        return len(self.source_twists)

    def entry(self, r: int, c: int) -> Polynomial:
        cs = self.ring._codec.cs
        up = r << cs
        return Polynomial(self.ring, {t + up: v for t, v in self.columns[c].items()
                                      if t >> cs == -r})

    def row(self, r: int) -> tuple[Polynomial, ...]:
        return tuple(self.entry(r, c) for c in range(self.cols))

    def column(self, c: int) -> tuple[Polynomial, ...]:
        cs, zero = self.ring._codec.cs, self.ring.zero
        terms: dict = {}
        for t, v in self.columns[c].items():
            terms.setdefault(-(t >> cs), {})[t - (t >> cs << cs)] = v
        return tuple(Polynomial(self.ring, terms[r]) if r in terms else zero
                     for r in range(self.rows))

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Dense rows of polynomials, zeros included, built on every access;
        only the benchmark under perfbench/ reads it (the tier-1 guard
        `test_no_command_reads_the_dense_view` patches it to fail)."""
        cols = [self.column(c) for c in range(self.cols)]
        return tuple(tuple(col[r] for col in cols) for r in range(self.rows))

    def nonzero_columns(self) -> list[int]:
        """Indices of the nonzero columns."""
        return [c for c, col in enumerate(self.columns) if col]

    def unit_entry(self) -> tuple[int, int] | None:
        """The lowest (row, column) whose entry is a unit, or None.  Entries
        are homogeneous, so a nonzero entry is a unit iff its row and its
        column have equal twists."""
        tt, units, cs = self.target_twists, set(self.target_twists), self.ring._codec.cs
        return min(((-(t >> cs), c) for c, s in enumerate(self.source_twists) if s in units
                    for t in self.columns[c] if tt[-(t >> cs)] == s), default=None)

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
        column j of `other`, of b*x^m times column k of `self`: one `axpy`
        each, shifted by that term moved to row 0.
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
        codec = self.ring._codec
        cs, axpy, envelope = codec.cs, codec.axpy, codec.envelope
        base = codec.one        # the term (0, 1)
        acols = self.columns
        envs = [None] * len(acols)
        cols = []
        for bcol in other.columns:
            out: dict = {}
            for t, b in bcol.items():
                k = -(t >> cs)
                env = envs[k]
                if env is None:
                    env = envs[k] = envelope(acols[k])
                axpy(out, acols[k], env, b, t + (k << cs) - base)
            cols.append(out)
        return FreeModuleMap._unchecked(self.ring, cols, self.target_twists,
                                        [s + kappa for s in other.source_twists])

    def transpose(self) -> "FreeModuleMap":
        cs = self.ring._codec.cs
        cols = [{} for _ in self.target_twists]
        for c, col in enumerate(self.columns):
            to_c = c << cs
            for t, v in col.items():
                r = -(t >> cs)
                cols[r][t + (r << cs) - to_c] = v
        return FreeModuleMap._unchecked(self.ring, cols,
                                        [-t for t in self.source_twists],
                                        [-t for t in self.target_twists])

    def __add__(self, other):
        if (self.ring != other.ring or self.target_twists != other.target_twists
                or self.source_twists != other.source_twists):
            raise ValueError("twist mismatch in matrix sum")
        axpy, one = self.ring._codec.axpy, self.ring.field.one
        cols = []
        for a, b in zip(self.columns, other.columns):
            out = dict(a)
            axpy(out, b, 0, one, 0)
            cols.append(out)
        return FreeModuleMap._unchecked(self.ring, cols, self.target_twists, self.source_twists)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        cols = [{k: neg(v) for k, v in col.items()} for col in self.columns]
        return FreeModuleMap._unchecked(self.ring, cols, self.target_twists, self.source_twists)

    def scaled_by(self, p: Polynomial) -> "FreeModuleMap":
        """Entrywise product with a homogeneous ring element."""
        d = 0 if p.is_zero() else p.homogeneous_degree()
        codec = self.ring._codec
        axpy, base = codec.axpy, codec.one
        shifts = [(t - base, a) for t, a in p.terms.items()]
        cols = []
        for col in self.columns:
            out: dict = {}
            env = codec.envelope(col)
            for q, a in shifts:
                axpy(out, col, env, a, q)
            cols.append(out)
        return FreeModuleMap(self.ring, cols, self.target_twists,
                             [s + d for s in self.source_twists])

    def shifted(self, c: int) -> "FreeModuleMap":
        """Same matrix viewed with both twist lists shifted by c."""
        return FreeModuleMap._unchecked(self.ring, self.columns,
                                        [t + c for t in self.target_twists],
                                        [s + c for s in self.source_twists])

    def submatrix(self, rows, cols) -> "FreeModuleMap":
        """The rows (distinct indices) and columns picked, in the given order."""
        rows = list(rows)
        cs = self.ring._codec.cs
        # a term of row r moves to row i by adding (r - i) << cs
        move = {-r: (r - i) << cs for i, r in enumerate(rows)}
        picked = [{t + m: v for t, v in self.columns[c].items()
                   if (m := move.get(t >> cs)) is not None} for c in cols]
        return FreeModuleMap._unchecked(self.ring, picked,
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
        cs = ring._codec.cs
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
                        down = off << cs
                        for t, v in b.columns[c].items():
                            col[t - down] = v
                cols.append(col)
        return FreeModuleMap._unchecked(ring, cols, target, source)

    def map_ring(self, target_ring: PolyRing, assignments=None) -> "FreeModuleMap":
        """Image under a ring map that appends variables or sends some to
        zero, by `packed_remap` on every term.  A nonzero assignment, or a
        target with another order or other weights on the variables kept,
        raises ValueError; `Polynomial.substitute` is the general ring map.
        """
        assignments = assignments or {}
        image = packed_remap(self.ring, target_ring, assignments)
        if image is None:
            if any(assignments.values()):
                raise ValueError("map_ring takes only zero assignments; "
                                 "use Polynomial.substitute for a nonzero one")
            raise ValueError("a matrix changes rings only to one with the same order "
                             "and the same weights on the variables it keeps")
        cols = [{u: v for t, v in col.items() if (u := image(t)) is not None}
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

    def reduce(self, p):
        """Normal form mod the ideal of a polynomial, or of a matrix entry
        by entry."""
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not isinstance(p, FreeModuleMap):
            return normal_form(p, self.groebner())
        reduce = self.groebner()._engine.reduce
        cs = self.ring._codec.cs
        cols = []
        for col in p.columns:
            entries: dict = {}
            for t, v in col.items():
                entries.setdefault(t >> cs, {})[t - (t >> cs << cs)] = v
            cols.append({t + (k << cs): v for k, e in entries.items()
                         for t, v in reduce(e).items()})
        return FreeModuleMap._unchecked(self.ring, cols, p.target_twists, p.source_twists)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


# ---------------------------------------------------------------------------
# the Buchberger core


class _Elem:
    __slots__ = ("vec", "tail", "lm", "comp", "x", "wide", "single", "env")


class _Engine:
    """Incremental Buchberger over a free module.

    Value components are 0..nvalue-1.  Tracking is decided per input: the
    j-th input added with tracked=True gets a unit in representation
    component nvalue+j, and a reduction that leaves only such terms is
    recorded as a syzygy in the coordinates of the tracked inputs.  An
    untracked input gets no unit, so each syzygy is a kernel vector
    projected onto the tracked inputs; `_kernel` is the one routine that
    reads them, after `complete`.

    Pairs are processed lowest degree first, kept per component of their
    lead, so after `complete_through(d)` the basis is a Groebner basis up to
    degree d.

    A vector is a `FreeModuleMap` column over the ring's packed terms
    (`rings._TermCodec`), whose int order is the term order.  The value
    components are the matrix rows, so only component bits move at the
    boundary: a representation block shifted up by nvalue components is a
    column.  Every multiply-add is the ring's `axpy`.

    The Gebauer-Moeller update works on packed terms alone.  Each basis
    element keeps x, its lead's exponent fields made to hold
    _EXP_MAX - exponent.  One subtraction (x_t | guards) - x_i marks, in
    the guard bits, the fields where lead i's exponent is at least lead
    t's and keeps the differences there: that excess is lcm / lead t, so
    the lcm is lead t times it, and the excess's weighted degree is one
    product with the packed weights (`_lcm_with`).  The product is exact
    while wdeg(lead i) * max weight < 2**16; a `wide` lead past that forms
    its lcms from exponent tuples.  The chain criterion compares only the
    exponent fields of a pending lcm with min(x_i, x_t), so it needs no
    degree.
    """

    def __init__(self, ring: PolyRing, nvalue: int, comp_twists):
        self.ring = ring
        self.K = ring.field
        self.codec = codec = ring._codec
        self.nvalue = nvalue
        self.comp_twists = tuple(comp_twists)
        self.basis: list[_Elem] = []
        self.leads: dict[int, list[tuple[int, int]]] = {}
        self.pairs: list = []
        self.alive: dict[int, dict[tuple[int, int], int]] = {}
        self.multi: set[int] = set()    # lead components of the vectors of 2+ terms
        self.syzygies: list[dict] = []
        self.ninputs = 0
        self._vfloor = (1 - nvalue) << codec.cs  # t >= _vfloor iff t is a value term

    # -- the boundary --

    def reduce(self, vec: dict) -> dict:
        """Full normal form of the value part; representation terms ride along."""
        return self._reduce(dict(vec))

    def add_input(self, vec: dict, tracked: bool = False):
        """Insert one generator (a vector over value components)."""
        v = dict(vec)
        if tracked:
            v[self.codec.base(self.nvalue + self.ninputs)] = self.K.one
            self.ninputs += 1
        self._process(v)

    def keep(self, vec: dict, tracked: bool = False) -> dict | None:
        """Reduce one vector, carrying the unit of the next tracked input
        when `tracked`.  A nonzero value part is inserted, taking that unit,
        and its monic form returned; otherwise None, and neither a syzygy
        nor an input index is recorded."""
        v = dict(vec)
        if tracked:
            v[self.codec.base(self.nvalue + self.ninputs)] = self.K.one
        r = self._reduce(v)
        if not self._has_value(r):
            return None
        if tracked:
            self.ninputs += 1
        return self._insert(r)

    def _rep_of_remainder(self, rem: dict) -> dict:
        """Representation block of a reduced vector, as a column over the
        tracked inputs."""
        vfloor, off = self._vfloor, self.nvalue << self.codec.cs
        return {t + off: c for t, c in rem.items() if t < vfloor}

    # -- vectors --

    def _monic(self, vec: dict):
        lm = max(vec)
        lc = vec[lm]
        if lc != self.K.one:
            inv = self.K.inv(lc)
            mul = self.K.mul
            vec = {k: mul(v, inv) for k, v in vec.items()}
        return lm, vec

    def _degree(self, t: int) -> int:
        return self.codec.wdeg(t) + self.comp_twists[-(t >> self.codec.cs)]

    def _reduce(self, work: dict) -> dict:
        """Normal form of a vector, which it consumes."""
        out: dict = {}
        codec = self.codec
        vfloor, guards, target, cs = self._vfloor, codec.guards, codec.dtarget, codec.cs
        axpy = codec.axpy
        heap = [-t for t in work if t >= vfloor]
        heapq.heapify(heap)
        leads = self.leads
        basis = self.basis
        neg = self.K.neg
        while heap:
            t = -heapq.heappop(heap)
            c = work.pop(t, None)
            if c is None:
                continue
            for dk, k in leads.get(-(t >> cs), ()):
                if (dk - t) & guards == target:
                    break
            else:
                out[t] = c
                continue
            g = basis[k]
            new: list = []
            axpy(work, g.tail, g.env, neg(c), t - g.lm, new)
            for u in new:
                if u >= vfloor:
                    heapq.heappush(heap, -u)
        out.update(work)  # leftover representation terms
        return out

    def _has_value(self, vec: dict) -> bool:
        return bool(vec) and max(vec) >= self._vfloor

    def _process(self, vec: dict):
        r = self._reduce(vec)
        if self._has_value(r):
            self._insert(r)
        elif r:
            self.syzygies.append(r)

    def _elem(self, vec: dict, lm: int) -> _Elem:
        codec = self.codec
        e = _Elem()
        e.vec = vec
        e.tail = tail = dict(vec)
        del tail[lm]
        e.lm = lm
        e.comp = -(lm >> codec.cs)
        e.x = (lm & codec.exps) ^ codec.flip
        # past this degree the packed lcm's weighted degree may overflow
        e.wide = codec.wdeg(lm) * codec.wmax > _WMASK
        # every value term in the lead's component; representation terms
        # lie below all value terms
        lo, vfloor = -e.comp << codec.cs, self._vfloor
        e.single = all(t >= lo or t < vfloor for t in vec)
        e.env = codec.envelope(vec)
        return e

    def _insert(self, vec: dict) -> dict:
        """Add a reduced vector to the basis; returns it made monic."""
        # representation components come after the value ones, so the lead
        # of a vector with a value part is a value term
        lm, vec = self._monic(vec)
        elem = self._elem(vec, lm)
        idx = len(self.basis)
        self.basis.append(elem)
        self.leads.setdefault(elem.comp, []).append((lm + self.codec.dshift, idx))
        self._update_pairs(idx)
        return vec

    def _push_pair(self, i, j, lcm):
        comp = self.basis[i].comp
        self.alive.setdefault(comp, {})[(i, j)] = lcm
        heapq.heappush(self.pairs, (self._degree(lcm), lcm, i, j))

    def _record_koszul(self, i, j):
        """Closed-form syzygy for a coprime pair of single-component elements."""
        if self.ninputs == 0:
            return
        fi, fj = self.basis[i], self.basis[j]
        codec, vfloor = self.codec, self._vfloor
        axpy, base = codec.axpy, codec.base(fi.comp)
        rep_i = {t: c for t, c in fi.vec.items() if t < vfloor}
        rep_j = {t: c for t, c in fj.vec.items() if t < vfloor}
        env_i, env_j = codec.envelope(rep_i), codec.envelope(rep_j)
        syz: dict = {}
        neg = self.K.neg
        for t, c in fj.vec.items():
            if t >= vfloor:
                axpy(syz, rep_i, env_i, c, t - base)
        for t, c in fi.vec.items():
            if t >= vfloor:
                axpy(syz, rep_j, env_j, neg(c), t - base)
        if syz:
            self.syzygies.append(syz)

    def _lcm_with(self, ft: _Elem):
        """The function fi -> packed lcm of the leads of fi and ft, two
        elements of one component: ft's lead times the excess of fi's lead
        over it (see the class docstring).  The excess is at most fi's
        exponents, so its degree product is exact unless fi is `wide`, whose
        lcms are formed from exponent tuples."""
        lt, cf = ft.lm, ft.comp
        codec = self.codec
        xtg = ft.x | codec.guards
        guards, wvec, wshift, ds, sign = (codec.guards, codec.wvec, codec.wshift,
                                          codec.ds, codec.qsign)
        pack, mono = codec.pack, codec.mono

        def lcm(fi):
            if fi.wide:
                return pack(cf, tuple(map(max, mono(fi.lm), mono(lt))))
            d = xtg - fi.x
            take = d & guards
            excess = d & (take - (take >> _GUARD))
            return lt + sign * excess + ((excess * wvec >> wshift & _WMASK) << ds)
        return lcm

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update after inserting basis element t.

        A pair of two one-term vectors is never queued: its S-vector is 0,
        and a tracked element always carries its unit.  So a one-term
        vector whose component holds only one-term vectors ends the update
        at once: that component has no pending pair for the chain criterion
        to delete, and a coprime pair there has no representation terms, so
        its Koszul syzygy is 0."""
        basis = self.basis
        ft = basis[t]
        cf, lt, xt = ft.comp, ft.lm, ft.x
        if len(ft.vec) > 1:
            self.multi.add(cf)
        elif cf not in self.multi:
            return
        codec = self.codec
        guards, target, dshift = codec.guards, codec.dtarget, codec.dshift
        exps, flip = codec.exps, codec.flip

        # chain criterion against the pending pairs of the same component;
        # l and lcm(i, t) lie in one component, so they are equal when their
        # exponent fields are, and those of lcm(i, t) are min(x_i, x_t)
        alive = self.alive.get(cf, {})
        dt = lt + dshift
        xtg = xt | guards
        for (i, j), l in list(alive.items()):
            if (dt - l) & guards == target:
                lx = (l & exps) ^ flip
                for k in (i, j):
                    d = xtg - basis[k].x
                    take = d & guards
                    if lx == xt - (d & (take - (take >> _GUARD))):
                        break
                else:
                    del alive[(i, j)]

        # the earlier elements of component cf, in index order; t is last
        cands = self.leads[cf][:-1]
        if not cands:
            return
        lcm = self._lcm_with(ft)
        lcm_dict: dict[int, list[int]] = {}
        for _dk, i in cands:
            lcm_dict.setdefault(lcm(basis[i]), []).append(i)
        minimal: list[int] = []
        for l in sorted(lcm_dict):
            for d in minimal:
                if (d - l) & guards == target:
                    break
            else:
                minimal.append(l + dshift)
        times_t = lt - codec.base(cf)   # multiplies a term of cf by ft's monomial
        for d in minimal:
            l = d - dshift
            group = lcm_dict[l]
            coprime = [i for i in group
                       if l == basis[i].lm + times_t and basis[i].single and ft.single]
            i = min(group)
            if coprime:
                self._record_koszul(coprime[0], t)
            elif len(basis[i].vec) > 1 or len(ft.vec) > 1:
                self._push_pair(i, t, l)

    def complete(self):
        """Process the pair queue until empty."""
        self.complete_through(math.inf)

    def complete_through(self, degree):
        """Process the pairs of degree at most `degree`, lowest first."""
        pairs = self.pairs
        basis = self.basis
        axpy = self.codec.axpy
        one = self.K.one
        while pairs and pairs[0][0] <= degree:
            _deg, lcm, i, j = heapq.heappop(pairs)
            fi, fj = basis[i], basis[j]
            if self.alive[fi.comp].pop((i, j), None) is None:
                continue
            s: dict = {}
            axpy(s, fi.vec, fi.env, one, lcm - fi.lm)
            axpy(s, fj.vec, fj.env, self.K.neg(one), lcm - fj.lm)
            self._process(s)

    def finalize(self, degree=math.inf) -> "_Engine":
        """Complete through `degree`, then return a reduce-only view whose
        basis is the elements of degree at most `degree`, minimalized and
        interreduced.

        With no bound this is the reduced Groebner basis.  With a bound d it
        is its part in degrees up to d, element for element: inputs are
        homogeneous and pairs are popped lowest degree first, so the pairs
        of degree <= d run in the same sequence whether or not the engine
        stops at d, and minimalizing or interreducing an element of degree e
        reads only elements of degree <= e, in the same relative order.  The
        engine itself keeps its basis and its pair queue, so it may complete
        further for a later, higher bound or for `_kernel`."""
        self.complete_through(degree)
        divides, dshift = self.codec.divides, self.codec.dshift
        kept: list[_Elem] = []
        low = [e for e in self.basis if self._degree(e.lm) <= degree]
        for e in sorted(low, key=lambda e: e.lm):
            if not any(k.comp == e.comp and divides(k.lm, e.lm) for k in kept):
                kept.append(e)
        kept.sort(key=lambda e: e.lm, reverse=True)
        view = copy.copy(self)
        view.basis, view.leads, view.pairs, view.alive = kept, {}, [], {}
        for idx, e in enumerate(kept):
            view.leads.setdefault(e.comp, []).append((e.lm + dshift, idx))
        for idx, e in enumerate(kept):
            # no kept lead divides another, and a tail term of e's component
            # has e's degree below its lead, so only the tail reduces
            kept[idx] = view._elem({e.lm: e.vec[e.lm], **view._reduce(dict(e.tail))}, e.lm)
        return view


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of the column span of a module map."""

    generators: FreeModuleMap
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
    eng = eng.finalize()
    cols = [e.vec for e in eng.basis]
    degs = [eng._degree(e.lm) for e in eng.basis]
    mat = FreeModuleMap(gens.ring, cols, gens.target_twists, degs)
    return GroebnerBasis(mat, eng)


def normal_form(v, G: GroebnerBasis):
    """Remainder of v against G; v - result lies in the span of G."""
    if isinstance(v, Polynomial):
        if G.generators.rows != 1:
            raise ValueError("module shape mismatch: polynomial against module basis")
        if v.ring != G.ring:
            raise ValueError("ring mismatch")
        return Polynomial(v.ring, G._engine.reduce(v.terms))
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
    return _kernel(_engine_on(m.ring, m.target_twists, m.columns, k), m.source_twists[:k])


def _engine_on(ring, target_twists, columns, k) -> _Engine:
    """An engine on the columns, the first k of them tracked, all added
    before any pair is processed."""
    eng = _Engine(ring, len(target_twists), target_twists)
    for c, vec in enumerate(columns):
        eng.add_input(vec, tracked=c < k)
    return eng


_POOL: ContextVar[dict | None] = ContextVar("engine_pool", default=None)


@contextmanager
def shared_engines():
    """Within the block, the tracked engine on which `syzygies` or
    `minimal_columns_with_syzygies` computes a matrix's kernel is kept, with
    the matrix, until the block ends, and `lift_through` on the same matrix
    object reuses it.  Outside a block every engine is built and dropped by
    the call that needs it."""
    token = _POOL.set({})
    try:
        yield
    finally:
        _POOL.reset(token)


def _tracked_engine(m: FreeModuleMap, built: _Engine | None = None) -> _Engine:
    """The engine on all of m's columns, tracked, as `_engine_on` builds it
    (`built`, if given, is one built that way).  Inside `shared_engines` it
    is kept by the matrix's id, and the matrix with it, so the id stays
    m's while the block is open."""
    pool = _POOL.get()
    if pool is not None and (hit := pool.get(id(m))) is not None:
        return hit[1]
    eng = built if built is not None else _engine_on(m.ring, m.target_twists, m.columns, m.cols)
    if pool is not None:
        pool[id(m)] = (m, eng)
    return eng


def _kernel(eng: _Engine, twists, rank=None) -> FreeModuleMap:
    """The syzygies of the engine, once its whole pair queue is processed,
    as columns over its tracked inputs, whose twists are given: monic,
    distinct and sorted by degree, then by descending lead.

    Given rank 1, the rank of the kernel, it stops early.  The kernel of a
    map of free modules is reflexive, and over a factorial ring a
    reflexive module of rank one is free (Bruns-Herzog 1.4), so it is
    R(-a), generated by its one-dimensional part in its lowest degree a.
    Once every pair of degree at most a has run, the syzygies recorded
    span the kernel through degree a, so the pairs run only until none of
    degree at most the lowest recorded degree is left, and the kernel is
    the one syzygy of that degree.  Only `minimal_columns_with_syzygies`
    passes a rank; the engine may complete further later."""
    if rank == 1:
        pairs, syzs, nv = eng.pairs, eng.syzygies, eng.nvalue
        cs, wdeg = eng.codec.cs, eng.codec.wdeg
        low, read = math.inf, 0
        while True:
            for syz in syzs[read:]:     # every term lies in the representation block
                t = next(iter(syz))
                low = min(low, wdeg(t) + twists[-(t >> cs) - nv])
            read = len(syzs)
            if not pairs or pairs[0][0] > low:
                break
            eng.complete_through(pairs[0][0])
    else:
        eng.complete()
    seen = set()
    keyed = []
    for syz in eng.syzygies:
        vec = eng._rep_of_remainder(syz)
        if not vec:
            continue
        lm, vec = eng._monic(vec)
        fs = frozenset(vec.items())
        if fs in seen:
            continue
        seen.add(fs)
        keyed.append((eng.codec.wdeg(lm) + twists[-(lm >> eng.codec.cs)], -lm, vec))
    keyed.sort(key=lambda dkv: dkv[:2])
    if rank == 1:
        del keyed[1:]
    return FreeModuleMap(eng.ring, [v for _d, _k, v in keyed], twists,
                         [d for d, _k, _v in keyed])


def syzygies(m: FreeModuleMap) -> FreeModuleMap:
    """Generators of ker(m), as columns with correct twists."""
    return _kernel(_tracked_engine(m), m.source_twists)


def lift_through(b: FreeModuleMap, c: FreeModuleMap) -> FreeModuleMap:
    """Solve b * X = c for homogeneous X; NotLiftable if some column fails.

    The engine is completed and interreduced only through d, the top degree
    of c's nonzero columns in b's grading (source twist minus kappa): the
    reductions read only basis elements of degree at most d, which
    `_Engine.finalize(d)` builds as the full reduced basis has them.  Inside
    `shared_engines` the engine is the one kept for b's syzygies, if b has
    one, which may have been completed further already, for b's syzygies or
    a higher lift; the pairs of degree <= d ran in the same sequence either
    way.  A lift keeps no engine of its own.
    """
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
    hit = (_POOL.get() or {}).get(id(b))
    eng = (hit[1] if hit else _engine_on(b.ring, b.target_twists, b.columns, b.cols)).finalize(
        max((s - kappa for s, vec in zip(c.source_twists, c.columns) if vec),
            default=-math.inf))
    xcols = []
    neg = eng.K.neg
    for j, vec in enumerate(c.columns):
        rem = eng.reduce(vec)
        if eng._has_value(rem):
            raise NotLiftable(f"column {j} is not in the image")
        rep = eng._rep_of_remainder(rem)
        xcols.append({k: neg(v) for k, v in rep.items()})
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


def _candidate_order(m: FreeModuleMap) -> list[int]:
    """The nonzero columns by degree, then by descending lead: the order in
    which pruning tests them."""
    return sorted(m.nonzero_columns(), key=lambda c: (m.source_twists[c], -max(m.columns[c])))


def _keep(eng: _Engine, m: FreeModuleMap, order,
          track_lowest: bool = False) -> tuple[list[int], list[dict]]:
    """The columns of m taken in `order` that `eng.keep` inserts, each after
    the pairs of degree at most its own ran, and their monic forms.  With
    `track_lowest`, the columns of the first degree met are tracked.

    Completed through e, the engine's basis is a Groebner basis up to
    degree e, so a degree-e column reduces to zero iff it lies in the span
    of the engine's inputs and of the columns kept before it; a kept column
    pushes only pairs of degree above e, as its lead is reduced."""
    kept, forms = [], []
    lowest = m.source_twists[order[0]] if order else None
    for c in order:
        e = m.source_twists[c]
        eng.complete_through(e)
        form = eng.keep(m.columns[c], tracked=track_lowest and e == lowest)
        if form is not None:
            kept.append(c)
            forms.append(form)
    return kept, forms


def minimal_column_generators(m: FreeModuleMap) -> FreeModuleMap:
    """Prune columns that lie in the span of earlier (lower-degree) ones:
    `_keep` on an empty engine, in `_candidate_order`."""
    kept = _keep(_Engine(m.ring, m.rows, m.target_twists), m, _candidate_order(m))[0]
    return m.submatrix(range(m.rows), kept)


def minimal_columns_with_syzygies(m: FreeModuleMap,
                                  rank: int | None = None) -> tuple[FreeModuleMap, FreeModuleMap]:
    """(d, syzygies(d)) for d = minimal_column_generators(m); `rank`, if
    given, is the rank of the span of m's columns.

    The pruning engine tracks the columns kept in the lowest degree.  When
    they are all of d, they were inserted before any pair ran, so completing
    that engine processes the pairs `syzygies(d)` processes, in the same
    order.  Otherwise one more engine, on d's columns, gives the syzygies.
    The kernel of d has rank d.cols - rank; when that is one, `_kernel`
    stops at its generator.
    """
    eng = _Engine(m.ring, m.rows, m.target_twists)
    d = m.submatrix(range(m.rows), _keep(eng, m, _candidate_order(m), track_lowest=True)[0])
    if eng.ninputs != d.cols:
        eng = None
    return d, _kernel(_tracked_engine(d, eng), d.source_twists,
                      None if rank is None else d.cols - rank)


def keep_independent(base: FreeModuleMap, m: FreeModuleMap) -> tuple[list[int], FreeModuleMap]:
    """The columns of m, in order, that lie outside the span of base's
    columns and of the columns of m kept before them: their indices, and
    their monic normal forms as the columns of a matrix.

    `_keep` on an untracked engine over base: before a column of degree e is
    tested only the pairs of degree at most e run, which is all a degree-e
    membership test needs.
    """
    if base.ring != m.ring or base.target_twists != m.target_twists:
        raise ValueError("base and m lie in different graded free modules")
    eng = _engine_on(base.ring, base.target_twists, base.columns, 0)
    kept, forms = _keep(eng, m, m.nonzero_columns())
    return kept, FreeModuleMap(m.ring, forms, m.target_twists, [m.source_twists[i] for i in kept])
