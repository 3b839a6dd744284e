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
interreduce.  A lift reads the basis only up to the top degree of its
right-hand side, so `lift_through` completes and interreduces only that
far; every input is homogeneous and pairs run lowest degree first, so the
lift is the one the full reduced basis gives.

Module terms are ordered position-over-term: component 0 is largest, and the
representation block sits below all value components, which makes it an
elimination order for free.

Inside `_Engine` a term (component, monomial) is one packed int whose
natural order is that term order (Bachmann-Schoenemann, Monagan-Pearce):
multiplying by a monomial is one addition, and a divisibility test is one
subtraction and a mask over guard bits.  The format is private to the
engine.  Vectors enter and leave it as {(component, exponent tuple): coeff},
the form `FreeModuleMap.columns` uses, at `_Engine.add_input` and
`reduce`, and where the public operations below read the basis, the
syzygies, the lifts and the kept columns.  No other module builds or drives
an engine: membership in a column span is `keep_independent(base, m)`, and
a matrix is reduced modulo an ideal entry by entry with `Ideal.reduce`.
"""
from __future__ import annotations

import heapq
import math
import operator
import struct
from dataclasses import dataclass

from .rings import ExponentRemap, Polynomial, PolyRing


class NotLiftable(Exception):
    """A column is not in the image of the map it should lift through."""


# ---------------------------------------------------------------------------
# graded matrices


def axpy(K, dst: dict, src: dict, c, shift=None):
    """dst += c * x^shift * src for vectors {(component, mono): coeff} over
    the field K."""
    add, mul = K.add, K.mul
    for (comp, mono), s in src.items():
        k = (comp, mono if shift is None else tuple(map(operator.add, mono, shift)))
        old = dst.get(k)
        if old is None:
            v = mul(c, s)
            if v:
                dst[k] = v
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

    def column(self, c: int) -> tuple[Polynomial, ...]:
        return tuple(self.entry(r, c) for r in range(self.rows))

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Dense rows of polynomials, zeros included, built on every access.

        Nothing in the library or its tests reads this view (the tier-1
        guard `test_no_command_reads_the_dense_view` patches it to fail); it
        stays only because the benchmark under perfbench/ still does, and
        goes once the benchmark reads `columns`."""
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
                axpy(K, out, acols[k], b, mono)
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
            axpy(K, out, b, K.one)
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
                axpy(K, out, col, a, mono)
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

    def reduce(self, p):
        """Normal form mod the ideal of a polynomial, or of a matrix entry
        by entry."""
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not isinstance(p, FreeModuleMap):
            return normal_form(p, self.groebner())
        reduce = self.groebner()._engine.reduce
        cols = []
        for col in p.columns:
            entries: dict = {}
            for (r, mono), v in col.items():
                entries.setdefault(r, {})[(0, mono)] = v
            cols.append({(r, mono): v for r, e in entries.items()
                         for (_z, mono), v in reduce(e).items()})
        return FreeModuleMap(self.ring, cols, p.target_twists, p.source_twists)

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


# ---------------------------------------------------------------------------
# the Buchberger core

_FIELD = 16              # bits of one exponent field; its top bit is a guard bit
_GUARD = _FIELD - 1
_EXP_MAX = (1 << _GUARD) - 1   # the largest exponent a packed term holds
_WMASK = (1 << _FIELD) - 1


def _too_large() -> ValueError:
    return ValueError(f"a term has an exponent above {_EXP_MAX}, "
                      "the largest the Groebner engine can hold")


class _Elem:
    __slots__ = ("vec", "tail", "lm", "comp", "x", "wide", "single", "env")


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
    degree d, enough for membership in degree d, so `_keep_independent`
    completes lazily, only that far before each test.

    Inside the engine a term (component c, monomial m) is one int, and the
    ints' natural order is the term order.  Bits from `_cs` up hold -c, so
    c = -(t >> _cs) and component 0 is largest.  Each exponent has a
    16-bit field whose top bit is a guard bit, so an exponent is at most
    `_EXP_MAX`; a field for the weighted degree is sized from the ring.
      grevlex: degree field above the exponent fields, which hold
               _EXP_MAX - e_i with x_n highest;
      lex:     fields holding e_i with x_1 highest, degree field lowest.
    Multiplying a term by a monomial adds an int, the quotient of two terms
    of one component is their difference, and a divides b when one
    subtraction leaves every guard bit as `_dtarget` says.  A shift that
    would push an exponent past its field raises ValueError before any term
    is built, by testing the shifted vector's envelope (the field-wise
    largest exponents of its terms) against the guard bits.

    The Gebauer-Moeller update works on packed terms alone.  Each basis
    element keeps x, its lead's exponent fields made to hold
    _EXP_MAX - exponent.  One subtraction (x_t | _guards) - x_i marks, in
    the guard bits, the fields where lead i's exponent is at least lead
    t's and keeps the differences there: that excess is lcm / lead t, so
    the lcm is lead t times it, and the excess's weighted degree is one
    product with the packed weights (`_lcm_with`).  The product is exact
    while wdeg(lead i) * max weight < 2**16; a `wide` lead past that forms
    its lcms from exponent tuples.  The chain criterion compares only the
    exponent fields of a pending lcm with min(x_i, x_t), so it needs no
    degree.

    Vectors cross the boundary as {(component, exponent tuple): coeff}:
    `add_input` and `reduce` take and return that form; the public
    operations below pack their inputs with `_pack_vec` and read the basis,
    the syzygies and the kept vectors through `_unpack_vec`.
    """

    def __init__(self, ring: PolyRing, nvalue: int, comp_twists):
        self.ring = ring
        self.K = ring.field
        self.nvalue = nvalue
        self.comp_twists = tuple(comp_twists)
        self.basis: list[_Elem] = []
        self.leads: dict[int, list[tuple[int, int]]] = {}
        self.pairs: list = []
        self.alive: dict[int, dict[tuple[int, int], int]] = {}
        self.syzygies: list[dict] = []
        self.ninputs = 0
        self._layout(ring)

    def _layout(self, ring):
        n = ring.nvars
        dw = (_EXP_MAX * sum(ring.weights)).bit_length()
        ones = sum(1 << (_FIELD * i) for i in range(n))
        lex = ring.order.kind == "lex"
        low = dw if lex else 0          # bit where the exponent fields start
        self._exps = (_EXP_MAX * ones) << low
        self._guards = (ones << _GUARD) << low
        self._ds = 0 if lex else _FIELD * n
        self._dmask = (1 << dw) - 1
        self._cs = cs = dw + _FIELD * n
        self._one = 0 if lex else self._exps   # the body of the monomial 1
        self._vfloor = (1 - self.nvalue) << cs  # t >= _vfloor iff t is a value term
        # a divides b iff (a + _dshift - b) & _guards == _dtarget
        self._dshift = -self._guards - 1 if lex else self._guards
        self._dtarget = 0 if lex else self._guards
        # xor with _flip makes every field hold _EXP_MAX - exponent
        self._flip = self._exps if lex else 0
        # the weighted degree of a monomial whose exponents e sit in the
        # exponent fields is (e * _wvec) >> _wshift & _WMASK, exact while no
        # field of the product reaches 2**16; multiplying a term by that
        # monomial adds _qsign * e + (degree << _ds)
        self._wvec = sum(w << _FIELD * (i if lex else n - 1 - i)
                         for i, w in enumerate(ring.weights))
        self._wshift = _FIELD * (n - 1) + low
        self._wmax = max(ring.weights, default=1)
        self._qsign = 1 if lex else -1
        codec = struct.Struct(f"{'>' if lex else '<'}{n}H")
        spack, sunpack, nbytes, wdeg = codec.pack, codec.unpack, 2 * n, ring.wdeg
        one, fields, ds = self._one, (1 << (_FIELD * n)) - 1, self._ds

        if lex:
            def pack(comp, mono):
                if max(mono) > _EXP_MAX:
                    raise _too_large()
                return (-comp << cs) + (int.from_bytes(spack(*mono), "big") << dw) + wdeg(mono)

            def unpack(t):
                return -(t >> cs), sunpack(((t >> dw) & fields).to_bytes(nbytes, "big"))
        else:
            def pack(comp, mono):
                if max(mono) > _EXP_MAX:
                    raise _too_large()
                return ((-comp << cs) + (wdeg(mono) << ds) + one
                        - int.from_bytes(spack(*mono), "little"))

            def unpack(t):
                return -(t >> cs), sunpack((one - (t & one)).to_bytes(nbytes, "little"))
        self._pack = pack
        self._unpack = unpack

    # -- packed terms --

    def _pack_vec(self, vec: dict) -> dict:
        pack = self._pack
        return {pack(c, m): v for (c, m), v in vec.items()}

    def _unpack_vec(self, vec: dict) -> dict:
        unpack = self._unpack
        return {unpack(t): v for t, v in vec.items()}

    def _base(self, comp: int) -> int:
        """The term (comp, 1)."""
        return (-comp << self._cs) + self._one

    def _wdeg(self, t: int) -> int:
        """Weighted degree of a packed term's monomial."""
        return (t >> self._ds) & self._dmask

    def _divides(self, a: int, b: int) -> bool:
        """The monomial of a divides that of b; both terms in one component."""
        return (a + self._dshift - b) & self._guards == self._dtarget

    def _envelope(self, terms) -> int:
        """Exponent fields, as a term holds them, of the lcm of the terms'
        monomials; every term still fits after a shift q iff
        (envelope + q) & _guards is 0."""
        guards, flip, exps = self._guards, self._flip, self._exps
        env = exps  # the monomial 1, each field holding _EXP_MAX - exponent
        for t in terms:
            x = (t & exps) ^ flip
            take = ((env | guards) - x) & guards   # guard bits of fields where x <= env
            take -= take >> _GUARD                 # ... widened to their exponent bits
            env = (x & take) | (env & ~take)
        return env ^ flip

    def _shifted_into(self, dst: dict, src: dict, env: int, c, q: int, new=None):
        """dst += c * src shifted by q, for packed vectors, where env is the
        envelope of src; terms that enter dst are appended to `new`."""
        if (env + q) & self._guards:
            raise _too_large()
        add, mul = self.K.add, self.K.mul
        get = dst.get
        for t, s in src.items():
            k = t + q
            old = get(k)
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

    # -- the boundary --

    def reduce(self, vec: dict) -> dict:
        """Full normal form of the value part; representation terms ride along."""
        return self._unpack_vec(self._reduce(self._pack_vec(vec)))

    def add_input(self, vec: dict, tracked: bool = False):
        """Insert one generator (a dict over value components)."""
        v = self._pack_vec(vec)
        if tracked:
            v[self._base(self.nvalue + self.ninputs)] = self.K.one
            self.ninputs += 1
        self._process(v)

    # -- packed vectors --

    def _monic(self, vec: dict):
        lm = max(vec)
        lc = vec[lm]
        if lc != self.K.one:
            inv = self.K.inv(lc)
            mul = self.K.mul
            vec = {k: mul(v, inv) for k, v in vec.items()}
        return lm, vec

    def _degree(self, t: int) -> int:
        return self._wdeg(t) + self.comp_twists[-(t >> self._cs)]

    def _reduce(self, work: dict, skip_idx: int | None = None) -> dict:
        """Normal form of a packed vector, which it consumes."""
        out: dict = {}
        vfloor, guards, target, cs = self._vfloor, self._guards, self._dtarget, self._cs
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
                if (dk - t) & guards == target and k != skip_idx:
                    break
            else:
                out[t] = c
                continue
            g = basis[k]
            new: list = []
            self._shifted_into(work, g.tail, g.env, neg(c), t - g.lm, new)
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
        e = _Elem()
        e.vec = vec
        e.tail = tail = dict(vec)
        del tail[lm]
        e.lm = lm
        e.comp = -(lm >> self._cs)
        e.x = (lm & self._exps) ^ self._flip
        # past this degree the packed lcm's weighted degree may overflow
        e.wide = self._wdeg(lm) * self._wmax > _WMASK
        # every value term in the lead's component; representation terms
        # lie below all value terms
        lo, vfloor = -e.comp << self._cs, self._vfloor
        e.single = all(t >= lo or t < vfloor for t in vec)
        e.env = self._envelope(vec)
        return e

    def _insert(self, vec: dict) -> dict:
        """Add a reduced vector to the basis; returns it made monic."""
        # representation components come after the value ones, so the lead
        # of a vector with a value part is a value term
        lm, vec = self._monic(vec)
        elem = self._elem(vec, lm)
        idx = len(self.basis)
        self.basis.append(elem)
        self.leads.setdefault(elem.comp, []).append((lm + self._dshift, idx))
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
        vfloor = self._vfloor
        base = self._base(fi.comp)
        rep_i = {t: c for t, c in fi.vec.items() if t < vfloor}
        rep_j = {t: c for t, c in fj.vec.items() if t < vfloor}
        env_i, env_j = self._envelope(rep_i), self._envelope(rep_j)
        syz: dict = {}
        neg = self.K.neg
        for t, c in fj.vec.items():
            if t >= vfloor:
                self._shifted_into(syz, rep_i, env_i, c, t - base)
        for t, c in fi.vec.items():
            if t >= vfloor:
                self._shifted_into(syz, rep_j, env_j, neg(c), t - base)
        if syz:
            self.syzygies.append(syz)

    def _lcm_with(self, ft: _Elem):
        """The function fi -> packed lcm of the leads of fi and ft, two
        elements of one component: ft's lead times the excess of fi's lead
        over it (see the class docstring).  The excess is at most fi's
        exponents, so its degree product is exact unless fi is `wide`, whose
        lcms are formed from exponent tuples."""
        lt, cf = ft.lm, ft.comp
        xtg = ft.x | self._guards
        guards, wvec, wshift, ds, sign = (self._guards, self._wvec, self._wshift,
                                          self._ds, self._qsign)
        pack, unpack = self._pack, self._unpack

        def lcm(fi):
            if fi.wide:
                return pack(cf, tuple(map(max, unpack(fi.lm)[1], unpack(lt)[1])))
            d = xtg - fi.x
            take = d & guards
            excess = d & (take - (take >> _GUARD))
            return lt + sign * excess + ((excess * wvec >> wshift & _WMASK) << ds)
        return lcm

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update after inserting basis element t.

        A pair of two one-term vectors is never queued: its S-vector is 0,
        and a tracked element always carries its unit."""
        basis = self.basis
        ft = basis[t]
        cf, lt, xt = ft.comp, ft.lm, ft.x
        guards, target, dshift = self._guards, self._dtarget, self._dshift
        exps, flip = self._exps, self._flip

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
        times_t = lt - self._base(cf)   # multiplies a term of cf by ft's monomial
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
        one = self.K.one
        while pairs and pairs[0][0] <= degree:
            _deg, lcm, i, j = heapq.heappop(pairs)
            fi, fj = basis[i], basis[j]
            if self.alive[fi.comp].pop((i, j), None) is None:
                continue
            s: dict = {}
            self._shifted_into(s, fi.vec, fi.env, one, lcm - fi.lm)
            self._shifted_into(s, fj.vec, fj.env, self.K.neg(one), lcm - fj.lm)
            self._process(s)

    def finalize(self, degree=math.inf):
        """Complete through `degree`, then minimalize and interreduce the
        basis elements of degree at most `degree`; the others are dropped.

        With no bound this is the reduced Groebner basis.  With a bound d the
        result is its part in degrees up to d, element for element: inputs
        are homogeneous and pairs are popped lowest degree first, so the
        pairs of degree <= d run in the same sequence whether or not the
        engine stops at d, and minimalizing or interreducing an element of
        degree e reads only elements of degree <= e, in the same relative
        order.  The pairs left in the queue are never processed: the engine
        takes no further work after `finalize`."""
        self.complete_through(degree)
        kept: list[_Elem] = []
        low = [e for e in self.basis if self._degree(e.lm) <= degree]
        for e in sorted(low, key=lambda e: e.lm):
            if not any(k.comp == e.comp and self._divides(k.lm, e.lm) for k in kept):
                kept.append(e)
        kept.sort(key=lambda e: e.lm, reverse=True)
        self.basis = kept
        self.leads = {}
        for idx, e in enumerate(kept):
            self.leads.setdefault(e.comp, []).append((e.lm + self._dshift, idx))
        for idx, e in enumerate(kept):
            kept[idx] = self._elem(self._reduce(dict(e.vec), skip_idx=idx), e.lm)

    def _keep_independent(self, vecs) -> list[tuple[int, dict]]:
        """(index, monic normal form) of each packed vector that is not in
        the span of the inputs and of the vectors kept before it; each one
        kept joins the basis.

        The engine must have no tracked input.  Before a vector of degree d
        is tested, the pairs of degree at most d are processed: that makes
        the basis a Groebner basis up to degree d, which is all a degree-d
        membership test needs."""
        kept = []
        for i, vec in enumerate(vecs):
            if not vec:
                continue
            self.complete_through(self._degree(max(vec)))
            r = self._reduce(vec)
            if self._has_value(r):
                kept.append((i, self._insert(r)))
        return kept

    # -- views --

    def _rep_of_remainder(self, rem: dict) -> dict:
        """Representation block of a reduced packed vector, reindexed from
        zero and still packed."""
        vfloor, off = self._vfloor, self.nvalue << self._cs
        return {t + off: c for t, c in rem.items() if t < vfloor}


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of the column span of a module map."""

    generators: FreeModuleMap
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
    cols = [eng._unpack_vec(e.vec) for e in eng.basis]
    degs = [eng._degree(e.lm) for e in eng.basis]
    mat = FreeModuleMap(gens.ring, cols, gens.target_twists, degs)
    return GroebnerBasis(mat, True, eng)


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
        vec = eng._rep_of_remainder(syz)
        if not vec:
            continue
        lm, vec = eng._monic(vec)
        fs = frozenset(vec.items())
        if fs in seen:
            continue
        seen.add(fs)
        keyed.append((eng._wdeg(lm) + twists[-(lm >> eng._cs)], -lm, vec))
    keyed.sort(key=lambda dkv: dkv[:2])
    return FreeModuleMap(m.ring, [eng._unpack_vec(v) for _d, _k, v in keyed], twists,
                         [d for d, _k, _v in keyed])


def syzygies(m: FreeModuleMap) -> FreeModuleMap:
    """Generators of ker(m), as columns with correct twists."""
    return projected_syzygies(m, m.cols)


def lift_through(b: FreeModuleMap, c: FreeModuleMap) -> FreeModuleMap:
    """Solve b * X = c for homogeneous X; NotLiftable if some column fails.

    The engine is completed and interreduced only through d, the top degree
    of c's nonzero columns in b's grading (source twist minus kappa).
    Reducing a column of degree at most d reads only basis elements of
    degree at most d, and `_Engine.finalize(d)` builds exactly those of the
    full reduced basis, so X, and the index of a column outside the image,
    are the ones a full completion gives.
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
    eng = _Engine(b.ring, b.rows, b.target_twists)
    for vec in b.columns:
        eng.add_input(vec, tracked=True)
    eng.finalize(max((s - kappa for s, vec in zip(c.source_twists, c.columns) if vec),
                     default=-math.inf))
    xcols = []
    neg = eng.K.neg
    for j, vec in enumerate(c.columns):
        rem = eng._reduce(eng._pack_vec(vec))
        if eng._has_value(rem):
            raise NotLiftable(f"column {j} is not in the image")
        rep = eng._unpack_vec(eng._rep_of_remainder(rem))
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


def minimal_column_generators(m: FreeModuleMap) -> FreeModuleMap:
    """Prune columns that lie in the span of earlier (lower-degree) ones."""
    eng = _Engine(m.ring, m.rows, m.target_twists)
    packed = {c: eng._pack_vec(vec) for c, vec in enumerate(m.columns) if vec}
    order = sorted(packed, key=lambda c: (m.source_twists[c], -max(packed[c])))
    kept = eng._keep_independent([packed[c] for c in order])
    return m.submatrix(range(m.rows), [order[i] for i, _vec in kept])


def keep_independent(base: FreeModuleMap, m: FreeModuleMap) -> tuple[list[int], FreeModuleMap]:
    """The columns of m, in order, that lie outside the span of base's
    columns and of the columns of m kept before them: their indices, and
    their monic normal forms as the columns of a matrix.

    Before a column of degree d is tested, the engine is completed only
    through degree d, which is all a degree-d membership test needs.
    """
    if base.ring != m.ring or base.target_twists != m.target_twists:
        raise ValueError("base and m lie in different graded free modules")
    eng = _Engine(base.ring, base.rows, base.target_twists)
    for vec in base.columns:
        eng.add_input(vec)
    kept = eng._keep_independent([eng._pack_vec(vec) for vec in m.columns])
    return ([i for i, _vec in kept],
            FreeModuleMap(m.ring, [eng._unpack_vec(vec) for _i, vec in kept],
                          m.target_twists, [m.source_twists[i] for i, _vec in kept]))
