"""Groebner engine for ideals and submodules of graded free modules.

One Buchberger core serves four jobs: reduced Groebner bases, normal forms,
syzygies and lifting (solving b*X = c).  Syzygies and lifts come from the
extended-basis method: every generator carries a representation block in
extra components that ride along through all reductions, so an S-pair that
reduces to zero *is* a syzygy of the inputs and a member's accumulated
representation *is* its expression in the generators.

Module terms are ordered position-over-term: component 0 is largest, and the
representation block sits below all value components, which makes it an
elimination order for free.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .rings import MonomialOrder, Polynomial, PolyRing


class NotLiftable(Exception):
    """A column is not in the image of the map it should lift through."""


# ---------------------------------------------------------------------------
# graded matrices


class FreeModuleMap:
    """Homogeneous matrix between graded free modules.

    Twists follow the R(-d) convention: a generator of degree d has twist
    entry d, and entry (r, c) is zero or homogeneous of weighted degree
    source_twists[c] - target_twists[r].
    """

    __slots__ = ("ring", "entries", "target_twists", "source_twists")

    def __init__(self, ring: PolyRing, entries, target_twists, source_twists):
        entries = tuple(tuple(row) for row in entries)
        target_twists = tuple(int(t) for t in target_twists)
        source_twists = tuple(int(t) for t in source_twists)
        if len(entries) != len(target_twists):
            raise ValueError("row count does not match target twists")
        for row in entries:
            if len(row) != len(source_twists):
                raise ValueError("column count does not match source twists")
        for r, row in enumerate(entries):
            for c, e in enumerate(row):
                if e.ring != ring:
                    raise ValueError("matrix entry from a different ring")
                if e.is_zero():
                    continue
                if not e.is_homogeneous():
                    raise ValueError(f"inhomogeneous entry at ({r}, {c}): {e}")
                want = source_twists[c] - target_twists[r]
                if e.degree() != want:
                    raise ValueError(
                        f"entry at ({r}, {c}) has degree {e.degree()}, "
                        f"twists demand {want}")
        self.ring = ring
        self.entries = entries
        self.target_twists = target_twists
        self.source_twists = source_twists

    # -- construction helpers --

    @staticmethod
    def from_rows(ring, rows, target_twists=None, source_twists=None) -> "FreeModuleMap":
        """Build from rows of polynomials, inferring twists where omitted."""
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if target_twists is None:
            target_twists = [0] * nrows
        if source_twists is None:
            source_twists = []
            for c in range(ncols):
                tw = 0
                for r in range(nrows):
                    e = rows[r][c]
                    if not e.is_zero():
                        tw = e.homogeneous_degree() + target_twists[r]
                        break
                source_twists.append(tw)
        return FreeModuleMap(ring, rows, target_twists, source_twists)

    @staticmethod
    def zero(ring, target_twists, source_twists) -> "FreeModuleMap":
        z = ring.zero
        rows = [[z] * len(source_twists) for _ in target_twists]
        return FreeModuleMap(ring, rows, target_twists, source_twists)

    @staticmethod
    def identity(ring, twists) -> "FreeModuleMap":
        n = len(twists)
        rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        return FreeModuleMap(ring, rows, twists, twists)

    # -- shape --

    @property
    def rows(self) -> int:
        return len(self.target_twists)

    @property
    def cols(self) -> int:
        return len(self.source_twists)

    def entry(self, r: int, c: int) -> Polynomial:
        return self.entries[r][c]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleMap)
                and self.ring == other.ring
                and self.entries == other.entries
                and self.target_twists == other.target_twists
                and self.source_twists == other.source_twists)

    def __hash__(self):
        return hash((self.ring, self.entries, self.target_twists, self.source_twists))

    def __repr__(self):
        return f"<FreeModuleMap {self.rows}x{self.cols} over {self.ring!r}>"

    # -- algebra --

    def compose(self, other: "FreeModuleMap") -> "FreeModuleMap":
        """Matrix product self * other; source twists may differ from
        other's target twists by a uniform shift (internal-degree offset)."""
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
        z = self.ring.zero
        rows = []
        for r in range(self.rows):
            row = []
            for c in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[r][k]
                    b = other.entries[k][c]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return FreeModuleMap(self.ring, rows, self.target_twists,
                             [s + kappa for s in other.source_twists])

    def transpose(self) -> "FreeModuleMap":
        rows = [[self.entries[r][c] for r in range(self.rows)] for c in range(self.cols)]
        return FreeModuleMap(self.ring, rows,
                             [-t for t in self.source_twists],
                             [-t for t in self.target_twists])

    def __add__(self, other):
        if (self.ring != other.ring or self.target_twists != other.target_twists
                or self.source_twists != other.source_twists):
            raise ValueError("twist mismatch in matrix sum")
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return FreeModuleMap(self.ring, rows, self.target_twists, self.source_twists)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        rows = [[-e for e in row] for row in self.entries]
        return FreeModuleMap(self.ring, rows, self.target_twists, self.source_twists)

    def scaled_by(self, p: Polynomial) -> "FreeModuleMap":
        """Entrywise product with a homogeneous ring element."""
        d = 0 if p.is_zero() else p.homogeneous_degree()
        rows = [[p * e for e in row] for row in self.entries]
        return FreeModuleMap(self.ring, rows, self.target_twists,
                             [s + d for s in self.source_twists])

    def shifted(self, c: int) -> "FreeModuleMap":
        """Same matrix viewed with both twist lists shifted by c."""
        return FreeModuleMap(self.ring, self.entries,
                             [t + c for t in self.target_twists],
                             [s + c for s in self.source_twists])

    def submatrix(self, rows, cols) -> "FreeModuleMap":
        ent = [[self.entries[r][c] for c in cols] for r in rows]
        return FreeModuleMap(self.ring, ent,
                             [self.target_twists[r] for r in rows],
                             [self.source_twists[c] for c in cols])

    @staticmethod
    def block(blocks) -> "FreeModuleMap":
        """Assemble from a grid of blocks with consistent twists."""
        ring = blocks[0][0].ring
        target = []
        for brow in blocks:
            tw = brow[0].target_twists
            for b in brow:
                if b.target_twists != tw:
                    raise ValueError("block row with inconsistent target twists")
            target.extend(tw)
        source = []
        for j in range(len(blocks[0])):
            tw = blocks[0][j].source_twists
            for brow in blocks:
                if brow[j].source_twists != tw:
                    raise ValueError("block column with inconsistent source twists")
        for b in blocks[0]:
            source.extend(b.source_twists)
        rows = []
        for brow in blocks:
            for r in range(brow[0].rows):
                row = []
                for b in brow:
                    row.extend(b.entries[r])
                rows.append(row)
        return FreeModuleMap(ring, rows, target, source)

    def map_ring(self, target_ring: PolyRing, assignments=None) -> "FreeModuleMap":
        """Apply a ring map (variable substitution) to every entry."""
        assignments = assignments or {}
        rows = [[e.substitute(assignments, target_ring) for e in row]
                for row in self.entries]
        return FreeModuleMap(target_ring, rows, self.target_twists, self.source_twists)

    # -- engine interop --

    def column_vector(self, c: int) -> dict:
        vec = {}
        for r in range(self.rows):
            e = self.entries[r][c]
            for mono, coeff in e.terms.items():
                vec[(r, mono)] = coeff
        return vec

    def column_vectors(self) -> list[dict]:
        return [self.column_vector(c) for c in range(self.cols)]

    @staticmethod
    def from_column_vectors(ring, nrows, vecs, target_twists, source_twists) -> "FreeModuleMap":
        rows = [[dict() for _ in vecs] for _ in range(nrows)]
        for c, vec in enumerate(vecs):
            for (comp, mono), coeff in vec.items():
                rows[comp][c][mono] = coeff
        ent = [[Polynomial(ring, d) for d in row] for row in rows]
        return FreeModuleMap(ring, ent, target_twists, source_twists)


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
    """Incremental Buchberger over a free module with optional tracking.

    Value components are 0..nvalue-1.  With track=True the j-th input also
    gets a unit in representation component nvalue+j; zero reductions are
    then recorded, in input coordinates, as syzygies.
    """

    def __init__(self, ring: PolyRing, nvalue: int, comp_twists=None, track: bool = False):
        self.ring = ring
        self.K = ring.field
        self.nvalue = nvalue
        self.comp_twists = tuple(comp_twists) if comp_twists is not None else (0,) * nvalue
        self.track = track
        self.basis: list[_Elem] = []
        self.leads: dict[int, list[tuple[tuple, int]]] = {}
        self.pairs: list = []
        self.alive: dict[tuple[int, int], tuple] = {}
        self.syzygies: list[dict] = []
        self.ninputs = 0
        self._zero_mono = (0,) * ring.nvars

    # -- term order --

    def _key(self, comp, mono):
        return (-comp,) + self.ring.mkey(mono)

    def _negkey(self, comp, mono):
        return tuple(-x for x in self._key(comp, mono))

    # -- vector helpers --

    def _axpy(self, dst: dict, src: dict, c, shift, push=None):
        """dst += c * x^shift * src, pushing new value-term keys onto push."""
        K = self.K
        add, mul = K.add, K.mul
        nval = self.nvalue
        for (comp, mono), s in src.items():
            m2 = tuple(a + b for a, b in zip(mono, shift))
            k = (comp, m2)
            old = dst.get(k)
            if old is None:
                v = mul(c, s)
                if v:
                    dst[k] = v
                    if push is not None and comp < nval:
                        heapq.heappush(push, (self._negkey(comp, m2), comp, m2))
            else:
                v = add(old, mul(c, s))
                if v:
                    dst[k] = v
                else:
                    del dst[k]

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
                shift = tuple(a - b for a, b in zip(mono, g.lm[1]))
                self._axpy(work, g.tail, K.neg(c), shift, push=heap)
        out.update(work)  # leftover representation terms
        return out

    def has_value(self, vec: dict) -> bool:
        nval = self.nvalue
        return any(c < nval for (c, _m) in vec)

    # -- Buchberger --

    def add_input(self, vec: dict):
        """Insert one generator (a dict over value components)."""
        j = self.ninputs
        self.ninputs += 1
        v = dict(vec)
        if self.track:
            v[(self.nvalue + j, self._zero_mono)] = self.K.one
        self._process(v)

    def _process(self, vec: dict):
        r = self.reduce(vec)
        if not self.has_value(r):
            if self.track and r:
                self.syzygies.append(r)
            return
        self._insert(r)

    def _insert(self, vec: dict):
        nval = self.nvalue
        lm = max(((c, m) for (c, m) in vec if c < nval), key=lambda cm: self._key(*cm))
        lc = vec[lm]
        if lc != self.K.one:
            inv = self.K.inv(lc)
            mul = self.K.mul
            vec = {k: mul(v, inv) for k, v in vec.items()}
        single = all(c == lm[0] for (c, _m) in vec if c < nval)
        elem = _Elem(vec, lm, self._key(*lm), single)
        idx = len(self.basis)
        self.basis.append(elem)
        self.leads.setdefault(lm[0], []).append((lm[1], idx))
        self._update_pairs(idx)

    def _pair_degree(self, comp, lcm):
        return self.ring.wdeg(lcm) + (self.comp_twists[comp] if comp < len(self.comp_twists) else 0)

    def _push_pair(self, i, j, lcm):
        comp = self.basis[i].lm[0]
        self.alive[(i, j)] = lcm
        heapq.heappush(self.pairs, (self._pair_degree(comp, lcm),
                                    self._key(comp, lcm), i, j))

    def _record_koszul(self, i, j):
        """Closed-form syzygy for a coprime pair of single-component elements."""
        if not self.track:
            return
        fi, fj = self.basis[i], self.basis[j]
        comp = fi.lm[0]
        nval = self.nvalue
        p = {m: c for (cc, m), c in fi.vec.items() if cc == comp}
        q = {m: c for (cc, m), c in fj.vec.items() if cc == comp}
        rep_i = {k: c for k, c in fi.vec.items() if k[0] >= nval}
        rep_j = {k: c for k, c in fj.vec.items() if k[0] >= nval}
        syz: dict = {}
        for m, c in q.items():
            self._axpy(syz, rep_i, c, m)
        K = self.K
        for m, c in p.items():
            self._axpy(syz, rep_j, K.neg(c), m)
        if syz:
            self.syzygies.append(syz)

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update after inserting basis element t."""
        ft = self.basis[t]
        cf, mf = ft.lm

        def lcm_with(i):
            return tuple(max(a, b) for a, b in zip(self.basis[i].lm[1], mf))

        # chain criterion against existing pairs
        for (i, j), l in list(self.alive.items()):
            if self.basis[i].lm[0] != cf:
                continue
            if (_divides(mf, l) and l != lcm_with(i) and l != lcm_with(j)):
                del self.alive[(i, j)]

        cands = [i for i in range(t) if self.basis[i].lm[0] == cf]
        if not cands:
            return
        lcm_dict: dict[tuple, list[int]] = {}
        for i in cands:
            lcm_dict.setdefault(lcm_with(i), []).append(i)
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
        while self.pairs:
            _deg, _key, i, j = heapq.heappop(self.pairs)
            lcm = self.alive.pop((i, j), None)
            if lcm is None:
                continue
            fi, fj = self.basis[i], self.basis[j]
            si = tuple(a - b for a, b in zip(lcm, fi.lm[1]))
            sj = tuple(a - b for a, b in zip(lcm, fj.lm[1]))
            s: dict = {}
            self._axpy(s, fi.vec, self.K.one, si)
            self._axpy(s, fj.vec, self.K.neg(self.K.one), sj)
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


def _column_degrees(vecs, ring, comp_twists) -> list[int]:
    out = []
    for vec in vecs:
        (comp, mono) = next(iter(vec))
        out.append(ring.wdeg(mono) + comp_twists[comp])
    return out


def groebner(gens: FreeModuleMap) -> GroebnerBasis:
    """Reduced Groebner basis of the column span of gens."""
    eng = _Engine(gens.ring, gens.rows, gens.target_twists, track=False)
    for vec in gens.column_vectors():
        if vec:
            eng.add_input(vec)
    eng.finalize()
    cols = [e.vec for e in eng.basis]
    degs = _column_degrees(cols, gens.ring, gens.target_twists)
    mat = FreeModuleMap.from_column_vectors(gens.ring, gens.rows, cols,
                                            gens.target_twists, degs)
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
        outcols = [G._engine.reduce(vec) for vec in v.column_vectors()]
        return FreeModuleMap.from_column_vectors(v.ring, v.rows, outcols,
                                                 v.target_twists, v.source_twists)
    raise TypeError(f"cannot take normal form of {v!r}")


def _extended_engine(m: FreeModuleMap) -> _Engine:
    eng = _Engine(m.ring, m.rows, m.target_twists, track=True)
    for vec in m.column_vectors():
        eng.add_input(vec)
    eng.finalize()
    return eng


def syzygies(m: FreeModuleMap) -> FreeModuleMap:
    """Generators of ker(m), as columns with correct twists."""
    eng = _extended_engine(m)
    seen = set()
    cols = []
    for syz in eng.syzygies:
        vec = eng.rep_of_remainder(syz)
        if not vec:
            continue
        lm = max(vec, key=lambda cm: eng._key(*cm))
        lc = vec[lm]
        if lc != eng.K.one:
            inv = eng.K.inv(lc)
            vec = {k: eng.K.mul(c, inv) for k, c in vec.items()}
        fs = frozenset(vec.items())
        if fs in seen:
            continue
        seen.add(fs)
        cols.append(vec)
    degs = _column_degrees(cols, m.ring, m.source_twists)
    keyed = sorted(zip(cols, degs),
                   key=lambda cd: (cd[1], tuple(-x for x in eng._key(
                       *max(cd[0], key=lambda cm: eng._key(*cm))))))
    cols = [c for c, _d in keyed]
    degs = [d for _c, d in keyed]
    return FreeModuleMap.from_column_vectors(m.ring, m.cols, cols,
                                             m.source_twists, degs)


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
    eng = _extended_engine(b)
    xcols = []
    for j, vec in enumerate(c.column_vectors()):
        rem = eng.reduce(vec)
        if eng.has_value(rem):
            raise NotLiftable(f"column {j} is not in the image")
        rep = eng.rep_of_remainder(rem)
        xcols.append({k: eng.K.neg(v) for k, v in rep.items()})
    return FreeModuleMap.from_column_vectors(
        b.ring, b.cols, xcols,
        [t + kappa for t in b.source_twists], c.source_twists)


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal I : f = {g : g*f in I}."""
    if f.is_zero():
        raise ValueError("cannot take an ideal quotient by zero")
    if f.ring != I.ring:
        raise ValueError("ring mismatch")
    row = FreeModuleMap.from_rows(I.ring, [list(I.gens) + [f]], [0])
    syz = syzygies(row)
    last = row.cols - 1
    gens = []
    for c in range(syz.cols):
        t = syz.entries[last][c]
        if not t.is_zero():
            gens.append(t.monic())
    return Ideal(I.ring, minimal_generators(Ideal(I.ring, gens)))


def ideal_equal(I1: Ideal, I2: Ideal) -> bool:
    """True iff the two ideals have the same reduced Groebner basis."""
    if I1.ring != I2.ring:
        raise ValueError("ideals live in different rings")
    g1 = I1.groebner().generators
    g2 = I2.groebner().generators
    return g1.entries == g2.entries


def minimal_generators(I: Ideal) -> tuple[Polynomial, ...]:
    """A minimal homogeneous generating set, greedily pruned by degree."""
    cands = [g.monic() for g in I.groebner().generators.entries[0]]
    cands.sort(key=lambda g: (g.homogeneous_degree(),
                              tuple(-x for x in I.ring.mkey(g.lead_monomial()))))
    eng = _Engine(I.ring, 1, (0,), track=False)
    kept = []
    for g in cands:
        vec = {(0, m): c for m, c in g.terms.items()}
        if kept and not eng.has_value(eng.reduce(vec)):
            continue
        kept.append(g)
        eng.add_input(vec)
        eng.complete()
    return tuple(kept)


def minimal_column_generators(m: FreeModuleMap) -> FreeModuleMap:
    """Prune columns that lie in the span of earlier (lower-degree) ones."""
    order = sorted(range(m.cols),
                   key=lambda c: (m.source_twists[c],
                                  tuple(-x for x in _col_sort_key(m, c))))
    eng = _Engine(m.ring, m.rows, m.target_twists, track=False)
    kept = []
    for c in order:
        vec = m.column_vector(c)
        if not vec:
            continue
        if kept and not eng.has_value(eng.reduce(vec)):
            continue
        kept.append(c)
        eng.add_input(vec)
        eng.complete()
    return m.submatrix(range(m.rows), kept)


def _col_sort_key(m: FreeModuleMap, c: int):
    vec = m.column_vector(c)
    if not vec:
        return (0,) * (m.ring.nvars + 2)
    eng_key = lambda cm: (-cm[0],) + m.ring.mkey(cm[1])
    return eng_key(max(vec, key=eng_key))
