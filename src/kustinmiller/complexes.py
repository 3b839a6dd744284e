"""Graded free chain complexes: duals, Betti tables, minimization,
comparison-theorem lifting, variable elimination and resolution checks."""
from __future__ import annotations

from .gb import (FreeModuleMap, Ideal, NotLiftable, groebner, ideal_equal, lift_through,
                 normal_form, syzygies)
from .rings import PolyRing


class ChainComplex:
    """A finite complex of graded free modules.

    Positions run 0..length; differential(i) maps position i to i-1.  The
    constructor checks twist chaining and homogeneity but not d*d = 0, which
    is the job of verify_complex.
    """

    __slots__ = ("ring", "twists", "diffs")

    def __init__(self, ring: PolyRing, twists, diffs):
        twists = tuple(tuple(int(t) for t in tw) for tw in twists)
        diffs = tuple(diffs)
        if not twists:
            raise ValueError("a complex needs at least position 0")
        if len(diffs) != len(twists) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for i, d in enumerate(diffs):
            if d.ring != ring:
                raise ValueError("differential over the wrong ring")
            if d.target_twists != twists[i] or d.source_twists != twists[i + 1]:
                raise ValueError(f"differential {i + 1} does not match the twists")
        self.ring = ring
        self.twists = twists
        self.diffs = diffs

    @staticmethod
    def from_differentials(ring, diffs) -> "ChainComplex":
        diffs = list(diffs)
        if not diffs:
            return ChainComplex(ring, [(0,)], [])
        twists = [diffs[0].target_twists]
        for d in diffs:
            twists.append(d.source_twists)
        return ChainComplex(ring, twists, diffs)

    @property
    def length(self) -> int:
        return len(self.twists) - 1

    def rank(self, i: int) -> int:
        return len(self.twists[i]) if 0 <= i <= self.length else 0

    def differential(self, i: int) -> FreeModuleMap:
        """d_i for 1 <= i <= length; zero-shaped maps outside that range."""
        if 1 <= i <= self.length:
            return self.diffs[i - 1]
        if i == self.length + 1:
            return FreeModuleMap.zero(self.ring, self.twists[self.length], ())
        if i == 0:
            return FreeModuleMap.zero(self.ring, (), self.twists[0])
        raise IndexError(f"no differential at position {i}")

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.ring == other.ring
                and self.twists == other.twists and self.diffs == other.diffs)

    def __repr__(self):
        ranks = " ".join(str(self.rank(i)) for i in range(self.length + 1))
        return f"<ChainComplex ranks {ranks} over {self.ring!r}>"


class ChainMap:
    """Components comp_i: source_i -> target_(i-shift), commuting with the
    differentials on the nose; a uniform internal degree records how source
    twists are offset."""

    __slots__ = ("source", "target", "shift", "degree", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex, shift: int,
                 components: dict[int, FreeModuleMap]):
        self.source = source
        self.target = target
        self.shift = shift
        self.components = dict(components)
        degrees = set()
        for i, comp in self.components.items():
            degrees |= {comp.source_twists[k] - source.twists[i][k]
                        for k in range(len(source.twists[i]))}
        if len(degrees) > 1:
            raise ValueError("chain map components with non-uniform degree")
        self.degree = degrees.pop() if degrees else 0

    def component(self, i: int) -> FreeModuleMap:
        comp = self.components.get(i)
        if comp is not None:
            return comp
        src = tuple(t + self.degree for t in self.source.twists[i]) \
            if 0 <= i <= self.source.length else ()
        tgt = self.target.twists[i - self.shift] \
            if 0 <= i - self.shift <= self.target.length else ()
        return FreeModuleMap.zero(self.source.ring, tgt, src)

    def verify(self) -> bool:
        """Every commutation square holds as an exact matrix identity."""
        for i in range(self.shift + 1, self.source.length + 1):
            lhs = self.target.differential(i - self.shift).compose(self.component(i))
            rhs = self.component(i - 1).compose(self.source.differential(i))
            if lhs != rhs:
                return False
        return True

    def negated(self) -> "ChainMap":
        return ChainMap(self.source, self.target, self.shift,
                        {i: -c for i, c in self.components.items()})


class BettiTable:
    """Counts of generators by homological index and internal degree."""

    __slots__ = ("entries", "length")

    def __init__(self, entries: dict, length: int):
        self.entries = {k: v for k, v in entries.items() if v}
        self.length = length

    @staticmethod
    def of(C: ChainComplex) -> "BettiTable":
        entries: dict = {}
        for i, tw in enumerate(C.twists):
            for d in tw:
                entries[(i, d)] = entries.get((i, d), 0) + 1
        return BettiTable(entries, C.length)

    def total(self, i: int) -> int:
        return sum(v for (j, _d), v in self.entries.items() if j == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.length + 1)]

    def __eq__(self, other):
        return (isinstance(other, BettiTable) and self.entries == other.entries
                and self.length == other.length)

    def render(self) -> str:
        """Macaulay-style grid: header, total row, then degree-minus-index rows."""
        ncols = self.length + 1
        if self.entries:
            rows = range(min(d - i for (i, d) in self.entries),
                         max(d - i for (i, d) in self.entries) + 1)
        else:
            rows = range(0, 1)
        grid = []
        for r in rows:
            grid.append([self.entries.get((i, r + i), 0) for i in range(ncols)])
        totals = self.totals()
        widths = [max(len(str(totals[i])), len(str(i)),
                      *(len(str(g[i])) if g[i] else 1 for g in grid))
                  for i in range(ncols)]
        label_w = max(len("total:"), *(len(f"{r}:") for r in rows))
        lines = [" ".join([" " * label_w] + [str(i).rjust(widths[i]) for i in range(ncols)])]
        lines.append(" ".join(["total:".rjust(label_w)]
                              + [str(totals[i]).rjust(widths[i]) for i in range(ncols)]))
        for r, g in zip(rows, grid):
            cells = [str(g[i]) if g[i] else "." for i in range(ncols)]
            lines.append(" ".join([f"{r}:".rjust(label_w)]
                                  + [cells[i].rjust(widths[i]) for i in range(ncols)]))
        return "\n".join(lines)

    def __repr__(self):
        return "\n" + self.render()


def betti(C: ChainComplex) -> BettiTable:
    return BettiTable.of(C)


def verify_complex(C: ChainComplex) -> bool:
    """True iff every consecutive composition is the zero matrix."""
    for i in range(1, C.length):
        if not C.differential(i).compose(C.differential(i + 1)).is_zero():
            return False
    return True


def dualize(C: ChainComplex) -> ChainComplex:
    """Transposed differentials in reversed order with negated twists."""
    n = C.length
    twists = [tuple(-t for t in C.twists[n - i]) for i in range(n + 1)]
    diffs = [C.differential(n - i + 1).transpose() for i in range(1, n + 1)]
    return ChainComplex(C.ring, twists, diffs)


def extend_to_chain_map(f0: FreeModuleMap, source: ChainComplex,
                        target: ChainComplex, shift: int = 0) -> ChainMap:
    """Extend f0: source_shift -> target_0 to a full chain map by lifting.

    The target must be exact in the positions lifted through; a failed lift
    raises NotLiftable naming the position.
    """
    if f0.target_twists != target.twists[0]:
        raise ValueError("f0 does not land in position 0 of the target")
    components = {shift: f0}
    for i in range(shift + 1, source.length + 1):
        rhs = components[i - 1].compose(source.differential(i))
        if i - shift > target.length:
            if not rhs.is_zero():
                raise NotLiftable(f"cannot extend past the end of the target at position {i}")
            components[i] = FreeModuleMap.zero(
                source.ring, (), rhs.source_twists)
            continue
        try:
            components[i] = lift_through(target.differential(i - shift), rhs)
        except NotLiftable as e:
            raise NotLiftable(f"extension fails at position {i}: {e}") from None
    return ChainMap(source, target, shift, components)


def minimize(C: ChainComplex) -> ChainComplex:
    """Split off unit entries one at a time until none remain.

    Pivots are chosen at the lowest (position, row, column); each pivot is a
    degree-zero entry, necessarily invertible over a field.  Column ops with
    the pivot column clear the pivot row: d - d[:, c] * u^-1 * d[r, :] for
    the pivot u = d[r, c]; the row ops that would clear the pivot column, and
    the matching base changes of the neighbouring differentials, touch only
    the pivot row and column and the rows and columns deleted with them, so
    they are skipped.
    """
    if C.length == 0:
        return C
    ring = C.ring
    diffs = list(C.diffs)
    while True:
        pivot = next(((di, u) for di, d in enumerate(diffs)
                      if (u := d.unit_entry()) is not None), None)
        if pivot is None:
            break
        di, (r, c) = pivot
        d = diffs[di]
        u_inv = ring.field.inv(d.entry(r, c).constant_value())
        through = d.submatrix(range(d.rows), [c]).compose(d.submatrix([r], range(d.cols)))
        d = d - through.scaled_by(ring.constant(u_inv))
        diffs[di] = d.submatrix([k for k in range(d.rows) if k != r],
                                [k for k in range(d.cols) if k != c])
        if di + 1 < len(diffs):
            d = diffs[di + 1]
            diffs[di + 1] = d.submatrix([k for k in range(d.rows) if k != c], range(d.cols))
        if di - 1 >= 0:
            d = diffs[di - 1]
            diffs[di - 1] = d.submatrix(range(d.rows), [k for k in range(d.cols) if k != r])
    tw = [diffs[0].target_twists] + [d.source_twists for d in diffs]
    while len(tw) > 1 and not tw[-1]:
        tw.pop()
        diffs.pop()
    return ChainComplex(ring, tw, diffs)


def eliminate_variable(C: ChainComplex, name: str) -> ChainComplex:
    """Set one variable to zero and view the complex over the smaller ring."""
    small = C.ring.without(name)
    sub = {name: small.zero}
    diffs = [d.map_ring(small, sub) for d in C.diffs]
    out = ChainComplex(small, C.twists, diffs)
    if not verify_complex(out):
        raise ValueError(f"eliminating {name!r} breaks d*d = 0")
    return out


def verify_resolution(C: ChainComplex, M: Ideal) -> bool:
    """d*d = 0, coker(d_1) presents R/M, and ker(d_i) = im(d_(i+1)) throughout.

    The zero complex resolves R/M = 0, so it passes for the unit ideal only."""
    if C.ring != M.ring:
        raise ValueError("complex and ideal live over different rings")
    if not verify_complex(C):
        return False
    if not any(C.twists):
        return M.contains(C.ring.one)
    if C.rank(0) != 1 or C.twists[0] != (0,):
        return False
    d1_gens = C.differential(1).row(0) if C.length else ()
    if not ideal_equal(Ideal(C.ring, [g for g in d1_gens if not g.is_zero()]), M):
        return False
    for i in range(1, C.length):
        ker = syzygies(C.differential(i))
        if ker.cols == 0:
            continue
        G = groebner(C.differential(i + 1))
        if not normal_form(ker, G).is_zero():
            return False
    if C.length >= 1 and syzygies(C.differential(C.length)).cols != 0:
        return False
    return True
