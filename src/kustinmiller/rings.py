"""Exact arithmetic in positively graded polynomial rings over QQ or GF(p).

Polynomials are sparse: a dict from the ring's packed terms (`_TermCodec`)
to nonzero coefficients, kept in canonical form (no zero coefficients, one
entry per monomial), so a polynomial is a one-row matrix column and
polynomials, matrices and the Groebner engine share one term format.
Exponent tuples appear only at the edges: `var`, `monomial` and `constant`
build polynomials, and `sorted_terms`, `lead_monomial` and `str` read them.
All values are immutable once constructed and safe to share between threads.
"""
from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin with these bases decides primality exactly below PRIME_BOUND
# (the bases 2 to 37 alone are fooled by 318665857834031151167461)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoefficientField:
    """A coefficient field: the rationals `QQ` or a prime field GF(p).

    Each field is its own subclass, so no operation tests which field it
    is in.  `zero` and `one` are the ints 0 and 1 in both.  A rational
    coefficient is an `int` or a reduced `fractions.Fraction`: `coerce` and
    `inv` give an `int` when the value is integral, and arithmetic may give
    a `Fraction` with denominator 1, which equals, hashes and prints as the
    `int`.  A prime-field coefficient is an int in [0, p).  `spec` is the
    field's name in input files and in `--field`.
    """

    zero = 0
    one = 1

    @staticmethod
    def prime_field(p: int) -> "CoefficientField":
        return PrimeField(p)


@dataclass(frozen=True)
class RationalField(CoefficientField):
    """QQ, with Python's own arithmetic on ints and Fractions."""

    spec = "qq"
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def coerce(x):
        """Map an int or Fraction into canonical field form."""
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    @staticmethod
    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return RationalField.coerce(Fraction(1, a))

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField(CoefficientField):
    """GF(p) for a prime p below PRIME_BOUND, on ints reduced mod p."""

    p: int

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise ValueError(f"characteristic {self.p} is too large: only primes "
                             f"below {PRIME_BOUND} are supported")
        if not _is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")

    @property
    def spec(self) -> str:
        return f"fp:{self.p}"

    def coerce(self, x):
        """Map an int or Fraction into canonical field form."""
        if isinstance(x, Fraction):
            return self.mul(x.numerator, self.inv(x.denominator % self.p))
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


@dataclass(frozen=True)
class MonomialOrder:
    """Monomial order: graded reverse lexicographic (default) or lexicographic.

    The graded kind refines weighted degree; ties are broken reverse
    lexicographically on raw exponents.  Module extension (position over
    term) lives in the Groebner engine.
    """

    kind: str  # "grevlex" or "lex"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")

# the one rule for variable names, in rings, in parsed text and for new variables
VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(\d+(?:/\d+)?)|({VARIABLE_NAME.pattern})|([-+*^()]))")


class PolyRing:
    """A polynomial ring with named variables, positive weights and an order."""

    __slots__ = ("names", "weights", "field", "order", "eta", "_index", "wdeg", "mkey",
                 "_codec", "_vars")

    def __init__(self, names, weights, field: CoefficientField = QQ,
                 order: MonomialOrder = GREVLEX):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for n in names:
            if not VARIABLE_NAME.fullmatch(n):
                raise ValueError(f"bad variable name {n!r}")
        if len(weights) != len(names):
            raise ValueError("need one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        self.names = names
        self.weights = weights
        self.field = field
        self.order = order
        self.eta = sum(weights)
        self._index = {n: i for i, n in enumerate(names)}
        # wdeg(mono) is the weighted degree; mkey(mono) is a flat integer
        # tuple, and a bigger tuple is a bigger monomial; only tests call it,
        # as an order independent of the packed terms' int order
        if all(w == 1 for w in weights):
            self.wdeg = sum
        else:
            self.wdeg = lambda mono: sum(map(operator.mul, mono, weights))
        if order == GREVLEX:
            wdeg = self.wdeg
            self.mkey = lambda mono: (wdeg(mono), *map(operator.neg, reversed(mono)))
        else:
            self.mkey = tuple
        self._codec = codec = _TermCodec(weights, order == LEX, field, self.wdeg)
        self._vars = {n: codec.pack(0, [int(i == j) for j in range(len(names))])
                      for i, n in enumerate(names)}    # the packed term of each variable

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing)
                and self.names == other.names
                and self.weights == other.weights
                and self.field == other.field
                and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        ws = "" if all(w == 1 for w in self.weights) else f", weights={list(self.weights)}"
        return f"PolyRing({self.field!r}[{', '.join(self.names)}]{ws}, {self.order.kind})"

    def extended(self, names, weights) -> "PolyRing":
        """Adjoin new variables (appended after the existing ones)."""
        return PolyRing(self.names + tuple(names), self.weights + tuple(weights),
                        self.field, self.order)

    def without(self, name: str) -> "PolyRing":
        if name not in self._index:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        keep = [i for i, n in enumerate(self.names) if n != name]
        return PolyRing([self.names[i] for i in keep], [self.weights[i] for i in keep],
                        self.field, self.order)

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {self._codec.one: self.field.one})

    def var(self, name: str) -> "Polynomial":
        t = self._vars.get(name)
        if t is None:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        return Polynomial(self, {t: self.field.one})

    def gens(self) -> list["Polynomial"]:
        return [self.var(n) for n in self.names]

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        """coeff * x^exponents; an exponent above 32767 raises ValueError."""
        mono = tuple(int(e) for e in exponents)
        if len(mono) != self.nvars or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent vector {exponents!r}")
        c = self.field.coerce(coeff)
        return Polynomial(self, {self._codec.pack(0, mono): c} if c else {})

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self, {self._codec.one: c} if c else {})

    # -- parsing -------------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse the canonical syntax: `-x_1*x_3 + 3/2*z_1^2`, `*` optional.

        Exponents above MAX_EXPONENT raise ValueError before any power is
        expanded, and so does nesting too deep for the recursive parser; a
        product with an exponent above `_EXP_MAX` raises as it is formed.
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"cannot tokenize {text[pos:]!r}")
                break
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        parser = _Parser(self, tokens)
        try:
            p = parser.expr()
        except ZeroDivisionError:
            raise ValueError(f"a denominator in {text!r} is zero in {self.field!r}") from None
        except RecursionError:
            raise ValueError("parentheses or signs nested too deeply") from None
        if parser.peek() is not None:
            raise ValueError(f"trailing input {parser.peek()!r} in {text!r}")
        return p


def make_ring(names, weights, field: CoefficientField = QQ,
              order: MonomialOrder = GREVLEX) -> PolyRing:
    """Build a positively graded polynomial ring; eta is the sum of weights."""
    return PolyRing(names, weights, field, order)


# largest exponent `parse` accepts: x^e is expanded by e multiplications
MAX_EXPONENT = 1000


class _Parser:
    """Recursive descent over the token list produced by PolyRing.parse."""

    def __init__(self, ring, tokens):
        self.ring = ring
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expr(self):
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while True:
            t = self.peek()
            if t == "*":
                self.take()
                p = p * self.factor()
            elif t is not None and (t not in "+-*^()"):
                p = p * self.factor()  # implicit multiplication
            else:
                return p

    def factor(self):
        t = self.take()
        if t is None:
            raise ValueError("unexpected end of input")
        if t == "-":
            return -self.factor()
        if t == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("missing closing parenthesis")
            return self._power(p)
        if t and (t[0].isdigit()):
            if "/" in t:
                a, b = t.split("/")
                c = Fraction(int(a), int(b))
            else:
                c = int(t)
            return self._power(self.ring.constant(c))
        if t in self.ring._index:
            return self._power(self.ring.var(t))
        raise ValueError(f"unknown variable {t!r}")

    def _power(self, p):
        if self.peek() == "^":
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            if int(e) > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds the maximum {MAX_EXPONENT}")
            return p ** int(e)
        return p


class Polynomial:
    """Sparse exact polynomial: `terms` maps the ring's packed terms of
    component 0 (`_TermCodec`) to nonzero field elements, so it is a one-row
    matrix column.  The format is private to this module and `gb`; build
    with the ring's `var`, `monomial` and `constant`, read with
    `sorted_terms`, `lead_monomial` and `str`, and order leads by `lead_key`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms as (exponent tuple, coeff), descending in the ring order."""
        mono, terms = self.ring._codec.mono, self.terms
        return [(mono(t), terms[t]) for t in sorted(terms, reverse=True)]

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.ring._codec.mono(max(self.terms))

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[max(self.terms)]

    def lead_key(self) -> int:
        """An int whose order on nonzero polynomials is the ring's order on
        their lead monomials."""
        return max(self.terms)

    def degree(self) -> int | None:
        """Weighted degree of the polynomial; None for zero."""
        if not self.terms:
            return None
        return max(map(self.ring._codec.wdeg, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(self.ring._codec.wdeg, self.terms))) <= 1

    def homogeneous_degree(self) -> int:
        if not self.is_homogeneous() or not self.terms:
            raise ValueError(f"{self} is not a nonzero homogeneous polynomial")
        return self.degree()

    def is_constant(self) -> bool:
        return self.terms.keys() <= {self.ring._codec.one}

    def constant_value(self):
        """Field value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        [(t, c)] = self.terms.items()
        if t != self.ring._codec.one:
            raise ValueError(f"{self} is not constant")
        return c

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def _plus(self, other, c):
        """self + c * other, by the ring's `axpy`."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        self.ring._codec.axpy(terms, other.terms, 0, c, 0)
        return Polynomial(self.ring, terms)

    def __add__(self, other):
        return self._plus(other, self.ring.field.one)

    def __sub__(self, other):
        return self._plus(other, self.ring.field.neg(self.ring.field.one))

    def __neg__(self):
        K = self.ring.field
        return Polynomial(self.ring, {m: K.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        """One `axpy` of self per term of other, shifted by that term."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        codec = self.ring._codec
        axpy, one, src = codec.axpy, codec.one, self.terms
        env = codec.envelope(src)
        terms: dict = {}
        for t, c in other.terms.items():
            axpy(terms, src, env, c, t - one)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if not c:
            return self.ring.zero
        mul = self.ring.field.mul
        return Polynomial(self.ring, {m: mul(x, c) for m, x in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        out = self.ring.one
        for _ in range(e):
            out = out * self
        return out

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    # -- substitution ----------------------------------------------------------

    def substitute(self, assignments: dict, target: PolyRing) -> "Polynomial":
        """Image under the ring map sending each variable to its assignment.

        Unassigned variables must exist (by name) in the target ring.  When
        every assignment is the zero polynomial (appending variables, or
        setting some to zero and dropping them) and the target keeps the
        order and the weights, each term goes through `packed_remap`;
        otherwise terms are expanded.
        """
        image = packed_remap(self.ring, target, assignments)
        if image is not None:
            return Polynomial(target, {u: c for t, c in self.terms.items()
                                       if (u := image(t)) is not None})
        images = [assignments[name] if name in assignments else target.var(name)
                  for name in self.ring.names]
        out = target.zero
        for mono, c in self.sorted_terms():
            t = target.constant(c)
            for img, e in zip(images, mono):
                if e:
                    t = t * img ** e
            out = out + t
        return out

    # -- equality and printing ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _format_term(self, mono, coeff, lead: bool) -> str:
        parts = []
        for name, e in zip(self.ring.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        body = "*".join(parts)
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not body:
            cs = str(mag)
        elif mag == 1:
            cs = body
        else:
            cs = f"{mag}*{body}"
        if lead:
            return f"-{cs}" if neg else cs
        return f" - {cs}" if neg else f" + {cs}"

    def __str__(self):
        return "".join(self._format_term(m, c, lead=(i == 0))
                       for i, (m, c) in enumerate(self.sorted_terms())) or "0"

    def __repr__(self):
        return f"<{self}>"


def packed_remap(source: PolyRing, target: PolyRing, assignments: dict):
    """The ring map `source -> target` of `Polynomial.substitute` on packed
    module terms (see `_TermCodec`), by which polynomials and matrix columns
    change rings, or None when it is not a remap: some assignment is
    nonzero, or the rings differ in the order or in the weight of a
    variable both have.

    Under a remap each source variable keeps its name in the target or is
    assigned zero.  A term with a positive exponent on a zeroed variable
    goes to None; every other term goes to the target's term with the same
    exponents, coefficient and component.  Each run of adjacent exponent
    fields moves with one shift and mask, and the degree field is copied.

    Raises ValueError if the field changes, an assignment lies outside
    `target`, or an unassigned variable is absent from `target`.
    """
    if source.field != target.field:
        raise ValueError("substitution cannot change the coefficient field")
    killed = []
    expands = False
    for i, name in enumerate(source.names):
        if name in assignments:
            img = assignments[name]
            if img.ring != target:
                raise ValueError(f"assignment for {name!r} lies in the wrong ring")
            if img:
                expands = True
            else:
                killed.append(i)
        elif name not in target._index:
            raise ValueError(f"variable {name!r} is unassigned and absent from target")
    # (source variable, target variable) for each name both rings have
    kept = [(i, j) for j, name in enumerate(target.names)
            if (i := source._index.get(name)) is not None]
    if expands or source.order != target.order or any(
            source.weights[i] != target.weights[j] for i, j in kept):
        return None
    S, T = source._codec, target._codec
    kmask = sum(_WMASK << S.fshift[i] for i in killed)
    kzero = S.one & kmask       # every killed exponent is zero
    const = T.one & ~sum(_WMASK << T.fshift[j] for _i, j in kept)  # new variables
    runs = []                   # [source bit, target bit, fields]
    for s, d in sorted((S.fshift[i], T.fshift[j]) for i, j in kept):
        if runs and (s, d) == (runs[-1][0] + _FIELD * runs[-1][2],
                               runs[-1][1] + _FIELD * runs[-1][2]):
            runs[-1][2] += 1
        else:
            runs.append([s, d, 1])
    runs = [(s, (1 << _FIELD * k) - 1, d) for s, d, k in runs]
    scs, tcs, sds, tds, sdmask = S.cs, T.cs, S.ds, T.ds, S.dmask

    def image(t):
        if t & kmask != kzero:
            return None
        u = const + ((t >> scs) << tcs) + (((t >> sds) & sdmask) << tds)
        for s, m, d in runs:
            u += ((t >> s) & m) << d
        return u
    return image


# ---------------------------------------------------------------------------
# packed module terms, shared by polynomials, matrices and the Groebner engine

_FIELD = 16              # bits of one exponent field; its top bit is a guard bit
_GUARD = _FIELD - 1
_EXP_MAX = (1 << _GUARD) - 1   # the largest exponent a packed term holds
_WMASK = (1 << _FIELD) - 1


def _too_large() -> ValueError:
    return ValueError(f"a term has an exponent above {_EXP_MAX}, the largest a "
                      "polynomial can hold")


class _TermCodec:
    """A ring's module terms (component c, monomial m) as single ints whose
    natural order is the position-over-term order: component 0 is largest,
    then the ring's monomial order (Bachmann-Schoenemann, Monagan-Pearce).
    Polynomials (component 0), matrix columns and engine vectors map them to
    nonzero coefficients; the format is private to this module and `gb`.
    Bits from `cs` up hold -c.  Each exponent has a 16-bit field whose top
    bit is a guard bit, so an exponent is at most `_EXP_MAX`; variable i's
    field starts at bit fshift[i], and a field for the weighted degree is
    sized from the weights.
      grevlex: degree field above the exponent fields, which hold
               _EXP_MAX - e_i with x_n highest;
      lex:     fields holding e_i with x_1 highest, degree field lowest.
    Multiplying a term by a monomial adds an int, the quotient of two terms
    of one component is their difference, and a divides b when one
    subtraction leaves every guard bit as `dtarget` says.

    `axpy(dst, src, env, c, q, new=None)` is the one multiply-add on packed
    vectors: dst += c * src shifted by q, for a nonzero c, with the terms
    that enter dst appended to `new`; its loop is chosen from the field when
    the ring is built.  It first tests env, the `envelope` of src, shifted by
    q against the guard bits, so an exponent pushed past its field raises
    ValueError before any term is built, as `pack` does for a tuple.

    The weighted degree of a monomial whose exponents e sit in the exponent
    fields is (e * wvec) >> wshift & _WMASK, exact while no field of the
    product reaches 2**16; multiplying a term by that monomial adds
    qsign * e + (degree << ds).
    """

    __slots__ = ("exps", "guards", "ds", "dmask", "cs", "one", "dshift", "dtarget", "flip",
                 "wvec", "wshift", "wmax", "qsign", "fshift", "pack", "mono", "axpy")

    def __init__(self, weights, lex: bool, field: CoefficientField, wdeg):
        n = len(weights)
        dw = (_EXP_MAX * sum(weights)).bit_length()
        ones = sum(1 << (_FIELD * i) for i in range(n))
        low = dw if lex else 0          # bit where the exponent fields start
        self.exps = exps = (_EXP_MAX * ones) << low
        self.guards = (ones << _GUARD) << low
        self.ds = ds = 0 if lex else _FIELD * n
        self.dmask = (1 << dw) - 1
        self.cs = cs = dw + _FIELD * n
        self.one = one = 0 if lex else exps   # the body of the monomial 1
        # a divides b iff (a + dshift - b) & guards == dtarget
        self.dshift = -self.guards - 1 if lex else self.guards
        self.dtarget = 0 if lex else self.guards
        # xor with flip makes every field hold _EXP_MAX - exponent
        self.flip = exps if lex else 0
        self.wvec = sum(w << _FIELD * (i if lex else n - 1 - i) for i, w in enumerate(weights))
        self.wshift = _FIELD * (n - 1) + low
        self.wmax = max(weights, default=1)
        self.fshift = tuple(low + _FIELD * (n - 1 - i) if lex else _FIELD * i for i in range(n))
        # the exponents as one int of 16-bit fields, x_1 highest for lex
        endian, self.qsign = ("big", 1) if lex else ("little", -1)
        qsign = self.qsign
        codec = struct.Struct(f"{'>' if lex else '<'}{n}H")
        spack, sunpack, nbytes = codec.pack, codec.unpack, 2 * n

        def pack(comp, mono):
            if max(mono) > _EXP_MAX:
                raise _too_large()
            return ((-comp << cs) + (wdeg(mono) << ds) + one
                    + qsign * (int.from_bytes(spack(*mono), endian) << low))

        def unpack_mono(t):
            return sunpack((qsign * ((t & exps) - one) >> low).to_bytes(nbytes, endian))
        self.pack = pack
        self.mono = unpack_mono
        self.axpy = _muladd_kernel(field, self.guards)

    def unpack(self, t):
        """(component, exponent tuple) of a packed term."""
        return -(t >> self.cs), self.mono(t)

    def base(self, comp: int) -> int:
        """The term (comp, 1)."""
        return (-comp << self.cs) + self.one

    def wdeg(self, t: int) -> int:
        """Weighted degree of a packed term's monomial."""
        return (t >> self.ds) & self.dmask

    def divides(self, a: int, b: int) -> bool:
        """The monomial of a divides that of b; both terms in one component."""
        return (a + self.dshift - b) & self.guards == self.dtarget

    def envelope(self, terms) -> int:
        """Exponent fields, as a term holds them, of the lcm of the terms'
        monomials; every term still fits after a shift q iff
        (envelope + q) & guards is 0."""
        guards, flip, exps = self.guards, self.flip, self.exps
        env = exps  # the monomial 1, each field holding _EXP_MAX - exponent
        for t in terms:
            x = (t & exps) ^ flip
            take = ((env | guards) - x) & guards   # guard bits of fields where x <= env
            take -= take >> _GUARD                 # ... widened to their exponent bits
            env = (x & take) | (env & ~take)
        return env ^ flip


def _muladd_kernel(field: CoefficientField, guards: int):
    """`_TermCodec.axpy` for one field: (old + c*s) % p inline over GF(p),
    old + c*s over QQ, so no field method is called per term.  The product
    of two nonzero coefficients is nonzero, so a new term needs no test."""
    if isinstance(field, PrimeField):
        p = field.p

        def axpy(dst, src, env, c, q, new=None):
            if (env + q) & guards:
                raise _too_large()
            get = dst.get
            for t, s in src.items():
                k = t + q
                old = get(k)
                if old is None:
                    dst[k] = c * s % p
                    if new is not None:
                        new.append(k)
                else:
                    v = (old + c * s) % p
                    if v:
                        dst[k] = v
                    else:
                        del dst[k]
        return axpy

    def axpy(dst, src, env, c, q, new=None):
        if (env + q) & guards:
            raise _too_large()
        get = dst.get
        for t, s in src.items():
            k = t + q
            old = get(k)
            if old is None:
                dst[k] = c * s
                if new is not None:
                    new.append(k)
            else:
                v = old + c * s
                if v:
                    dst[k] = v
                else:
                    del dst[k]
    return axpy
