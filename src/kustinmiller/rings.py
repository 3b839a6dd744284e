"""Exact arithmetic in positively graded polynomial rings over QQ or GF(p).

Polynomials are sparse: a dict from exponent tuples to nonzero coefficients,
kept in canonical form (no zero coefficients, one entry per monomial).  All
values are immutable once constructed and safe to share between threads.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class CoefficientField:
    """The rationals, or a prime field GF(p).

    Rational coefficients are `fractions.Fraction` (always reduced, positive
    denominator); prime-field coefficients are ints in [0, p).
    """

    kind: str  # "QQ" or "FP"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "QQ":
            if self.p is not None:
                raise ValueError("rationals take no characteristic")
        elif self.kind == "FP":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"characteristic must be prime, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "CoefficientField":
        return CoefficientField("QQ")

    @staticmethod
    def prime_field(p: int) -> "CoefficientField":
        return CoefficientField("FP", p)

    @property
    def zero(self):
        return Fraction(0) if self.kind == "QQ" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "QQ" else 1

    def coerce(self, x):
        """Map an int or Fraction into canonical field form."""
        if self.kind == "QQ":
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into QQ")
        if isinstance(x, Fraction):
            if x.denominator == 1:
                x = x.numerator
            else:
                return self.div(x.numerator % self.p, x.denominator % self.p)
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def add(self, a, b):
        return a + b if self.kind == "QQ" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "QQ" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "QQ" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "QQ" else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / Fraction(a) if self.kind == "QQ" else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ" if self.kind == "QQ" else f"GF({self.p})"


QQ = CoefficientField.rationals()


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

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()]))")


class PolyRing:
    """A polynomial ring with named variables, positive weights and an order."""

    __slots__ = ("names", "weights", "field", "order", "eta", "_index", "_unit_weights")

    def __init__(self, names, weights, field: CoefficientField = QQ,
                 order: MonomialOrder = GREVLEX):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for n in names:
            if not n or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n):
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
        self._unit_weights = all(w == 1 for w in weights)

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.names == other.names
                and self.weights == other.weights
                and self.field == other.field
                and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        ws = "" if self._unit_weights else f", weights={list(self.weights)}"
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

    # -- monomial machinery -------------------------------------------------

    def wdeg(self, mono) -> int:
        if self._unit_weights:
            return sum(mono)
        return sum(e * w for e, w in zip(mono, self.weights))

    def mkey(self, mono):
        """Flat integer tuple; bigger tuple = bigger monomial."""
        if self.order.kind == "grevlex":
            return (self.wdeg(mono),) + tuple(-e for e in reversed(mono))
        return tuple(mono)

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def var(self, name: str) -> "Polynomial":
        i = self._index.get(name)
        if i is None:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: self.field.one})

    def gens(self) -> list["Polynomial"]:
        return [self.var(n) for n in self.names]

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        mono = tuple(int(e) for e in exponents)
        if len(mono) != self.nvars or any(e < 0 for e in mono):
            raise ValueError(f"bad exponent vector {exponents!r}")
        c = self.field.coerce(coeff)
        return Polynomial(self, {mono: c} if c else {})

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    # -- parsing -------------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse the canonical syntax: `-x_1*x_3 + 3/2*z_1^2`, `*` optional."""
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
        if parser.peek() is not None:
            raise ValueError(f"trailing input {parser.peek()!r} in {text!r}")
        return p


def make_ring(names, weights, field: CoefficientField = QQ,
              order: MonomialOrder = GREVLEX) -> PolyRing:
    """Build a positively graded polynomial ring; eta is the sum of weights."""
    return PolyRing(names, weights, field, order)


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
            return p ** int(e)
        return p


class Polynomial:
    """Sparse exact polynomial; terms map exponent tuples to field elements."""

    __slots__ = ("ring", "terms", "_key_cache")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._key_cache = None

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        """Terms as (mono, coeff), descending in the ring order."""
        if self._key_cache is None:
            mk = self.ring.mkey
            self._key_cache = sorted(self.terms.items(), key=lambda t: mk(t[0]),
                                     reverse=True)
        return self._key_cache

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.sorted_terms()[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.sorted_terms()[0][1]

    def degree(self) -> int | None:
        """Weighted degree of the polynomial; None for zero."""
        if not self.terms:
            return None
        wd = self.ring.wdeg
        return max(wd(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.ring.wdeg
        degs = {wd(m) for m in self.terms}
        return len(degs) == 1

    def homogeneous_degree(self) -> int:
        if not self.is_homogeneous() or not self.terms:
            raise ValueError(f"{self} is not a nonzero homogeneous polynomial")
        return self.degree()

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self):
        """Field value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero
        [(m, c)] = self.terms.items()
        if any(m):
            raise ValueError(f"{self} is not constant")
        return c

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        K = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = K.add(terms.get(m, K.zero), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        K = self.ring.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = K.sub(terms.get(m, K.zero), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        K = self.ring.field
        return Polynomial(self.ring, {m: K.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        K = self.ring.field
        mul, add = K.mul, K.add
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = add(terms.get(m, K.zero), mul(c1, c2))
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
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

        Unassigned variables must exist (by name) in the target ring.
        """
        if self.ring.field != target.field:
            raise ValueError("substitution cannot change the coefficient field")
        images = []
        for i, name in enumerate(self.ring.names):
            if name in assignments:
                img = assignments[name]
                if img.ring != target:
                    raise ValueError(f"assignment for {name!r} lies in the wrong ring")
            elif name in target._index:
                img = target.var(name)
            else:
                raise ValueError(f"variable {name!r} is unassigned and absent from target")
            images.append(img)
        out = target.zero
        for mono, c in self.terms.items():
            t = target.constant(c)
            for i, e in enumerate(mono):
                if e:
                    t = t * images[i] ** e
            out = out + t
        return out

    # -- equality and printing ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _format_term(self, mono, coeff, lead: bool) -> str:
        K = self.ring.field
        parts = []
        for name, e in zip(self.ring.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        body = "*".join(parts)
        neg = K.kind == "QQ" and coeff < 0
        mag = -coeff if neg else coeff
        if not body:
            cs = K.format(mag)
        elif mag == K.one:
            cs = body
        else:
            cs = f"{K.format(mag)}*{body}"
        if lead:
            return f"-{cs}" if neg else cs
        return f" - {cs}" if neg else f" + {cs}"

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            out.append(self._format_term(m, c, lead=(i == 0)))
        return "".join(out)

    def __repr__(self):
        return f"<{self}>"


def poly_arith(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Add, subtract or multiply two polynomials of the same ring."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown operation {op!r}")


def substitute(p: Polynomial, assignments: dict, target: PolyRing) -> Polynomial:
    """Functional form of Polynomial.substitute."""
    return p.substitute(assignments, target)
