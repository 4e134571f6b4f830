"""Sparse exact multivariate polynomials over the rationals.

`Poly` is the universal carrier for every equation in the package: curves,
torus pair parts, partial derivatives, eliminants.  Coefficients are
`fractions.Fraction` in the public API; the same class also works with
number-field elements (see `numfield`) because every operation only uses
ring/field operators on the coefficients.

The arithmetic helpers that the other modules share live here, one per
job: `rational_content` (the positive rational content of a coefficient
list), `content_in` (the gcd of the coefficients in one variable) and
`UniPoly.from_poly` (a polynomial in one variable, read as a univariate).

Conventions fixed here and relied on by the golden-file tests:

* term order: graded lexicographic in the declared variable order,
* printing: descending graded-lex, explicit ``*``, ``^`` for powers,
* resultant: Sylvester determinant, rows of the first argument above the
  rows of the second.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Poly",
    "UniPoly",
    "PolyError",
    "PolySyntaxError",
    "InexactDivisionError",
    "DomainError",
    "parse_poly",
    "poly_gcd",
    "is_squarefree",
    "resultant",
]

Monom = tuple  # tuple[int, ...]
Coef = Union[Fraction, object]  # Fraction or a duck-typed field element


class PolyError(ValueError):
    """Base class for polynomial errors."""


class PolySyntaxError(PolyError):
    """Parse failure; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class InexactDivisionError(PolyError):
    """Raised by exact division when the remainder is nonzero."""


class DomainError(PolyError):
    """Operation applied outside its domain (zero input, bad variable...)."""


def _as_coef(value) -> Coef:
    if isinstance(value, (int, str)):
        return Fraction(value)
    return value


class Poly:
    """Immutable sparse polynomial: variable tuple + exponent-vector terms."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monom, Coef]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise DomainError("duplicate variable in %r" % (vs,))
        clean = {}
        for mon, c in terms.items():
            mon = tuple(mon)
            if len(mon) != len(vs) or any(e < 0 for e in mon):
                raise DomainError("bad exponent vector %r for %r" % (mon, vs))
            c = _as_coef(c)
            if c:
                clean[mon] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, variables: Sequence[str] = ()) -> "Poly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): _as_coef(value)})

    @classmethod
    def var(cls, name: str, variables: Optional[Sequence[str]] = None) -> "Poly":
        vs = tuple(variables) if variables is not None else (name,)
        mon = tuple(1 if v == name else 0 for v in vs)
        if name not in vs:
            raise DomainError("variable %r not in %r" % (name, vs))
        return cls(vs, {mon: Fraction(1)})

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Poly":
        return cls(variables, {})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Coef:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise DomainError("not a constant: %s" % self)
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = self._index(var)
        return max(m[i] for m in self.terms)

    def used_vars(self) -> tuple:
        used = set()
        for m in self.terms:
            for v, e in zip(self.vars, m):
                if e:
                    used.add(v)
        return tuple(v for v in self.vars if v in used)

    def _index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise DomainError("variable %r not declared in %r" % (var, self.vars))

    # -- canonical identity --------------------------------------------------

    def _key(self):
        items = []
        for m, c in self.terms.items():
            named = tuple(sorted((v, e) for v, e in zip(self.vars, m) if e))
            items.append((named, c))
        items.sort(key=lambda t: t[0])
        return tuple(items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- variable alignment ---------------------------------------------------

    def with_vars(self, variables: Sequence[str]) -> "Poly":
        """Re-express over a variable tuple that must cover all used vars."""
        vs = tuple(variables)
        pos = {}
        for v in self.used_vars():
            if v not in vs:
                raise DomainError("cannot drop used variable %r" % v)
        for i, v in enumerate(self.vars):
            pos[i] = vs.index(v) if v in vs else None
        terms = {}
        for m, c in self.terms.items():
            mon = [0] * len(vs)
            for i, e in enumerate(m):
                if e:
                    mon[pos[i]] = e
            mon = tuple(mon)
            terms[mon] = terms.get(mon, Fraction(0)) + c
        return Poly(vs, terms)

    def _aligned(self, other: "Poly"):
        if self.vars == other.vars:
            return self.vars, self, other
        merged = list(self.vars)
        for v in other.vars:
            if v not in merged:
                merged.append(v)
        merged = tuple(merged)
        return merged, self.with_vars(merged), other.with_vars(merged)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        vs, a, b = self._aligned(other)
        terms = dict(a.terms)
        for m, c in b.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        vs, a, b = self._aligned(other)
        terms = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mon = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                prod = c1 * c2
                if mon in terms:
                    terms[mon] = terms[mon] + prod
                else:
                    terms[mon] = prod
        return Poly(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = Poly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = _as_coef(c)
        return Poly(self.vars, {m: v * c for m, v in self.terms.items()})

    # -- calculus / evaluation ----------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        i = self._index(var)
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                mon = m[:i] + (m[i] - 1,) + m[i + 1:]
                terms[mon] = terms.get(mon, Fraction(0)) + c * m[i]
        return Poly(self.vars, terms)

    def substitute(self, bindings: Mapping[str, Union["Poly", Coef, int]]) -> "Poly":
        """Exact simultaneous substitution; bound symbols must be declared."""
        for v in bindings:
            self._index(v)
        vals = {}
        for v, b in bindings.items():
            vals[v] = b if isinstance(b, Poly) else Poly.const(b)
        remaining = tuple(v for v in self.vars if v not in bindings)
        out = Poly.zero(remaining)
        # cache powers per bound variable
        powers: dict = {v: {0: Poly.const(1)} for v in vals}
        for m, c in self.terms.items():
            mon = tuple(e for v, e in zip(self.vars, m) if v not in bindings)
            piece = Poly(remaining, {mon: c})
            for v, e in zip(self.vars, m):
                if v in bindings and e:
                    cache = powers[v]
                    if e not in cache:
                        p = vals[v]
                        acc = cache[max(cache)]
                        for _ in range(max(cache), e):
                            acc = acc * p
                            cache[max(cache) + 1] = acc
                    piece = piece * cache[e]
            out = out + piece
        return out

    def evaluate(self, point: Mapping[str, Coef]) -> Coef:
        missing = [v for v in self.used_vars() if v not in point]
        if missing:
            raise DomainError("evaluate missing values for %r" % missing)
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in zip(self.vars, m):
                if e:
                    p = point[v]
                    for _ in range(e):
                        val = val * p
            total = total + val
        return total

    # -- structure helpers -----------------------------------------------------------

    def coeffs_in(self, var: str) -> dict:
        """View as univariate in `var`: maps exponent -> Poly in the others."""
        i = self._index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            mon = m[:i] + m[i + 1:]
            bucket = out.setdefault(e, {})
            bucket[mon] = bucket.get(mon, Fraction(0)) + c
        return {e: Poly(rest, t) for e, t in out.items()}

    def lowest_degree(self) -> int:
        """Order of vanishing at the origin (min total degree); -1 if zero."""
        if not self.terms:
            return -1
        return min(sum(m) for m in self.terms)

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(self.vars, {m: c for m, c in self.terms.items() if sum(m) == d})

    def leading_term(self):
        """(monomial, coefficient) that is graded-lex largest."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        mon = max(self.terms, key=lambda m: (sum(m), m))
        return mon, self.terms[mon]

    # -- exact division -----------------------------------------------------------------

    def divides(self, divisor: "Poly"):
        """Return the quotient self/divisor, or None when not exact."""
        if divisor.is_zero():
            raise DomainError("division by zero polynomial")
        vs, a, b = self._aligned(divisor)
        if a.is_zero():
            return Poly.zero(vs)
        bm, bc = b.leading_term()
        quot = {}
        rem = dict(a.terms)
        while rem:
            mon = max(rem, key=lambda m: (sum(m), m))
            c = rem[mon]
            q = tuple(e1 - e2 for e1, e2 in zip(mon, bm))
            if any(e < 0 for e in q):
                return None
            coef = c / bc
            quot[q] = coef
            for m2, c2 in b.terms.items():
                tm = tuple(e1 + e2 for e1, e2 in zip(q, m2))
                nc = rem.get(tm, Fraction(0)) - coef * c2
                if nc:
                    rem[tm] = nc
                else:
                    rem.pop(tm, None)
        return Poly(vs, quot)

    def divexact(self, divisor: "Poly") -> "Poly":
        q = self.divides(divisor)
        if q is None:
            raise InexactDivisionError("inexact division: %s by %s" % (self, divisor))
        return q

    # -- rational normalization (Fraction coefficients only) ------------------------------

    def primitive(self) -> "Poly":
        """Integer-primitive multiple with positive graded-lex leading coefficient."""
        if self.is_zero():
            return self
        p = self.scale(1 / rational_content(self.terms.values()))
        if p.leading_term()[1] < 0:
            p = -p
        return p

    # -- printing --------------------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return "Poly(%r, %s)" % (self.vars, format_poly(self))


# ---------------------------------------------------------------------------
# formatting / parsing
# ---------------------------------------------------------------------------


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    monoms = sorted(p.terms, key=lambda m: (sum(m), m), reverse=True)
    parts = []
    for m in monoms:
        c = p.terms[m]
        factors = []
        for v, e in zip(p.vars, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append("%s^%d" % (v, e))
        negative = isinstance(c, Fraction) and c < 0
        mag = -c if negative else c
        if not factors:
            body = str(mag)
        elif isinstance(mag, Fraction) and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


class _Tokenizer:
    SYMBOL_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
    SYMBOL_BODY = SYMBOL_START | set("0123456789")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch in "+-*^()":
            return ("op", ch, start)
        if ch.isdigit():
            j = start
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[start:j], start)
        if ch in self.SYMBOL_START:
            j = start
            while j < len(self.text) and self.text[j] in self.SYMBOL_BODY:
                j += 1
            return ("sym", self.text[start:j], start)
        return ("bad", ch, start)

    def next(self):
        kind, val, start = self.peek()
        if kind == "op":
            self.pos = start + 1
        elif kind in ("int", "sym"):
            self.pos = start + len(val)
        elif kind == "bad":
            raise PolySyntaxError("unexpected character %r" % val, start)
        return kind, val, start


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse the fixed grammar (explicit ``*``, ``^`` nonnegative powers).

    A leading sign on an expression is accepted so that printed canonical
    forms re-parse.  Every symbol must appear in `variables`.
    """
    vs = tuple(variables)
    tok = _Tokenizer(text)

    def parse_expression() -> Poly:
        kind, val, start = tok.peek()
        negate = False
        if kind == "op" and val in "+-":
            tok.next()
            negate = val == "-"
        p = parse_term()
        if negate:
            p = -p
        while True:
            kind, val, start = tok.peek()
            if kind == "op" and val in "+-":
                tok.next()
                q = parse_term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def parse_term() -> Poly:
        p = parse_factor()
        while True:
            kind, val, start = tok.peek()
            if kind == "op" and val == "*":
                tok.next()
                p = p * parse_factor()
            else:
                return p

    def parse_factor() -> Poly:
        p = parse_base()
        kind, val, start = tok.peek()
        if kind == "op" and val == "^":
            tok.next()
            kind, val, start = tok.next()
            if kind != "int":
                raise PolySyntaxError("exponent must be a nonnegative integer", start)
            p = p ** int(val)
        return p

    def parse_base() -> Poly:
        kind, val, start = tok.next()
        if kind == "int":
            num = int(val)
            kind2, val2, start2 = tok.peek()
            if kind2 == "op" and val2 == "^":
                return Poly.const(num, vs)
            # rational: integer '/' positive-integer
            if tok.pos < len(tok.text) and tok.text[tok.pos:].lstrip().startswith("/"):
                tok._skip_ws()
                tok.pos += 1  # consume '/'
                kind3, val3, start3 = tok.next()
                if kind3 != "int" or int(val3) == 0:
                    raise PolySyntaxError("denominator must be a positive integer", start3)
                return Poly.const(Fraction(num, int(val3)), vs)
            return Poly.const(num, vs)
        if kind == "sym":
            if val not in vs:
                raise PolySyntaxError("undeclared symbol %r" % val, start)
            return Poly.var(val, vs)
        if kind == "op" and val == "(":
            p = parse_expression()
            kind2, val2, start2 = tok.next()
            if kind2 != "op" or val2 != ")":
                raise PolySyntaxError("expected ')'", start2)
            return p
        raise PolySyntaxError("expected a rational, symbol or '('", start)

    p = parse_expression()
    kind, val, start = tok.peek()
    if kind != "end":
        raise PolySyntaxError("trailing input", start)
    return p


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial; coefficient list is low-to-high degree."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Coef]):
        cs = [_as_coef(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def const(cls, var: str, c) -> "UniPoly":
        return cls(var, [c])

    @classmethod
    def from_poly(cls, p: Poly, var: str) -> "UniPoly":
        """p, which uses one variable or none, as a univariate in `var`."""
        if len(p.used_vars()) > 1:
            raise DomainError("not univariate: %s" % p)
        cs = [Fraction(0)] * (max(p.degree(), 0) + 1)
        for m, c in p.terms.items():
            cs[sum(m)] = c
        return cls(var, cs)

    def to_poly(self, variables: Optional[Sequence[str]] = None) -> Poly:
        vs = tuple(variables) if variables is not None else (self.var,)
        i = vs.index(self.var)
        terms = {}
        for e, c in enumerate(self.coeffs):
            if c:
                mon = tuple(e if j == i else 0 for j in range(len(vs)))
                terms[mon] = c
        return Poly(vs, terms)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Coef:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(self.var, a)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly(self.var, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise DomainError("exponent must be a nonnegative integer")
        out = UniPoly.const(self.var, Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "UniPoly":
        c = _as_coef(c)
        return UniPoly(self.var, [v * c for v in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.lc() if isinstance(self.lc(), Fraction) else self.lc().inverse()
        return self.scale(inv)

    def divmod(self, other: "UniPoly"):
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree()
        lc = other.lc()
        lcinv = 1 / lc if isinstance(lc, Fraction) else lc.inverse()
        for i in range(len(rem) - 1, d - 1, -1):
            if not rem[i]:
                continue
            f = rem[i] * lcinv
            q[i - d] = f
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = rem[i - d + j] - f * b
        return UniPoly(self.var, q), UniPoly(self.var, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [c * i for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Coef) -> Coef:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a: Coef) -> "UniPoly":
        """Taylor shift: p(t + a)."""
        out = UniPoly(self.var, [])
        t = UniPoly(self.var, [a, Fraction(1)])
        power = UniPoly.const(self.var, Fraction(1))
        for i, c in enumerate(self.coeffs):
            out = out + power.scale(c)
            if i < len(self.coeffs) - 1:
                power = power * t
        return out

    def __str__(self) -> str:
        return format_poly(self.to_poly())

    __repr__ = __str__


def _coef_fractions(c):
    if isinstance(c, Fraction):
        return (c,)
    return tuple(c.coeffs)  # number-field element coordinates


def rational_content(coeffs) -> Fraction:
    """Positive rational content across all rational coordinates; 1 for zero."""
    qs = [q for c in coeffs for q in _coef_fractions(c)]
    num = gcd(*[q.numerator for q in qs])
    return Fraction(num, lcm(*[q.denominator for q in qs])) if num else Fraction(1)


def scale_reduce(u: UniPoly) -> UniPoly:
    """Divide by the rational content; harmless for gcd-like uses."""
    if u.is_zero():
        return u
    c = rational_content(u.coeffs)
    return u if c == 1 else u.scale(1 / c)


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the coefficient field (Euclid).

    Remainders are rescaled by their rational content to tame coefficient
    growth, especially over number fields.
    """
    a = scale_reduce(a)
    b = scale_reduce(b)
    while not b.is_zero():
        a, b = b, scale_reduce(a % b)
    return a.monic() if not a.is_zero() else a


def unipoly_squarefree_decomposition(p: UniPoly):
    """Yun's algorithm: list of (factor, multiplicity), factors monic."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    p = p.monic()
    out = []
    d = p.derivative()
    a = unipoly_gcd(p, d)
    b = p.divmod(a)[0]
    c = d.divmod(a)[0]
    i = 1
    while b.degree() > 0:
        z = c - b.derivative()
        g = unipoly_gcd(b, z)
        if g.degree() > 0:
            out.append((g, i))
        b = b.divmod(g)[0]
        c = z.divmod(g)[0]
        i += 1
    return out


def unipoly_squarefree_part(p: UniPoly) -> UniPoly:
    """Monic p / gcd(p, p'): every irreducible factor of p once."""
    return p.divmod(unipoly_gcd(p, p.derivative()))[0].monic()


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS) and squarefree test
# ---------------------------------------------------------------------------


def content_in(p: Poly, var: str) -> Optional[Poly]:
    """gcd of the coefficients of p in `var`, a Poly in the other variables.

    A single coefficient is returned as it is; None for the zero polynomial.
    """
    coeffs = p.coeffs_in(var)
    cont = None
    for e in sorted(coeffs):
        cont = coeffs[e] if cont is None else poly_gcd(cont, coeffs[e])
    return cont


def _poly_content_in(p: Poly, var: str):
    """(content Poly in the other vars, primitive part) w.r.t. `var`."""
    cont = content_in(p, var)
    return cont, p.divexact(cont.with_vars(p.vars))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD over Q (or any field on the coefficients), primitively normalized."""
    vs, a, b = p._aligned(q)
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    used = [v for v in vs if v in set(a.used_vars()) | set(b.used_vars())]
    if not used:
        return Poly.const(1, vs)
    if len(used) == 1:
        # monic Euclid; the pseudo-remainder sequence swells coefficients
        g = unipoly_gcd(UniPoly.from_poly(a, used[0]), UniPoly.from_poly(b, used[0]))
        return _normalize_gcd(g.to_poly((used[0],)).with_vars(vs))
    var = used[0]
    conta, ppa = _poly_content_in(a, var)
    contb, ppb = _poly_content_in(b, var)
    contg = poly_gcd(conta, contb)
    f, g = ppa, ppb
    if f.degree_in(var) < g.degree_in(var):
        f, g = g, f
    while not g.is_zero():
        r = _pseudo_rem(f, g, var)
        if not r.is_zero():
            r = _poly_content_in(r, var)[1]
        f, g = g, r
    return _normalize_gcd(contg.with_vars(vs) * f.with_vars(vs))


def _normalize_gcd(p: Poly) -> Poly:
    if p.is_zero():
        return p
    if all(isinstance(c, Fraction) for c in p.terms.values()):
        return p.primitive()
    lt = p.leading_term()[1]
    inv = 1 / lt if isinstance(lt, Fraction) else lt.inverse()
    return p.scale(inv)


def _pseudo_rem(f: Poly, g: Poly, var: str) -> Poly:
    """Pseudo-remainder of f by g w.r.t. var (lc(g)^k * f mod g)."""
    df = f.degree_in(var)
    dg = g.degree_in(var)
    if df < dg:
        return f
    gc = g.coeffs_in(var)
    lc = gc[dg].with_vars(f.vars)
    xv = Poly.var(var, f.vars)
    r = f
    while not r.is_zero() and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lead = r.coeffs_in(var)[dr].with_vars(f.vars)
        r = r * lc - g.with_vars(f.vars) * lead * xv ** (dr - dg)
    return r


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        return False
    if p.is_constant():
        return True
    g = None
    for v in p.used_vars():
        d = p.derivative(v)
        g = d if g is None else poly_gcd(g, d)
    return poly_gcd(p, g).degree() == 0


# ---------------------------------------------------------------------------
# resultants: Sylvester determinant via evaluation/interpolation + Bareiss
# ---------------------------------------------------------------------------


def _bareiss_det(matrix):
    """Fraction-free determinant of a square matrix of field elements."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0) * prev
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if isinstance(num, Fraction) and isinstance(prev, Fraction):
                    m[i][j] = num / prev
                else:
                    m[i][j] = num * (prev.inverse() if not isinstance(prev, Fraction)
                                     else 1 / prev)
            m[i][k] = Fraction(0)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _sylvester_rows(p_coeffs, q_coeffs, n, m):
    """Sylvester matrix entries: p-block (m rows) above q-block (n rows)."""
    size = n + m
    rows = []
    pc = [p_coeffs.get(n - i, None) for i in range(n + 1)]  # high to low
    qc = [q_coeffs.get(m - i, None) for i in range(m + 1)]
    for r in range(m):
        row = [None] * size
        for i, c in enumerate(pc):
            row[r + i] = c
        rows.append(row)
    for r in range(n):
        row = [None] * size
        for i, c in enumerate(qc):
            row[r + i] = c
        rows.append(row)
    return rows


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating `var` (p rows above q rows)."""
    if p.is_zero() or q.is_zero():
        raise DomainError("resultant of a zero polynomial")
    vs, a, b = p._aligned(q)
    n = max(a.degree_in(var), 0)
    m = max(b.degree_in(var), 0)
    if n == 0 and m == 0:
        raise DomainError("resultant: %r occurs in neither argument" % var)
    rest = tuple(v for v in vs if v != var)
    ac = {e: c.with_vars(rest) for e, c in a.coeffs_in(var).items()}
    bc = {e: c.with_vars(rest) for e, c in b.coeffs_in(var).items()}
    rows = _sylvester_rows(ac, bc, n, m)
    zero = Poly.zero(rest)
    rows = [[zero if c is None else c for c in row] for row in rows]
    # for genuinely bivariate inputs the resultant degree obeys Bezout
    bound = None
    if len(set(a.used_vars()) | set(b.used_vars())) <= 2:
        bound = a.degree() * b.degree()
    det = _det_poly_matrix(rows, rest, bound)
    return det.with_vars(rest) if rest else det


def _det_poly_matrix(rows, variables, bound=None) -> Poly:
    """Determinant of a matrix of Polys by interpolation, one var at a time."""
    active = [v for v in variables
              if any(c.degree_in(v) > 0 for row in rows for c in row if not c.is_zero())]
    if not active:
        vals = [[c.constant_value() for c in row] for row in rows]
        return Poly.const(_bareiss_det(vals), variables)
    v = active[0]
    # degree bound of the determinant in v: sum over rows of max degree
    row_bound = 0
    for row in rows:
        row_bound += max((c.degree_in(v) for c in row if not c.is_zero()),
                         default=0)
    if bound is not None and len(active) == 1:
        row_bound = min(row_bound, bound)
    points = []
    k = 0
    while len(points) < row_bound + 1:
        points.append(Fraction(k))
        k = -k if k > 0 else -k + 1
    if len(active) == 1:
        # dense univariate entries + Horner evaluation per sample
        dense = [[UniPoly.from_poly(c, v) for c in row] for row in rows]
        samples = [Poly.const(_bareiss_det(
            [[u.eval(x0) for u in row] for row in dense]), ())
            for x0 in points]
    else:
        rest = tuple(w for w in variables if w != v)
        samples = []
        for x0 in points:
            spec = [[c.substitute({v: Poly.const(x0, ())}).with_vars(rest)
                     for c in row] for row in rows]
            samples.append(_det_poly_matrix(spec, rest, bound))
    return _interpolate_poly(v, points, samples, variables)


def _interpolate_poly(var, points, values, variables) -> Poly:
    """Newton interpolation with Poly values."""
    n = len(points)
    coeffs = [val.with_vars(tuple(w for w in variables if w != var)) for val in values]
    table = list(coeffs)
    newton = [table[0]]
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            num = table[i + 1] - table[i]
            den = points[i + level] - points[i]
            nxt.append(num.scale(Fraction(1) / den))
        table = nxt
        newton.append(table[0])
    result = Poly.zero(variables)
    basis = Poly.const(1, variables)
    xv = Poly.var(var, variables)
    for i in range(n):
        result = result + newton[i].with_vars(variables) * basis
        basis = basis * (xv - Poly.const(points[i], variables))
    return result
