"""Sparse exact multivariate polynomials over the rationals.

`Poly` is the universal carrier for every equation in the package: curves,
torus pair parts, partial derivatives, eliminants.  Coefficients are
`fractions.Fraction` in the public API; the ring operations also work with
number-field elements (see `numfield`) because they only use ring/field
operators on the coefficients.

The arithmetic helpers that the other modules share live here, one per
job: `rational_content` (the positive rational content of a coefficient
list), `clear_denominators` (a rational term dict as integers over one
denominator), `content_in` (the gcd of the coefficients in one variable),
`UniPoly.from_poly` (a polynomial in one variable, read as a univariate),
`convolve_reduce` (the product of two integer coordinate vectors of a
number field, which `numfield.NFElt` multiplies with), `Poly.shift` (the
Taylor shift p(v + a_v), which `UniPoly.shift` calls), `unipoly_gcd` (the
monic gcd of two univariates over Q or a number field) and
`to_sympy`/`from_sympy` (the one bridge to sympy: an integer sympy
polynomial and its denominator, and back).

The Taylor shift and the univariate gcd run on integers and build one
canonical coefficient per term of their result.  A number-field element
is read as its integer coordinates `nums` over its denominator `den`, and
results are built by its field (`field.from_ints`), so this module never
imports `numfield`; a `Fraction` is a coordinate vector of length 1.

`poly_gcd`, `is_squarefree` and `resultant` take rational coefficients
only.  sympy computes the gcds and the squarefree test over ZZ on the
bridged polynomials.  `resultant` makes no sympy call: it is one integer
computation, a subresultant PRS on the Kronecker images of the two
polynomials, with the Sylvester sign fixed below.

Conventions fixed here and relied on by the golden-file tests:

* term order: graded lexicographic in the declared variable order,
* printing: descending graded-lex, explicit ``*``, ``^`` for powers,
* resultant: Sylvester determinant, rows of the first argument above the
  rows of the second.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

import sympy

__all__ = [
    "Poly",
    "UniPoly",
    "PolyError",
    "PolySyntaxError",
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


class DomainError(PolyError):
    """Operation applied outside its domain (zero input, bad variable...)."""


def _as_coef(value) -> Coef:
    if isinstance(value, (int, str)):
        return Fraction(value)
    return value


class Poly:
    """Immutable sparse polynomial: variable tuple + exponent-vector terms.

    `Poly(variables, terms)` validates its input: distinct variables,
    nonnegative exponent vectors of the right length, `int`/`str`
    coefficients read as `Fraction`, zero coefficients dropped.  The
    methods that build a term dict themselves, with tuple monomials of the
    right length and `Fraction` or number-field coefficients, construct the
    result through `_trusted`, which only drops zero coefficients; so do
    the blow-ups of `localsing.resolve`.
    """

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

    @classmethod
    def _trusted(cls, variables: tuple, terms: Mapping[Monom, Coef]) -> "Poly":
        """Poly over the distinct `variables` from a term dict that a Poly
        method built; zero coefficients are dropped and nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", {m: c for m, c in terms.items() if c})
        return p

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
        if vs == self.vars:
            return self
        if len(set(vs)) != len(vs):
            raise DomainError("duplicate variable in %r" % (vs,))
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
            # the variable map is injective, so no two terms meet
            terms[tuple(mon)] = c
        return Poly._trusted(vs, terms)

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
        return Poly._trusted(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.vars, {m: -c for m, c in self.terms.items()})

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
        return Poly._trusted(vs, terms)

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
        return Poly._trusted(self.vars,
                             {m: v * c for m, v in self.terms.items()})

    # -- calculus / evaluation ----------------------------------------------------

    def derivative(self, var: str) -> "Poly":
        i = self._index(var)
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                terms[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
        return Poly._trusted(self.vars, terms)

    def substitute(self, bindings: Mapping[str, Union["Poly", Coef, int]]) -> "Poly":
        """Exact simultaneous substitution; bound symbols must be declared.

        The result's variables are the unbound ones, then those of the
        bindings that occur, each new one in order of first appearance (by
        term, then by bound variable).  Each term's expansion is added
        into one term dict; the powers of each binding are computed once.
        """
        for v in bindings:
            self._index(v)
        vals = {v: b if isinstance(b, Poly) else Poly.const(b)
                for v, b in bindings.items()}
        keep = [i for i, v in enumerate(self.vars) if v not in vals]
        bound = [i for i, v in enumerate(self.vars) if v in vals]
        out_vars = [self.vars[i] for i in keep]
        used = []
        for m in self.terms:
            for i in bound:
                if m[i] and i not in used:
                    used.append(i)
                    out_vars += [w for w in vals[self.vars[i]].vars
                                 if w not in out_vars]
        pad = (0,) * (len(out_vars) - len(keep))
        # powers[i][e] is (binding of variable i)^e over out_vars
        powers = {i: [None, vals[self.vars[i]].with_vars(out_vars)]
                  for i in used}
        terms: dict = {}
        for m, c in self.terms.items():
            piece = {tuple(m[i] for i in keep) + pad: c}
            for i in bound:
                e = m[i]
                if not e:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                prod: dict = {}
                for m1, c1 in piece.items():
                    for m2, c2 in cache[e].terms.items():
                        mon = tuple(a + b for a, b in zip(m1, m2))
                        v = c1 * c2
                        prod[mon] = prod[mon] + v if mon in prod else v
                piece = prod
            for mon, a in piece.items():
                terms[mon] = terms[mon] + a if mon in terms else a
        return Poly._trusted(tuple(out_vars), terms)

    def shift(self, offsets: Mapping[str, Coef]) -> "Poly":
        """Taylor shift p(v + a_v) over the same variables, for the offset
        a_v of each variable v named in `offsets`.

        The variables are shifted one at a time, each column (the terms
        that differ only in v's exponent) on its own, on integers; one
        Fraction or field element is built per term at the end.  When every
        coefficient and offset is rational, the denominators are cleared
        once and the columns are shifted by Horner's rule on Python ints:
        for a_v = u/w and n the degree in v, w^n p(z/w) is shifted by u and
        z = w*v put back, which leaves one more common denominator w^n.
        Otherwise every coefficient of the result lies in the one number
        field of the coefficients and offsets, and each coefficient is
        carried as an (integer vector, denominator) pair through the
        field's binomial column kernel (`_taylor_shift`).
        """
        shifts = [(self._index(v), _as_coef(a)) for v, a in offsets.items()]
        shifts = [(i, a) for i, a in shifts if a]
        if not shifts or not self.terms:
            return self
        field = _field_of([a for _, a in shifts] + list(self.terms.values()))
        if field is None:
            terms, den = clear_denominators(self.terms)
        else:
            terms = {m: _ints(c, field.degree) for m, c in self.terms.items()}
        for i, a in shifts:
            cols: dict = {}
            for m, c in terms.items():
                cols.setdefault(m[:i] + m[i + 1:], {})[m[i]] = c
            if field is not None:
                terms = {rest[:i] + (k,) + rest[i:]: c
                         for rest, col in _taylor_shift(cols, a, field).items()
                         for k, c in col.items()}
                continue
            n = max(m[i] for m in terms)
            u, w = a.numerator, a.denominator
            wpow = [w ** k for k in range(n + 1)]
            den *= wpow[n]
            terms = {}
            for rest, col in cols.items():
                cs = [0] * (max(col) + 1)
                for e, c in col.items():
                    cs[e] = c * wpow[n - e]
                top = len(cs) - 1
                for s in range(top):
                    for j in range(top - 1, s - 1, -1):
                        cs[j] += u * cs[j + 1]
                for k, c in enumerate(cs):
                    if c:
                        terms[rest[:i] + (k,) + rest[i:]] = c * wpow[k]
        if field is None:
            return Poly._trusted(self.vars, {m: Fraction(c, den)
                                             for m, c in terms.items()})
        return Poly._trusted(self.vars, {m: field.from_ints(v, dv)
                                         for m, (v, dv) in terms.items()
                                         if any(v)})

    def evaluate(self, point: Mapping[str, Coef]) -> Coef:
        """The value at `point` (variable -> value), by Horner's rule nested
        over the variables in order: one multiplication per degree step."""
        missing = [v for v in self.used_vars() if v not in point]
        if missing:
            raise DomainError("evaluate missing values for %r" % missing)
        if not self.terms:
            return Fraction(0)
        values = [point.get(v) for v in self.vars]

        def nested(terms, i):
            # sum of c * prod(values[j] ** m[j] for j >= i) over terms,
            # whose monomials agree before place i
            if i == len(values):
                return terms[0][1]
            groups: dict = {}
            for m, c in terms:
                groups.setdefault(m[i], []).append((m, c))
            top = max(groups)
            acc = nested(groups[top], i + 1)
            for e in range(top - 1, -1, -1):
                acc = acc * values[i]
                if e in groups:
                    acc = acc + nested(groups[e], i + 1)
            return acc

        return nested(list(self.terms.items()), 0)

    # -- structure helpers -----------------------------------------------------------

    def coeffs_in(self, var: str) -> dict:
        """View as univariate in `var`: maps exponent -> Poly in the others."""
        i = self._index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(m[i], {})[m[:i] + m[i + 1:]] = c
        return {e: Poly._trusted(rest, t) for e, t in out.items()}

    def lowest_degree(self) -> int:
        """Order of vanishing at the origin (min total degree); -1 if zero."""
        if not self.terms:
            return -1
        return min(sum(m) for m in self.terms)

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly._trusted(self.vars, {m: c for m, c in self.terms.items()
                                         if sum(m) == d})

    def leading_term(self):
        """(monomial, coefficient) that is graded-lex largest."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        mon = max(self.terms, key=lambda m: (sum(m), m))
        return mon, self.terms[mon]

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


# a symbol: a variable or parameter name
SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# an integer literal: ASCII digits only ('²' or '٣' is no digit here)
_DIGITS = re.compile(r"[0-9]+")


def _int_literal(digits: str, start: int) -> int:
    # int() refuses decimal strings past this limit (0, or before 3.10.7: none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise PolySyntaxError("integer literal of %d digits is too long"
                              % len(digits), start)
    return int(digits)


class _Tokenizer:
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
        digits = _DIGITS.match(self.text, start)
        if digits:
            return ("int", digits.group(), start)
        sym = SYMBOL.match(self.text, start)
        if sym:
            return ("sym", sym.group(), start)
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


# The parser recurses once per '('; this bound keeps it far below the
# interpreter's recursion limit.
MAX_PAREN_DEPTH = 100


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse the fixed grammar (explicit ``*``, ``^`` nonnegative powers).

    A leading sign on an expression is accepted so that printed canonical
    forms re-parse.  Every symbol must appear in `variables`.  Parentheses
    nest at most `MAX_PAREN_DEPTH` deep.
    """
    vs = tuple(variables)
    tok = _Tokenizer(text)
    depth = 0

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
            p = p ** _int_literal(val, start)
        return p

    def parse_base() -> Poly:
        nonlocal depth
        kind, val, start = tok.next()
        if kind == "int":
            num = _int_literal(val, start)
            kind2, val2, start2 = tok.peek()
            if kind2 == "op" and val2 == "^":
                return Poly.const(num, vs)
            # rational: integer '/' positive-integer
            if tok.pos < len(tok.text) and tok.text[tok.pos:].lstrip().startswith("/"):
                tok._skip_ws()
                tok.pos += 1  # consume '/'
                kind3, val3, start3 = tok.next()
                if kind3 != "int" or not _int_literal(val3, start3):
                    raise PolySyntaxError("denominator must be a positive integer", start3)
                # a fraction literal is one atom, so 2/3^2 would read as
                # (2/3)^2 where the usual precedence gives 2/9: refuse it
                kind4, val4, start4 = tok.peek()
                if kind4 == "op" and val4 == "^":
                    raise PolySyntaxError(
                        "a power of a fraction needs parentheses", start4)
                return Poly.const(Fraction(num, int(val3)), vs)
            return Poly.const(num, vs)
        if kind == "sym":
            if val not in vs:
                raise PolySyntaxError("undeclared symbol %r" % val, start)
            return Poly.var(val, vs)
        if kind == "op" and val == "(":
            depth += 1
            if depth > MAX_PAREN_DEPTH:
                raise PolySyntaxError("parentheses nested deeper than %d"
                                      % MAX_PAREN_DEPTH, start)
            p = parse_expression()
            kind2, val2, start2 = tok.next()
            if kind2 != "op" or val2 != ")":
                raise PolySyntaxError("expected ')'", start2)
            depth -= 1
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
        cs = [_zero_like(p.terms.values())] * (max(p.degree(), 0) + 1)
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
        out = [_zero_like(self.coeffs + other.coeffs)] * (
            len(self.coeffs) + len(other.coeffs) - 1)
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
        if self.is_zero() or self.lc() == 1:
            return self
        return self.scale(1 / self.lc())

    def divmod(self, other: "UniPoly"):
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [_zero_like(self.coeffs + other.coeffs)] * max(
            len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree()
        lc = other.lc()
        lcinv = 1 if lc == 1 else 1 / lc
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

    def shift(self, a: Coef) -> "UniPoly":
        """Taylor shift p(t + a), by `Poly.shift`."""
        if not a or not self.coeffs:
            return self
        return UniPoly.from_poly(self.to_poly().shift({self.var: a}),
                                 self.var)

    def __str__(self) -> str:
        return format_poly(self.to_poly())

    __repr__ = __str__


def _zero_like(coeffs) -> Coef:
    """A field's zero if any coefficient is a field element, else 0 in Q."""
    for c in coeffs:
        if not isinstance(c, Fraction):
            return c * 0
    return Fraction(0)


def rational_content(coeffs) -> Fraction:
    """Positive rational content across all rational coordinates; 1 for zero.

    A number-field element (see `numfield.NFElt`) is read as its integer
    coordinates `nums` over its denominator `den`; gcd(den, *nums) = 1
    there, so the element's own content is gcd(*nums) / den in lowest terms.
    """
    nums, dens = [], []
    for c in coeffs:
        if isinstance(c, Fraction):
            nums.append(c.numerator)
            dens.append(c.denominator)
        else:
            nums.extend(c.nums)
            dens.append(c.den)
    num = gcd(*nums)
    return Fraction(num, lcm(*dens)) if num else Fraction(1)


# ---------------------------------------------------------------------------
# coordinate vectors: the Taylor shift and the univariate gcd on integers
# ---------------------------------------------------------------------------


def convolve_reduce(a: Sequence[int], b: Sequence[int],
                    reducer: Sequence) -> list:
    """Product of two integer coordinate vectors of one length d, the
    coefficients of a and b in 1, w, ..., w^(d-1), where w is a root of a
    monic integer polynomial w^d + sum m_j w^j whose nonzero lower terms
    are `reducer`, the pairs (j, m_j): the convolution, reduced by w^d =
    -sum m_j w^j from the top down.  No division and no gcd; over Q, d = 1
    and `reducer` is empty."""
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            for j, m in reducer:
                prod[k - d + j] -= c * m
    del prod[d:]
    return prod


def _field_of(coeffs):
    """The number field of the field elements among `coeffs`, or None (Q)
    when every one is a `Fraction`."""
    field = None
    for c in coeffs:
        if not isinstance(c, Fraction):
            if field is None:
                field = c.field
            elif c.field is not field and c.field != field:
                raise DomainError("mixed number fields")
    return field


def _ints(c: Coef, d: int):
    """(integer coordinate vector of length d, positive denominator) of a
    `Fraction` or of a field element of degree d (its `nums` and `den`)."""
    if isinstance(c, Fraction):
        return [c.numerator] + [0] * (d - 1), c.denominator
    return c.nums, c.den


def _elt(field, nums: Sequence[int], den: int) -> Coef:
    """The canonical coefficient nums / den: a `Fraction` over Q, else an
    element built by the field."""
    if field is None:
        return Fraction(nums[0], den)
    return field.from_ints(nums, den)


def _taylor_shift(cols: Mapping, a: Coef, field) -> dict:
    """Taylor shift by a of every column in `cols` over a number field, on
    integer coordinate vectors.

    A column maps j to c_j, an (integer vector, denominator) pair (`_ints`),
    and stands for sum_j c_j (v + a)^j.  With a = A / w, D the column's
    common denominator and top its degree, the column is scaled to the
    integer vectors b_j = D c_j w^(top - j), and its coefficient of v^k is
    sum_j C(j, k) c_j a^(j - k) = sum_j C(j, k) b_j A^(j - k) / (D w^(top - k)).
    The powers A^e are computed once, by `convolve_reduce` with no
    normalization.  Returns {key: {k: (vector, denominator)}}.
    """
    reducer = field.reducer
    A, w = _ints(a, field.degree)
    n = max(max(col) for col in cols.values())
    apow, wpow = [None, A], [1, w]
    while len(apow) <= n:
        apow.append(convolve_reduce(apow[-1], A, reducer))
        wpow.append(wpow[-1] * w)
    out = {}
    for key, col in cols.items():
        top = max(col)
        den = lcm(*(dj for _, dj in col.values()))
        scaled = [(j, [x * (den // dj * wpow[top - j]) for x in v])
                  for j, (v, dj) in col.items()]
        shifted = {}
        for k in range(top + 1):
            acc = None
            for j, v in scaled:
                if j < k:
                    continue
                if j > k:
                    v = convolve_reduce(v, apow[j - k], reducer)
                    b = comb(j, k)
                    if b != 1:
                        v = [b * x for x in v]
                acc = v if acc is None else [s + x for s, x in zip(acc, v)]
            if acc is not None:
                shifted[k] = (acc, den * wpow[top - k])
        out[key] = shifted
    return out


def _primitive(vectors: list) -> list:
    """The coefficient vectors without their zero top ones, divided by
    the integer gcd of all their coordinates."""
    while vectors and not any(vectors[-1]):
        vectors.pop()
    g = gcd(*(x for v in vectors for x in v))
    if g > 1:
        vectors = [[x // g for x in v] for v in vectors]
    return vectors


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the coefficient field: Q, or the number field of the
    field elements among the coefficients, whose results are field elements.

    A primitive pseudo-remainder sequence on integer coordinate vectors
    (Q is the case of vectors of length 1; von zur Gathen & Gerhard,
    *Modern Computer Algebra*, 6.12): the denominators are cleared, each
    pseudo-division step replaces R by lc(B) R - lc(R) y^k B, which lowers
    the degree of R, and R is divided by the integer content of all its
    coordinates after every step.  The last nonzero remainder is made monic
    with one inverse of its leading coefficient, one canonical coefficient
    built per term.
    """
    field = _field_of(a.coeffs + b.coeffs)
    d = field.degree if field is not None else 1
    reducer = field.reducer if field is not None else ()

    def cleared(coeffs):
        pairs = [_ints(c, d) for c in coeffs]
        den = lcm(*(dc for _, dc in pairs))
        return _primitive([[x * (den // dc) for x in v] for v, dc in pairs])

    r0, r1 = cleared(a.coeffs), cleared(b.coeffs)
    while r1:
        lb, m = r1[-1], len(r1) - 1
        r = r0
        while len(r) > m:
            lr, k = r[-1], len(r) - 1 - m
            r = [convolve_reduce(lb, c, reducer) for c in r[:-1]]
            for j in range(m):
                t = convolve_reduce(lr, r1[j], reducer)
                r[k + j] = [x - y for x, y in zip(r[k + j], t)]
            r = _primitive(r)
        r0, r1 = r1, r
    if not r0:
        return UniPoly(a.var, [])
    inv, den = _ints(1 / _elt(field, r0[-1], 1), d)
    return UniPoly(a.var, [_elt(field, convolve_reduce(c, inv, reducer), den)
                           for c in r0])


# ---------------------------------------------------------------------------
# exact arithmetic over Q on integers: gcd and squarefree test through sympy
# over ZZ, resultant by Kronecker substitution
# ---------------------------------------------------------------------------


def clear_denominators(terms: Mapping[Monom, Fraction]):
    """(ints, d) for a rational term dict: d is the least positive integer
    that makes every coefficient integral, and ints maps each monomial to
    d times its coefficient, an `int`."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator)
            for m, c in terms.items()}, d


def to_sympy(p: Poly, variables: Sequence[str]):
    """(P, d): the integer sympy Poly P in `variables`, in that generator
    order, and the least positive integer d with p = P / d."""
    ints, d = clear_denominators(p.with_vars(variables).terms)
    return sympy.Poly.from_dict(ints, *map(sympy.Symbol, variables),
                                domain="ZZ"), d


def from_sympy(sp, variables: Sequence[str]) -> Poly:
    """The Poly of an integer sympy Poly sp in `variables`."""
    return Poly._trusted(tuple(variables),
                         {m: Fraction(int(c))
                          for m, c in sp.as_dict(native=True).items()})


def content_in(p: Poly, var: str) -> Optional[Poly]:
    """gcd of the coefficients of p in `var`, a Poly in the other variables.

    A single coefficient is returned as it is; None for the zero polynomial.
    """
    coeffs = p.coeffs_in(var)
    cont = None
    for e in sorted(coeffs):
        cont = coeffs[e] if cont is None else poly_gcd(cont, coeffs[e])
    return cont


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD over Q, integer-primitive with positive leading coefficient."""
    vs, a, b = p._aligned(q)
    if a.is_constant() and b.is_constant():
        return Poly.const(0 if a.is_zero() and b.is_zero() else 1, vs)
    g = to_sympy(a, vs)[0].gcd(to_sympy(b, vs)[0])
    return from_sympy(g, vs).primitive()


def is_squarefree(p: Poly) -> bool:
    """True iff the gcd of p with all of its partials is constant."""
    if p.is_constant():
        return not p.is_zero()
    sp = to_sympy(p, p.vars)[0]
    g = sp
    for v in sp.gens:
        g = g.gcd(sp.diff(v))
        if g.is_ground:
            return True
    return False


def resultant(p: Poly, q: Poly, var: str) -> Poly:
    """Sylvester resultant eliminating `var` (p rows above q rows).

    Computed as one integer resultant.  With the denominators cleared, let
    n and m be the degrees in `var` of the integer polynomials a and b.
    Each coefficient of Res(a, b) is at most N = |a|_1^m |b|_1^n in size
    (a permanent bounds the Sylvester determinant), so the other variables
    are sent to powers of X = 2^bits, bits one above the bit length of N,
    in a mixed radix whose place for each variable exceeds its degree
    bound in the resultant (Kronecker substitution).  That map is a ring
    homomorphism that keeps both leading coefficients nonzero, since their
    coefficients are below X/2, so the subresultant PRS on the images
    (`_int_resultant`) gives the image of Res(a, b), and its balanced
    base-X digits are the coefficients.  Res(p, q) is Res(a, b) over the
    denominators' powers.
    """
    if p.is_zero() or q.is_zero():
        raise DomainError("resultant of a zero polynomial")
    vs, a, b = p._aligned(q)
    n = max(a.degree_in(var), 0)
    m = max(b.degree_in(var), 0)
    if n == 0 and m == 0:
        raise DomainError("resultant: %r occurs in neither argument" % var)
    k = vs.index(var)
    ia, da = clear_denominators(a.terms)
    ib, db = clear_denominators(b.terms)
    bits = (sum(map(abs, ia.values())) ** m
            * sum(map(abs, ib.values())) ** n).bit_length() + 1
    # places[j] is the digit place of the j-th other variable; sizes[j] is
    # one above that variable's degree bound in the resultant
    places, sizes, unit = [], [], 1
    for j in range(len(vs)):
        if j != k:
            places.append(unit)
            sizes.append(m * max(mon[j] for mon in ia)
                         + n * max(mon[j] for mon in ib) + 1)
            unit *= sizes[-1]
    r = _int_resultant(_kronecker(ia, k, n, bits, places),
                       _kronecker(ib, k, m, bits, places))
    den = da ** m * db ** n
    terms = {}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    for place in range(unit):
        if not r:
            break
        digit = r & mask
        if digit >= half:
            digit -= 1 << bits
        r = (r - digit) >> bits
        if digit:
            mon, rem = [], place
            for size in sizes:
                rem, e = divmod(rem, size)
                mon.append(e)
            terms[tuple(mon)] = Fraction(digit, den)
    return Poly._trusted(tuple(v for v in vs if v != var), terms)


def _kronecker(ints: Mapping[Monom, int], k: int, deg: int, bits: int,
               places: Sequence[int]) -> list:
    """Coefficients in variable k, low to high up to `deg`, of an integer
    term dict with every other variable j sent to 2^(bits * places[j])."""
    out = [0] * (deg + 1)
    for mon, c in ints.items():
        rest = mon[:k] + mon[k + 1:]
        out[mon[k]] += c << (bits * sum(e * w for e, w in zip(rest, places)))
    return out


def _int_resultant(a: list, b: list) -> int:
    """Sylvester resultant of two integer polynomials given as coefficient
    lists, low to high, with nonzero last entries and not both constant:
    the subresultant PRS (Collins; Cohen, Algorithm 3.3.7), without content
    removal."""
    n, m = len(a) - 1, len(b) - 1
    if n == 0:
        return a[0] ** m
    if m == 0:
        return b[0] ** n
    s = 1
    if n < m:
        # Res(a, b) = (-1)^(n m) Res(b, a)
        a, b, n, m = b, a, m, n
        if n & m & 1:
            s = -1
    g = h = 1
    while True:
        d = n - m
        if n & m & 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        div = g * h ** d
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = h if d == 0 else g ** d // h ** (d - 1)
        n, m = m, len(b) - 1
        if m == 0:
            return s * (b[0] ** n // h ** (n - 1))


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b of integer
    coefficient lists, low to high, with trailing zeros removed."""
    r = list(a)
    m = len(b) - 1
    lb = b[-1]
    for top in range(len(a) - 1, m - 1, -1):
        c = r.pop()
        r = [lb * x for x in r]
        if c:
            shift = top - m
            for j in range(m):
                r[shift + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return r
