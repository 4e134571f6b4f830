"""Sparse exact multivariate polynomials over the rationals.

`Poly` is the universal carrier for every equation in the package: curves,
torus pair parts, partial derivatives, eliminants.  Coefficients are
`fractions.Fraction` in the public API; the ring operations also work with
number-field elements (see `numfield`) because they only use ring/field
operators on the coefficients.

The arithmetic helpers that the other modules share live here, one per
job: `rational_content` (the positive rational content of a coefficient
list), `clear_denominators` (a term dict as integers, or as integer
coordinate vectors over a number field, over one denominator),
`primitive_ints` (such a dict over the gcd of its integers), `_trim`
(a coefficient list with its zero top entries popped), `UniPoly.from_poly`
(a polynomial in one variable, read as a univariate; UniPoly's ring
arithmetic is Poly's, read back by it),
`convolve_reduce` and `mul_matrix` (the product of two coordinate
vectors, and the integer matrix of multiplication by one), `horner_shift`
(the one Horner loop: a list of ints or of coordinate vectors shifted in
place, stopped once the low coefficients are final, which `Poly.shift`
and the x-chart of `localsing.resolve` run), `shear` (x -> x + k y or
y -> y + k x on a term dict, one `horner_shift` per homogeneous part,
for `localsing.points` and `factor`), `Poly.shift` (the Taylor shift
p(v + a_v), which `UniPoly.shift` calls), `unipoly_gcd` (the monic gcd
of two univariates over Q or a number field), `_squarefree_line` (the
first line c = 0, 1, -1, ... (`_integers`) with a squarefree image, for
`is_squarefree` and `factor`) and `_int_gcd` (the one integer gcd
kernel, on which `factor` also computes a squarefree part
f / gcd(f, f')).

Over a number field a coefficient column is carried as integer
coordinate vectors, lists of ints in the powers of the field's
generator, and one canonical coefficient is built per term of a result.
A number-field element is read as its integer coordinates `nums` over
its denominator `den`, and results are built by its field
(`field.from_ints`), so this module never imports `numfield`.

`poly_gcd`, `is_squarefree` and `resultant` take rational coefficients
only.  The gcds over Q (`poly_gcd`, `unipoly_gcd` over Q) and the
squarefree test run on the cleared numerators, as integer term dicts, in
the one kernel `_int_gcd`: the heuristic gcd of Char,
Geddes & Gonnet in n >= 1 variables, recursing down to `math.gcd` of two
integers at n = 0, with every candidate checked by exact division and a
primitive PRS (`_prs_gcd`) as its fallback.  `resultant` is one integer
computation, a subresultant PRS on the Kronecker images of the two
polynomials, with the Sylvester sign fixed below; dense coefficient lists
appear only under such images (there and in `_quotient`), and in the
factorization over Z of `factor`, which reuses `_quotient` and
`_dense_quotient` as its exact division tests.

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
from itertools import islice
from math import comb, gcd, lcm, log2
from operator import add, mul
from typing import Iterable, Mapping, Optional, Sequence, Union

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


class Frozen:
    """Base of the immutable slotted value types: assigning an attribute
    raises, and `__setstate__` restores the slots past that guard, so
    `copy` and `pickle` rebuild an equal value."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Poly(Frozen):
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
            terms[m] = terms[m] + c if m in terms else c
        return Poly._trusted(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        vs, a, b = self._aligned(other)
        return Poly._trusted(vs, _mul_terms(a.terms, b.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """The n-th power by repeated squaring of the term dict; over Q the
        denominators are cleared once and the squarings run on Python ints,
        with one Fraction built per term of the result."""
        if not isinstance(n, int) or n < 0:
            raise DomainError("exponent must be a nonnegative integer")
        if not n:
            return Poly.const(1, self.vars)
        rational = field_of(self.terms.values()) is None
        base, den = clear_denominators(self.terms) if rational \
            else (self.terms, 1)
        den **= n
        result = None
        while n:
            if n & 1:
                result = base if result is None else _mul_terms(result, base)
            n >>= 1
            if n:
                base = _mul_terms(base, base)
        if rational:
            result = {m: Fraction(c, den) for m, c in result.items() if c}
        return Poly._trusted(self.vars, result)

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
                piece = _mul_terms(piece, cache[e].terms)
            for mon, a in piece.items():
                terms[mon] = terms[mon] + a if mon in terms else a
        return Poly._trusted(tuple(out_vars), terms)

    def shift(self, offsets: Mapping[str, Coef]) -> "Poly":
        """Taylor shift p(v + a_v) over the same variables, for the offset
        a_v of each variable v named in `offsets`.

        The denominators are cleared once, to ints over Q and to
        coordinate vectors over the number field of the coefficients and
        offsets, and each variable's columns (the terms that differ only
        in its exponent) are shifted by Horner's rule (`horner_shift`):
        for a_v = u/w and n the degree in v, w^n p(z/w) is shifted by u
        and z = w*v put back, which leaves one more common denominator
        w^n.  One Fraction or field element is built per term at the end.
        """
        shifts = [(self._index(v), _as_coef(a)) for v, a in offsets.items()]
        shifts = [(i, a) for i, a in shifts if a]
        if not shifts or not self.terms:
            return self
        field = field_of([a for _, a in shifts] + list(self.terms.values()))
        terms, den = clear_denominators(self.terms, field)
        for i, a in shifts:
            cols: dict = {}
            for m, c in terms.items():
                cols.setdefault(m[:i] + m[i + 1:], {})[m[i]] = c
            n = max(m[i] for m in terms)
            u, w = _ints(a, field.degree if field else 1)
            u = mul_matrix(u, field.reducer) if field else u[0]
            wpow = [w ** k for k in range(n + 1)]
            den *= wpow[n]
            terms = {}
            for rest, col in cols.items():
                cs = [[0] * field.degree if field else 0] * (max(col) + 1)
                for e, c in col.items():
                    cs[e] = scaled(c, wpow[n - e])
                for k, c in enumerate(horner_shift(cs, u, n)):
                    if any(c) if field else c:
                        terms[rest[:i] + (k,) + rest[i:]] = scaled(c, wpow[k])
        build = field.from_ints if field else Fraction
        return Poly._trusted(self.vars, {m: build(c, den)
                                         for m, c in terms.items()})

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
# A product or power is expanded as soon as it is read, so it is refused
# before that when its degree, deg p + deg q at a '*' or e * deg(base) at
# a '^', passes MAX_DEGREE, or a power's e times log2 of the base's
# largest numerator or denominator passes MAX_POWER_BITS.  The corpus
# needs degree 28; (x + y + 1)^32 takes 0.1 s to expand, ^64 seconds,
# ^999 hours, and so does a product of as many factors.  Within those
# bounds the term count can still grow: (x + y + s + t + u + 1)^16 has
# 20,349 terms and takes seconds.  So a product is also refused when its
# bound on the terms, t_p * t_q for factors of t_p and t_q terms or
# C(k + e - 1, e) for the e-th power of k terms, passes MAX_TERMS; the
# shipped data files need at most 210.
MAX_DEGREE = 32
MAX_POWER_BITS = 1 << 14
MAX_TERMS = 1 << 12


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse the fixed grammar (explicit ``*``, ``^`` nonnegative powers).

    A leading sign on an expression is accepted so that printed canonical
    forms re-parse.  Every symbol must appear in `variables`.  Parentheses
    nest at most `MAX_PAREN_DEPTH` deep.  A product of degree past
    `MAX_DEGREE` is refused at its ``*``, and a power past `MAX_DEGREE`
    or `MAX_POWER_BITS` at its exponent; so is either one whose bound on
    its terms passes `MAX_TERMS`.
    """
    vs = tuple(variables)
    tok = _Tokenizer(text)
    depth = 0

    def check_terms(bound: int, what: str, start: int):
        if bound > MAX_TERMS:
            raise PolySyntaxError("%s of up to %d terms exceeds %d"
                                  % (what, bound, MAX_TERMS), start)

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
                q = parse_factor()
                degree = max(p.degree(), 0) + max(q.degree(), 0)
                if degree > MAX_DEGREE:
                    raise PolySyntaxError("product of degree %d exceeds %d"
                                          % (degree, MAX_DEGREE), start)
                check_terms(len(p.terms) * len(q.terms), "product", start)
                p = p * q
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
            e = _int_literal(val, start)
            if e * max(p.degree(), 0) > MAX_DEGREE:
                raise PolySyntaxError("power of degree %d exceeds %d"
                                      % (e * p.degree(), MAX_DEGREE), start)
            bits = e * max((log2(abs(x)) for c in p.terms.values()
                            for x in (c.numerator, c.denominator)), default=0)
            if bits > MAX_POWER_BITS:
                raise PolySyntaxError("power of %d bits exceeds %d"
                                      % (bits, MAX_POWER_BITS), start)
            check_terms(comb(max(len(p.terms), 1) + e - 1, e), "power", start)
            p = p ** e
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


class UniPoly(Frozen):
    """Dense univariate polynomial; coefficient list is low-to-high degree,
    with no zero top coefficient.  `+`, `*` and `**` are `Poly`'s, on
    `to_poly()` and read back by `from_poly`."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Coef]):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs",
                           tuple(_trim([_as_coef(c) for c in coeffs])))

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
        return UniPoly.from_poly(self.to_poly() + other.to_poly(), self.var)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly.from_poly(self.to_poly() * other.to_poly(), self.var)

    def __pow__(self, n: int) -> "UniPoly":
        return UniPoly.from_poly(self.to_poly() ** n, self.var)

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


def _trim(a: list) -> list:
    """The list a with its zero top entries popped, in place."""
    while a and not a[-1]:
        a.pop()
    return a


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


def horner_shift(cs: list, u, last: int) -> list:
    """The coefficients (low to high) of p(t + u) for those of p in `cs`,
    in place, by Horner's rule: pass s adds u times each coefficient into
    the one below it, from the top down to t^s, after which the
    coefficient of t^s is final.  The passes stop once every coefficient
    of degree <= `last` is; those above it are then partial.  Returns cs.

    Over a number field cs holds coordinate vectors and `u` is the shift's
    matrix (`mul_matrix`), a list of rows.
    """
    n = len(cs) - 1
    if isinstance(u, list):
        for s in range(min(n, last + 1)):
            for j in range(n - 1, s - 1, -1):
                v = cs[j + 1]
                if any(v):
                    cs[j] = [x + sum(map(mul, row, v))
                             for x, row in zip(cs[j], u)]
        return cs
    for s in range(min(n, last + 1)):
        for j in range(n - 1, s - 1, -1):
            cs[j] += u * cs[j + 1]
    return cs


def shear(terms: Mapping[Monom, Coef], k, i: int) -> dict:
    """The term dict in two variables of p with variable i (0 or 1)
    replaced by itself plus k times the other one.

    The shear keeps each homogeneous part: the part of degree d is
    v^d P(x_i / v), v the other variable and P(t) the sum of its
    coefficients c t^e of x_i^e, and it becomes v^d P(x_i / v + k), so P
    is shifted by k (`horner_shift`).
    """
    parts: dict = {}
    for m, c in terms.items():
        parts.setdefault(m[0] + m[1], {})[m[i]] = c
    out = {}
    for d, part in parts.items():
        cs = [0] * (max(part) + 1)
        for e, c in part.items():
            cs[e] = c
        for e, c in enumerate(horner_shift(cs, k, d)):
            if c:
                out[(e, d - e) if i == 0 else (d - e, e)] = c
    return out


# ---------------------------------------------------------------------------
# coordinate vectors of a number field, and the univariate gcd on them
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


def _mul_terms(a: Mapping[Monom, Coef], b: Mapping[Monom, Coef]) -> dict:
    """The product of two term dicts with monomials of one length."""
    terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(map(add, m1, m2))
            prod = c1 * c2
            if mon in terms:
                terms[mon] = terms[mon] + prod
            else:
                terms[mon] = prod
    return terms


def field_of(coeffs):
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
    rational or of a field element of degree d (its `nums` and `den`)."""
    if isinstance(c, (int, Fraction)):
        return [c.numerator] + [0] * (d - 1), c.denominator
    return c.nums, c.den


def scaled(c, s: int):
    """c * s for an int or an integer coordinate vector c."""
    return [x * s for x in c] if type(c) is list else c * s


def mul_matrix(a: Sequence[int], reducer: Sequence) -> list:
    """The rows of the integer matrix of multiplication by the coordinate
    vector `a` (`reducer` as in `convolve_reduce`): column k holds a w^k,
    and a v is sum(map(mul, row, v)) over the rows."""
    col = list(a)
    cols = [col]
    for _ in range(len(a) - 1):
        # times w: shift up, then w^d = -sum m_j w^j
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            for j, m in reducer:
                col[j] -= top * m
        cols.append(col)
    return [list(row) for row in zip(*cols)]


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

    Over Q, the integer kernel `_int_gcd` on the cleared numerators.  Over
    a number field, a primitive pseudo-remainder sequence on integer
    coordinate vectors (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 6.12): the denominators are cleared, each pseudo-division
    step replaces R by lc(B) R - lc(R) y^k B, which lowers the degree of R,
    and R is divided by the integer content of all its coordinates after
    every step.  The last nonzero remainder is made monic with one inverse
    of its leading coefficient, one canonical coefficient built per term;
    a constant remainder is a unit, so the gcd is 1 with no inverse.
    """
    field = field_of(a.coeffs + b.coeffs)
    if field is None:
        g = _dense(_int_gcd(*(clear_denominators(
            {(e,): c for e, c in enumerate(u.coeffs) if c})[0]
            for u in (a, b))))
        return UniPoly(a.var, [Fraction(c, g[-1]) for c in g])
    d, reducer = field.degree, field.reducer

    def cleared(coeffs):
        return _primitive(list(clear_denominators(dict(enumerate(coeffs)),
                                                  field)[0].values()))

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
    if len(r0) == 1:
        return UniPoly(a.var, [field.from_rational(1)])
    inv, den = _ints(1 / field.from_ints(r0[-1], 1), d)
    return UniPoly(a.var, [field.from_ints(convolve_reduce(c, inv, reducer),
                                           den) for c in r0])


# ---------------------------------------------------------------------------
# exact arithmetic over Q on integers: gcds and the squarefree test by the
# integer gcd kernel below, resultant by Kronecker substitution
# ---------------------------------------------------------------------------


def clear_denominators(terms: Mapping[Monom, Coef], field=None):
    """(cleared, d) for a term dict over Q, or over the number field
    `field`: d is the least positive integer that makes every coefficient
    integral, and cleared maps each monomial to d times its coefficient,
    an `int` over Q and a list of integer coordinates over the field."""
    if field is None:
        d = lcm(*(c.denominator for c in terms.values()))
        return {m: c.numerator * (d // c.denominator)
                for m, c in terms.items()}, d
    pairs = {m: _ints(c, field.degree) for m, c in terms.items()}
    d = lcm(*(dc for _, dc in pairs.values()))
    return {m: [x * (d // dc) for x in v]
            for m, (v, dc) in pairs.items()}, d


def primitive_ints(terms: Mapping[Monom, int], field=None) -> Mapping:
    """A term dict from `clear_denominators` divided by the gcd of all its
    integers (the dict itself when that gcd is 1)."""
    if field is None:
        c = gcd(*terms.values())
        return terms if c == 1 else {m: v // c for m, v in terms.items()}
    c = gcd(*(x for v in terms.values() for x in v))
    return terms if c == 1 else {m: [x // c for x in v]
                                 for m, v in terms.items()}


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD over Q, integer-primitive with positive leading coefficient.

    gcd(0, 0) = 0, and a nonzero constant operand gives 1.  The integer
    kernel `_int_gcd` runs on the cleared numerators, over the variables
    that either polynomial uses.  Its answer is exact by the lemma of Char,
    Geddes & Gonnet: for primitive a, b and xi > 2 min(|a|_inf, |b|_inf) +
    2, the primitive part of the balanced base-xi digits of gcd(a(xi),
    b(xi)) is gcd(a, b) as soon as it divides both, which is checked by
    exact division; when no point tried passes, a primitive PRS decides.
    """
    vs, a, b = p._aligned(q)
    if a.is_constant() and b.is_constant():
        return Poly.const(0 if a.is_zero() and b.is_zero() else 1, vs)
    used = set(a.used_vars()) | set(b.used_vars())
    us = tuple(v for v in vs if v in used)
    g = _int_gcd(clear_denominators(a.with_vars(us).terms)[0],
                 clear_denominators(b.with_vars(us).terms)[0])
    return Poly._trusted(us, {m: Fraction(c) for m, c in g.items()}
                         ).with_vars(vs).primitive()


def is_squarefree(p: Poly) -> bool:
    """True iff p, in at most two variables, has no repeated factor.

    In one variable: gcd(u, u') is constant.  In (x, y): p is squarefree
    iff some line y = c meets it in a squarefree polynomial of full
    x-degree and some line x = c does the same in y.  Only if: a factor h
    with h^2 | p has positive degree in x, say, and on a line y = c where
    lc_x(p) does not vanish, lc_x(h) does not either, so h(x, c)^2 divides
    p(x, c) with deg h(x, c) > 0.  If: for a squarefree p of total degree
    d and x-degree n, the bad c are roots of lc_x(p), of y-degree at most
    d - 1, or of Disc_x(p), a form of degree 2n - 2 in the coefficients of
    p and so of y-degree at most (2d - 2) d; that is at most 2d^2 - d - 1
    values, so one of the first 2d^2 integers c = 0, 1, -1, 2, ... is good.
    """
    used = p.used_vars()
    if not used:
        return not p.is_zero()
    if len(used) > 2:
        raise DomainError("is_squarefree takes at most two variables: %s" % p)
    ints = clear_denominators(p.with_vars(used).terms)[0]
    if len(used) == 1:
        return _squarefree(ints)
    return all(_squarefree_line(ints, k) is not None for k in (0, 1))


def _squarefree_line(ints: Mapping[Monom, int], k: int) -> Optional[dict]:
    """The image {(e,): v} in variable k of the integer term dict `ints`
    in two variables on the line where the other one is c, for the first
    c = 0, 1, -1, ... where it is squarefree of full degree; None when
    none of the first 2 d^2, d the total degree, is (see `is_squarefree`)."""
    full = max(m[k] for m in ints)
    tries = 2 * max(map(sum, ints)) ** 2
    for c in islice(_integers(), tries):
        line: dict = {}
        for m, v in ints.items():
            e = (m[k],)
            line[e] = line.get(e, 0) + v * c ** m[1 - k]
        line = {e: v for e, v in line.items() if v}
        if (full,) in line and _squarefree(line):
            return line
    return None


def _integers():
    """0, 1, -1, 2, -2, ..."""
    k = 0
    while True:
        yield k
        k = -k if k > 0 else 1 - k


def _squarefree(u: dict) -> bool:
    """True iff the nonzero integer term dict u in one variable has a
    constant gcd with its derivative."""
    du = {(e - 1,): e * v for (e,), v in u.items() if e}
    return list(_int_gcd(u, du)) == [(0,)]


# ---------------------------------------------------------------------------
# the integer gcd kernel: heuristic gcd, primitive PRS as the fallback
# ---------------------------------------------------------------------------

# evaluation points tried, each the square of the last, before the PRS
_HEU_TRIES = 4


def _int_gcd(a: Mapping[Monom, int], b: Mapping[Monom, int]) -> dict:
    """gcd in Z[x_1, ..., x_n], up to sign, of two integer term dicts over
    the same n variables; {} when both are zero.

    The heuristic gcd of Char, Geddes & Gonnet (J. Symbolic Comput. 7,
    1989), for n >= 1; for n = 0 the gcd is `math.gcd` of the two
    constants.  The integer contents and the lowest power of each variable
    are taken out and their gcds put back: a power of x_n left in would
    bring the factor xi^k into both values at xi = 2^B for every B.  x_n
    is evaluated at xi = 2^B > 2 min(|a|_inf, |b|_inf) + 2, the gcd of
    the images in one variable fewer comes from this kernel again, down to
    n = 0, and its balanced base-xi digits, the coefficients of x_n, made
    primitive, are the candidate.  Lemma (Char, Geddes & Gonnet, Theorem
    1; Geddes, Czapor & Labahn, *Algorithms for Computer Algebra*, 7.7):
    with that xi, a candidate that divides both primitive parts is their
    gcd.  So a candidate is accepted only after exact division
    (`_quotient`); otherwise B doubles, and after `_HEU_TRIES` points the
    primitive PRS `_prs_gcd` decides.
    """
    if not a or not b:
        return dict(a or b)
    ca, cb = gcd(*a.values()), gcd(*b.values())
    n = len(next(iter(a)))
    if not n:
        return {(): gcd(ca, cb)}
    la, lb = ([min(m[i] for m in t) for i in range(n)] for t in (a, b))
    a = {tuple(e - k for e, k in zip(m, la)): v // ca for m, v in a.items()}
    b = {tuple(e - k for e, k in zip(m, lb)): v // cb for m, v in b.items()}
    g = _heu_gcd(a, b)
    if g is None:
        g = _prs_gcd(a, b)
    c, low = gcd(ca, cb), list(map(min, la, lb))
    return {tuple(e + k for e, k in zip(m, low)): v * c for m, v in g.items()}


def _heu_gcd(a: dict, b: dict) -> Optional[dict]:
    """The heuristic of `_int_gcd` on primitive nonzero a, b in n >= 1
    variables: their gcd up to sign, or None when no point tried gave it."""
    bits = (2 * min(max(map(abs, a.values())),
                    max(map(abs, b.values()))) + 2).bit_length()
    for _ in range(_HEU_TRIES):
        h = _int_gcd(_evaluate_last(a, bits), _evaluate_last(b, bits))
        g = {m + (e,): d for m, v in h.items()
             for e, d in enumerate(_digits(v, bits)) if d}
        if len(g) == 1 and not any(next(iter(g))):
            return {next(iter(g)): 1}
        if g:
            g = primitive_ints(g)
            if _quotient(a, g) is not None and _quotient(b, g) is not None:
                return g
        bits *= 2
    return None


def _digits(v: int, bits: int) -> list:
    """The balanced base-2^bits digits of v, each in [-2^(bits-1),
    2^(bits-1)), low to high, with no zero last digit."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while v:
        digit = v & mask
        if digit >= half:
            digit -= 1 << bits
        out.append(digit)
        v = (v - digit) >> bits
    return out


def _evaluate_last(a: Mapping[Monom, int], bits: int) -> dict:
    """The integer term dict a with its last variable set to 2^bits."""
    out: dict = {}
    for m, v in a.items():
        k = m[:-1]
        out[k] = out.get(k, 0) + (v << (bits * m[-1]))
    return {k: v for k, v in out.items() if v}


def _dense(a: Mapping[Monom, int]) -> list:
    """The coefficient list, low to high, of an integer term dict in at
    most one variable."""
    out = [0] * (max(sum(m) for m in a) + 1) if a else []
    for m, v in a.items():
        out[sum(m)] = v
    return out


def _quotient(a: Mapping[Monom, int], h: Mapping[Monom, int]):
    """a / h for integer term dicts over the same variables when the
    nonzero h divides a, else None.

    The map x_i -> t^(place_i), with places in the mixed radix of sizes
    deg_i(a) + 1, is a ring map to Z[t] that is one-to-one on polynomials
    of degree below size_i in each x_i.  When t-division is exact and the
    quotient q read back has deg_i(h) + deg_i(q) <= deg_i(a) for every i,
    h q stays within those degrees and has the image of a, so h q = a.
    In one variable the map is the identity, and the lists are divided
    as they are.
    """
    if not a:
        return {}
    n = len(next(iter(h)))
    if n == 1:
        q = _dense_quotient(_dense(a), _dense(h))
        return None if q is None else {(e,): v for e, v in enumerate(q) if v}
    da = [max(m[i] for m in a) for i in range(n)]
    dh = [max(m[i] for m in h) for i in range(n)]
    if any(x > y for x, y in zip(dh, da)):
        return None
    places, unit = [], 1
    for d in da:
        places.append(unit)
        unit *= d + 1
    q = _dense_quotient(*(_dense({(sum(e * w for e, w in zip(m, places)),): v
                                  for m, v in t.items()}) for t in (a, h)))
    if q is None:
        return None
    out = {}
    for k, v in enumerate(q):
        if v:
            mon = []
            for d in da:
                k, e = divmod(k, d + 1)
                mon.append(e)
            out[tuple(mon)] = v
    if any(max(m[i] for m in out) + dh[i] > da[i] for i in range(n)):
        return None
    return out


def _dense_quotient(a: list, b: list) -> Optional[list]:
    """a / b for integer coefficient lists, low to high with nonzero last
    entries, when b divides a in Z[t], else None."""
    m = len(b) - 1
    if len(a) <= m:
        return None
    r, lb = list(a), b[-1]
    lower = [(j, c) for j, c in enumerate(b[:-1]) if c]
    q = [0] * (len(a) - m)
    for top in range(len(a) - 1, m - 1, -1):
        c = r[top]
        if c:
            c, rest = divmod(c, lb)
            if rest:
                return None
            q[top - m] = c
            for j, bj in lower:
                r[top - m + j] -= c * bj
    return None if any(r[:m]) else q


def _prs_gcd(a: dict, b: dict) -> dict:
    """gcd of two nonzero integer term dicts in n >= 1 variables, up to
    sign, by a primitive pseudo-remainder sequence in the last variable x_n
    (Knuth, TAOCP 2, 4.6.1, Algorithm E): the contents in x_n, the gcds of
    the coefficients, come from `_int_gcd` in n - 1 variables, and the gcd
    is the gcd of the contents times the last nonzero primitive remainder.
    """
    ca, a = _primitive_last(a)
    cb, b = _primitive_last(b)
    if max(m[-1] for m in a) < max(m[-1] for m in b):
        a, b = b, a
    while b:
        db = max(m[-1] for m in b)
        lb = {m[:-1] + (0,): c for m, c in b.items() if m[-1] == db}
        r = a
        while r:
            dr = max(m[-1] for m in r)
            if dr < db:
                break
            # r <- lc(b) r - lc(r) x_n^(dr - db) b, of lower degree in x_n
            lr = {m[:-1] + (dr - db,): -c for m, c in r.items()
                  if m[-1] == dr}
            r = _mul_terms(lb, r)
            for m, c in _mul_terms(lr, b).items():
                r[m] = r.get(m, 0) + c
            r = {m: c for m, c in r.items() if c}
        a, b = b, _primitive_last(r)[1]
    c = _int_gcd(ca, cb)
    g = _mul_terms(a, {m + (0,): v for m, v in c.items()})
    return {m: v for m, v in g.items() if v}


def _primitive_last(a: dict):
    """(content, primitive part) of an integer term dict in its last
    variable: the content is a term dict in the other variables."""
    if not a:
        return {}, {}
    coeffs: dict = {}
    for m, v in a.items():
        coeffs.setdefault(m[-1], {})[m[:-1]] = v
    cont: dict = {}
    for c in coeffs.values():
        cont = _int_gcd(cont, c)
    return cont, _quotient(a, {m + (0,): v for m, v in cont.items()})


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
    for place, digit in enumerate(_digits(r, bits)):
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
    return _trim(r)
