"""Number fields presented as Q[w]/(m(w)), flattened to a single generator.

The resolution of singularities and the singular-point finder work over
towers of these fields.  `extend_field` is the one constructor: over Q it
adjoins a root of an irreducible polynomial, over a field it re-flattens the
extension via a primitive element, so an element is one coordinate vector
in the powers of a single generator: integer coordinates over one
denominator.  Every minimal polynomial is integral and monic, so a product
is an integer convolution reduced by the minimal polynomial, with no
division (`poly.convolve_reduce`, whose `reducer` is the field's), and
one gcd at the end.  The loops over many coefficients (see `poly`) run
on the same coordinate vectors and build elements with
`NumberField.from_ints` only where a result needs them.  An inverse
solves the integer linear system of multiplication by the element
(`poly.mul_matrix`), fraction-free (Bareiss), so it needs no `Fraction`.

`field = None` denotes Q itself with plain `Fraction` elements throughout
the package.

Irreducible factorization of univariate polynomials over Q is Zassenhaus's
algorithm over Z (`factor_rational`, on `factor.factor_univariate`).
Factorization over an extension reduces to it by
Trager's norm trick, and the primitive element of a tower is read off the
same norm: both take the first shift s >= 1 whose norm of q(y - s*theta) is
squarefree (`_squarefree_norm`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Tuple

from .factor import factor_univariate
from .poly import (
    DomainError,
    Frozen,
    Poly,
    UniPoly,
    clear_denominators,
    convolve_reduce,
    is_squarefree,
    mul_matrix,
    unipoly_gcd,
    resultant,
    _dense,
)

__all__ = [
    "NumberField",
    "NFElt",
    "TowerCapError",
    "coerce_unipoly",
    "factor_rational",
    "factor_over_field",
    "extend_field",
    "coef_key",
]


class TowerCapError(DomainError):
    """A tower would exceed the absolute degree TOWER_CAP."""


class NumberField(Frozen):
    """Q[w]/(minpoly); minpoly monic irreducible over Q of degree >= 2.

    The minimal polynomial must have integer coefficients once monic
    (`extend_field` always builds such a one, see `integral_minpoly`): the
    product of two elements is then reduced without any division, by
    `reducer`, the nonzero (j, m_j) below the leading term of
    w^d + sum m_j w^j (see `poly.convolve_reduce`).
    """

    __slots__ = ("minpoly", "name", "reducer")

    def __init__(self, minpoly: UniPoly, name: str = "w"):
        mp = minpoly.monic()
        if mp.degree() < 2:
            raise DomainError("number field needs degree >= 2 minimal polynomial")
        if any(c.denominator != 1 for c in mp.coeffs):
            raise DomainError("minimal polynomial %s is not integral" % mp)
        object.__setattr__(self, "minpoly", UniPoly(name, mp.coeffs))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "reducer", tuple(
            (j, int(c)) for j, c in enumerate(mp.coeffs[:-1]) if c))

    @property
    def degree(self) -> int:
        return self.minpoly.degree()

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.minpoly.coeffs == other.minpoly.coeffs

    def __hash__(self):
        return hash(self.minpoly.coeffs)

    def __repr__(self):
        return "NumberField(%s = 0)" % self.minpoly

    # element constructors -------------------------------------------------

    def element(self, coeffs) -> "NFElt":
        cs = [Fraction(c) for c in coeffs][: self.degree]
        cs += [Fraction(0)] * (self.degree - len(cs))
        ints, den = clear_denominators(dict(enumerate(cs)))
        return NFElt(self, ints.values(), den)

    def generator(self) -> "NFElt":
        return self.element([0, 1])

    def from_ints(self, nums, den: int) -> "NFElt":
        """The element with integer coordinates `nums` over the positive
        integer `den`, in lowest terms."""
        return NFElt(self, nums, den)

    def from_rational(self, c) -> "NFElt":
        c = Fraction(c)
        return NFElt(self, (c.numerator,) + (0,) * (self.degree - 1),
                     c.denominator)


class NFElt(Frozen):
    """Element of a NumberField: integer coordinates `nums` in the powers
    of the generator over one positive denominator `den`.

    The pair is canonical, gcd(den, *nums) = 1, so equal elements have
    equal vectors.  `coeffs` is the same vector as `Fraction`s.  Products
    and inverses are computed on `nums` with Python ints.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums, den: int):
        nums = tuple(nums)
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(n // g for n in nums)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _same_field(self, other: "NFElt"):
        if other.field is not self.field and other.field != self.field:
            raise DomainError("mixed number fields")

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, NFElt):
            return (self.den == other.den and self.nums == other.nums
                    and self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like the rational it equals
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.nums, self.den))

    def __add__(self, other):
        if isinstance(other, NFElt):
            self._same_field(other)
            da, db = self.den, other.den
            if da == db:
                return NFElt(self.field, [a + b for a, b in
                                          zip(self.nums, other.nums)], da)
            return NFElt(self.field, [a * db + b * da for a, b in
                                      zip(self.nums, other.nums)], da * db)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            nums = [n * q for n in self.nums]
            nums[0] += p * self.den
            return NFElt(self.field, nums, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return NFElt(self.field, [-n for n in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (NFElt, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, NFElt):
            self._same_field(other)
            return NFElt(self.field, convolve_reduce(self.nums, other.nums,
                                                     self.field.reducer),
                         self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return NFElt(self.field, [n * p for n in self.nums],
                         self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "NFElt":
        """den * x / D, where x solves A x = e_0 for the integer matrix A
        of multiplication by `nums` (column j holds nums * w^j) and D is
        its determinant.

        Fraction-free Gaussian elimination (Bareiss) on [A | e_0] keeps
        every entry an integer, swapping in a lower row where a pivot is
        zero; its last pivot is D, and back substitution gives D * x in
        integers by exact division (Cramer's rule).
        """
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        d = len(self.nums)
        rows = [row + [int(i == 0)] for i, row in
                enumerate(mul_matrix(self.nums, self.field.reducer))]
        prev = 1
        for k in range(d):
            if not rows[k][k]:
                r = next(r for r in range(k + 1, d) if rows[r][k])
                rows[k], rows[r] = rows[r], rows[k]
            pivot, rk = rows[k][k], rows[k]
            for row in rows[k + 1:]:
                f = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (row[j] * pivot - f * rk[j]) // prev
                row[k] = 0
            prev = pivot
        det = prev
        sol = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = det * row[d] - sum(row[j] * sol[j] for j in range(i + 1, d))
            sol[i] = acc // row[i]
        if det < 0:
            det, sol = -det, [-v for v in sol]
        return NFElt(self.field, [self.den * v for v in sol], det)

    def __truediv__(self, other):
        if isinstance(other, NFElt):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def to_theta_poly(self) -> UniPoly:
        return UniPoly(self.field.name, self.coeffs)

    def __str__(self):
        return str(self.to_theta_poly())

    __repr__ = __str__


# ---------------------------------------------------------------------------
# generic helpers over "field = None (Q) or NumberField"
# ---------------------------------------------------------------------------


def coerce_unipoly(field: NumberField, u: UniPoly) -> UniPoly:
    return UniPoly(u.var, [c if isinstance(c, NFElt)
                           else field.from_rational(c) for c in u.coeffs])


def integral_minpoly(p: UniPoly):
    """(monic integer q, D) with q(D * root) = 0 for every root of p.

    Keeping minimal polynomials integer-monic stops denominator snowballing
    in element reductions; the field generator then stands for D times the
    original root.
    """
    # times their least common denominator an, the coefficients of p made
    # monic are coprime integers, the leading one an
    ints, an = clear_denominators(dict(enumerate(p.monic().coeffs)))
    n = p.degree()
    out = [Fraction(ints[i] * an ** (n - 1 - i)) for i in range(n)]
    out.append(Fraction(1))
    return UniPoly(p.var, out), Fraction(an)


def coef_key(c) -> tuple:
    """Deterministic sort key for Fraction or NFElt coefficients."""
    if isinstance(c, NFElt):
        return (1,) + tuple((x.numerator, x.denominator) for x in c.coeffs)
    c = Fraction(c)
    return (0, (c.numerator, c.denominator))


# ---------------------------------------------------------------------------
# factorization over Q
# ---------------------------------------------------------------------------

def factor_rational(u: UniPoly):
    """The distinct monic irreducible factors of a rational UniPoly.

    Deterministic order: by (degree, coefficient tuple).  The cleared
    numerators are factored over Z by `factor.factor_univariate`
    (Zassenhaus's algorithm, exact: see that module), whose primitive
    factors are the irreducible factors over Q by Gauss's lemma.
    """
    if u.is_zero():
        raise DomainError("zero polynomial")
    if u.degree() == 1:
        return [u.monic()]
    ints = clear_denominators({(e,): c for e, c in enumerate(u.coeffs)
                               if c})[0]
    out = [UniPoly(u.var, [Fraction(c, g[-1]) for c in g])
           for g in factor_univariate(_dense(ints))]
    out.sort(key=lambda f: (f.degree(), tuple((c.numerator, c.denominator)
                                             for c in f.coeffs)))
    return out


# ---------------------------------------------------------------------------
# factorization over an extension (Trager) and field extension / flattening
# ---------------------------------------------------------------------------


def _lift(field: NumberField, q: UniPoly, s: int) -> dict:
    """q(y - s*theta) for q over K = Q(theta), as a rational term dict
    {(i, j): a} of a * theta^i * y^j with i below the field degree."""
    q = q.shift(field.generator() * -s)
    return {(i, j): a for j, c in enumerate(q.coeffs)
            for i, a in enumerate(c.coeffs) if a}


def _squarefree_norm(field: NumberField, q: UniPoly):
    """(s, lift, N) for the least s >= 1 whose norm N = Res_theta(m(theta),
    q(y - s*theta)), a UniPoly in q's variable, is squarefree; `lift` is
    q(y - s*theta) (`_lift`).

    The roots of N are eta + s*theta over all conjugate pairs (theta, eta)
    with q(eta) = 0.  Squarefree, they are distinct: Trager's factors of N
    then give the factors of q, and gamma = eta + s*theta is a primitive
    element of K(eta).  Only finitely many s fail for a squarefree q.
    """
    mpoly = field.minpoly.to_poly((field.name,))
    for s in range(1, 42):
        lift = _lift(field, q, s)
        norm = resultant(mpoly, Poly((field.name, q.var), lift), field.name)
        if is_squarefree(norm):
            return s, lift, UniPoly.from_poly(norm, q.var)
    raise DomainError("no squarefree norm found for %s over %s" % (q, field))


def factor_over_field(field: Optional[NumberField], u: UniPoly):
    """The distinct monic irreducible factors of u over the field.

    Over a number field, Trager runs on the monic squarefree part
    u / gcd(u, u').  Deterministic order: by (degree, coefficient tuple).
    """
    if field is None:
        return factor_rational(u)
    u = coerce_unipoly(field, u)
    if u.is_zero():
        raise DomainError("zero polynomial")
    if u.degree() == 0:
        return []
    if u.degree() == 1:
        return [u.monic()]
    sqf = u.divmod(unipoly_gcd(u, u.derivative()))[0].monic()
    out = _trager_squarefree(field, sqf)
    out.sort(key=lambda f: (f.degree(), tuple(coef_key(c) for c in f.coeffs)))
    return out


def _trager_squarefree(field: NumberField, g: UniPoly):
    """Irreducible factors over K of a monic squarefree g in K[y]: the gcds
    of g with h(y + s*theta) over the irreducible factors h of a squarefree
    norm (`_squarefree_norm`)."""
    if g.degree() == 1:
        return [g]
    s, _, norm = _squarefree_norm(field, g)
    shift = field.generator() * s
    factors = [unipoly_gcd(coerce_unipoly(field, h).shift(shift), g)
               for h in factor_rational(norm)]
    if min(f.degree() for f in factors) < 1 \
            or sum(f.degree() for f in factors) != g.degree():
        raise DomainError("Trager factorization of %s over %s is incomplete"
                          % (g, field))
    return factors


_GEN_NAMES = "wvuzpq"
TOWER_CAP = 12


def extend_field(field: Optional[NumberField], q: UniPoly):
    """Flatten field(eta)/q(eta) to a primitive single-generator field.

    `q` must be irreducible over `field` with degree >= 2.  Returns
    (new_field, embed, eta_img) where `embed` maps old elements into the
    new field and `eta_img` is the image of the adjoined root.  The new
    field's minimal polynomial is integral and monic (`integral_minpoly`),
    so its generator stands for a multiple of the primitive element.

    A first extension of Q is never capped; a tower (`field` not None)
    raises TowerCapError when its absolute degree would exceed TOWER_CAP.
    """
    if field is None:
        mu_int, dscale = integral_minpoly(q)
        new = NumberField(mu_int, _GEN_NAMES[0])
        return new, new.from_rational, new.generator() * (1 / dscale)
    total = field.degree * q.degree()
    if total > TOWER_CAP:
        raise TowerCapError("extension degree %d exceeds the tower cap %d"
                            % (total, TOWER_CAP))

    depth = _GEN_NAMES.index(field.name[0]) if field.name[0] in _GEN_NAMES else 0
    name = _GEN_NAMES[(depth + 1) % len(_GEN_NAMES)]
    s, lift, mu = _squarefree_norm(field, q)
    mu_int, dscale = integral_minpoly(mu)
    new = NumberField(mu_int, name)
    gamma = new.generator() * (1 / dscale)
    # theta is the one common root of m(t) and lift(t, gamma), which is
    # q(gamma - s*t), since the norm is squarefree
    cs = [new.from_rational(0)] * field.degree
    for (i, j), a in lift.items():
        cs[i] = cs[i] + gamma ** j * a
    g = unipoly_gcd(coerce_unipoly(new, field.minpoly),
                    UniPoly(field.name, cs))
    if g.degree() != 1:
        raise DomainError("gcd of degree %d for the image of %s"
                          % (g.degree(), field.name))
    theta_img = -g.coeffs[0]   # the gcd is monic
    eta_img = gamma - theta_img * s

    def embed(c):
        if isinstance(c, NFElt):
            acc = new.from_rational(0)
            for a in reversed(c.coeffs):
                acc = acc * theta_img + a
            return acc
        return new.from_rational(c)

    return new, embed, eta_img
