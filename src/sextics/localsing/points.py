"""Locating singular points exactly: rational points and conjugate clusters.

The singular locus of a squarefree curve is cut out by f = f_x = f_y = 0.
X-coordinates are found from the eliminant E = Res_y(f, f_y).  Its order at
x0 is at least the sum of the intersection numbers I_P(f, f_y) over the
points P above x0, and I_P(f, f_y) >= m_P(f) * m_P(f_y) >= 2 at a singular
point (Fulton, Algebraic Curves, 1.6 and 3.3).  So a singular point lies
over a repeated root of E, and only the repeated part gcd(E, E') is
factored over Q: its distinct irreducible factors are exactly the factors
of E of multiplicity at least 2, and the simple roots of E never reach the
factorization.  Each factor becomes a field (`extend_field`) in which the
matching y-coordinates are read off a univariate gcd; a repeated root that
carries no singular point (a vertical tangent) leaves that gcd constant.
Points that are conjugate over Q are kept as one cluster with its degree;
every germ computation then runs over that field.

E vanishes identically exactly when f is not squarefree (see
`singular_points`), so squarefreeness is read off E too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .. import numfield
from ..numfield import (
    NFElt,
    NumberField,
    coef_key,
    extend_field,
    factor_rational,
    unipoly_gcd,
)
from ..poly import (
    DomainError,
    Poly,
    UniPoly,
    clear_denominators,
    convolve_reduce,
    # unused here; perfbench/tracer.py patches it in this namespace
    is_squarefree,  # noqa: F401
    poly_gcd,
    resultant,
    shear,
    _primitive_last,
)

__all__ = [
    "AlgebraicPoint",
    "NotSquarefreeError",
    "singular_points",
    "translate_to_origin",
    "specialize_x",
    "point_on_curve",
]

Coord = Union[Fraction, NFElt]


class NotSquarefreeError(DomainError):
    """The input curve has a repeated component."""


class AlgebraicPoint(NamedTuple):
    """A point with exact coordinates, possibly a conjugate cluster.

    `field` is None for rational points; otherwise both coordinates live in
    the number field and the point stands for all `degree` conjugates.
    """

    x: Coord
    y: Coord
    field: Optional[NumberField] = None
    degree: int = 1

    def sort_key(self):
        mp = () if self.field is None else tuple(
            (c.numerator, c.denominator) for c in self.field.minpoly.coeffs)
        return (self.degree, mp, coef_key(self.x), coef_key(self.y))

    def __str__(self) -> str:
        if self.field is None:
            return "(%s, %s)" % (self.x, self.y)
        return "(%s, %s) with %s = 0" % (self.x, self.y, self.field.minpoly)


def point_on_curve(f: Poly, p: AlgebraicPoint) -> bool:
    val = f.evaluate({"x": p.x, "y": p.y})
    return not val


def translate_to_origin(f: Poly, p: AlgebraicPoint) -> Poly:
    """Germ of f at p: f(x + px, y + py) over the point's field."""
    return f.with_vars(("x", "y")).shift({"x": p.x, "y": p.y})


def specialize_x(f: Poly, field: Optional[NumberField], x0: Coord) -> UniPoly:
    """f(x0, y) as a univariate in y over the field, for a rational f: on
    integers, with f's denominators cleared, x0 = A/w and n the degree in
    x, w^n f(x0, y) is the sum of c A^i w^(n-i) y^j, the powers of A (ints
    or coordinate vectors, `convolve_reduce`) taken once."""
    terms, den = clear_denominators(f.with_vars(("x", "y")).terms)
    a, w, reducer = ([x0.numerator], x0.denominator, ()) if field is None \
        else (x0.nums, x0.den, field.reducer)
    n = max(i for i, _ in terms)
    powers = [[1] + [0] * (len(a) - 1)]
    for _ in range(n):
        powers.append(convolve_reduce(powers[-1], a, reducer))
    sums = [[0] * len(a)] * (max(j for _, j in terms) + 1)
    for (i, j), c in terms.items():
        c *= w ** (n - i)
        sums[j] = [s + c * p for s, p in zip(sums[j], powers[i])]
    den *= w ** n
    return UniPoly("y", [Fraction(v[0], den) if field is None
                         else field.from_ints(v, den) for v in sums])


def _choose_shear(f: Poly) -> tuple:
    """(k, f(x + k y, y)) for the least k leaving no factor free of y."""
    for k in range(0, 40):
        g = f if k == 0 else _shear(f, k)
        # a content in y with x in it is a factor free of y; the content
        # divides the leading coefficient, so a constant one settles it
        lc = g.coeffs_in("y")[g.degree_in("y")]
        if lc.is_constant():
            return k, g
        content = _primitive_last(clear_denominators(g.terms)[0])[0]
        if not any(m[0] for m in content):
            return k, g
    raise DomainError("no shear frees the curve of vertical components")


def _shear(f: Poly, k: int) -> Poly:
    """f(x + k y, y) (`poly.shear`)."""
    return Poly._trusted(("x", "y"), shear(f.with_vars(("x", "y")).terms,
                                           k, 0))


def _repeated_factors(elim: Poly) -> list:
    """The monic Q-irreducible factors of multiplicity at least 2 of the
    eliminant, a polynomial in x, in `factor_rational`'s order: the
    distinct factors of gcd(elim, elim')."""
    repeated = poly_gcd(elim, elim.derivative("x"))
    return factor_rational(UniPoly.from_poly(repeated, "x"))


def singular_points(f: Poly) -> list:
    """All affine points with f = f_x = f_y = 0, as points/clusters.

    Raises NotSquarefreeError for a non-reduced curve (its singular locus
    would be positive-dimensional), read off the eliminant: after the shear
    g has no factor free of y, so Res_y(g, g_y) vanishes exactly when g and
    g_y share a factor, and an irreducible h dividing both with g = h r
    divides h_y r, hence r, so h^2 divides g.
    """
    fx = f.with_vars(("x", "y"))
    if fx.is_zero() or fx.is_constant():
        raise DomainError("not a curve: %s" % f)
    k, g = _choose_shear(fx)
    gx = g.derivative("x")
    gy = g.derivative("y")
    if g.degree_in("y") <= 0:
        raise DomainError("curve has no y-dependence after shear")
    elim = resultant(g, gy, "y")
    if elim.is_zero():
        raise NotSquarefreeError("curve is not squarefree: %s" % f)
    if elim.is_constant():
        return []
    points = []
    for p in _repeated_factors(elim):
        if p.degree() == 1:
            kfield, theta = None, -p.coeffs[0]   # p is monic
        else:
            kfield, _, theta = extend_field(None, p)
        g1 = specialize_x(g, kfield, theta)
        g2 = specialize_x(gx, kfield, theta)
        # x -> theta commutes with d/dy, so g_y(theta, y) = g1'
        g3 = g1.derivative()
        common = unipoly_gcd(unipoly_gcd(g1, g2), g3)
        if common.degree() <= 0:
            continue
        # read off the module, where perfbench/tracer.py patches it
        for q in numfield.factor_over_field(kfield, common):
            if q.degree() == 1:
                pfield, px, py = kfield, theta, -q.coeffs[0]   # q is monic
            else:
                pfield, embed, py = extend_field(kfield, q)
                px = embed(theta)
            if k:
                px = px + py * k
            points.append(AlgebraicPoint(px, py, pfield,
                                         p.degree() * q.degree()))
    points.sort(key=lambda pt: pt.sort_key())
    return points
