"""Germ-level invariants at the origin: multiplicity, local intersection
numbers (the classical reduction algorithm) and Milnor numbers.

The `_origin` functions take germs already translated to the origin; the
others take a curve and a point on it.  Coefficients may be rational or
number-field elements.
"""

from __future__ import annotations

from fractions import Fraction

# Unused here; perfbench/tracer.py patches factor_over_field in this namespace.
from ..numfield import factor_over_field  # noqa: F401
from ..poly import DomainError, Poly, UniPoly, poly_gcd

__all__ = [
    "InfiniteIntersectionError",
    "germ_multiplicity",
    "multiplicity",
    "intersection_multiplicity_origin",
    "intersection_multiplicity",
    "milnor_number_origin",
]


class InfiniteIntersectionError(DomainError):
    """The two curves share a component through the point."""


def germ_multiplicity(g: Poly) -> int:
    """Order of vanishing at the origin."""
    if g.is_zero():
        raise DomainError("zero germ")
    return g.lowest_degree()


def multiplicity(f: Poly, p) -> int:
    from .points import point_on_curve, translate_to_origin
    if not point_on_curve(f, p):
        raise DomainError("point %s not on the curve" % (p,))
    return germ_multiplicity(translate_to_origin(f, p))


def _restrict_y0(g: Poly) -> UniPoly:
    """g(x, 0) as a univariate in x."""
    gx = g.with_vars(("x", "y"))
    deg = max(gx.degree_in("x"), 0)
    coeffs = [Fraction(0)] * (deg + 1)
    for (i, j), c in gx.terms.items():
        if j == 0:
            coeffs[i] = coeffs[i] + c
    return UniPoly("x", coeffs)


def _ord(u: UniPoly) -> int:
    for i, c in enumerate(u.coeffs):
        if c:
            return i
    return -1


def _trunc_total(p: Poly, bound: int) -> Poly:
    return Poly(p.vars, {m: c for m, c in p.terms.items() if sum(m) < bound})


def _scale_reduce_poly(p: Poly) -> Poly:
    """Divide by the rational content (a unit; intersection numbers keep)."""
    from ..poly import rational_content
    if p.is_zero():
        return p
    c = rational_content(p.terms.values())
    return p if c == 1 else p.scale(1 / c)


def intersection_multiplicity_origin(g: Poly, h: Poly) -> int:
    """Local intersection number I(g, h; O) by the reduction algorithm.

    Bilinearity, invariance under h -> h + q*g and the unit rules reduce to
    orders of univariate restrictions; raises InfiniteIntersectionError when
    the curves share a component through the origin.

    The intersection number is below the Bezout product, so both germs are
    truncated past that order to keep the elimination sizes bounded.
    """
    g = g.with_vars(("x", "y"))
    h = h.with_vars(("x", "y"))
    if g.is_zero() or h.is_zero():
        raise InfiniteIntersectionError("zero germ shares every component")
    common = poly_gcd(g, h)
    if common.degree() > 0 and not common.evaluate({"x": Fraction(0), "y": Fraction(0)}):
        raise InfiniteIntersectionError(
            "curves share a component through the point: %s" % common)
    bound = g.degree() * h.degree() + 2
    g = _scale_reduce_poly(_trunc_total(g, bound))
    h = _scale_reduce_poly(_trunc_total(h, bound))
    total = 0
    yv = Poly.var("y", ("x", "y"))
    while True:
        if g.evaluate({"x": Fraction(0), "y": Fraction(0)}):
            return total
        if h.evaluate({"x": Fraction(0), "y": Fraction(0)}):
            return total
        a = _restrict_y0(g)
        b = _restrict_y0(h)
        if a.is_zero() and b.is_zero():
            raise InfiniteIntersectionError("both germs divisible by y")
        if a.is_zero():
            g1 = g.divexact(yv)
            total += _ord(b)
            g = g1
            continue
        if b.is_zero():
            h1 = h.divexact(yv)
            total += _ord(a)
            h = h1
            continue
        if a.degree() > b.degree():
            g, h = h, g
            a, b = b, a
        # kill the leading coefficient of b(x) = h(x, 0)
        s = b.degree()
        r = a.degree()
        c = b.coeffs[s] / a.coeffs[r]
        xv = Poly.var("x", ("x", "y"))
        h = _scale_reduce_poly(_trunc_total(
            h - g * xv ** (s - r) * Poly.const(c, ("x", "y")), bound))


def intersection_multiplicity(g: Poly, h: Poly, p) -> int:
    from .points import translate_to_origin
    return intersection_multiplicity_origin(
        translate_to_origin(g, p), translate_to_origin(h, p))


def milnor_number_origin(germ: Poly) -> int:
    """mu = I(f_x, f_y; O) for an isolated singularity at the origin."""
    gx = germ.derivative("x")
    gy = germ.derivative("y")
    try:
        return intersection_multiplicity_origin(gx, gy)
    except InfiniteIntersectionError:
        raise DomainError("non-isolated singularity (partials share a factor)")
