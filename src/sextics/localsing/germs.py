"""Germ-level invariants at the origin: local intersection numbers (the
classical reduction algorithm) and Milnor numbers.

The `_origin` functions take germs already translated to the origin; the
others take a curve and a point on it.  Coefficients may be rational or
number-field elements.  When both germs are rational, the intersection
kernel clears their denominators once and reduces with Python ints and a
fraction-free elimination step; over a number field it divides by the
leading coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Unused here; perfbench/tracer.py patches factor_over_field in this namespace.
from ..numfield import factor_over_field  # noqa: F401
from ..poly import DomainError, Poly, clear_denominators, rational_content

__all__ = [
    "InfiniteIntersectionError",
    "intersection_multiplicity_origin",
    "intersection_multiplicity",
    "milnor_number_origin",
]


class InfiniteIntersectionError(DomainError):
    """The two curves share a component through the point."""


def _scale_reduce(terms: dict) -> dict:
    """Divide by the rational content (a unit; intersection numbers keep)."""
    c = rational_content(terms.values())
    if c == 1:
        return terms
    inv = 1 / c
    return {m: v * inv for m, v in terms.items()}


def _int_reduce(terms: dict) -> dict:
    """Divide integer coefficients by their gcd (a unit, as above)."""
    c = gcd(*terms.values())
    if c == 1:
        return terms
    return {m: v // c for m, v in terms.items()}


def intersection_multiplicity_origin(g: Poly, h: Poly) -> int:
    """Local intersection number I(g, h; O) by the reduction algorithm.

    The reduction (Fulton, Algebraic Curves, 3.3) works on the term dicts
    {(i, j): coef} of the two germs.  While neither germ has a constant
    term, it compares the restrictions a = g(x, 0) and b = h(x, 0): when
    one of them is zero, that germ is y times a cofactor, so I gains the
    order of the other restriction and the germ is divided by y; otherwise
    an elimination step with deg a <= deg b kills the leading term of b.
    After each step the new germ is divided by its content.  Both are
    multiplications by nonzero constants, units that leave I unchanged.

    The step's scalars depend on the coefficients, chosen once per call.
    When every coefficient of both germs is rational, their denominators
    are cleared at entry and the reduction runs on Python ints: the step
    is fraction-free, h <- d*h - c*x^k*g with (d, c) the leading
    coefficients of a and b over their gcd, and the content is the gcd of
    the integer coefficients.  Over a number field the step is
    h <- h - c*x^k*g with c = lc(b) / lc(a), and the content is the
    rational content; scaling h by an algebraic d there would let the
    coordinates grow with nothing to take the growth out again.  The
    integer germs of each step are nonzero rational multiples of the ones
    that field division gives, so both steps lead through the same
    monomials to the same I.

    A finite I is at most deg g * deg h (Bezout), so both germs are
    truncated at total degree deg g * deg h + 2, which keeps I and the
    elimination sizes bounded.  The same bound is the guard for a shared
    component through the origin: each pass either returns or, after
    finitely many eliminations, raises the running sum, so
    InfiniteIntersectionError is raised once that sum passes the Bezout
    bound, or at once when a germ reduces to zero.
    """
    g = g.with_vars(("x", "y"))
    h = h.with_vars(("x", "y"))
    if g.is_zero() or h.is_zero():
        raise InfiniteIntersectionError("zero germ shares every component")
    limit = g.degree() * h.degree()
    bound = limit + 2
    G = {m: c for m, c in g.terms.items() if sum(m) < bound}
    H = {m: c for m, c in h.terms.items() if sum(m) < bound}
    rational = all(isinstance(c, Fraction)
                   for c in (*G.values(), *H.values()))
    if rational:
        reduce = _int_reduce
        G = clear_denominators(G)[0]
        H = clear_denominators(H)[0]
    else:
        reduce = _scale_reduce
    G = reduce(G)
    H = reduce(H)
    total = 0
    while True:
        # Poly drops zero coefficients and the elimination deletes the ones
        # it makes, so every key is a nonzero term
        if (0, 0) in G or (0, 0) in H:
            return total
        a = [i for i, j in G if j == 0]
        b = [i for i, j in H if j == 0]
        if not a and not b:
            raise InfiniteIntersectionError("both germs divisible by y")
        if not a or not b:
            # I(y*g1, h) = I(y, h) + I(g1, h), and I(y, h) = ord h(x, 0)
            if not a:
                G = {(i, j - 1): c for (i, j), c in G.items()}
                total += min(b)
            else:
                H = {(i, j - 1): c for (i, j), c in H.items()}
                total += min(a)
            if total > limit:
                raise InfiniteIntersectionError(
                    "intersection passes the Bezout bound %d: the curves"
                    " share a component through the point" % limit)
            continue
        r, s = max(a), max(b)
        if r > s:
            G, H = H, G
            r, s = s, r
        # kill the leading coefficient of b(x) = h(x, 0)
        if rational:
            q = gcd(G[(r, 0)], H[(s, 0)])
            d, c = G[(r, 0)] // q, H[(s, 0)] // q
            if d != 1:
                H = {m: d * v for m, v in H.items()}
        else:
            c = H[(s, 0)] / G[(r, 0)]
        k = s - r
        for (i, j), cg in G.items():
            mon = (i + k, j)
            if i + k + j >= bound:
                continue
            v = H.get(mon)
            v = -(c * cg) if v is None else v - c * cg
            if v:
                H[mon] = v
            else:
                del H[mon]
        if not H:
            raise InfiniteIntersectionError(
                "a germ reduces to zero: the curves share a component"
                " through the point")
        H = reduce(H)


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
