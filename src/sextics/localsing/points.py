"""Locating singular points exactly: rational points and conjugate clusters.

The singular locus of a squarefree curve f = c_1 ... c_n, the c_i its
components, is the union of the singular loci of the components and of
their pairwise intersections, so the x-coordinates are read off small
eliminants of the components rather than one of their product:
Res_y(c, c_y) for each component of degree at least 2, and
Res_y(c_i, c_j) for each pair, all under f's one shear
(`_choose_shear`).  The order of Res_y(c, c_y) at x0
is at least the sum of the intersection numbers I_P(c, c_y) over the
points P above x0, and I_P(c, c_y) >= m_P(c) * m_P(c_y) >= 2 at a
singular point of c (Fulton, Algebraic Curves, 1.6 and 3.3).  So a
singular point of c lies over a repeated root of its eliminant, and only
the repeated part gcd(E, E') is factored over Q: its distinct
irreducible factors are exactly the factors of E of multiplicity at
least 2.  Every root of a pair's eliminant may carry a meeting point, so
that eliminant is factored whole.

Each factor becomes a field (`extend_field`), built once however many
sources share it, and each component is specialized at its root once.
A source's points are read off a univariate gcd over that field:
gcd(c, c_x, c_y) for a component, where a repeated root that carries no
singular point (a vertical tangent) leaves it constant, and gcd(c_i,
c_j) for a pair.  Points that are conjugate over Q are kept as one
cluster with its degree, and every germ computation then runs over that
field.  A cluster found by several sources is one point, and it records
the components of all of them.

An eliminant vanishes identically exactly when the curve has a repeated
component (see `singular_points`), so squarefreeness is read off the
eliminants too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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
    `components` holds the indices of the curve's components through the
    point (`singular_points`).
    """

    x: Coord
    y: Coord
    field: Optional[NumberField] = None
    degree: int = 1
    components: tuple = ()

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


def _orbits(f: Poly, cs: list) -> dict:
    """{p: sources} over the monic Q-irreducible p that may carry a
    singular point of the product of the sheared components `cs`: the
    repeated factors of Res_y(c, c_y) for each c of degree >= 2, whose
    source is (i,), and every factor of Res_y(c_i, c_j), whose source is
    (i, j).  A vanishing eliminant means a repeated component."""
    sources = [(i,) for i, c in enumerate(cs) if c.degree() >= 2]
    sources += combinations(range(len(cs)), 2)
    orbits: dict = {}
    for source in sources:
        a = cs[source[0]]
        b = a.derivative("y") if len(source) == 1 else cs[source[1]]
        elim = resultant(a, b, "y")
        if elim.is_zero():
            raise NotSquarefreeError("curve is not squarefree: %s" % f)
        if elim.is_constant():
            continue
        for p in _repeated_factors(elim) if len(source) == 1 \
                else factor_rational(UniPoly.from_poly(elim, "x")):
            orbits.setdefault(p, []).append(source)
    return orbits


def singular_points(f: Poly, comps: tuple = ()) -> list:
    """All affine points with f = f_x = f_y = 0, as points/clusters, each
    with the indices of the components `comps` through it.  `comps` are
    the Q-irreducible factors of f (`components.decompose`); without
    them f is its own one component.

    The components are sheared with f (`_choose_shear`), and the
    x-coordinates are read off each component and each pair of them
    (`_orbits`).  Each x-orbit's field is built once, each component
    specialized at its root once, and the points of a source are the
    roots of its own gcd there: gcd(c, c_x, c_y) for a component,
    gcd(c_i, c_j) for a pair.  A point's components are the union of its
    sources' indices, which is exact: a point on two components is in
    their pair's source, and a point on one component alone is singular
    on it.

    Raises NotSquarefreeError for a non-reduced curve (its singular locus
    would be positive-dimensional), read off the eliminants: after the
    shear no component has a factor free of y, so Res_y(c, c_y) vanishes
    exactly when c and c_y share a factor, and an irreducible h dividing
    both with c = h r divides h_y r, hence r, so h^2 divides c; and
    Res_y(c_i, c_j) vanishes exactly when c_i and c_j share a factor.
    """
    fx = f.with_vars(("x", "y"))
    if fx.is_zero() or fx.is_constant():
        raise DomainError("not a curve: %s" % f)
    k, g = _choose_shear(fx)
    if g.degree_in("y") <= 0:
        raise DomainError("curve has no y-dependence after shear")
    # one component is f itself, up to a constant factor
    cs = [_shear(c, k) if k else c.with_vars(("x", "y")) for c in comps] \
        if len(comps) > 1 else [g]
    cxs = [c.derivative("x") for c in cs]
    points = []
    for p, sources in _orbits(f, cs).items():
        if p.degree() == 1:
            kfield, theta = None, -p.coeffs[0]   # p is monic
        else:
            kfield, _, theta = extend_field(None, p)
        at = {i: specialize_x(cs[i], kfield, theta)
              for i in set().union(*sources)}
        members: dict = {}
        for source in sources:
            c1 = at[source[0]]
            if len(source) == 1:
                c2 = specialize_x(cxs[source[0]], kfield, theta)
                # x -> theta commutes with d/dy, so c_y(theta, y) = c1'
                common = unipoly_gcd(unipoly_gcd(c1, c2), c1.derivative())
            else:
                common = unipoly_gcd(c1, at[source[1]])
            if common.degree() <= 0:
                continue
            # read off the module, where perfbench/tracer.py patches it
            for q in numfield.factor_over_field(kfield, common):
                members.setdefault(q, set()).update(source)
        for q, on in members.items():
            if q.degree() == 1:
                pfield, px, py = kfield, theta, -q.coeffs[0]   # q is monic
            else:
                pfield, embed, py = extend_field(kfield, q)
                px = embed(theta)
            if k:
                px = px + py * k
            points.append(AlgebraicPoint(px, py, pfield,
                                         p.degree() * q.degree(),
                                         tuple(sorted(on))))
    points.sort(key=lambda pt: pt.sort_key())
    return points
