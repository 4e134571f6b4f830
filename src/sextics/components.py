"""Decomposing reduced sextics into irreducible components of known degree.

Rational lines come from the slope/intercept ansatz, rational conics from
exact interpolation of monic slice divisors, and cubic x cubic splits only
from hints or the linear-torus shortcut (general degree-3 ansatz search is
out of scope).  Every emitted factor is integer-primitive with positive
leading coefficient; reconstruction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .numfield import factor_rational, rational_roots
from .poly import (
    DomainError,
    Poly,
    PolyError,
    UniPoly,
    content_in,
    poly_gcd,
    resultant,
)

__all__ = [
    "ComponentDecomposition",
    "UndecidedError",
    "find_linear_factors",
    "find_conic_factors",
    "linear_torus_split",
    "decompose",
]

XY = ("x", "y")


class UndecidedError(PolyError):
    """The factor search could not be resolved exactly."""


@dataclass(frozen=True)
class ComponentDecomposition:
    factors: tuple        # ((Poly, degree, multiplicity), ...)
    residual: Poly        # unfactored part; constant when complete

    def degrees(self) -> tuple:
        out = []
        for _p, d, m in self.factors:
            out.extend([d] * m)
        return tuple(sorted(out))

    def is_complete(self) -> bool:
        return self.residual.is_constant()

    def reconstruct(self) -> Poly:
        prod = self.residual
        for p, _d, m in self.factors:
            prod = prod * p ** m
        return prod


def find_linear_factors(f: Poly) -> list:
    """All rational lines dividing f, each once, primitively normalized."""
    if f.is_zero():
        raise DomainError("zero polynomial")
    f = f.with_vars(XY)
    out = []
    # vertical lines x = c: common rational roots of all y-coefficients
    cont = content_in(f, "y")
    if cont.degree_in("x") > 0:
        for root, _m in rational_roots(UniPoly.from_poly(cont, "x"))[0]:
            out.append((Poly.var("x", XY) - Poly.const(root, XY)).primitive())
    # non-vertical lines y = m x + c
    fv = f.with_vars(("x", "y", "_m", "_c"))
    sub = fv.substitute({"y": Poly.var("_m", ("x", "_m", "_c")) * Poly.var("x", ("x", "_m", "_c"))
                         + Poly.var("_c", ("x", "_m", "_c"))})
    eqs = [e.with_vars(("_m", "_c")) for e in sub.coeffs_in("x").values()
           if not e.is_zero()]
    for m0, c0 in _solve_two_var_system(eqs):
        line = (Poly.var("y", XY) - Poly.var("x", XY).scale(m0)
                - Poly.const(c0, XY))
        if f.divides(line) is not None:
            out.append(line.primitive())
    out.sort(key=lambda p: sorted(p.terms.items()))
    return out


def _solve_two_var_system(eqs: list) -> list:
    """Rational solutions of polynomial equations in (_m, _c), finite case."""
    eqs = [e for e in eqs if not e.is_zero()]
    if not eqs:
        return []
    if any(e.is_constant() for e in eqs):
        return []
    # eliminate _m from pairs, lowest degrees first; a superset of the
    # candidate roots is enough because every solution is verified below
    rc = None
    eqs_sorted = sorted(eqs, key=lambda e: (e.degree(), len(e.terms)))
    hits = 0
    for i in range(len(eqs_sorted)):
        if hits >= 2 or (rc is not None and rc.degree() <= 1):
            break
        for j in range(i + 1, len(eqs_sorted)):
            a, b = eqs_sorted[i], eqs_sorted[j]
            if a.degree_in("_m") == 0 and b.degree_in("_m") == 0:
                continue
            r = resultant(a, b, "_m")
            if r.is_zero():
                continue
            rc = r if rc is None else poly_gcd(rc, r)
            hits += 1
            if hits >= 2 or rc.degree() <= 1:
                break
    solos = [e for e in eqs if e.degree_in("_m") == 0]
    for e in solos:
        rc = e.with_vars(("_c",)) if rc is None else poly_gcd(rc, e)
    if rc is None:
        return []
    if rc.degree() == 0:
        return []
    solutions = []
    for c0, _m in rational_roots(UniPoly.from_poly(rc, "_c"))[0]:
        specialized = []
        for e in eqs:
            s = e.substitute({"_c": Poly.const(c0, ())})
            specialized.append(s.with_vars(("_m",)))
        g = None
        nonzero = [s for s in specialized if not s.is_zero()]
        if any(s.is_constant() and not s.is_zero() for s in nonzero):
            continue
        for s in nonzero:
            g = s if g is None else poly_gcd(g, s)
        if g is None:
            continue
        if g.degree() == 0:
            continue
        for m0, _k in rational_roots(UniPoly.from_poly(g, "_m"))[0]:
            if all(not e.evaluate({"_m": m0, "_c": c0}) for e in eqs):
                solutions.append((m0, c0))
    return solutions


def _slice_points(f: Poly, count: int) -> list:
    """x-values where the y-degree of f does not drop."""
    f = f.with_vars(XY)
    dy = f.degree_in("y")
    lead = f.coeffs_in("y")[dy]
    pts = []
    k = 0
    guard = 0
    while len(pts) < count:
        x0 = Fraction(k)
        k = -k if k > 0 else -k + 1
        guard += 1
        if guard > 200:
            raise UndecidedError("cannot find generic slice points")
        if lead.evaluate({"x": x0}) == 0:
            continue
        pts.append(x0)
    return pts


def _monic_divisors_of_degree(u: UniPoly, degree: int) -> list:
    """All monic divisors of fixed degree of a rational univariate."""
    fs = factor_rational(u)
    out = []

    def rec(i, left, acc):
        if left == 0:
            out.append(acc)
            return
        if i >= len(fs):
            return
        f, mult = fs[i]
        maxpow = min(mult, left // f.degree()) if f.degree() else 0
        for e in range(maxpow + 1):
            if e * f.degree() <= left:
                rec(i + 1, left - e * f.degree(), acc * f ** e)
    rec(0, degree, UniPoly.const(u.var, Fraction(1)))
    uniq = []
    for d in out:
        if d not in uniq:
            uniq.append(d)
    return uniq


def find_conic_factors(f: Poly) -> list:
    """All irreducible rational conic factors of f.

    Degree-2 factors are pinned down from their monic divisors on three
    generic vertical slices and verified by exact division; conics without
    a y^2 term are handled by their own slice shapes.  Raises
    UndecidedError when the slice candidate set explodes (it cannot for
    curves of degree <= 6).
    """
    f = f.with_vars(XY)
    if f.is_zero():
        raise DomainError("zero polynomial")
    if f.degree() < 2:
        return []
    found = []
    for g in _conic_candidates(f):
        if f.divides(g) is not None and not find_linear_factors(g):
            g = g.primitive()
            if g not in found:
                found.append(g)
    found.sort(key=lambda p: sorted(p.terms.items()))
    return found


def _conic_candidates(f: Poly) -> list:
    cands = []
    dy = f.degree_in("y")
    if dy >= 2:
        xs = _slice_points(f, 3)
        slices = []
        for x0 in xs:
            u = UniPoly.from_poly(f.substitute({"x": Poly.const(x0, XY)}), "y")
            divs = _monic_divisors_of_degree(u, 2)
            if len(divs) > 40:
                raise UndecidedError("too many slice divisors")
            slices.append((x0, divs))
        import itertools
        for combo in itertools.product(*[d for _x, d in slices]):
            g = _interpolate_conic_y2([x0 for x0, _d in slices], combo)
            if g is not None:
                cands.append(g)
    # conics linear in y: (a x + b) y + q(x)
    if dy >= 1:
        cands.extend(_linear_in_y_conics(f))
    # conics free of y: quadratic factors of the content in x
    cont = content_in(f, "y")
    if cont.degree_in("x") >= 2:
        for q, _m in factor_rational(UniPoly.from_poly(cont, "x")):
            if q.degree() == 2:
                cands.append(q.to_poly(XY))
    return cands


def _interpolate_conic_y2(xs, quads) -> Optional[Poly]:
    """Fit y^2 + (u1 x + u0) y + (v2 x^2 + v1 x + v0) through slice divisors."""
    # linear part: two unknowns across three points, must be consistent
    us = [q.coeffs[1] for q in quads]
    vs = [q.coeffs[0] for q in quads]
    x1, x2, x3 = xs
    den = x2 - x1
    u1 = (us[1] - us[0]) / den
    u0 = us[0] - u1 * x1
    if u1 * x3 + u0 != us[2]:
        return None
    # quadratic part: Lagrange through three points
    v = _lagrange3(xs, vs)
    xv, yv = Poly.var("x", XY), Poly.var("y", XY)
    return (yv ** 2 + yv * (xv.scale(u1) + Poly.const(u0, XY))
            + xv ** 2 * Poly.const(v[2], XY) + xv.scale(v[1])
            + Poly.const(v[0], XY))


def _lagrange3(xs, ys):
    """Coefficients (c0, c1, c2) of the quadratic through three points."""
    x1, x2, x3 = xs
    y1, y2, y3 = ys
    d1 = (x1 - x2) * (x1 - x3)
    d2 = (x2 - x1) * (x2 - x3)
    d3 = (x3 - x1) * (x3 - x2)
    c2 = y1 / d1 + y2 / d2 + y3 / d3
    c1 = (-y1 * (x2 + x3) / d1 - y2 * (x1 + x3) / d2 - y3 * (x1 + x2) / d3)
    c0 = (y1 * x2 * x3 / d1 + y2 * x1 * x3 / d2 + y3 * x1 * x2 / d3)
    return (c0, c1, c2)


def _linear_in_y_conics(f: Poly) -> list:
    """Candidates (a x + b) y + (q2 x^2 + q1 x + q0) from four slices."""
    xs = _slice_points(f, 4)
    slices = []
    for x0 in xs:
        u = UniPoly.from_poly(f.substitute({"x": Poly.const(x0, XY)}), "y")
        divs = _monic_divisors_of_degree(u, 1)
        if len(divs) > 20:
            raise UndecidedError("too many slice divisors")
        slices.append((x0, [d.coeffs[0] for d in divs]))  # y + w0 -> w0
    import itertools
    out = []
    for combo in itertools.product(*[w for _x, w in slices]):
        # solve (a x_i + b) * w_i = q(x_i), homogeneous in (a, b, q2, q1, q0)
        rows = []
        for (x0, _w), w0 in zip(slices, combo):
            rows.append([x0 * w0, w0, -x0 ** 2, -x0, Fraction(-1)])
        null = _nullspace5(rows)
        if null is None:
            continue
        a, b, q2, q1, q0 = null
        if not a and not b:
            continue
        xv, yv = Poly.var("x", XY), Poly.var("y", XY)
        g = (yv * (xv.scale(a) + Poly.const(b, XY))
             + xv ** 2 * Poly.const(q2, XY) + xv.scale(q1)
             + Poly.const(q0, XY))
        if g.degree() == 2:
            out.append(g)
    return out


def _nullspace5(rows):
    """One-dimensional nullspace of a 4x5 rational matrix, if it is one."""
    m = [row[:] for row in rows]
    n = 5
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [Fraction(0)] * n
    sol[free[0]] = Fraction(1)
    for row, col in zip(m, pivots):
        sol[col] = -row[free[0]]
    return tuple(sol)


def linear_torus_split(pair):
    """Split a linear-torus pair into its two cubic factors, or None."""
    from .torus import is_linear_torus
    ell = is_linear_torus(pair)
    if ell is None:
        return None
    cube = ell ** 3
    return (pair.f3 + cube, pair.f3 - cube)


def decompose(f: Poly, hints: Iterable[Poly] = (), pair=None) -> ComponentDecomposition:
    """Split off rational components; partial decompositions are legal."""
    f = f.with_vars(XY)
    if f.is_zero():
        raise DomainError("zero polynomial")
    residual = f
    factors = []

    def divide_out(candidate: Poly):
        nonlocal residual
        candidate = candidate.primitive()
        count = 0
        while True:
            q = residual.divides(candidate)
            if q is None or candidate.is_constant():
                break
            residual = q
            count += 1
        if count:
            factors.append((candidate, candidate.degree(), count))

    for h in hints:
        divide_out(h)
    for line in find_linear_factors(residual):
        divide_out(line)
    if residual.degree() >= 2:
        for conic in find_conic_factors(residual):
            divide_out(conic)
    for line in find_linear_factors(residual):
        divide_out(line)
    if pair is not None:
        split = linear_torus_split(pair)
        if split is not None:
            for cubic in split:
                divide_out(cubic)
    factors.sort(key=lambda t: (t[1], sorted(t[0].terms.items())))
    return ComponentDecomposition(tuple(factors), residual)
