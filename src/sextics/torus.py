"""Torus-pair structure: expansion, inner/outer singularities, the
A_{6j-1} <-> intersection-number correspondence and linear-torus detection.

A pair (f2, f3) defines the sextic f2^3 + f3^2; the conic C2: f2 = 0 and
cubic C3: f3 = 0 stratify its singularities into inner points (on C2 and
C3) and outer ones.  Pairs are considered up to (f2, f3) ~ (c^2 f2, c^3 f3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .localsing.germs import intersection_multiplicity
from .poly import DomainError, Poly, poly_gcd

__all__ = [
    "TorusPair",
    "DegenerateTorusError",
    "InnerOuterSplit",
    "inner_outer_split",
    "verify_inner_correspondence",
    "is_linear_torus",
]

XY = ("x", "y")


class DegenerateTorusError(DomainError):
    """The conic and cubic share a component."""


@dataclass(frozen=True)
class TorusPair:
    f2: Poly
    f3: Poly

    def __post_init__(self):
        object.__setattr__(self, "f2", self.f2.with_vars(XY))
        object.__setattr__(self, "f3", self.f3.with_vars(XY))
        if self.f2.degree() != 2 or self.f3.degree() != 3:
            raise DomainError("torus pair needs deg f2 = 2 and deg f3 = 3")

    def expand(self) -> Poly:
        return self.f2 ** 3 + self.f3 ** 2

    def normalized_expansion(self) -> Poly:
        """The expansion as a primitive polynomial (curve identity)."""
        return self.expand().primitive()


@dataclass(frozen=True)
class InnerOuterSplit:
    inner: tuple   # ((AlgebraicPoint, iota), ...)
    outer: tuple   # (AlgebraicPoint, ...)

    def iota_total(self) -> int:
        return sum(iota * p.degree for p, iota in self.inner)


def inner_outer_split(pair: TorusPair, sings) -> InnerOuterSplit:
    """Split singular points by membership in C2 and C3."""
    common = poly_gcd(pair.f2, pair.f3)
    if common.degree() > 0:
        raise DegenerateTorusError(
            "conic and cubic share the component %s" % common)
    inner = []
    outer = []
    for p in sings:
        v2 = pair.f2.evaluate({"x": p.x, "y": p.y})
        v3 = pair.f3.evaluate({"x": p.x, "y": p.y})
        if not v2 and not v3:
            iota = intersection_multiplicity(pair.f2, pair.f3, p)
            inner.append((p, iota))
        else:
            outer.append(p)
    return InnerOuterSplit(tuple(inner), tuple(outer))


_STAR_LAW = {2: ("A", (5,)), 4: ("A", (11,)), 6: ("A", (17,))}


def verify_inner_correspondence(pair: TorusPair, split: InnerOuterSplit,
                                classified) -> list:
    """Check A_{6j-1} <-> iota = 2j at inner points where C3 is smooth.

    `classified` maps each inner point to its LocalSingularity.  Returns a
    report: one entry per inner point with status 'ok', 'exempt' (C3
    singular there) or 'mismatch'.
    """
    by_point = {id(ls.point): ls for ls in classified}
    f3x = pair.f3.derivative("x")
    f3y = pair.f3.derivative("y")
    report = []
    for p, iota in split.inner:
        ls = by_point.get(id(p))
        if ls is None:
            for cand in classified:
                if cand.point is not None and cand.point.sort_key() == p.sort_key():
                    ls = cand
                    break
        smooth = bool(f3x.evaluate({"x": p.x, "y": p.y})) or \
            bool(f3y.evaluate({"x": p.x, "y": p.y}))
        if not smooth:
            report.append((p, iota, "exempt", ls.sing_type if ls else None))
            continue
        expected = _STAR_LAW.get(iota)
        actual = (ls.sing_type.family, tuple(ls.sing_type.index)) if ls else None
        in_law = actual in _STAR_LAW.values()
        if expected is None:
            # iota not of the form 2j: the law only forbids A_{6j-1} here
            status = "mismatch" if in_law else "ok"
        else:
            status = "ok" if expected == actual else "mismatch"
        report.append((p, iota, status, ls.sing_type if ls else None))
    return report


def is_linear_torus(pair: TorusPair) -> Optional[Poly]:
    """The linear form ell with f2 = -ell^2, when one exists over Q."""
    f2 = pair.f2
    grad = f2.derivative("x")
    if grad.is_zero():
        grad = f2.derivative("y")
    if grad.is_zero() or grad.degree() != 1:
        return None
    ell = grad.primitive()
    quot = f2.divides(ell ** 2)
    if quot is None or not quot.is_constant():
        return None
    c = quot.constant_value()
    # need f2 = -(s*ell)^2, i.e. -c a rational square
    if c >= 0:
        return None
    s = _fraction_sqrt(-c)
    if s is None:
        return None
    return ell.scale(s)


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    n = _isqrt(q.numerator)
    d = _isqrt(q.denominator)
    if n is None or d is None:
        return None
    return Fraction(n, d)


def _isqrt(n: int) -> Optional[int]:
    """The integer square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None

