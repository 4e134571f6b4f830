"""Torus-pair structure: expansion, inner/outer singularities and the
A_{6j-1} <-> intersection-number correspondence.

A pair (f2, f3) defines the sextic f2^3 + f3^2; the conic C2: f2 = 0 and
cubic C3: f3 = 0 stratify its singularities into inner points (on C2 and
C3) and outer ones.  Pairs are considered up to (f2, f3) ~ (c^2 f2, c^3 f3).
`inner_outer_split` keeps each inner point's type with the iota and C3
smoothness that its germs of f2 and f3 show; the law is checked on it.
"""

from __future__ import annotations

from typing import NamedTuple

from .localsing.germs import intersection_multiplicity_origin
from .localsing.points import point_on_curve, translate_to_origin
from .poly import DomainError, Frozen, Poly, poly_gcd

__all__ = [
    "TorusPair",
    "DegenerateTorusError",
    "InnerOuterSplit",
    "inner_outer_split",
    "verify_inner_correspondence",
]

XY = ("x", "y")


class DegenerateTorusError(DomainError):
    """The conic and cubic share a component."""


class TorusPair(Frozen):
    """A conic f2 and a cubic f3 that share no component."""

    __slots__ = ("f2", "f3")

    def __init__(self, f2: Poly, f3: Poly):
        self._set(f2, f3)
        shared = poly_gcd(self.f2, self.f3)
        if shared.degree() > 0:
            raise DegenerateTorusError(
                "conic and cubic share the component %s" % shared)

    def _set(self, f2: Poly, f3: Poly):
        object.__setattr__(self, "f2", f2.with_vars(XY))
        object.__setattr__(self, "f3", f3.with_vars(XY))
        if self.f2.degree() != 2 or self.f3.degree() != 3:
            raise DomainError("torus pair needs deg f2 = 2 and deg f3 = 3")

    def __eq__(self, other):
        if not isinstance(other, TorusPair):
            return NotImplemented
        return (self.f2, self.f3) == (other.f2, other.f3)

    def __hash__(self):
        return hash((self.f2, self.f3))

    def __repr__(self):
        return "TorusPair(f2=%r, f3=%r)" % (self.f2, self.f3)

    def transformed(self, transform) -> "TorusPair":
        """The pair under an invertible change of coordinates `transform`.

        Such a change cannot make the conic and cubic share a component, so
        only the degrees are checked again, not the gcd.
        """
        pair = object.__new__(TorusPair)
        pair._set(transform(self.f2), transform(self.f3))
        return pair

    def expand(self) -> Poly:
        return self.f2 ** 3 + self.f3 ** 2

    def normalized_expansion(self) -> Poly:
        """The expansion as a primitive polynomial (curve identity)."""
        return self.expand().primitive()


class InnerOuterSplit(NamedTuple):
    inner: tuple   # ((LocalSingularity, iota, C3 smooth there), ...)
    outer: tuple   # (AlgebraicPoint, ...)

    def iota_total(self) -> int:
        return sum(iota * ls.cluster_degree for ls, iota, _ in self.inner)


def inner_outer_split(pair: TorusPair, sings) -> InnerOuterSplit:
    """Split the singular points (`LocalSingularity`s of the pair's
    sextic) by C2 and C3.

    Only f2 is evaluated: f2^3 + f3^2 vanishes at each point (in a
    rotated chart it is the moved curve times a power of 1 - alpha x -
    beta y), so f2 = 0 gives f3 = 0.  At an inner point the germs of f2
    and f3 give iota, and C3 is smooth there exactly when f3's germ has
    order 1.

    C2 and C3 share no component (`TorusPair` refuses such a pair), so
    iota is finite.  Its reduction starts at the type's prediction
    (`_predicted_iota`) and proves iota from any start, so the law's
    check stays independent.
    """
    inner = []
    outer = []
    for ls in sings:
        p = ls.point
        if point_on_curve(pair.f2, p):
            g2 = translate_to_origin(pair.f2, p)
            g3 = translate_to_origin(pair.f3, p)
            iota = intersection_multiplicity_origin(
                g2, g3, _predicted_iota(ls.sing_type))
            inner.append((ls, iota, g3.lowest_degree() == 1))
        else:
            outer.append(p)
    return InnerOuterSplit(tuple(inner), tuple(outer))


def _predicted_iota(t) -> int:
    """iota at an inner point of type t, or 0: C2 and C3 smooth meeting
    with iota = i make A_{3i-1}, and B_{3,q}, C_{3,q} read q = 2*iota off
    the term x^(2*iota) of f = u*y^3 + f3^2 where f2 = y, u a unit."""
    if t.family == "A" and t.index[0] % 3 == 2:
        return (t.index[0] + 1) // 3
    if t.family in ("B", "C") and t.index[0] == 3:
        return t.index[1] // 2
    return 0


_STAR_LAW = {2: "A_5", 4: "A_11", 6: "A_17"}


def verify_inner_correspondence(split: InnerOuterSplit) -> list:
    """Check A_{6j-1} <-> iota = 2j at inner points where C3 is smooth.

    Reads the split alone.  Returns a report: one entry (point, iota,
    status, type) per inner point, with status 'ok', 'exempt' (C3
    singular there) or 'mismatch'.
    """
    report = []
    for ls, iota, c3_smooth in split.inner:
        expected = _STAR_LAW.get(iota)
        actual = ls.sing_type.name()
        if not c3_smooth:
            status = "exempt"
        elif expected is None:
            # iota not of the form 2j: the law only forbids A_{6j-1} here
            status = "mismatch" if actual in _STAR_LAW.values() else "ok"
        else:
            status = "ok" if expected == actual else "mismatch"
        report.append((ls.point, iota, status, ls.sing_type))
    return report
