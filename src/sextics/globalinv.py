"""Global numerical invariants and configuration assembly.

Genus, delta*, the dual-curve degree and the flex count are straight sums
over classified singular points; they double as sanity filters (negative
genus or a dual degree below 2 flags an impossible curve).  Configurations
are canonical multisets of singularity types, printable in the bracket
notation used throughout the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .localsing.classify import LocalSingularity, SingType
from .poly import DomainError, Poly

__all__ = [
    "ImpossibleCurveError",
    "MissingDefectError",
    "genus",
    "delta_star",
    "corollary_ceiling",
    "class_degree",
    "flex_count",
    "Configuration",
    "ConfigEntry",
    "DefectTable",
    "assemble_configuration",
    "homogenize",
    "infinite_singular_directions",
    "good_affine_chart",
]

XY = ("x", "y")


class ImpossibleCurveError(DomainError):
    """A numerical invariant came out impossible for an actual curve."""


class MissingDefectError(DomainError):
    """A flex defect lookup failed; defaults are never invented."""


def genus(degree: int, sings: Sequence[LocalSingularity]) -> int:
    g = (degree - 1) * (degree - 2) // 2 - sum(
        ls.delta * ls.cluster_degree for ls in sings)
    if g < 0:
        raise ImpossibleCurveError(
            "genus %d < 0 for an irreducible degree-%d curve" % (g, degree))
    return g


def corollary_ceiling(degrees: Sequence[int]) -> int:
    """The delta* bound for a reducible sextic of the given component type."""
    ds = sorted(degrees)
    if ds == [1, 5]:
        return 6
    if ds in ([2, 4], [1, 1, 4]):
        return 3
    if ds == [3, 3]:
        return 2
    if ds in ([1, 2, 3], [1, 1, 1, 3]):
        return 1
    return 0


def delta_star(per_component: Sequence[Sequence[LocalSingularity]],
               degrees: Sequence[int]):
    """(sum of per-component delta*, Corollary-1 ceiling, within-bound flag).

    `per_component[i]` must list the proper singularities of component i
    (points where only that component passes).
    """
    total = 0
    for sings in per_component:
        total += sum(ls.delta * ls.cluster_degree for ls in sings)
    ceiling = corollary_ceiling(degrees)
    return total, ceiling, total <= ceiling


def class_degree(degree: int, sings: Sequence[LocalSingularity]) -> int:
    n = degree * (degree - 1) - sum(
        (ls.mu + ls.m - 1) * ls.cluster_degree for ls in sings)
    if degree >= 2 and n < 2:
        raise ImpossibleCurveError(
            "dual degree %d < 2 for a degree-%d curve" % (n, degree))
    if degree >= 3 and n == 2:
        # only conics are dual to conics
        raise ImpossibleCurveError(
            "dual degree 2 is impossible for an irreducible degree-%d curve"
            % degree)
    return n


@dataclass(frozen=True)
class DefectTable:
    values: dict  # type name (e.g. "A_2") -> nonnegative integer

    def lookup(self, t: SingType) -> int:
        name = t.name()
        if name not in self.values:
            raise MissingDefectError("no flex defect supplied for %s" % name)
        return self.values[name]


def flex_count(degree: int, sings: Sequence[LocalSingularity],
               defects: DefectTable) -> int:
    total = 3 * degree * (degree - 2)
    for ls in sings:
        total -= defects.lookup(ls.sing_type) * ls.cluster_degree
    return total


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigEntry:
    sing_type: SingType
    count: int
    inner: Optional[bool] = None


_FAMILY_ORDER = {"B": 0, "C": 1, "D47": 2, "Sp": 3, "Unknown": 4,
                 "E": 5, "D": 6, "A": 7}


def _entry_key(t: SingType):
    fam = _FAMILY_ORDER.get(t.family, 9)
    if t.family in ("A", "D", "E"):
        return (fam, tuple(-i for i in t.index))
    return (fam, tuple(t.index))


@dataclass(frozen=True)
class Configuration:
    entries: tuple            # ConfigEntry, canonical order
    total_milnor: int = 0
    mr: bool = False
    index_tag: Optional[int] = None

    @classmethod
    def from_items(cls, items, total_milnor: int = 0, mr: bool = False,
                   index_tag: Optional[int] = None) -> "Configuration":
        folded: dict = {}
        inner_flags: dict = {}
        for t, count, inner in items:
            key = (t.family, tuple(t.index))
            folded[key] = folded.get(key, 0) + count
            if inner is not None:
                inner_flags[key] = inner_flags.get(key, inner) and inner
        entries = []
        for key, count in folded.items():
            t = SingType(key[0], key[1])
            entries.append(ConfigEntry(t, count, inner_flags.get(key)))
        entries.sort(key=lambda e: _entry_key(e.sing_type))
        return cls(tuple(entries), total_milnor, mr, index_tag)

    def multiset(self) -> tuple:
        """((family, index, count), ...) ignoring flags and tags."""
        return tuple(sorted((e.sing_type.family, tuple(e.sing_type.index),
                             e.count) for e in self.entries))

    def same_types(self, other: "Configuration") -> bool:
        return self.multiset() == other.multiset()

    def format(self, with_tags: bool = True) -> str:
        if not self.entries:
            body = "[]"
        else:
            parts = []
            for e in self.entries:
                name = e.sing_type.name()
                parts.append(name if e.count == 1 else "%d%s" % (e.count, name))
            body = "[" + ",".join(parts) + "]"
        if with_tags:
            if self.index_tag is not None:
                body += "_%d" % self.index_tag
            if self.mr:
                body += "^mr"
        return body

    def __str__(self):
        return self.format()


def assemble_configuration(sings: Sequence[LocalSingularity],
                           inner_points=None,
                           index_tag: Optional[int] = None) -> Configuration:
    """Canonical configuration of classified points.

    Conjugate clusters count with their degree.  `inner_points`, when
    given, is a set of point sort keys marking inner singularities.
    """
    items = []
    total_mu = 0
    all_simple = True
    for ls in sings:
        inner = None
        if inner_points is not None:
            inner = ls.point is not None and ls.point.sort_key() in inner_points
        items.append((ls.sing_type, ls.cluster_degree, inner))
        total_mu += ls.mu * ls.cluster_degree
        if not ls.sing_type.is_simple():
            all_simple = False
    mr = all_simple and total_mu == 19
    return Configuration.from_items(items, total_mu, mr, index_tag)


# ---------------------------------------------------------------------------
# charts: homogenization and singular points at infinity
# ---------------------------------------------------------------------------


def homogenize(f: Poly, degree: Optional[int] = None) -> Poly:
    """Homogenize in (x, y, z) to the given (or the total) degree."""
    fx = f.with_vars(XY)
    d = degree if degree is not None else fx.degree()
    if d < fx.degree():
        raise DomainError("homogenization degree below the total degree")
    terms = {}
    for (i, j), c in fx.terms.items():
        terms[(i, j, d - i - j)] = c
    return Poly(("x", "y", "z"), terms)


def infinite_singular_directions(f: Poly, degree: Optional[int] = None) -> Poly:
    """gcd of the three partials of the homogenization restricted to z = 0.

    Nonconstant iff the projective curve has a singular point at infinity;
    the gcd's roots are the singular directions.
    """
    from .poly import poly_gcd
    F = homogenize(f, degree)
    g = None
    for v in ("x", "y", "z"):
        d = F.derivative(v).substitute({"z": Poly.const(0, ())})
        d = d.with_vars(XY)
        if d.is_zero():
            continue
        g = d if g is None else poly_gcd(g, d)
    if g is None:
        return Poly.const(1, XY)
    return g


def good_affine_chart(f: Poly, extra_points=(), degree: Optional[int] = None):
    """Rotate the chart so all singular points (and `extra_points`) are affine.

    Returns ((alpha, beta), transform) with transform(p) applying the
    substitution z -> 1 - alpha x - beta y to any polynomial homogenized to
    its own total degree; (0, 0) means the chart is already good.
    """
    def transform_factory(alpha, beta):
        def transform(p: Poly, deg: Optional[int] = None) -> Poly:
            if alpha == 0 and beta == 0:
                return p.with_vars(XY)
            F = homogenize(p, deg)
            zsub = (Poly.const(1, XY) - Poly.var("x", XY).scale(alpha)
                    - Poly.var("y", XY).scale(beta))
            return F.substitute({"z": zsub}).with_vars(XY)
        return transform

    if infinite_singular_directions(f, degree).degree() <= 0:
        return (0, 0), transform_factory(0, 0)
    shifts = []
    for total in range(1, 12):
        for a in range(0, total + 1):
            shifts.append((a, total - a))
    for alpha, beta in shifts:
        transform = transform_factory(alpha, beta)
        g = transform(f, degree)
        if g.degree() != f.degree():
            continue
        if infinite_singular_directions(g).degree() > 0:
            continue
        ok = True
        for p in extra_points:
            # the old affine point [x : y : 1] stays affine iff its new
            # z-coordinate 1 + alpha x + beta y does not vanish (a nonzero
            # field element has no vanishing conjugate)
            val = 1 + p.x * alpha + p.y * beta
            if not val:
                ok = False
                break
        if ok:
            return (alpha, beta), transform
    raise DomainError("no deterministic chart rotation found")
