"""Global numerical invariants and configuration assembly.

Genus, the dual-curve degree and the flex count are straight sums over
classified singular points; they double as sanity filters (negative genus
or a dual degree below 2 flags an impossible curve).  The Corollary-1
ceiling bounds delta* by the component degrees.  Configurations
are canonical multisets of singularity types in the bracket notation,
such as `[C_{3,9},A_5,A_1]_2^mr`, that `Configuration.format` prints and
`parse_config` reads back with only the type names the classifier prints.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple, Optional, Sequence

from .localsing.classify import LocalSingularity, SingType, recognition_types
from .poly import DomainError, Poly, PolyError, poly_gcd

__all__ = [
    "ImpossibleCurveError",
    "MissingDefectError",
    "genus",
    "corollary_ceiling",
    "class_degree",
    "flex_count",
    "Configuration",
    "ConfigEntry",
    "ConfigSyntaxError",
    "parse_config",
    "parse_type",
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


class DefectTable(NamedTuple):
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
    if total < 0:
        raise ImpossibleCurveError(
            "%d flexes < 0 for a degree-%d curve" % (total, degree))
    return total


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


class ConfigEntry(NamedTuple):
    sing_type: SingType
    count: int


_FAMILY_ORDER = {"B": 0, "C": 1, "D47": 2, "Sp": 3, "Unknown": 4,
                 "E": 5, "D": 6, "A": 7}


def _entry_key(t: SingType):
    fam = _FAMILY_ORDER.get(t.family, 9)
    if t.family in ("A", "D", "E"):
        return (fam, tuple(-i for i in t.index))
    return (fam, tuple(t.index))


class Configuration(NamedTuple):
    entries: tuple            # ConfigEntry, canonical order
    total_milnor: int = 0
    mr: bool = False
    index_tag: Optional[int] = None

    @classmethod
    def from_items(cls, items, total_milnor: int = 0, mr: bool = False,
                   index_tag: Optional[int] = None) -> "Configuration":
        folded: dict = {}
        for t, count in items:
            key = (t.family, tuple(t.index))
            folded[key] = folded.get(key, 0) + count
        entries = [ConfigEntry(SingType(*key), count)
                   for key, count in folded.items()]
        entries.sort(key=lambda e: _entry_key(e.sing_type))
        return cls(tuple(entries), total_milnor, mr, index_tag)

    def multiset(self) -> tuple:
        """((family, index, count), ...) ignoring the mr flag and tags."""
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


class ConfigSyntaxError(PolyError):
    """Bad configuration string."""


@functools.cache
def _type_names() -> dict:
    return {t.name(): t for t in recognition_types()}


def parse_type(name: str) -> SingType:
    """The recognized type that `SingType.name` prints as `name`."""
    try:
        return _type_names()[name]
    except KeyError:
        raise ConfigSyntaxError("unknown type name %r" % name) from None


# what `Configuration.format` prints: [entries], then _k and ^mr
_CONFIG_RE = re.compile(r"\[([^\]]*)\](?:_([0-9]+))?(\^mr)?")
# a comma not inside the {p,q} of a type name
_ENTRY_COMMA = re.compile(r",(?![^{]*\})")


def parse_config(text: str) -> Configuration:
    """Read what `Configuration.format` prints, e.g. `[A_5,4A_2,2A_1]_2^mr`.

    Each entry is an optional count of at least 1 and a type name from
    `recognition_types()`; anything else raises ConfigSyntaxError.
    """
    m = _CONFIG_RE.fullmatch(text.strip().replace(" ", ""))
    if not m:
        raise ConfigSyntaxError("not a configuration [entries]_k^mr: %r"
                                % text)
    body, tag, mr = m.groups()
    items = []
    for part in _ENTRY_COMMA.split(body) if body else ():
        name = part.lstrip("0123456789")
        count = int(part[:len(part) - len(name)] or 1)
        if count < 1:
            raise ConfigSyntaxError("count must be >= 1 in %r" % part)
        items.append((parse_type(name), count))
    return Configuration.from_items(
        items, mr=bool(mr), index_tag=None if tag is None else int(tag))


def assemble_configuration(
        sings: Sequence[LocalSingularity]) -> Configuration:
    """Canonical configuration of classified points.

    Conjugate clusters count with their degree.
    """
    items = []
    total_mu = 0
    all_simple = True
    for ls in sings:
        items.append((ls.sing_type, ls.cluster_degree))
        total_mu += ls.mu * ls.cluster_degree
        if not ls.sing_type.is_simple():
            all_simple = False
    mr = all_simple and total_mu == 19
    return Configuration.from_items(items, total_mu, mr)


# ---------------------------------------------------------------------------
# charts: homogenization and singular points at infinity
# ---------------------------------------------------------------------------


def homogenize(f: Poly) -> Poly:
    """Homogenize in (x, y, z) to the total degree."""
    fx = f.with_vars(XY)
    d = fx.degree()
    terms = {}
    for (i, j), c in fx.terms.items():
        terms[(i, j, d - i - j)] = c
    return Poly(("x", "y", "z"), terms)


def infinite_singular_directions(f: Poly) -> Poly:
    """gcd of the three partials of the homogenization restricted to z = 0.

    Nonconstant iff the projective curve has a singular point at infinity;
    the gcd's roots are the singular directions.  With f_k the degree-k
    part of f, those restrictions of F_x, F_y and F_z are d(f_d)/dx,
    d(f_d)/dy and f_(d-1).
    """
    f = f.with_vars(XY)
    top = f.homogeneous_part(f.degree())
    g = None
    for d in (top.derivative("x"), top.derivative("y"),
              f.homogeneous_part(f.degree() - 1)):
        if d.is_zero():
            continue
        g = d if g is None else poly_gcd(g, d)
    if g is None:
        return Poly.const(1, XY)
    return g


def good_affine_chart(f: Poly):
    """Rotate the chart so all singular points are affine.

    Returns ((alpha, beta), transform, transform(f)) with transform(p)
    applying the substitution z -> 1 - alpha x - beta y to any polynomial
    homogenized to its own total degree; (0, 0) means the chart is already
    good.

    A chart passes when the moved curve has no singular direction at
    infinity.  That keeps the old affine singular points affine too: one
    sent to the new line at infinity would be a common zero of the three
    partials there, so `infinite_singular_directions` would be nonconstant.
    """
    def transform_factory(alpha, beta):
        def transform(p: Poly) -> Poly:
            if alpha == 0 and beta == 0:
                return p.with_vars(XY)
            F = homogenize(p)
            zsub = (Poly.const(1, XY) - Poly.var("x", XY).scale(alpha)
                    - Poly.var("y", XY).scale(beta))
            return F.substitute({"z": zsub}).with_vars(XY)
        return transform

    if infinite_singular_directions(f).degree() <= 0:
        return (0, 0), transform_factory(0, 0), f.with_vars(XY)
    shifts = []
    for total in range(1, 12):
        for a in range(0, total + 1):
            shifts.append((a, total - a))
    for alpha, beta in shifts:
        transform = transform_factory(alpha, beta)
        g = transform(f)
        if g.degree() != f.degree():
            continue
        if infinite_singular_directions(g).degree() <= 0:
            return (alpha, beta), transform, g
    raise DomainError("no deterministic chart rotation found")
