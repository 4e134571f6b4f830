"""Singularity type recognition from resolution signatures.

A germ's signature is the arithmetic-blind tuple

    (multiplicity, Milnor number, branch count,
     sorted per-branch multiplicity sequences,
     sorted multiset of pairwise branch intersection numbers)

which pins down the equisingularity class.  The recognition table maps the
signatures of the normal forms (simple A/D/E types and the non-simple
families used for torus sextics) to their names; anything else comes back
as Unknown carrying the raw signature.

The shipped table is frozen data; `build_signature_table()` regenerates it
from the normal forms and the test suite asserts they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ..poly import DomainError, Poly, UniPoly, parse_poly
from .germs import milnor_number_origin
from .resolve import Resolution, resolve

__all__ = [
    "SingType",
    "LocalSingularity",
    "normal_form_germ",
    "recognition_types",
    "build_signature_table",
    "signature_of_resolution",
    "classify_germ",
    "analyze_germ",
    "delta_invariant",
    "ConsistencyError",
    "dual_branch",
]


class ConsistencyError(DomainError):
    """The two independent delta computations disagree (build-failing)."""


@dataclass(frozen=True, order=True)
class SingType:
    """Recognized singularity type: family tag plus indices."""

    family: str                  # A | D | E | B | C | D47 | Sp | Unknown
    index: Tuple[int, ...] = ()
    signature: Optional[tuple] = None  # raw signature, kept for Unknown

    def name(self) -> str:
        if self.family in ("A", "D", "E"):
            return "%s_%d" % (self.family, self.index[0])
        if self.family in ("B", "C"):
            return "%s_{%d,%d}" % (self.family, self.index[0], self.index[1])
        if self.family == "D47":
            return "D_{4,7}"
        if self.family == "Sp":
            return "Sp_%d" % self.index[0]
        return "Unknown"

    def is_simple(self) -> bool:
        return self.family in ("A", "D", "E")

    def __str__(self):
        return self.name()


def _g(text: str) -> Poly:
    return parse_poly(text, ("x", "y"))


def normal_form_germ(t: SingType) -> Poly:
    """Defining germ of the normal form of a recognized type."""
    f, ix = t.family, t.index
    if f == "A":
        return _g("y^2 - x^%d" % (ix[0] + 1))
    if f == "D":
        return _g("x*y^2 - x^%d" % (ix[0] - 1))
    if f == "E":
        return {6: _g("y^3 - x^4"), 7: _g("y*(y^2 - x^3)"),
                8: _g("y^3 - x^5")}[ix[0]]
    if f == "B":
        return _g("y^%d + x^%d" % ix)
    if f == "C":
        return _g("y^%d + x^%d + x^2*y^2" % ix)
    if f == "D47":
        return _g("y^4 + x^3*y^2 + x^7")
    if f == "Sp":
        return (_g("(y^2 - x^3)^2 + x^3*y^3") if ix[0] == 1
                else _g("(y^2 - x^3)^2 - y^6"))
    raise DomainError("no normal form for %s" % t)


def recognition_types():
    """All types in the recognition table, deterministic order."""
    types = [SingType("A", (k,)) for k in range(1, 20)]
    types += [SingType("D", (k,)) for k in range(4, 15)]
    types += [SingType("E", (k,)) for k in (6, 7, 8)]
    types += [SingType("B", pq) for pq in ((3, 6), (3, 12), (4, 6), (6, 6))]
    types += [SingType("C", pq) for pq in
              ((3, 7), (3, 8), (3, 9), (3, 12), (3, 15),
               (6, 6), (6, 9), (6, 12))]
    types += [SingType("D47", (4, 7)), SingType("Sp", (1,)), SingType("Sp", (2,))]
    return types


def signature_of_resolution(res: Resolution, mu: int, m: int) -> tuple:
    return (m, mu, res.branch_count, res.branch_fingerprints(),
            res.contact_multiset())


def signature_of_germ(germ: Poly, field=None, tower_cap: int = 12) -> tuple:
    res = resolve(germ, field, tower_cap=tower_cap)
    mu = milnor_number_origin(germ)
    return signature_of_resolution(res, mu, germ.lowest_degree())


def build_signature_table() -> dict:
    """Regenerate signature -> type from the normal forms."""
    table = {}
    for t in recognition_types():
        sig = signature_of_germ(normal_form_germ(t))
        if sig in table:
            raise DomainError("signature collision: %s vs %s" % (table[sig], t))
        table[sig] = t
    return table


_TABLE_CACHE: Optional[dict] = None


def _table() -> dict:
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        from . import _sigdata
        _TABLE_CACHE = {}
        for family, index, sig in _sigdata.SIGNATURES:
            _TABLE_CACHE[_thaw(sig)] = SingType(family, tuple(index))
    return _TABLE_CACHE


def _thaw(sig):
    m, mu, r, fps, contacts = sig
    return (m, mu, r, tuple(tuple(f) for f in fps), tuple(contacts))


def classify_signature(sig: tuple) -> SingType:
    t = _table().get(sig)
    if t is not None:
        return t
    return SingType("Unknown", (), sig)


def classify_germ(germ: Poly, field=None, tower_cap: int = 12) -> SingType:
    return classify_signature(signature_of_germ(germ, field, tower_cap))


# ---------------------------------------------------------------------------
# full local analysis of a point on a curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalSingularity:
    """A singular point with its germ invariants and recognized type."""

    point: object                # AlgebraicPoint
    m: int
    mu: int
    r: int
    delta: int
    mult_sequence: tuple
    branch_contacts: tuple       # sorted multiset of pairwise I values
    sing_type: SingType
    resolution: Resolution

    @property
    def cluster_degree(self) -> int:
        return getattr(self.point, "degree", 1)

    def describe(self) -> str:
        return ("%s at %s: m=%d mu=%d r=%d delta=%d"
                % (self.sing_type, self.point, self.m, self.mu, self.r,
                   self.delta))


def analyze_germ(germ: Poly, field=None, point=None,
                 tower_cap: int = 12) -> LocalSingularity:
    """Resolve + classify a germ at the origin; cross-checks the deltas."""
    m = germ.lowest_degree()
    res = resolve(germ, field, tower_cap=tower_cap)
    mu = milnor_number_origin(germ)
    delta = delta_invariant(mu, res)
    sig = signature_of_resolution(res, mu, m)
    stype = classify_signature(sig)
    return LocalSingularity(point, m, mu, res.branch_count, delta,
                            res.mult_sequence, res.contact_multiset(),
                            stype, res)


def analyze_point(f: Poly, point, tower_cap: int = 12) -> LocalSingularity:
    from .points import translate_to_origin
    germ = translate_to_origin(f, point)
    return analyze_germ(germ, point.field, point, tower_cap)


def delta_invariant(mu: int, res: Resolution) -> int:
    """(mu + r - 1)/2, cross-checked against the resolution's node sum."""
    num = mu + res.branch_count - 1
    if num % 2:
        raise ConsistencyError("mu + r - 1 = %d is odd" % num)
    d = num // 2
    if d != res.delta:
        raise ConsistencyError(
            "delta mismatch: (mu+r-1)/2 = %d vs resolution %d" % (d, res.delta))
    return d


# ---------------------------------------------------------------------------
# dual branches (Gauss map images of parametrized branches)
# ---------------------------------------------------------------------------


def dual_branch(param: tuple) -> tuple:
    """Dual of a branch given as (x(t), y(t)) with x = t: (y', y - t y').

    Raises DomainError for a line branch (the dual degenerates to a point).
    """
    xt, yt = param
    if list(xt.coeffs[:2]) != [Fraction(0), Fraction(1)] or xt.degree() > 1:
        raise DomainError("dual_branch expects the graph form (t, y(t))")
    ycs = list(yt.coeffs)
    if len(ycs) > 1 and ycs[1]:
        raise DomainError("branch is not tangent to y = 0; normalize first")
    dp = yt.derivative()
    if all(not c for c in dp.coeffs[1:]):
        raise DomainError("line branch: dual is a point")
    return (dp, yt - UniPoly(yt.var, [Fraction(0), Fraction(1)]) * dp)
