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

import functools
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from ..poly import DomainError, Poly, UniPoly, parse_poly
from . import _sigdata
from .germs import milnor_number_origin
from .points import AlgebraicPoint, translate_to_origin
from .resolve import ConsistencyError, Resolution, resolve

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


class SingType(NamedTuple):
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
    raise DomainError("no normal form for %s" % (t,))


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
    return (m, mu, res.branch_count, res.branches, res.contacts)


def build_signature_table() -> dict:
    """Regenerate signature -> type from the normal forms."""
    table = {}
    for t in recognition_types():
        germ = normal_form_germ(t)
        res = resolve(germ)
        sig = signature_of_resolution(res, _milnor(germ, res),
                                      germ.lowest_degree())
        if sig in table:
            raise DomainError("signature collision: %s vs %s" % (table[sig], t))
        table[sig] = t
    return table


def _milnor(germ: Poly, res: Resolution) -> int:
    """mu of the germ, predicted as 2*delta - r + 1 from its resolution
    (see `analyze_germ`)."""
    return milnor_number_origin(germ, 2 * res.delta - res.branch_count + 1)


@functools.cache
def _table() -> dict:
    return {sig: SingType(family, index)
            for family, index, sig in _sigdata.SIGNATURES}


def classify_signature(sig: tuple) -> SingType:
    t = _table().get(sig)
    if t is not None:
        return t
    return SingType("Unknown", (), sig)


def classify_germ(germ: Poly) -> SingType:
    return analyze_germ(germ).sing_type


# ---------------------------------------------------------------------------
# full local analysis of a point on a curve
# ---------------------------------------------------------------------------


class LocalSingularity(NamedTuple):
    """A singular point with its germ invariants and recognized type.

    `components` holds (k, own) for each component k singular at the
    point: its own LocalSingularity, or None where k alone passes and this
    is its own.
    """

    point: Optional[AlgebraicPoint]
    m: int
    mu: int
    r: int
    delta: int
    mult_sequence: tuple
    branch_contacts: tuple  # sorted multiset of pairwise I values
    sing_type: SingType
    components: tuple

    @property
    def cluster_degree(self) -> int:
        return getattr(self.point, "degree", 1)

    def describe(self) -> str:
        return ("%s at %s: m=%d mu=%d r=%d delta=%d"
                % (self.sing_type, self.point, self.m, self.mu, self.r,
                   self.delta))


def analyze_germ(germ: Poly, field=None, point=None,
                 factors: tuple = ()) -> LocalSingularity:
    """Resolve + classify a germ at the origin; cross-checks the deltas.

    The resolution comes first, and the reduction for mu = I(f_x, f_y)
    starts one order above the value 2*delta - r + 1 that it predicts.
    The reduction proves mu whatever order it starts at, so
    `delta_invariant` still compares two independent deltas: a wrong
    delta or r raises ConsistencyError.

    `factors`, pairs (k, germ) of the factors through the origin, are
    carried through the resolution; each singular one gets its own
    cross-checked LocalSingularity in `components`.
    """
    res = resolve(germ, field, tuple(q for _k, q in factors))
    own = tuple((k, _singularity(q, qres, point))
                for (k, q), qres in zip(factors, res.factors)
                if q.lowest_degree() > 1)
    return _singularity(germ, res, point, own)


def _singularity(germ: Poly, res: Resolution, point,
                 components: tuple = ()) -> LocalSingularity:
    m = germ.lowest_degree()
    mu = _milnor(germ, res)
    delta = delta_invariant(mu, res)
    sig = signature_of_resolution(res, mu, m)
    return LocalSingularity(point, m, mu, res.branch_count, delta,
                            res.mult_sequence, res.contacts,
                            classify_signature(sig), components)


def analyze_point(f: Poly, point, comps: tuple = ()) -> LocalSingularity:
    """The singularity of f at a point; given `comps`, the components of f
    (its factors over Q), also theirs there, in `components`.  The point
    names the components through it (`singular_points`).  A component
    alone at the point is f times a unit there.  Two or more are all
    smooth if as many pass as f's multiplicity; otherwise their germs are
    carried through f's one resolution.
    """
    germ = translate_to_origin(f, point)
    on = point.components if comps else ()
    if len(on) == 1:
        lone = analyze_germ(germ, point.field, point)
        return lone._replace(components=((on[0], None),))
    factors = tuple((k, translate_to_origin(comps[k], point)) for k in on) \
        if len(on) < germ.lowest_degree() else ()
    return analyze_germ(germ, point.field, point, factors)


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
