"""Machine-readable catalog (the two classification theorems) and the
example corpus, plus the verifier that replays every example through the
pipeline and diffs the outcome against its claims.

Both ship as embedded data files; nothing is regenerated at run time.  The
corpus records (`examples.txt`) are curve documents in the document schema
of `docs`.  The catalog rows (`catalog.txt`) have their own line format,
read by `builtin_catalog`: a `theorem:` line and an `inner:` configuration
head a group of `entry:` lines, each a component type and a reduced
configuration followed by optional `sigma=`, `inter=` and `strength=`
fields.  `globalinv` reads the configurations and type names of both,
refusing any the classifier cannot print.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .analysis import CurveAnalysis, analyze_curve
from .docs import Claim, CurveDocument, DocumentError, parse_bindings, \
    parse_documents, parse_integer
from .globalinv import Configuration, DefectTable, parse_config
from .localsing.classify import ConsistencyError
from .poly import DomainError, Poly, PolyError, parse_poly
from .torus import TorusPair

__all__ = [
    "CatalogEntry",
    "ExampleRecord",
    "VerdictReport",
    "builtin_catalog",
    "builtin_examples",
    "analyze_document",
    "verify_example",
    "weak_zariski_groups",
]


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


class CatalogEntry(NamedTuple):
    theorem: int
    inner: Configuration
    component_type: tuple        # degrees, e.g. (1, 5) or (1, 1, 4)
    reduced: Configuration       # with index tag / mr flag
    strength: str                # "exampled" | "asserted"
    component_sigma: tuple       # ((degree, Configuration), ...) when stated
    intersection: str            # prose pattern when stated


def _parse_component_type(text: str) -> tuple:
    degs = []
    for part in text.split("+"):
        part = part.strip().rstrip("'")
        if not part.startswith("B") or not part[1:].isdecimal():
            raise DocumentError("bad component type %r" % text)
        degs.append(int(part[1:]))
    return tuple(sorted(degs))


def _load_data(name: str) -> str:
    return resources.files("sextics.data").joinpath(name).read_text()


@functools.cache
def builtin_catalog() -> list:
    """Every enumerated configuration of the two classification theorems.

    A malformed row raises DocumentError naming its line."""
    entries = []
    theorem = None
    inner = None
    for lineno, raw in enumerate(_load_data("catalog.txt").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        try:
            if key == "theorem":
                theorem = parse_integer(value, "theorem")
            elif key == "inner":
                inner = parse_config(value)
            elif key == "entry":
                entries.append(_parse_entry(theorem, inner, value))
            else:
                raise DocumentError("unknown key %r" % key)
        except ValueError as err:
            raise DocumentError("catalog line %d: %s" % (lineno, err)) \
                from None
    return entries


def _parse_entry(theorem, inner, value: str) -> CatalogEntry:
    """One `entry:` row under its theorem and inner configuration."""
    bits = [b.strip() for b in value.split("|")]
    if len(bits) < 2:
        raise DocumentError("entry without a configuration")
    ctype, reduced, *extras = bits
    strength = "exampled"
    sigma = []
    inter = ""
    for extra in extras:
        k, _, v = extra.partition("=")
        k = k.strip()
        v = v.strip()
        if k == "strength":
            strength = v
        elif k == "sigma":
            d, _, cfg = v.partition("@")
            sigma.append((parse_integer(d, "a sigma= degree"),
                          parse_config(cfg)))
        elif k == "inter":
            inter = v
        else:
            raise DocumentError("unknown field %r" % k)
    return CatalogEntry(theorem, inner, _parse_component_type(ctype),
                        parse_config(reduced), strength, tuple(sigma), inter)


# ---------------------------------------------------------------------------
# example records
# ---------------------------------------------------------------------------


class ExampleRecord(NamedTuple):
    rid: str
    doc: CurveDocument


@functools.cache
def builtin_examples() -> list:
    records = []
    for doc in parse_documents(_load_data("examples.txt")):
        if not doc.record:
            raise DocumentError("corpus document without a record id")
        records.append(ExampleRecord(doc.record, doc))
    return records


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class ClaimVerdict(NamedTuple):
    claim: Claim
    binding: tuple
    status: str          # "verified" | "mismatch" | "unverifiable"
    detail: str

    def line(self) -> str:
        where = ""
        if self.binding:
            where = " at " + ",".join("%s=%s" % nv for nv in self.binding)
        return "%-12s %s :: %s%s -- %s" % (self.status, self.claim.kind,
                                           self.claim.payload, where,
                                           self.detail)


class VerdictReport(NamedTuple):
    verdicts: tuple

    def counts(self) -> dict:
        out = {"verified": 0, "mismatch": 0, "unverifiable": 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def clean(self) -> bool:
        return self.counts()["mismatch"] == 0


_RANDOM_POOL = [Fraction(19, 7), Fraction(-23, 11), Fraction(31, 5),
                Fraction(-7, 3), Fraction(41, 13), Fraction(13, 9),
                Fraction(-37, 8), Fraction(53, 12)]

# multi-parameter normal forms blow up coefficient sizes quickly (the
# leading coefficients are degree-20 polynomials in the parameters), so
# their random samples come from a small-height pool
_SMALL_POOL = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(5),
               Fraction(-1, 3), Fraction(7), Fraction(2, 5), Fraction(-4)]


def _generic_samples(doc: CurveDocument, seed: int):
    """The designated generic binding plus two seeded random rationals."""
    if doc.generic is None:
        return []
    samples = [doc.generic]
    if doc.no_random:
        return samples
    names = [n for n, _v in doc.generic]
    pool = list(_RANDOM_POOL)
    offset = seed % len(pool)
    pool = pool[offset:] + pool[:offset]
    if len(names) == 1:
        special = {dict(v).get(names[0]) for v in doc.values}
        picked = 0
        for cand in pool:
            if picked == 2:
                break
            if cand in special or cand == doc.generic[0][1]:
                continue
            samples.append(((names[0], cand),))
            picked += 1
    else:
        small = list(_SMALL_POOL)
        offset = seed % len(small)
        small = small[offset:] + small[:offset]
        for i in range(2):
            samples.append(tuple(
                (n, small[(i * len(names) + j) % len(small)])
                for j, n in enumerate(names)))
    return samples


def analyze_document(doc: CurveDocument, binding) -> CurveAnalysis:
    """The full pipeline on a document at one parameter binding."""
    inst = doc.instantiate(binding)
    defects = DefectTable(dict(doc.defects)) if doc.defects else None
    if "f" in inst:
        return analyze_curve(f=inst["f"], defects=defects)
    return analyze_curve(pair=TorusPair(inst["f2"], inst["f3"]),
                         defects=defects)


def _degrees_consistent(claimed: tuple, analysis: CurveAnalysis) -> bool:
    """Components with a certified genus match claimed degrees one for one;
    those without one (possibly conjugate components, invisible over Q)
    together cover the remaining claimed degrees by sum."""
    remaining = list(claimed)
    uncertified = 0
    for comp in analysis.components:
        if comp.genus is None:
            uncertified += comp.degree
        elif comp.degree in remaining:
            remaining.remove(comp.degree)
        else:
            return False
    return sum(remaining) == uncertified


def verify_example(rec: ExampleRecord, seed: int = 0) -> VerdictReport:
    """Replay one record through the pipeline and diff against its claims.

    A claim the pipeline refuses (`DomainError`, `PolyError`) is
    unverifiable; a `ConsistencyError`, an internal cross-check failing,
    propagates to the caller.
    """
    doc = rec.doc
    verdicts = []
    bindings_for = {"*": [()]}
    if doc.values or doc.generic:
        bindings_for["generic"] = _generic_samples(doc, seed)
        for v in doc.values:
            bindings_for[",".join("%s=%s" % nv for nv in v)] = [v]
    cache: dict = {}

    def analysis_at(binding):
        if binding not in cache:
            cache[binding] = analyze_document(doc, binding)
        return cache[binding]

    for claim in doc.claims:
        if claim.kind == "unverifiable":
            verdicts.append(ClaimVerdict(claim, (), "unverifiable",
                                         claim.payload))
            continue
        targets = bindings_for.get(claim.selector)
        if targets is None:
            targets = [parse_bindings(claim.selector)]
        for binding in targets:
            try:
                verdicts.append(_check_claim(doc, claim, binding,
                                             analysis_at))
            except ConsistencyError:
                raise
            except (DomainError, PolyError) as err:
                verdicts.append(ClaimVerdict(claim, tuple(binding),
                                             "unverifiable",
                                             "pipeline error: %s" % err))
    return VerdictReport(tuple(verdicts))


def _check_claim(doc, claim, binding, analysis_at) -> ClaimVerdict:
    """The verdict on a claim of any kind in `docs.CLAIM_KINDS` but
    `unverifiable` at one binding, by the check of its kind."""
    return _CHECKS[claim.kind](doc, claim, tuple(binding), analysis_at)


def _check_restriction(doc, claim, _binding, _analysis_at) -> ClaimVerdict:
    # an identity in the parameters: checked symbolically, once
    polys = doc.polys
    restricted = polys["f"].substitute({"y": Poly.const(0, ())})
    expected = parse_poly(claim.payload, doc.varlist())
    if "f_den" in polys:
        expected = expected * polys["f_den"]
    if restricted == expected:
        return ClaimVerdict(claim, (), "verified",
                            "identity holds for all parameter values")
    return ClaimVerdict(claim, (), "mismatch",
                        "restriction to y = 0 differs from the claim")


def _check_config(_doc, claim, binding, analysis_at) -> ClaimVerdict:
    analysis = analysis_at(binding)
    want = parse_config(claim.payload)
    got = analysis.config
    if want.same_types(got):
        detail = "found %s" % got.format(with_tags=False)
        if want.mr and not got.mr:
            return ClaimVerdict(claim, binding, "mismatch",
                                "mr flag: claimed mr, computed not")
        return ClaimVerdict(claim, binding, "verified", detail)
    return ClaimVerdict(claim, binding, "mismatch",
                        "found %s, claimed %s"
                        % (got.format(with_tags=False),
                           want.format(with_tags=False)))


def _check_degrees(_doc, claim, binding, analysis_at) -> ClaimVerdict:
    analysis = analysis_at(binding)
    want = tuple(sorted(parse_integer(d, "a claimed degree")
                        for d in claim.payload.split(",")))
    got = analysis.degrees()
    if got == want:
        return ClaimVerdict(claim, binding, "verified", "degrees %s"
                            % (got,))
    if _degrees_consistent(want, analysis):
        covering = tuple(c.degree for c in analysis.components
                         if c.genus is None)
        return ClaimVerdict(
            claim, binding, "verified",
            "degrees %s; components without a certified genus (degrees"
            " %s) cover the remaining claimed degrees" % (got, covering))
    return ClaimVerdict(claim, binding, "mismatch",
                        "found %s, claimed %s" % (got, want))


def _check_factorization(doc, claim, binding, _analysis_at) -> ClaimVerdict:
    inst = doc.instantiate(binding)
    f = inst.get("f")
    if f is None:
        f = TorusPair(inst["f2"], inst["f3"]).expand()
    want = parse_poly(claim.payload, ("x", "y"))
    if f == want:
        return ClaimVerdict(claim, binding, "verified",
                            "product expands to the sextic")
    return ClaimVerdict(claim, binding, "mismatch",
                        "stated factorization does not expand back")


def _check_same_curve(doc, claim, binding, _analysis_at) -> ClaimVerdict:
    inst = doc.instantiate(binding)
    p1 = TorusPair(inst["f2"], inst["f3"])
    p2 = TorusPair(inst["f2b"], inst["f3b"])
    if p1.normalized_expansion() == p2.normalized_expansion():
        return ClaimVerdict(claim, binding, "verified",
                            "expansions define the same sextic")
    return ClaimVerdict(claim, binding, "mismatch",
                        "the two pairs define different curves")


def _check_type_at(_doc, claim, binding, analysis_at) -> ClaimVerdict:
    analysis = analysis_at(binding)
    by_point = {}
    for ls in analysis.sings:
        p = ls.point
        if p is not None and p.field is None:
            by_point[(p.x, p.y)] = ls.sing_type
    missing = []
    for x0, y0, t in claim.points:
        got = by_point.get((x0, y0))
        if got is None or got.name() != t.name():
            missing.append("(%s,%s): found %s, claimed %s"
                           % (x0, y0, got, t))
    if missing:
        return ClaimVerdict(claim, binding, "mismatch",
                            "; ".join(missing))
    return ClaimVerdict(claim, binding, "verified",
                        "all stated types found at the stated points")


# one check for each kind of `docs.CLAIM_KINDS` but `unverifiable`, which
# `verify_example` reports as stated
_CHECKS = {"restriction-y0": _check_restriction, "config": _check_config,
           "degrees": _check_degrees, "factorization": _check_factorization,
           "same-curve": _check_same_curve, "type-at": _check_type_at}


# ---------------------------------------------------------------------------
# weak Zariski grouping
# ---------------------------------------------------------------------------


def weak_zariski_groups(entries) -> list:
    """Group catalog rows by reduced configuration (subscripts ignored).

    A group lists its distinct geometric realizations; the index convention
    reserves subscript 1 for an existing irreducible sextic, so a group
    whose smallest printed subscript is 2 counts one extra (irreducible)
    realization.
    """
    groups: dict = {}
    for e in entries:
        groups.setdefault(e.reduced.multiset(), []).append(e)
    out = []
    for key, rows in sorted(groups.items()):
        tags = [r.reduced.index_tag for r in rows if
                r.reduced.index_tag is not None]
        implied_irreducible = bool(tags) and min(tags) >= 2
        realizations = len(rows) + (1 if implied_irreducible else 0)
        if realizations >= 2:
            out.append({
                "reduced": rows[0].reduced.format(with_tags=False),
                "rows": rows,
                "implied_irreducible": implied_irreducible,
                "realizations": realizations,
            })
    return out
