"""Machine-readable catalog (the two classification theorems) and the
example corpus, plus the verifier that replays every example through the
pipeline and diffs the outcome against its claims.

Both the catalog rows and the corpus records ship as embedded data files in
the document schema; nothing is regenerated at run time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .analysis import CurveAnalysis, analyze_curve
from .docs import Claim, CurveDocument, DocumentError, parse_bindings, \
    parse_documents
from .globalinv import Configuration
from .localsing.classify import SingType
from .poly import DomainError, Poly, PolyError, parse_poly
from .torus import TorusPair

__all__ = [
    "CatalogEntry",
    "ExampleRecord",
    "VerdictReport",
    "ConfigSyntaxError",
    "parse_config",
    "builtin_catalog",
    "builtin_examples",
    "verify_example",
    "weak_zariski_groups",
]


class ConfigSyntaxError(PolyError):
    """Bad configuration string."""


_TYPE_RE = re.compile(
    r"(?:(?P<count>\d+)\s*)?"
    r"(?P<name>(?:[ADE]_\d+)|(?:[BC]_\{\d+,\d+\})|(?:D_\{4,7\})|(?:Sp_[12]))")


def _parse_type(name: str) -> SingType:
    if name.startswith(("A_", "D_", "E_")) and "{" not in name:
        return SingType(name[0], (int(name[2:]),))
    if name.startswith("D_{4,7}"):
        return SingType("D47", (4, 7))
    if name.startswith(("B_{", "C_{")):
        inside = name[3:-1]
        p, q = inside.split(",")
        return SingType(name[0], (int(p), int(q)))
    if name.startswith("Sp_"):
        return SingType("Sp", (int(name[3:]),))
    raise ConfigSyntaxError("unknown type name %r" % name)


def _split_entries(body: str) -> list:
    """Split on commas that are not inside {...} index braces."""
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in parts if p]


def parse_config(text: str) -> Configuration:
    """Parse `[A_5,4A_2,2A_1]_2^mr` style configuration strings."""
    s = text.strip().replace(" ", "")
    if not s.startswith("["):
        raise ConfigSyntaxError("configuration must start with '[': %r" % text)
    close = s.find("]")
    if close < 0:
        raise ConfigSyntaxError("missing ']' in %r" % text)
    body = s[1:close]
    rest = s[close + 1:]
    items = []
    if body:
        for part in _split_entries(body):
            m = _TYPE_RE.fullmatch(part)
            if not m:
                raise ConfigSyntaxError("bad configuration entry %r" % part)
            count = int(m.group("count") or 1)
            if count < 1:
                raise ConfigSyntaxError("count must be >= 1 in %r" % part)
            items.append((_parse_type(m.group("name")), count, None))
    index_tag = None
    mr = False
    m = re.fullmatch(r"(?:_(\d+))?(?:\^mr)?", rest)
    if not m:
        raise ConfigSyntaxError("bad configuration suffix %r" % rest)
    if m.group(1):
        index_tag = int(m.group(1))
    mr = rest.endswith("^mr")
    return Configuration.from_items(items, mr=mr, index_tag=index_tag)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    theorem: int
    inner: Configuration
    component_type: tuple        # degrees, e.g. (1, 5) or (1, 1, 4)
    reduced: Configuration       # with index tag / mr flag
    strength: str                # "exampled" | "asserted"
    component_sigma: tuple       # ((degree, Configuration), ...) when stated
    intersection: str            # prose pattern when stated
    anchor: str


def _parse_component_type(text: str) -> tuple:
    degs = []
    for part in text.split("+"):
        part = part.strip().rstrip("'")
        if not part.startswith("B"):
            raise DocumentError("bad component type %r" % text)
        degs.append(int(part[1:].rstrip("'")))
    return tuple(sorted(degs))


def _load_data(name: str) -> str:
    return resources.files("sextics.data").joinpath(name).read_text()


_CATALOG_CACHE = None


def builtin_catalog() -> list:
    """Every enumerated configuration of the two classification theorems."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is not None:
        return _CATALOG_CACHE
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
        if key == "theorem":
            theorem = int(value)
        elif key == "inner":
            inner = parse_config(value)
        elif key == "entry":
            bits = [b.strip() for b in value.split("|")]
            ctype = _parse_component_type(bits[0])
            reduced = parse_config(bits[1])
            strength = "exampled"
            sigma = []
            inter = ""
            for extra in bits[2:]:
                k, _, v = extra.partition("=")
                k = k.strip()
                v = v.strip()
                if k == "strength":
                    strength = v
                elif k == "sigma":
                    d, _, cfg = v.partition("@")
                    sigma.append((int(d), parse_config(cfg)))
                elif k == "inter":
                    inter = v
                else:
                    raise DocumentError("catalog line %d: %r" % (lineno, k))
            entries.append(CatalogEntry(theorem, inner, ctype, reduced,
                                        strength, tuple(sigma), inter,
                                        "theorem %d, line %d" % (theorem,
                                                                 lineno)))
        else:
            raise DocumentError("catalog line %d: unknown key %r"
                                % (lineno, key))
    _CATALOG_CACHE = entries
    return entries


# ---------------------------------------------------------------------------
# example records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleRecord:
    rid: str
    doc: CurveDocument

    @property
    def source(self) -> str:
        return self.doc.source


_EXAMPLES_CACHE = None


def builtin_examples() -> list:
    global _EXAMPLES_CACHE
    if _EXAMPLES_CACHE is not None:
        return _EXAMPLES_CACHE
    records = []
    for doc in parse_documents(_load_data("examples.txt")):
        if not doc.record:
            raise DocumentError("corpus document without a record id")
        records.append(ExampleRecord(doc.record, doc))
    _EXAMPLES_CACHE = records
    return records


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimVerdict:
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


@dataclass(frozen=True)
class VerdictReport:
    rid: str
    verdicts: tuple
    notes: tuple

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


def _analysis_for(doc: CurveDocument, binding, tower_cap):
    inst = doc.instantiate(binding)
    if "f" in inst:
        return analyze_curve(f=inst["f"], hints=inst["hints"],
                             tower_cap=tower_cap)
    pair = TorusPair(inst["f2"], inst["f3"])
    return analyze_curve(pair=pair, hints=inst["hints"], tower_cap=tower_cap)


def _degrees_consistent(claimed: tuple, analysis: CurveAnalysis) -> bool:
    """Resolved factors must match claimed parts; the residual may cover
    several claimed components (conjugate factors are invisible over Q)."""
    remaining = list(claimed)
    for _p, d, m in analysis.decomposition.factors:
        for _ in range(m):
            if d in remaining:
                remaining.remove(d)
            else:
                return False
    return sum(remaining) == max(analysis.decomposition.residual.degree(), 0)


def verify_example(rec: ExampleRecord, tower_cap: int = 12,
                   seed: int = 0) -> VerdictReport:
    """Replay one record through the pipeline and diff against its claims."""
    doc = rec.doc
    verdicts = []
    notes = list(doc.notes)
    bindings_for = {"*": [()]}
    if doc.values or doc.generic:
        bindings_for["generic"] = _generic_samples(doc, seed)
        for v in doc.values:
            bindings_for[",".join("%s=%s" % nv for nv in v)] = [v]
    cache: dict = {}

    def analysis_at(binding):
        if binding not in cache:
            cache[binding] = _analysis_for(doc, binding, tower_cap)
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
            except (DomainError, PolyError) as err:
                verdicts.append(ClaimVerdict(claim, tuple(binding),
                                             "unverifiable",
                                             "pipeline error: %s" % err))
    return VerdictReport(rec.rid, tuple(verdicts), tuple(notes))


def _check_claim(doc, claim, binding, analysis_at) -> ClaimVerdict:
    binding = tuple(binding)
    if claim.kind == "restriction-y0":
        # an identity in the parameters: checked symbolically, once
        polys = doc.all_polys()
        restricted = polys["f"].substitute({"y": Poly.const(0, ())})
        expected = parse_poly(claim.payload, doc.varlist())
        if "f_den" in polys:
            expected = expected * polys["f_den"]
        if restricted == expected:
            return ClaimVerdict(claim, (), "verified",
                                "identity holds for all parameter values")
        return ClaimVerdict(claim, (), "mismatch",
                            "restriction to y = 0 differs from the claim")
    if claim.kind == "config":
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
    if claim.kind == "degrees":
        analysis = analysis_at(binding)
        want = tuple(sorted(int(d) for d in claim.payload.split(",")))
        got = analysis.degrees()
        if got == want and analysis.decomposition.is_complete():
            return ClaimVerdict(claim, binding, "verified", "degrees %s"
                                % (got,))
        if _degrees_consistent(want, analysis):
            return ClaimVerdict(
                claim, binding, "verified",
                "resolved %s; residual covers the remaining components"
                % (analysis.degrees(),))
        return ClaimVerdict(claim, binding, "mismatch",
                            "found %s, claimed %s" % (got, want))
    if claim.kind == "factorization":
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
    if claim.kind == "same-curve":
        inst = doc.instantiate(binding)
        p1 = TorusPair(inst["f2"], inst["f3"])
        p2 = TorusPair(inst["f2b"], inst["f3b"])
        if p1.normalized_expansion() == p2.normalized_expansion():
            return ClaimVerdict(claim, binding, "verified",
                                "expansions define the same sextic")
        return ClaimVerdict(claim, binding, "mismatch",
                            "the two pairs define different curves")
    if claim.kind == "type-at":
        analysis = analysis_at(binding)
        wanted = []
        for part in claim.payload.split(";"):
            part = part.strip()
            m = re.fullmatch(r"\(([^,]+),([^)]+)\)=(.+)", part)
            if not m:
                raise DocumentError("bad type-at payload %r" % part)
            wanted.append((Fraction(m.group(1)), Fraction(m.group(2)),
                           _parse_type(m.group(3).strip())))
        by_point = {}
        for ls in analysis.sings:
            p = ls.point
            if p is not None and p.field is None:
                by_point[(p.x, p.y)] = ls.sing_type
        missing = []
        for x0, y0, t in wanted:
            got = by_point.get((x0, y0))
            if got is None or got.name() != t.name():
                missing.append("(%s,%s): found %s, claimed %s"
                               % (x0, y0, got, t))
        if missing:
            return ClaimVerdict(claim, binding, "mismatch",
                                "; ".join(missing))
        return ClaimVerdict(claim, binding, "verified",
                            "all stated types found at the stated points")
    raise DocumentError("unknown claim kind %r" % claim.kind)


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
