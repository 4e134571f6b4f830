"""The line-oriented document format for curves, claims and catalog data.

A document is a block of `key: value` lines (`#` comments, blank lines
ignored).  Multi-record files separate records by `record:` lines.  The
same schema feeds the CLI (`analyze`, `sweep`) and the embedded example
corpus; catalog rows use the `entry:` form.

Keys for a curve document:

    record:    identifier (corpus files only)
    source:    free-text anchor
    vars:      extra parameter names (x and y are implicit)
    f:         sextic polynomial        -- or --
    f2:, f3:   torus pair
    f2b:, f3b: a second pair (same-curve claims)
    *_den:     optional denominator polynomial in the parameters; the
               instantiated part is divided by its value
    param:     sweep parameter name
    values:    semicolon-separated bindings, each `s=2` or `u=5/2,t1=11/4`
    generic:   binding used as the generic sample (families)
    no_random: `true` to skip random generic sampling (derived parameters);
               one of true/false/yes/no/1/0
    defects:   semicolon-separated `TypeName=integer`
    claim:     `<selector> :: <kind> :: <payload>` (see verifier)
    note:      free text
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .poly import DomainError, Poly, parse_poly

__all__ = ["CurveDocument", "Claim", "DocumentError", "parse_documents",
           "parse_document", "parse_bindings"]

XY = ("x", "y")
_POLY_KEYS = ("f", "f_den", "f2", "f2_den", "f3", "f3_den", "f2b", "f3b")


class DocumentError(DomainError):
    """Malformed input document."""


@dataclass(frozen=True)
class Claim:
    selector: str   # "*", "generic", or a binding like "s=1"
    kind: str       # config | degrees | factorization | same-curve |
    #                 type-at | unverifiable
    payload: str


@dataclass
class CurveDocument:
    record: Optional[str] = None
    source: str = ""
    params: tuple = ()
    f: Optional[str] = None
    f_den: Optional[str] = None
    f2: Optional[str] = None
    f2_den: Optional[str] = None
    f3: Optional[str] = None
    f3_den: Optional[str] = None
    f2b: Optional[str] = None
    f3b: Optional[str] = None
    param: Optional[str] = None
    values: tuple = ()      # tuples of ((name, Fraction), ...)
    generic: Optional[tuple] = None
    no_random: bool = False
    defects: dict = field(default_factory=dict)
    claims: tuple = ()
    notes: tuple = ()

    def validate(self):
        has_f = self.f is not None
        has_pair = self.f2 is not None or self.f3 is not None
        if has_f == has_pair:
            raise DocumentError(
                "document needs exactly one of f or (f2, f3)")
        if has_pair and (self.f2 is None or self.f3 is None):
            raise DocumentError("torus pair needs both f2 and f3")
        self.all_polys()  # parse everything now
        return self

    # -- polynomial handling -------------------------------------------------

    def varlist(self) -> tuple:
        return XY + tuple(self.params)

    def _parse(self, text: str) -> Poly:
        return parse_poly(text, self.varlist())

    def all_polys(self) -> dict:
        out = {}
        for key in _POLY_KEYS:
            text = getattr(self, key)
            if text is not None:
                out[key] = self._parse(text)
        return out

    def instantiate(self, binding=()) -> dict:
        """Substitute parameter values; divide by the *_den values.

        Returns {"f": Poly} or {"f2": Poly, "f3": Poly, ...}.
        """
        polys = self.all_polys()
        subs = {name: Poly.const(value, ()) for name, value in binding}
        missing = [p for p in self.params if p not in subs]
        if missing:
            raise DocumentError("unbound parameters: %s" % missing)

        def inst(key):
            p = polys[key].substitute(subs).with_vars(XY)
            den = polys.get(key + "_den")
            if den is not None:
                dval = den.substitute(subs).constant_value()
                if not dval:
                    raise DocumentError(
                        "denominator of %s vanishes at %r" % (key, binding))
                p = p.scale(1 / dval)
            if key == "f" and not p.is_zero():
                # the analysis is scale-invariant; keep coefficients small
                p = p.primitive()
            return p

        out = {}
        for key in _POLY_KEYS:
            if key in polys and not key.endswith("_den"):
                out[key] = inst(key)
        return out


def parse_bindings(text: str) -> tuple:
    """`s=2,t=1/3` -> ((\"s\", 2), (\"t\", 1/3)) with Fraction values."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DocumentError("binding %r needs name=value" % part)
        name, _, value = part.partition("=")
        try:
            out.append((name.strip(), Fraction(value.strip())))
        except (ValueError, ZeroDivisionError):
            raise DocumentError("bad rational %r in binding" % value)
    return tuple(out)


_FLAGS = {"true": True, "false": False, "yes": True, "no": False,
          "1": True, "0": False}


def _set_scalar(doc: CurveDocument, key: str, value: str):
    if getattr(doc, key) is not None:
        raise DocumentError("duplicate key %r" % key)
    setattr(doc, key, value)


def parse_document(text: str) -> CurveDocument:
    docs = parse_documents(text)
    if len(docs) != 1:
        raise DocumentError("expected exactly one document")
    return docs[0]


def parse_documents(text: str) -> list:
    docs = []
    doc: Optional[CurveDocument] = None

    def flush():
        if doc is not None:
            docs.append(doc.validate())

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DocumentError("line %d: expected key: value" % lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "record":
            flush()
            doc = CurveDocument(record=value)
            continue
        if doc is None:
            doc = CurveDocument()
        if key in _POLY_KEYS:
            _set_scalar(doc, key, value)
        elif key == "source":
            doc.source = value
        elif key == "vars":
            doc.params = tuple(value.split())
        elif key == "param":
            doc.param = value
        elif key == "values":
            doc.values = tuple(parse_bindings(v)
                               for v in value.split(";") if v.strip())
        elif key == "generic":
            doc.generic = parse_bindings(value)
        elif key == "no_random":
            flag = value.lower()
            if flag not in _FLAGS:
                raise DocumentError("line %d: no_random must be one of %s,"
                                    " not %r" % (lineno, "/".join(_FLAGS),
                                                 value))
            doc.no_random = _FLAGS[flag]
        elif key == "defects":
            for part in value.split(";"):
                part = part.strip()
                if not part:
                    continue
                name, _, num = part.partition("=")
                if not name.strip():
                    raise DocumentError("line %d: defect %r names no type"
                                        % (lineno, part))
                try:
                    doc.defects[name.strip()] = int(num)
                except ValueError:
                    raise DocumentError("line %d: bad defect value %r"
                                        % (lineno, num.strip()))
        elif key == "claim":
            bits = [b.strip() for b in value.split("::")]
            if len(bits) != 3:
                raise DocumentError(
                    "line %d: claim needs selector :: kind :: payload"
                    % lineno)
            doc.claims = doc.claims + (Claim(*bits),)
        elif key == "note":
            doc.notes = doc.notes + (value,)
        else:
            raise DocumentError("line %d: unknown key %r" % (lineno, key))
    flush()
    return docs
