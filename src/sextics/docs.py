"""The line-oriented document format for curves, claims and catalog data.

A document is a block of `key: value` lines (`#` comments, blank lines
ignored).  Multi-record files separate records by `record:` lines.  The
same schema feeds the CLI (`analyze`, `sweep`) and the embedded example
corpus; catalog rows use the `entry:` form.

Keys for a curve document:

    record:    identifier (corpus files only)
    source:    free-text anchor
    vars:      extra parameter names (x and y are implicit), each a
               distinct symbol
    f:         sextic polynomial        -- or --
    f2:, f3:   torus pair
    f2b:, f3b: a second pair (same-curve claims)
    *_den:     optional denominator polynomial in the parameters; the
               instantiated part is divided by its value
    values:    semicolon-separated bindings, each `s=2` or `u=5/2,t1=11/4`
    generic:   binding used as the generic sample (families)
    no_random: `true` to skip random generic sampling (derived parameters);
               one of true/false/yes/no/1/0
    defects:   semicolon-separated `TypeName=integer`, each integer >= 0
               and each name one the classifier prints (`A_1`, not
               `A1`; read by `globalinv.parse_type`)
    claim:     `<selector> :: <kind> :: <payload>`, the kind one of
               `CLAIM_KINDS` (see verifier)
    param:     sweep parameter name (an annotation: `sweep` takes --param)
    note:      free text (an annotation)

Annotations are accepted and dropped; no command reads them.  Every key
but `defects:`, `claim:` and the annotations may appear at most once per
document, and a binding names each parameter at most once; a repeat is
refused.  Each `values:` and `generic:` binding, and each claim selector
that is a binding, names exactly the parameters declared in `vars:`; a
`generic` claim selector needs a `generic:` line.  The polynomials are
parsed once, when the document is read; a parse error names its line and
key.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .globalinv import ConfigSyntaxError, parse_type
from .poly import SYMBOL, DomainError, Poly, PolySyntaxError, parse_poly

__all__ = ["CurveDocument", "Claim", "CLAIM_KINDS", "DocumentError",
           "parse_documents", "parse_document", "parse_bindings"]

XY = ("x", "y")
# the claim kinds `catalog.verify_example` checks; any other is refused
CLAIM_KINDS = ("config", "degrees", "factorization", "same-curve", "type-at",
               "restriction-y0", "unverifiable")
_POLY_KEYS = ("f", "f_den", "f2", "f2_den", "f3", "f3_den", "f2b", "f3b")


class DocumentError(DomainError):
    """Malformed input document."""


class Claim(NamedTuple):
    selector: str   # "*", "generic", or a binding like "s=1"
    kind: str       # one of CLAIM_KINDS
    payload: str
    line: int       # line number of the claim in its text


class CurveDocument:
    """One curve document, filled in key by key as its lines are read."""

    __slots__ = ("record", "source", "params", "polys", "values", "generic",
                 "no_random", "defects", "claims")

    def __init__(self, record: Optional[str] = None):
        self.record = record
        self.source = ""
        self.params = ()
        self.polys = {}         # key in _POLY_KEYS -> Poly
        self.values = ()        # tuples of ((name, Fraction), ...)
        self.generic = None     # ((name, Fraction), ...) when given
        self.no_random = False
        self.defects = {}
        self.claims = ()

    def __eq__(self, other):
        if not isinstance(other, CurveDocument):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    __hash__ = None

    def validate(self, texts: dict, start: int):
        """Check that the polynomial keys among `texts` (key -> (line
        number, text)) make one curve, that each binding, a claim
        selector among them, names exactly the declared parameters and
        that a `generic` selector has a `generic:` binding to read, and
        parse each polynomial into `polys`.  Each error names a line: a
        curve key that breaks the one-curve rule names its own, and a
        document without a curve key names its first line, `start`."""
        bindings = [(texts[key][0], key + " binding", binding)
                    for key, group in (("values", self.values),
                                       ("generic", (self.generic,)))
                    if key in texts for binding in group]
        for claim in self.claims:
            if claim.selector == "generic" and self.generic is None:
                raise DocumentError("line %d: claim selector generic needs a"
                                    " generic: line" % claim.line)
            if claim.selector in ("*", "generic"):
                continue
            try:
                binding = parse_bindings(claim.selector)
            except DocumentError as err:
                raise DocumentError("line %d: claim selector: %s"
                                    % (claim.line, err)) from None
            bindings.append((claim.line, "claim selector", binding))
        for lineno, what, binding in bindings:
            names = sorted(n for n, _v in binding)
            if names != sorted(self.params):
                raise DocumentError(
                    "line %d: %s names %s, but vars declares %s"
                    % (lineno, what, " ".join(names) or "nothing",
                       " ".join(self.params) or "nothing"))
        pair = [texts[key][0] for key in ("f2", "f3") if key in texts]
        if ("f" in texts) == bool(pair):
            lineno = max(texts["f"][0], min(pair)) if pair else start
            raise DocumentError("line %d: document needs exactly one of f or"
                                " (f2, f3)" % lineno)
        if len(pair) == 1:
            raise DocumentError("line %d: torus pair needs both f2 and f3"
                                % pair[0])
        self.polys = {}
        for key in _POLY_KEYS:
            if key in texts:
                lineno, text = texts[key]
                try:
                    self.polys[key] = parse_poly(text, self.varlist())
                except PolySyntaxError as err:
                    raise DocumentError("line %d: %s: %s"
                                        % (lineno, key, err)) from None
        return self

    def varlist(self) -> tuple:
        return XY + tuple(self.params)

    def instantiate(self, binding=()) -> dict:
        """Substitute parameter values; divide by the *_den values.

        Returns {"f": Poly} or {"f2": Poly, "f3": Poly, ...}.
        """
        subs = {name: Poly.const(value, ()) for name, value in binding}
        missing = [p for p in self.params if p not in subs]
        if missing:
            raise DocumentError("unbound parameters: %s"
                                % " ".join(missing))
        out = {}
        for key, p in self.polys.items():
            if key.endswith("_den"):
                continue
            p = p.substitute(subs).with_vars(XY)
            den = self.polys.get(key + "_den")
            if den is not None:
                dval = den.substitute(subs).constant_value()
                if not dval:
                    raise DocumentError(
                        "denominator of %s vanishes at %s"
                        % (key, ",".join("%s=%s" % nv for nv in binding)))
                p = p.scale(1 / dval)
            if key == "f" and not p.is_zero():
                # the analysis is scale-invariant; keep coefficients small
                p = p.primitive()
            out[key] = p
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
        name = name.strip()
        if any(n == name for n, _v in out):
            raise DocumentError("duplicate parameter %r in binding" % name)
        try:
            out.append((name, Fraction(value.strip())))
        except (ValueError, ZeroDivisionError):
            raise DocumentError("bad rational %r in binding" % value)
    return tuple(out)


_FLAGS = {"true": True, "false": False, "yes": True, "no": False,
          "1": True, "0": False}
# keys that are accepted and dropped
_ANNOTATIONS = ("param", "note")
# keys that may appear at most once in a document
_SINGLE_KEYS = _POLY_KEYS + ("source", "vars", "values", "generic",
                             "no_random")


def parse_document(text: str) -> CurveDocument:
    docs = parse_documents(text)
    if len(docs) != 1:
        raise DocumentError("expected exactly one document")
    return docs[0]


def parse_documents(text: str) -> list:
    docs = []
    doc: Optional[CurveDocument] = None
    seen: dict = {}     # single key -> (line number, text), this document
    start = 0           # the first line of this document

    def flush():
        if doc is not None:
            docs.append(doc.validate(seen, start))

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
            doc, seen, start = CurveDocument(record=value), {}, lineno
            continue
        if doc is None:
            doc, start = CurveDocument(), lineno
        try:
            _read_key(doc, seen, key, value, lineno)
        except DocumentError as err:
            raise DocumentError("line %d: %s" % (lineno, err)) from None
    flush()
    return docs


def _read_key(doc: CurveDocument, seen: dict, key: str, value: str,
              lineno: int):
    """Apply line `lineno`, `key: value`, to `doc`.  A single key's line
    goes to `seen`, where `CurveDocument.validate` reads it."""
    if key in _SINGLE_KEYS:
        if key in seen:
            raise DocumentError("duplicate key %r" % key)
        seen[key] = (lineno, value)
    if key == "source":
        doc.source = value
    elif key == "vars":
        names = value.split()
        for i, name in enumerate(names):
            if not SYMBOL.fullmatch(name):
                raise DocumentError("vars: %r is not a name" % name)
            if name in XY:
                raise DocumentError("vars: %s is implicit; declare only the"
                                    " parameters" % name)
            if name in names[:i]:
                raise DocumentError("vars: %s is declared twice" % name)
        doc.params = tuple(names)
    elif key == "values":
        doc.values = tuple(parse_bindings(v)
                           for v in value.split(";") if v.strip())
    elif key == "generic":
        doc.generic = parse_bindings(value)
    elif key == "no_random":
        flag = value.lower()
        if flag not in _FLAGS:
            raise DocumentError("no_random must be one of %s, not %r"
                                % ("/".join(_FLAGS), value))
        doc.no_random = _FLAGS[flag]
    elif key == "defects":
        for part in value.split(";"):
            part = part.strip()
            if not part:
                continue
            name, _, num = part.partition("=")
            if not name.strip():
                raise DocumentError("defect %r names no type" % part)
            try:
                parse_type(name.strip())
            except ConfigSyntaxError as err:
                raise DocumentError(str(err)) from None
            try:
                defect = int(num)
            except ValueError:
                raise DocumentError("bad defect value %r" % num.strip())
            if defect < 0:
                raise DocumentError("defect %s=%d is negative"
                                    % (name.strip(), defect))
            doc.defects[name.strip()] = defect
    elif key == "claim":
        bits = [b.strip() for b in value.split("::")]
        if len(bits) != 3:
            raise DocumentError("claim needs selector :: kind :: payload")
        if bits[1] not in CLAIM_KINDS:
            raise DocumentError("unknown claim kind %r; one of %s"
                                % (bits[1], ", ".join(CLAIM_KINDS)))
        doc.claims = doc.claims + (Claim(*bits, lineno),)
    elif key not in _POLY_KEYS + _ANNOTATIONS:
        raise DocumentError("unknown key %r" % key)
