"""Golden `analyze --json` output for the twelve torus-pair records, and
golden verdicts of `verify --all`.

`golden/analyze_pairs.json` holds `cli._analysis_dict` of each record's
generic samples (seed 0) and listed parameter values.  It pins what no
verdict checks: the per-point invariants and, for each component, its
Sigma, genus, class degree and delta*.

`golden/verify_all.json` holds one row (id, kind, payload, binding, status,
detail) per verdict of `verify --all` at seed 0.  `tests/test_acceptance.py`
checks it against the corpus run it makes anyway.

Regenerate both only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from sextics.catalog import _generic_samples, analyze_document, \
    builtin_examples, verify_example
from sextics.cli import _analysis_dict

GOLDEN = Path(__file__).parent / "golden" / "analyze_pairs.json"
VERDICTS = Path(__file__).parent / "golden" / "verify_all.json"
RECORDS = ("5.2-1", "5.2-2", "5.2-3", "5.2-5", "5.2-7", "5.2-8", "5.2-9",
           "5.2-12", "5.2-13a", "5.2-18", "remark-c39", "syn-b66")


def _bindings(doc):
    out = list(_generic_samples(doc, 0))
    out += [v for v in doc.values if v not in out]
    return out or [()]


def verdict_rows(reports):
    """[id, kind, payload, binding, status, detail] of every verdict, for
    reports {id: VerdictReport} in corpus order."""
    return [[rid, v.claim.kind, v.claim.payload,
             ",".join("%s=%s" % nv for nv in v.binding), v.status, v.detail]
            for rid, rep in reports.items() for v in rep.verdicts]


def record_dicts(rid):
    doc = {r.rid: r for r in builtin_examples()}[rid].doc
    return {",".join("%s=%s" % nv for nv in b) or "*":
            _analysis_dict(analyze_document(doc, b))
            for b in _bindings(doc)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("rid", RECORDS)
def test_analysis_matches_golden(golden, rid):
    assert record_dicts(rid) == golden[rid]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({rid: record_dicts(rid) for rid in RECORDS},
                                 indent=1, sort_keys=True) + "\n")
    rows = verdict_rows({rec.rid: verify_example(rec)
                         for rec in builtin_examples()})
    VERDICTS.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows)
                        + "\n]\n")
