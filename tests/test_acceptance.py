"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions went through; all
tolerances are exact equality.  The corpus regression fixture runs the full
verifier once and later criteria read off its verdicts; so does the check of
every verdict against `golden/verify_all.json`.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sextics.catalog import (
    analyze_document,
    builtin_examples,
    verify_example,
)
from sextics.globalinv import corollary_ceiling, parse_config
from sextics.localsing import (
    analyze_germ,
    milnor_number_origin,
    resolve,
    intersection_multiplicity_origin,
    classify_germ,
)
from sextics.poly import Poly, parse_poly
from test_golden import VERDICTS, verdict_rows

XY = ("x", "y")


def g(text):
    return parse_poly(text, XY)


def _passed(n, message):
    print("\nACCEPTANCE %d PASS: %s" % (n, message))


@pytest.fixture(scope="module")
def verify_all():
    t0 = time.time()
    reports = {}
    for rec in builtin_examples():
        reports[rec.rid] = verify_example(rec)
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def pair_analyses():
    out = {}
    for rec in builtin_examples():
        doc = rec.doc
        if "f2" not in doc.polys:
            continue
        out[rec.rid] = analyze_document(doc, doc.generic or ())
    return out


def _claim_status(report, kind, payload_part, binding_part=None):
    for v in report.verdicts:
        if v.claim.kind != kind:
            continue
        if payload_part not in v.claim.payload:
            continue
        if binding_part is not None:
            flat = ",".join("%s=%s" % nv for nv in v.binding)
            if binding_part != flat:
                continue
        return v.status
    return None


def test_criterion_1_corpus_regression(verify_all):
    reports, elapsed = verify_all
    assert len(reports) >= 25
    mismatches = {rid: rep.counts()["mismatch"] for rid, rep in reports.items()
                  if rep.counts()["mismatch"]}
    assert not mismatches, mismatches
    assert _claim_status(reports["5.2-5"], "config", "C_{3,7},A_8,A_1") \
        == "verified"
    assert _claim_status(reports["5.2-17"], "config", "C_{3,15},A_1") \
        == "verified"
    assert _claim_status(reports["5.2-18"], "config", "B_{3,12}") == "verified"
    assert _claim_status(reports["5.2-18"], "factorization", "x^2 - y") \
        == "verified"
    assert _claim_status(reports["5.2-19"], "config", "D_{4,7},2A_2") \
        == "verified"
    assert _claim_status(reports["5.2-19"], "config", "D_{4,7},A_5", "s=0") \
        == "verified"
    assert elapsed <= 300, "verify --all took %.0fs" % elapsed
    _passed(1, "%d records verified with zero mismatches in %.0fs"
            % (len(reports), elapsed))


def test_verdicts_match_golden(verify_all):
    reports, _ = verify_all
    assert verdict_rows(reports) == json.loads(VERDICTS.read_text())


def test_criterion_2_paper_local_invariants():
    assert milnor_number_origin(g("y^3 + x^2*y^2 + x^9")) == 13
    assert milnor_number_origin(g("y^4 + x^3*y^2 + x^7")) == 16
    c37 = analyze_germ(g("y^3 + y^2*x^2 - x^7"))
    assert c37.delta == 6
    b36 = resolve(g("y^3 + x^6"))
    assert b36.branch_count == 3
    assert b36.contacts == (2, 2, 2)
    c38 = resolve(g("y^3 + y^2*x^2 - x^8"))
    assert c38.branch_count == 3
    assert c38.branches == ((1,),) * 3
    # contacts 2,2,3: unions give I(L2, L1 u L3) = 5 with (L1 u L3) = A_3
    # and I(L1, L2 u L3) = 4 with (L2 u L3) = A_5
    assert c38.contacts == (2, 2, 3)
    u = g("y + x^2")          # L1
    m23 = g("y^2 - x^6")      # L2 u L3 with contact 3 (A_5)
    assert classify_germ(m23).name() == "A_5"
    assert intersection_multiplicity_origin(u, m23) == 4
    l2 = g("y - x^3")
    l13 = g("(y + x^2)*(y + x^3)")
    assert classify_germ(l13).name() == "A_3"
    assert intersection_multiplicity_origin(l2, l13) == 5
    _passed(2, "mu(C_{3,9})=13, mu(D_{4,7})=16, delta(C_{3,7})=6, branch data")


def test_criterion_3_formula_cross_checks(pair_analyses):
    from sextics.globalinv import class_degree, genus

    class _LS:
        def __init__(self, mu, m, delta):
            self.mu, self.m, self.delta = mu, m, delta
            self.cluster_degree = 1

    assert class_degree(3, [_LS(1, 2, 1)]) == 4          # nodal cubic
    assert class_degree(3, []) == 6                      # smooth cubic
    assert class_degree(5, [_LS(2, 2, 1)] * 5) == 5      # 5-cuspidal quintic
    assert genus(3, []) == 1
    checked = 0
    for rid, an in pair_analyses.items():
        certified = all(c.genus is not None for c in an.components)
        for comp in an.components:
            assert comp.genus is None or comp.genus >= 0, (rid, comp.degree)
            checked += 1
        if not certified:
            # a Q-irreducible factor hid conjugate components (flagged by
            # its negative genus); the rational degree multiset is not the
            # geometric component type, so Corollary 1 does not read off it
            assert any("geometrically reducible" in n for n in an.notes), rid
            continue
        if len(an.degrees()) > 1:
            assert an.delta_star_total <= corollary_ceiling(an.degrees()), rid
    assert checked > 20
    _passed(3, "class formula, genus and Corollary-1 ceilings hold"
            " on %d components" % checked)


def test_criterion_4_milnor_consistency(pair_analyses):
    points = 0
    for rid, an in pair_analyses.items():
        for ls in an.sings:
            assert ls.mu == 2 * ls.delta - ls.r + 1, (rid, str(ls.point))
            points += 1
    assert points >= 40
    _passed(4, "mu = 2 delta - r + 1 on %d corpus singularities" % points)


def test_criterion_5_torus_laws(verify_all, pair_analyses):
    reports, _ = verify_all
    assert _claim_status(reports["remark-c39"], "same-curve", "") == "verified"
    pairs = 0
    for rid, an in pair_analyses.items():
        assert an.split is not None
        total = an.split.iota_total()
        assert total == 6, (rid, total)
        for p, iota, status, t in an.star_report:
            assert status in ("ok", "exempt"), (rid, str(p), iota, str(t))
        pairs += 1
    assert pairs >= 20
    _passed(5, "Remark pairs agree; sum of inner iota = 6 and the"
            " A_{6j-1} law holds on %d pairs" % pairs)


def test_criterion_6_appendix_normal_forms(verify_all):
    reports, _ = verify_all
    assert _claim_status(reports["app-3a5"], "restriction-y0", "x^2") \
        == "verified"
    for rid, want in (("app-3a5", "A_5"), ("app-a11a5", "A_11"),
                      ("app-a17", "A_17")):
        verdicts = [v for v in reports[rid].verdicts
                    if v.claim.kind == "type-at"]
        bindings = {v.binding for v in verdicts}
        assert len(bindings) >= 3, rid
        assert all(v.status == "verified" for v in verdicts), rid
        assert any(want in v.claim.payload for v in verdicts)
    _passed(6, "three normal forms verified at three seeded bindings each;"
            " the 3A5 restriction identity holds for all parameters")


def test_criterion_7_degeneration_jumps(verify_all):
    reports, _ = verify_all
    assert _claim_status(reports["5.3-8"], "config", "A_11,2A_2,A_3") \
        == "verified"
    assert _claim_status(reports["5.3-8"], "config", "A_11,2A_2,D_4", "s=1") \
        == "verified"
    assert _claim_status(reports["5.2-13a"], "config", "C_{3,12},A_2,2A_1",
                         "u=1") == "verified"
    assert _claim_status(reports["5.2-16"], "degrees", "3,3") == "verified"
    assert _claim_status(reports["5.2-16"], "config", "C_{6,12},A_1", "s=1") \
        == "verified"
    assert _claim_status(reports["5.2-16"], "degrees", "1,2,3", "s=1") \
        == "verified"
    _passed(7, "degeneration jumps of 5.3-8, 5.2-13 and 5.2-16 reproduce")


def test_criterion_8_property_suites_standalone():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed <= 120, "property suites took %.0fs" % elapsed
    _passed(8, "property suites green standalone in %.0fs" % elapsed)
