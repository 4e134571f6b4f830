"""Command-line front end.

Subcommands:

    analyze <file> [--json]           full pipeline on one curve document
    verify <id> | --all [--json] [--seed N] [--quiet] [--jobs N]
                                      replay catalog examples against claims
    catalog list | show <config> | groups
    sweep <file> --param s --values 2,1 [--json]

Exit status: 0 all claims verified, 1 mismatch, 2 usage or parse error (or
a field tower beyond degree 12, or the output pipe closed early), 3 internal
consistency error (the delta cross-check, in any subcommand: a verify
record or a sweep value that fails it ends the run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .analysis import CurveAnalysis
from .catalog import (
    analyze_document,
    builtin_catalog,
    builtin_examples,
    verify_example,
    weak_zariski_groups,
)
from .docs import DocumentError, parse_document
from .globalinv import parse_config
from .localsing.classify import ConsistencyError
from .poly import PolyError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _print(out, line=""):
    out.write(line + "\n")


def _analysis_dict(an: CurveAnalysis) -> dict:
    d = {
        "curve": str(an.f),
        "chart": list(an.chart),
        "configuration": str(an.config),
        "maximal_rank": an.config.mr,
        "total_milnor": an.config.total_milnor,
        "component_degrees": list(an.degrees()),
        "delta_star": an.delta_star_total,
        "delta_star_ceiling": an.delta_star_ceiling,
        "notes": list(an.notes),
        "points": [],
        "components": [],
    }
    for ls in an.sings:
        d["points"].append({
            "point": str(ls.point),
            "cluster_degree": ls.cluster_degree,
            "type": str(ls.sing_type),
            "m": ls.m, "mu": ls.mu, "r": ls.r, "delta": ls.delta,
            "mult_sequence": list(ls.mult_sequence),
            "branch_contacts": list(ls.branch_contacts),
        })
    for c in an.components:
        d["components"].append({
            "component": str(c.poly),
            "degree": c.degree,
            "sigma": [str(ls.sing_type) for ls in c.sings],
            "genus": c.genus,
            "class_degree": c.class_degree,
            "delta_star": c.delta_star,
            "flex_count": c.flexes,
            "notes": list(c.notes),
        })
    if an.split is not None:
        d["inner"] = [{"point": str(ls.point), "iota": i}
                      for ls, i, _smooth in an.split.inner]
        d["outer"] = [str(p) for p in an.split.outer]
        d["star_law"] = [{"point": str(p), "iota": i, "status": st,
                          "type": str(t)} for p, i, st, t in an.star_report]
    return d


def _render_analysis(an: CurveAnalysis, as_json: bool, out):
    if as_json:
        _print(out, json.dumps(_analysis_dict(an), indent=2, sort_keys=True))
        return
    _print(out, "curve: %s" % an.f)
    if an.chart != (0, 0):
        _print(out, "chart: rotated by %r" % (an.chart,))
    _print(out, "configuration: %s" % (an.config,))
    _print(out, "total Milnor number: %d" % an.config.total_milnor)
    _print(out, "maximal rank: %s" % ("yes" if an.config.mr else "no"))
    _print(out, "singular points:")
    for ls in an.sings:
        extra = " (x%d conjugates)" % ls.cluster_degree \
            if ls.cluster_degree > 1 else ""
        _print(out, "  %s%s" % (ls.describe(), extra))
    if an.split is not None:
        inner = ", ".join("%s iota=%d" % (ls.point, i)
                          for ls, i, _smooth in an.split.inner)
        _print(out, "inner points: %s" % (inner or "none"))
        outer = ", ".join(str(p) for p in an.split.outer)
        _print(out, "outer points: %s" % (outer or "none"))
        for p, i, status, t in an.star_report:
            _print(out, "  star law at %s: iota=%d type=%s -> %s"
                   % (p, i, t, status))
    _print(out, "component degrees: %s" % (list(an.degrees()),))
    for c in an.components:
        sigma = ",".join(str(ls.sing_type) for ls in c.sings) or "smooth"
        flex = "" if c.flexes is None else " flexes=%d" % c.flexes
        _print(out, "  degree %d: Sigma=[%s] genus=%s n*=%s delta*=%d%s  %s"
               % (c.degree, sigma, c.genus, c.class_degree, c.delta_star,
                  flex, c.poly))
        for note in c.notes:
            _print(out, "    note: %s" % note)
    _print(out, "delta* total %d (Corollary ceiling %d)"
           % (an.delta_star_total, an.delta_star_ceiling))
    for note in an.notes:
        _print(out, "note: %s" % note)


def _read_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except UnicodeDecodeError as err:
        raise DocumentError("%s is not UTF-8 text: %s" % (path, err))


def cmd_analyze(args, out) -> int:
    doc = _read_document(args.file)
    binding = doc.generic or ()
    an = analyze_document(doc, binding)
    _render_analysis(an, args.json, out)
    return EXIT_OK


def _verify_worker(job):
    rid, seed = job
    recs = {r.rid: r for r in builtin_examples()}
    return rid, verify_example(recs[rid], seed=seed)


def cmd_verify(args, out) -> int:
    if args.jobs < 1:
        _print(out, "error: --jobs must be at least 1, not %d" % args.jobs)
        return EXIT_USAGE
    if args.all and args.id:
        _print(out, "error: verify takes an id or --all, not both")
        return EXIT_USAGE
    if not args.all and not args.id:
        _print(out, "error: verify needs an id or --all")
        return EXIT_USAGE
    records = builtin_examples()
    if not args.all:
        wanted = {r.rid for r in records}
        if args.id not in wanted:
            _print(out, "error: unknown example id %r" % args.id)
            return EXIT_USAGE
        records = [r for r in records if r.rid == args.id]
    records = sorted(records, key=lambda r: r.rid)
    jobs = [(r.rid, args.seed) for r in records]
    reports = {}
    if args.jobs > 1 and len(jobs) > 1:
        # records are independent; reports are merged in id order below.
        # The pool starts all of its workers at once, so it gets no more
        # than there are records.
        import multiprocessing
        with multiprocessing.Pool(min(args.jobs, len(jobs))) as pool:
            for rid, rep in pool.imap_unordered(_verify_worker, jobs):
                reports[rid] = rep
    else:
        for job in jobs:
            rid, rep = _verify_worker(job)
            reports[rid] = rep
    any_mismatch = False
    totals = {"verified": 0, "mismatch": 0, "unverifiable": 0}
    results = []
    for rec in records:
        rep = reports[rec.rid]
        c = rep.counts()
        for k in totals:
            totals[k] += c[k]
        if not rep.clean():
            any_mismatch = True
        results.append((rec, rep))
    if args.json:
        payload = []
        for rec, rep in results:
            payload.append({
                "id": rec.rid,
                "source": rec.doc.source,
                "counts": rep.counts(),
                "claims": [{"kind": v.claim.kind, "payload": v.claim.payload,
                            "binding": ["%s=%s" % nv for nv in v.binding],
                            "status": v.status, "detail": v.detail}
                           for v in rep.verdicts],
            })
        _print(out, json.dumps({"seed": args.seed, "records": payload,
                                "totals": totals}, indent=2, sort_keys=True))
    else:
        for rec, rep in results:
            c = rep.counts()
            _print(out, "%-12s %-55s verified=%d mismatch=%d unverifiable=%d"
                   % (rec.rid, rec.doc.source[:55], c["verified"],
                      c["mismatch"], c["unverifiable"]))
            if not args.quiet:
                for v in rep.verdicts:
                    _print(out, "    " + v.line())
        _print(out, "seed: %d" % args.seed)
        _print(out, "totals: %r" % (totals,))
    return EXIT_MISMATCH if any_mismatch else EXIT_OK


def _component_label(component_type) -> str:
    """A component type in the catalog's notation, e.g. B2+B4."""
    return "+".join("B%d" % d for d in component_type)


def cmd_catalog(args, out) -> int:
    if args.what == "show" and not args.config:
        _print(out, "error: catalog show needs a configuration")
        return EXIT_USAGE
    entries = builtin_catalog()
    if args.what == "list":
        for e in entries:
            comp = _component_label(e.component_type)
            _print(out, "T%d %-28s %-18s inner=%s%s"
                   % (e.theorem, e.reduced, comp, e.inner.format(with_tags=False),
                      "" if e.strength == "exampled" else "  (asserted)"))
        _print(out, "total: %d entries" % len(entries))
        return EXIT_OK
    if args.what == "show":
        try:
            want = parse_config(args.config)
        except PolyError as err:
            _print(out, "error: bad configuration: %s" % err)
            return EXIT_USAGE
        found = [e for e in entries if e.reduced.multiset() == want.multiset()]
        for e in found:
            comp = _component_label(e.component_type)
            _print(out, "T%d %s with C=%s (inner %s, %s)"
                   % (e.theorem, e.reduced, comp,
                      e.inner.format(with_tags=False), e.strength))
            for d, cfg in e.component_sigma:
                _print(out, "    Sigma(B%d) = %s" % (d, cfg.format(with_tags=False)))
            if e.intersection:
                _print(out, "    intersections: %s" % e.intersection)
        _print(out, "%d matching entries" % len(found))
        return EXIT_OK
    if args.what == "groups":
        for g in weak_zariski_groups(entries):
            extra = " (+ irreducible)" if g["implied_irreducible"] else ""
            _print(out, "%-28s %d realizations%s"
                   % (g["reduced"], g["realizations"], extra))
            for e in g["rows"]:
                comp = _component_label(e.component_type)
                _print(out, "    %s with C=%s" % (e.reduced, comp))
        return EXIT_OK
    return EXIT_USAGE


def cmd_sweep(args, out) -> int:
    doc = _read_document(args.file)
    if args.param not in doc.params:
        _print(out, "error: parameter %r not declared in the document"
               % args.param)
        return EXIT_USAGE
    try:
        values = [Fraction(v.strip()) for v in args.values.split(",")]
    except (ValueError, ZeroDivisionError):
        _print(out, "error: bad values list %r" % args.values)
        return EXIT_USAGE
    rows = []
    for v in values:
        binding = ((args.param, v),)
        try:
            an = analyze_document(doc, binding)
            rows.append((v, str(an.config), list(an.degrees()), None))
        except ConsistencyError:
            raise
        except (PolyError, DocumentError) as err:
            rows.append((v, None, None, "degenerate: %s" % err))
    jumps = []
    for (v1, c1, d1, e1), (v2, c2, d2, e2) in zip(rows, rows[1:]):
        if e1 is None and e2 is None and (c1 != c2 or d1 != d2):
            jumps.append((v1, v2))
    if args.json:
        _print(out, json.dumps({
            "param": args.param,
            "rows": [{"value": str(v), "configuration": c, "degrees": d,
                      "status": e or "ok"} for v, c, d, e in rows],
            "jumps": [["%s" % a, "%s" % b] for a, b in jumps],
        }, indent=2, sort_keys=True))
        return EXIT_OK
    for v, c, d, e in rows:
        if e is not None:
            _print(out, "%s = %-8s %s" % (args.param, v, e))
        else:
            _print(out, "%s = %-8s %-30s degrees %s" % (args.param, v, c, d))
    for a, b in jumps:
        _print(out, "jump between %s = %s and %s = %s"
               % (args.param, a, args.param, b))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="structured output")
    ap = argparse.ArgumentParser(
        prog="sextics",
        description="exact analysis of singular plane sextics of torus type")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("analyze", help="analyze a curve document",
                       parents=[as_json])
    p.add_argument("file")
    p = sub.add_parser("verify", help="verify catalog examples",
                       parents=[as_json])
    p.add_argument("id", nargs="?", help="example id, e.g. 5.2-5")
    p.add_argument("--all", action="store_true", help="verify every example")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generic parameter sampling")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-claim lines")
    p.add_argument("--jobs", type=int, default=1,
                   help="verify records in parallel")
    p = sub.add_parser("catalog", help="inspect the classification catalog")
    p.add_argument("what", choices=["list", "show", "groups"])
    p.add_argument("config", nargs="?", help="configuration for 'show'")
    p = sub.add_parser("sweep", help="instantiate a family along values",
                       parents=[as_json])
    p.add_argument("file")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    return ap


def _dispatch(args, out) -> int:
    if args.command == "analyze":
        return cmd_analyze(args, out)
    if args.command == "verify":
        return cmd_verify(args, out)
    if args.command == "catalog":
        return cmd_catalog(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    return EXIT_USAGE


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = sys.stdout
    try:
        code = _dispatch(args, out)
        # a reader that has gone shows here at the latest, not at exit
        out.flush()
        return code
    except BrokenPipeError:
        # write nothing more; what is left in the buffer goes to the null
        # device when the interpreter flushes stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ConsistencyError as err:
        _print(out, "internal consistency error: %s" % err)
        return EXIT_INTERNAL
    except (PolyError, DocumentError, OSError) as err:
        _print(out, "error: %s" % err)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
