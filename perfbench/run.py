"""Benchmark of the sextics pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-pairs --seed 0 --seconds 15 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The run sets up (import, corpus and catalog parsing,
input building), then makes the workload's passes in turn, one item at a
time, until another pass would end after `--seconds` (at least one round
of the workload's passes).  Every item's output is checked.

Item times are normalized for the machine's drifting speed (see speed.py)
and reported in `ref_s`, reference seconds; the raw seconds are printed
beside them.  `setup_s` is scaled the same way but keeps the unit `s`;
`peak_rss_mb` is raw.

The last line printed is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the workload's first pass is made twice, untraced and then
traced, and the metrics are the per-layer ones plus the tracing
overhead.  Spans are then written to `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 3
# reference samples during set-up, which takes under a second
SETUP_PERIOD = 0.05

# Modules of every layer the benchmark times or traces; importing them is
# part of set-up.
MODULES = ["sextics", "sextics.catalog", "sextics.docs", "sextics.analysis",
           "sextics.localsing.points", "sextics.localsing.resolve",
           "sextics.localsing.germs", "sextics.localsing.classify",
           "sextics.poly", "sextics.numfield", "sextics.components",
           "sextics.globalinv", "sextics.torus", "sextics.cli"]


def setup(workload: str, seed: int):
    """Import the package, parse its data and build the inputs, sampling
    the reference computation meanwhile.

    Returns {"setup_s": seconds taken, "scaled": the same scaled to the
    reference's nominal speed} and the passes.
    """
    with speed.Speedometer(SETUP_PERIOD) as meter:
        passes, exc, raw, start, end = meter.time(_setup, workload, seed)
    if exc is not None:
        raise exc
    return {"setup_s": raw, "scaled": meter.normalize(raw, start, end)}, \
        passes


def _setup(workload: str, seed: int):
    sys.path.insert(0, SRC)
    for name in MODULES:
        importlib.import_module(name)
    from sextics import catalog
    from sextics.localsing import classify
    catalog.builtin_catalog()
    catalog.builtin_examples()
    classify.classify_signature(())      # loads the signature table
    import workloads
    return workloads.build(workload, seed)


def run_passes(passes, seconds: float, meter, count=None, tracer=None):
    """Whole passes, taken from `passes` in turn and timed by `meter`.

    Returns one list of samples per pass made, each sample
    (item_id, raw s, normalized s, outcome, error).  Makes `count` passes
    when given, else at least one of each and then more until another
    would end after `seconds`.
    """
    rounds = []
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        samples = []
        for item_id, run in passes[done % len(passes)]:
            if tracer is not None:
                tracer.item = "%d:%s" % (done, item_id)
            result, exc, raw, t0, t1 = meter.time(run)
            if exc is not None:
                outcome, error = None, "".join(
                    traceback.format_exception(exc))
            else:
                outcome, error = result
            samples.append((item_id, raw, (t0, t1), outcome, error))
        rounds.append(samples)
        done += 1
        now = time.perf_counter()
        if count is not None:
            if done == count:
                break
        elif done >= len(passes) and \
                now - start + (now - pass_start) > seconds:
            break
    return [[(item_id, raw, meter.normalize(raw, *span), outcome, error)
             for item_id, raw, span, outcome, error in samples]
            for samples in rounds]


def flat(rounds) -> list:
    return [s for samples in rounds for s in samples]


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond it) of one pass: the highest
    percentile that leaves at least ten samples beyond it, by nearest rank.
    Below 20 items that percentile would not exceed the median, so the
    maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def timings(rounds, column: int) -> dict:
    """Rate (items per second of item time), median and tail of one
    latency column of the samples; the tail is the median of the passes'
    tails."""
    latencies = [s[column] for s in flat(rounds)]
    return {"items_per_s": len(latencies) / sum(latencies),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": statistics.median(
                tail([s[column] for s in samples])[0]
                for samples in rounds)}


def setup_child(workload: str, seed: int, importtime=False):
    """Set up in a fresh interpreter: (setup seconds, -X importtime output)."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.abspath(__file__), "--setup-only", "--workload", workload,
        "--seed", str(seed)]
    # on a timeout, run() kills the child and waits for it
    child = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if child.returncode != 0:
        raise RuntimeError("set-up in a child failed (exit %d): %s"
                           % (child.returncode, child.stderr[-500:]))
    return json.loads(child.stdout.splitlines()[-1]), child.stderr


def import_times(stderr: str) -> tuple:
    """(seconds importing sextics and what it pulls in, seconds importing
    sympy), read off `python -X importtime` output."""
    total = sympy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        nested = name[1:] != name.lstrip()
        name = name.strip()
        if not nested and (name == "sextics" or name.startswith("sextics.")):
            total += int(cumulative)
        if name == "sympy":
            sympy += int(cumulative)
    return total / 1e6, sympy / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.NAMES)))
    if not os.path.isfile(os.path.join(SRC, "sextics", "__init__.py")):
        print("no sextics sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    # one processor for the whole run, so that the reference samples
    # (speed.py) run on the processor the items run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.setup_only:
        taken, _passes = setup(args.workload, args.seed)
        print(json.dumps(taken))
        return 0

    # build step: byte-compile once, so set-up never times compilation
    compileall.compile_dir(SRC, quiet=1)
    taken, passes = setup(args.workload, args.seed)
    print("workload: %s  seed: %d  passes: %d of %s items"
          % (args.workload, args.seed, len(passes),
             "/".join(str(len(items)) for items in passes)))
    if args.trace:
        return traced_run(args, passes)

    setups = [taken] + [setup_child(args.workload, args.seed)[0]
                        for _ in range(SETUP_SAMPLES - 1)]
    with speed.Speedometer() as meter:
        rounds = run_passes(passes, args.seconds, meter)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    norm = timings(rounds, 2)
    metrics = {"setup_s": (statistics.median(s["scaled"] for s in setups),
                           "s"),
               "items_per_s": (norm["items_per_s"], "1/ref_s"),
               "item_p50_s": (norm["item_p50_s"], "ref_s"),
               "item_tail_s": (norm["item_tail_s"], "ref_s"),
               "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    samples = flat(rounds)
    failed = report_failures(samples)
    for name, (value, unit) in metrics.items():
        print("%-14s %.6g %s" % (name, value, unit))
    print("%-14s %.6g %s" % ("failed_ratio", failed / len(samples), "ratio"))
    for item_id, raw_s, norm_s, _outcome, _error in samples:
        print("item %-22s %.4f s  %.4f ref_s" % (item_id, raw_s, norm_s))
    raw = timings(rounds, 1)
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    print("raw seconds:   " + "  ".join("%s %.6g" % kv for kv in raw.items()))
    _tail_s, pct, beyond = tail([s[2] for s in rounds[0]])
    print("passes: %d  samples: %d  tail: p%.1f of each pass (%d beyond),"
          " median over passes" % (len(rounds), len(samples), pct, beyond))
    emit(samples, failed, metrics)
    return 0


def traced_run(args, passes) -> int:
    """Untraced passes, then the same passes traced; per-layer metrics.
    Only the workload's first pass is made, to keep the run short."""
    import tracer as tracing
    with speed.Speedometer() as meter:
        plain = run_passes(passes[:1], args.seconds / 2, meter)
        with tracing.Tracer() as tr:
            traced = run_passes(passes[:1], 0, meter, len(plain), tr)
    made = len(plain)
    plain, traced = flat(plain), flat(traced)
    mismatched = [a[0] for a, b in zip(plain, traced) if a[3] != b[3]]
    if mismatched:
        print("traced outcomes differ from untraced ones: %s"
              % ", ".join(mismatched), file=sys.stderr)
    samples = plain + traced
    failed = report_failures(samples) + len(mismatched)

    metrics = tr.layer_metrics(len(traced))
    _taken, err = setup_child(args.workload, args.seed, importtime=True)
    import_s, sympy_s = import_times(err)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.sympy_import_s"] = (sympy_s, "s")
    plain_rate = timings([plain], 2)["items_per_s"]
    traced_rate = timings([traced], 2)["items_per_s"]
    metrics["trace.items_per_s_untraced"] = (plain_rate, "1/ref_s")
    metrics["trace.items_per_s_traced"] = (traced_rate, "1/ref_s")
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "ratio")
    coverage = metrics["analysis.analyze_curve.stage_coverage"][0]
    if args.workload == "verify-pairs" and coverage < 0.95:
        print("stage spans cover only %.1f%% of analyze_curve"
              % (100 * coverage), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-56s %.6g %s" % (name, value, unit))

    path = os.path.join(WORKDIR, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": made, "fields": ["name", "start", "end",
                                                "parent", "item"],
                   "spans": tr.spans,
                   "items": [list(s[:3]) for s in traced],
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}}, fh)
    print("spans: %d written to %s" % (len(tr.spans),
                                       os.path.relpath(path, ROOT)))
    emit(samples, failed, metrics)
    return 0


def report_failures(samples) -> int:
    failed = 0
    for item_id, _raw, _norm, _outcome, error in samples:
        if error is not None:
            failed += 1
            print("FAILED %s: %s" % (item_id, error), file=sys.stderr)
    return failed


def emit(samples, failed, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
