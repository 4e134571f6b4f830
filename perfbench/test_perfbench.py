"""Tests of the benchmark's own machinery (tracer, inputs, statistics)."""

import sys

import run
import tracer
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def _record(rid):
    from sextics import catalog
    return {r.rid: r for r in catalog.builtin_examples()}[rid]


def test_traced_record_matches_untraced_and_stages_cover_curve():
    from sextics import analysis, catalog
    from sextics.localsing import points
    rec = _record("5.2-5")
    plain = catalog.verify_example(rec)
    with tracer.Tracer() as tr:
        traced = catalog.verify_example(rec)
    assert [v.status for v in traced.verdicts] == \
        [v.status for v in plain.verdicts] == ["verified", "verified"]
    assert analysis.singular_points is points.singular_points
    metrics = tr.layer_metrics(1)
    assert metrics["catalog.verify_example.calls"] == (1, "calls/item")
    # the stage spans leave at most 5% of analyze_curve to its own body
    assert metrics["analysis.analyze_curve.stage_coverage"][0] >= 0.95
    assert metrics["localsing.classify.analyze_point.calls_curve"][0] >= 1
    assert metrics["poly.is_squarefree.calls_per_analysis"][0] >= 1
    assert metrics["poly.resultant.sylvester_rows"][0] > 0


def test_germ_inputs_are_seeded_and_keep_the_multiplicity():
    first = workloads.germ_inputs(0)
    assert [(g, t, str(p)) for g, t, p in first] == \
        [(g, t, str(p)) for g, t, p in workloads.germ_inputs(0)]
    other = workloads.germ_inputs(1)
    assert [g for g, _t, _p in other] == [g for g, _t, _p in first]
    assert [str(p) for *_x, p in other] != [str(p) for *_x, p in first]
    normal = {t: p for g, t, p in first if g.endswith("/nf")}
    perturbed = [(t, p) for g, t, p in first if "/p" in g]
    assert len(normal) == 48 and len(perturbed) == 36
    for t, p in perturbed:
        assert p.lowest_degree() == normal[t].lowest_degree()
        assert p.evaluate({"x": 0, "y": 0}) == 0


def test_perturbed_germ_keeps_its_type():
    from sextics.localsing import classify
    germ = dict((g, p) for g, _t, p in workloads.germ_inputs(3))["E_6/p1"]
    assert classify.analyze_germ(germ).sing_type.name() == "E_6"


def test_tail_percentile():
    values = [float(i) for i in range(1, 31)]
    assert run.tail(values) == (20.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tail_is_the_median_of_the_passes_tails():
    def pass_of(*latencies):
        return [("item", s, s, None, None) for s in latencies]

    rounds = [pass_of(1.0, 4.0, 2.0), pass_of(1.0, 2.0, 6.0)]
    got = run.timings(rounds, 2)
    assert got["item_tail_s"] == 5.0
    assert got["item_p50_s"] == 2.0
    assert got["items_per_s"] == 6 / 16.0


def test_family_passes_use_two_sample_sets():
    passes = workloads.build("verify-families", 3)
    assert [[i for i, _run in items] for items in passes] == \
        [[rid + "@3" for rid in workloads.FAMILIES],
         [rid + "@7" for rid in workloads.FAMILIES]]


def test_import_times_reads_top_level_sextics_and_sympy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | json",
        "import time:       300 |     300000 |     sympy",
        "import time:       200 |     400000 | sextics",
        "import time:        50 |         50 |   sextics.docs",
        "import time:        70 |       1000 | sextics.catalog",
    ])
    assert run.import_times(stderr) == (0.401, 0.3)


def test_speedometer_takes_its_samples_out_of_the_item():
    import time

    import speed

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    with speed.Speedometer(period=0.02) as meter:
        result, error, raw, start, end = meter.time(busy, 0.2)
        samples = len(meter.samples)
        failure = meter.time(lambda: 1 / 0)[1]
    norm = meter.normalize(raw, start, end)
    assert (result, error) == ("done", None)
    assert samples > 3                 # before, during and after the item
    # the handler's samples ran inside the busy loop's deadline, so the
    # item's own time is what is left of 0.2 s
    assert 0.05 < raw <= 0.2
    assert norm > 0
    assert isinstance(failure, ZeroDivisionError)
    # the sample taken after an item is not part of it
    with speed.Speedometer(period=10) as meter:
        _, _, raw, start, end = meter.time(busy, 0.05)
    assert 0.05 <= raw <= end - start
