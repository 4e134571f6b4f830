"""Span tracing of the sextics pipeline from outside the package.

Callers inside sextics bind functions by name at import time
(`from .poly import resultant`), so a layer is traced by replacing the
function in every namespace its callers look it up in.  Patching only the
defining module would time nothing.  The package itself is not changed;
`Tracer.uninstall` puts every original back.

A span is `[name, start, end, parent span id, item id]`; spans are kept in
memory and written out by the runner when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Each layer: (defining module, attribute, namespaces whose callers use it).
# The stage functions of `analysis.analyze_curve` are patched in
# `sextics.analysis`, which is where that function looks them up.
LAYERS = [
    ("sextics.catalog", "verify_example", ("sextics.catalog",)),
    ("sextics.docs", "CurveDocument.instantiate", ("sextics.docs",)),
    ("sextics.analysis", "analyze_curve", ("sextics.catalog",)),
    ("sextics.poly", "is_squarefree",
     ("sextics.analysis", "sextics.localsing.points")),
    ("sextics.localsing.points", "singular_points", ("sextics.analysis",)),
    ("sextics.globalinv", "good_affine_chart", ("sextics.analysis",)),
    ("sextics.localsing.classify", "analyze_point", ("sextics.analysis",)),
    ("sextics.torus", "inner_outer_split", ("sextics.analysis",)),
    ("sextics.torus", "verify_inner_correspondence", ("sextics.analysis",)),
    ("sextics.components", "decompose", ("sextics.analysis",)),
    ("sextics.analysis", "_component_report", ("sextics.analysis",)),
    ("sextics.localsing.classify", "analyze_germ",
     ("sextics.localsing.classify",)),
    ("sextics.localsing.resolve", "resolve", ("sextics.localsing.classify",)),
    ("sextics.localsing.germs", "milnor_number_origin",
     ("sextics.localsing.classify",)),
    ("sextics.poly", "resultant",
     ("sextics.localsing.points", "sextics.numfield", "sextics.components")),
    ("sextics.poly", "unipoly_gcd",
     ("sextics.poly", "sextics.localsing.points", "sextics.numfield")),
    ("sextics.numfield", "factor_rational",
     ("sextics.numfield", "sextics.localsing.points", "sextics.components")),
    # singular_points imports factor_over_field inside the function body,
    # so it reads the attribute of sextics.numfield at call time
    ("sextics.numfield", "factor_over_field",
     ("sextics.numfield", "sextics.localsing.resolve",
      "sextics.localsing.germs")),
    ("sextics.numfield", "extend_field",
     ("sextics.localsing.points", "sextics.localsing.resolve")),
]

# analyze_curve's direct child spans are its stages; their sum over its
# total time is the stage coverage.
CURVE = "analysis.analyze_curve"
ANALYZE_POINT = "localsing.classify.analyze_point"
COMPONENT_REPORT = "analysis._component_report"


def layer_name(module: str, attr: str) -> str:
    return module[len("sextics."):] + "." + attr


def _resolve_attr(owner, dotted: str):
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans and result counters for the functions in LAYERS."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._patches: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)

    # -- installation ------------------------------------------------------

    def install(self):
        for module, attr, namespaces in LAYERS:
            owner, leaf = _resolve_attr(importlib.import_module(module), attr)
            original = getattr(owner, leaf)
            wrapper = self._wrap(layer_name(module, attr), original)
            for ns in namespaces:
                target, tleaf = _resolve_attr(importlib.import_module(ns),
                                              attr)
                if getattr(target, tleaf) is not original:
                    raise RuntimeError("%s.%s is not %s.%s; the layer table"
                                       " is out of date" % (ns, attr, module,
                                                            attr))
                self._patches.append((target, tleaf, original))
                setattr(target, tleaf, wrapper)

    def uninstall(self):
        while self._patches:
            target, leaf, original = self._patches.pop()
            setattr(target, leaf, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}, per traced item.

        Self time is a span's duration minus its direct children's; total
        time counts only the outermost span of a name, so recursion is not
        counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _item in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        by_parent = defaultdict(int)
        for sid, (name, start, end, parent, _item) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[sid]
            if not self._has_ancestor(sid, name):
                total[name] += end - start
            by_parent[name, spans[parent][0] if parent >= 0 else None] += 1
        out = {}
        for module, attr, _ns in LAYERS:
            name = layer_name(module, attr)
            out[name + ".calls"] = (calls[name] / items, "calls/item")
            out[name + ".total_s"] = (total[name] / items, "s/item")
            out[name + ".self_s"] = (self_time[name] / items, "s/item")
        out[CURVE + ".stage_coverage"] = (
            1.0 - self_time[CURVE] / total[CURVE] if total[CURVE] else 0.0,
            "ratio")
        out[ANALYZE_POINT + ".calls_curve"] = (
            by_parent[ANALYZE_POINT, CURVE] / items, "calls/item")
        out[ANALYZE_POINT + ".calls_component"] = (
            by_parent[ANALYZE_POINT, COMPONENT_REPORT] / items, "calls/item")
        # above 1: a re-run after a chart rotation / a repeated check
        for name in ("localsing.points.singular_points", "poly.is_squarefree"):
            out[name + ".calls_per_analysis"] = (
                calls[name] / calls[CURVE] if calls[CURVE] else 0.0,
                "calls/analysis")
        for key, value in self.counters.items():
            out[key] = (value / items, "count/item")
        for key, value in self.maxima.items():
            out[key] = (value, "max")
        return out

    def _has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# -- counters read off arguments and results --------------------------------

def _obs_points(tr, _args, result):
    tr.counters["localsing.points.singular_points.points"] += len(result)
    for p in result:
        key = "localsing.points.singular_points.max_cluster_degree"
        tr.maxima[key] = max(tr.maxima[key], p.degree)


def _obs_resultant(tr, args, _result):
    p, q, var = args[:3]
    key = "poly.resultant.sylvester_rows"
    tr.maxima[key] = max(tr.maxima[key], p.degree_in(var) + q.degree_in(var))


def _obs_extend(tr, _args, result):
    key = "numfield.extend_field.max_degree"
    tr.maxima[key] = max(tr.maxima[key], result[0].degree)


def _obs_chart(tr, _args, result):
    tr.counters["globalinv.good_affine_chart.rotated"] += result[0] != (0, 0)


def _obs_resolve(tr, _args, result):
    tr.counters["localsing.resolve.capped"] += bool(result.tower_capped)


def _obs_milnor(tr, _args, result):
    tr.counters["localsing.germs.milnor_number_origin.mu_sum"] += result


def _obs_decompose(tr, _args, result):
    tr.counters["components.decompose.factors"] += len(result.factors)


_OBSERVERS = {
    "localsing.points.singular_points": _obs_points,
    "poly.resultant": _obs_resultant,
    "numfield.extend_field": _obs_extend,
    "globalinv.good_affine_chart": _obs_chart,
    "localsing.resolve.resolve": _obs_resolve,
    "localsing.germs.milnor_number_origin": _obs_milnor,
    "components.decompose": _obs_decompose,
}

# Counter metrics always reported, so every traced run prints the same keys.
COUNTERS = [
    "localsing.points.singular_points.points",
    "globalinv.good_affine_chart.rotated",
    "localsing.resolve.capped",
    "localsing.germs.milnor_number_origin.mu_sum",
    "components.decompose.factors",
]
MAXIMA = [
    "localsing.points.singular_points.max_cluster_degree",
    "poly.resultant.sylvester_rows",
    "numfield.extend_field.max_degree",
]
