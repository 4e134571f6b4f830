"""Time `analysis.analyze_curve` on curves whose points need large
coordinate heights or deep blow-up trees, none of them in the corpus.

    python tools/off_corpus_resolve.py

For each curve below, prints one JSON line with the curve, the best of
three wall times of `analyze_curve` in seconds, and the configuration it
finds with the component degrees and each component's singularity
types.  A torus pair is analyzed as a pair, so its inner/outer split
runs too.  The set holds a torus sextic with coefficients up to 10^40,
one with conic and cubic coefficients of 10^100, the four-leaved rose,
two torus sextics whose configurations the catalog does not list
(ROADMAP item 5), a smooth affine curve of
degree 12 whose eliminant repeats one factor of degree 60 that carries
only vertical tangents, and four curves of many components, where the
singular points are found per component and per pair of components: six
lines through one point, six lines in general position, two conics and
two lines, and two cusps and a line through one point.  It is a stress
set, not a test: no suite runs it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sextics.analysis import analyze_curve  # noqa: E402
from sextics.poly import parse_poly  # noqa: E402
from sextics.torus import TorusPair  # noqa: E402

XY = ("x", "y")

# (f2, f3) for a torus pair, (f,) for a curve
CURVES = [
    ("10^40*x^2 + 3*y^2 - 7*x*y + 1", "x^3 - 10^30*y^3 + 2*x*y + y - 5"),
    ("(x^3 - 10^100*y^3 + 2*x*y + y - 5)^2"
     " + (10^100*x^2 + 3*y^2 - 7*x*y + 1)^3",),
    ("(x^2 + y^2)^3 - 4*x^2*y^2",),
    ("-2*x^2 + y", "-2*x^3 - 2*x^2*y + x*y + 2*y^2"),
    ("-x^2 - 4*x - 4", "-x^3 - 2*x^2*y - 6*x^2 + x*y - 12*x + y - 8"),
    ("x^12 + y^12 + 3*x^5*y^2 - 7*x*y^6 + 2*x^3 - y^2 + 1",),
    ("x*y*(x - y)*(x + y)*(x - 2*y)*(x + 2*y)",),
    ("(x + 2*y - 1)*(2*x - y + 3)*(x - 3*y - 2)*(3*x + y + 5)*(x + y + 7)"
     "*(4*x - y - 6)",),
    ("(x^2 + y^2 - 1)*(x^2 + 2*y^2 - 3)*(x - y)*(x + y)",),
    ("(y^2 - x^3)*(y^2 - 2*x^3)*(x - y)",),
]

REPEATS = 3


def main() -> int:
    for texts in CURVES:
        polys = [parse_poly(t, XY) for t in texts]
        args = {"pair": TorusPair(*polys)} if len(polys) == 2 \
            else {"f": polys[0]}
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            an = analyze_curve(**args)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        print(json.dumps({
            "curve": list(texts), "best_s": round(best, 4),
            "configuration": str(an.config),
            "component_degrees": list(an.degrees()),
            "component_sigma": [[str(ls.sing_type) for ls in c.sings]
                                for c in an.components]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
