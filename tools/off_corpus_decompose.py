"""Time `components.decompose` on curves that the corpus does not contain.

    python tools/off_corpus_decompose.py

For each curve below, prints one JSON line with the curve, the best of
three wall times of `decompose` in seconds, and its factors, and checks
that the factors multiply back to the curve.  `decompose` takes reduced
curves only, so for a curve of `NOT_REDUCED` the line holds the refusal
(`PolyError`) and its time instead.  Exits 1 when some product differs or
some curve is refused, or not refused, against its expectation.  The set
mixes irreducible curves of degree 6 to 12, reducible ones with images
that split further than the curve, a non-reduced one, and torus sextics
with coefficient heights up to 10^600, which all parse within the
parser's bounds.  It is a stress set, not a test: no suite runs it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sextics.components import decompose  # noqa: E402
from sextics.poly import PolyError, parse_poly  # noqa: E402

LINEAR_TORUS = "(x^3 - 10^{N}*y^3 + 2*x*y + y - 5)^2 - (10^{N}*x + 3*y - 7)^6"

CURVES = [
    # irreducible
    "x^8 + y^8 + x^3*y^2 - 3*x*y^4 + 2*y^2 - 1",
    "x^12 + y^12 + 3*x^5*y^2 - 7*x*y^6 + 2*x^3 - y^2 + 1",
    "x^8 - 10*x^4*y^4 + y^8 + x + y",
    "x^9 + y^9 + 1",
    "x^6 + y^6 + 3*x^2*y^2 - 1",
    "x^6 + y^6 - 1",
    "y^6 - x^5 + x^2*y^3 + 1",
    "(x^2 + y^2)^3 - 4*x^2*y^2",
    # reducible
    "(x^2 + y^2 - 1)*(x^3 - y^2 + 2*x*y - 5)*(x + 3*y - 7)",
    "(x^2 - 2*y^2)*(x^2 + x*y + 7*y^2 - 3)*(y^3 - x^2 + 1)",
    "(x^4 - 10*x^2*y^2 + y^4 - 1)*(x - y)",
    "(y - x^2)^2*(x + y)",
    "(x^3 + y^3 - 1)*(x^3 - y^3 + 1)",
    # torus sextics and products with large heights
    "(10^40*x^2 + 3*y^2 - 7*x*y + 1)^3"
    " + (x^3 - 10^30*y^3 + 2*x*y + y - 5)^2",
    "(x^3 - 10^100*y^3 + 2*x*y + y - 5)^2"
    " + (10^100*x^2 + 3*y^2 - 7*x*y + 1)^3",
    "(10^200*y - x^2 + 3)*(x^3 + 10^200*y^2 + 1)",
    LINEAR_TORUS.format(N=200),
    LINEAR_TORUS.format(N=600),
]

# curves with a repeated factor, which decompose refuses
NOT_REDUCED = {"(y - x^2)^2*(x + y)"}

REPEATS = 3


def main() -> int:
    bad = 0
    for text in CURVES:
        f = parse_poly(text, ("x", "y"))
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            try:
                got = decompose(f)
            except PolyError as err:
                got = err
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        line = {"curve": text, "best_s": round(best, 4)}
        if isinstance(got, PolyError):
            ok = text in NOT_REDUCED
            line.update(refused=str(got), expected=ok)
        else:
            product_ok = got.reconstruct().primitive() == f.primitive()
            ok = product_ok and text not in NOT_REDUCED
            line.update(product_ok=product_ok,
                        factors=[str(p) for p in got.factors])
        bad += not ok
        print(json.dumps(line))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
