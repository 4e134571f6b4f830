"""The benchmark's workloads: inputs built from a seed, and their checks.

Each workload is a list of passes, each a list of items run one after
another, closed loop; a run makes the passes in turn.  An item is a
callable returning `(outcome, error)`: `outcome` is a plain value compared
between the untraced and the traced run, `error` is None or the reason the
item failed its check.  Items build their inputs at set-up, so that the
timed call does the program's work only.
"""

from __future__ import annotations

import random

# Expected verified-claim counts per record (seed independent: every family
# draws a fixed number of generic samples).  5.3-5 also declares one claim
# unverifiable; no other record may yield an unverifiable verdict.
PAIRS = {
    "5.2-1": 2, "5.2-2": 2, "5.2-3": 2, "5.2-5": 2, "5.2-7": 2, "5.2-8": 2,
    "5.2-9": 2, "5.2-12": 2, "5.2-13a": 8, "5.2-18": 3, "remark-c39": 3,
    "syn-b66": 2,
}
FAMILIES = {"5.3-5": 2, "app-3a5": 4, "5.3-3": 8}
DECLARED_UNVERIFIABLE = {"5.3-5": 1}
# verify_example draws a family's two random samples from a pool of eight
# rationals, starting at place `seed % 8`, and their heights set the cost:
# one 5.3-3 verification takes 16 to 22 s over the eight starting places.
# So verify-families makes two passes, at the seed and four places on; the
# two cover four different samples of the pool, and every such pair costs
# the same within 5%.
FAMILY_SEED_STEP = 4

NAMES = ("verify-pairs", "verify-families", "germs")


def build(name: str, seed: int) -> list:
    """Passes of workload `name` at `seed`, as [[(item_id, callable)]]."""
    if name == "verify-pairs":
        return [_verify_items(PAIRS, seed)]
    if name == "verify-families":
        return [_verify_items(FAMILIES, s, "@%d" % s)
                for s in (seed, seed + FAMILY_SEED_STEP)]
    if name == "germs":
        return [_germ_items(seed)]
    raise ValueError("unknown workload %r" % name)


# -- verify-pairs, verify-families ------------------------------------------

def _verify_items(expected: dict, seed: int, suffix: str = "") -> list:
    from sextics import catalog
    records = {r.rid: r for r in catalog.builtin_examples()}
    return [(rid + suffix,
             _verify_item(catalog, records[rid], seed, verified))
            for rid, verified in expected.items()]


def _verify_item(catalog, rec, seed, verified):
    declared = DECLARED_UNVERIFIABLE.get(rec.rid, 0)

    def run():
        # looked up at call time, so the tracer's wrapper is used
        rep = catalog.verify_example(rec, seed=seed)
        outcome = [[v.claim.kind, v.status, v.detail] for v in rep.verdicts]
        counts = rep.counts()
        errors = ["%s: %s" % (v.status, v.detail) for v in rep.verdicts
                  if v.status == "mismatch"
                  or (v.status == "unverifiable"
                      and v.claim.kind != "unverifiable")]
        if not errors and (counts["verified"], counts["unverifiable"]) \
                != (verified, declared):
            errors.append("counts %r, expected %d verified and %d"
                          " unverifiable" % (counts, verified, declared))
        return outcome, "; ".join(errors) or None

    return run


# -- germs ------------------------------------------------------------------

def perturb(germ, rng):
    """`germ * (1 + a*x + b*y)` under `x -> x + c*y, y -> y + d*x`.

    A unit factor and an invertible linear change (1 - c*d = 2) keep the
    analytic type, so the germ must be recognized as its normal form's type.
    The seed picks the signs of a = +-1, b = +-1 and c = +-1 = -d; with the
    sizes fixed, a seed changes which germ is built but hardly how long it
    takes.
    """
    from sextics.poly import Poly
    xy = ("x", "y")
    x, y = Poly.var("x", xy), Poly.var("y", xy)
    a, b, c = (rng.choice((1, -1)) for _ in range(3))
    unit = Poly.const(1, xy) + x.scale(a) + y.scale(b)
    return (germ * unit).substitute({"x": x + y.scale(c),
                                     "y": y + x.scale(-c)})


def germ_inputs(seed: int) -> list:
    """[(item_id, type name, germ)]: the normal form of every recognized
    type, then two seeded perturbations of each normal form of degree <= 6
    (the germs a sextic can carry)."""
    from sextics.localsing import classify
    rng = random.Random(seed)
    normal = [(t.name(), classify.normal_form_germ(t))
              for t in classify.recognition_types()]
    out = [("%s/nf" % name, name, germ) for name, germ in normal]
    for name, germ in normal:
        if germ.degree() <= 6:
            out += [("%s/p%d" % (name, k), name, perturb(germ, rng))
                    for k in (1, 2)]
    return out


def _germ_items(seed: int) -> list:
    from sextics.localsing import classify
    return [(gid, _germ_item(classify, want, germ))
            for gid, want, germ in germ_inputs(seed)]


def _germ_item(classify, want, germ):
    def run():
        ls = classify.analyze_germ(germ)
        got = ls.sing_type.name()
        outcome = [got, ls.mu, ls.delta, ls.r]
        return outcome, (None if got == want else
                         "recognized %s, built from %s" % (got, want))

    return run
