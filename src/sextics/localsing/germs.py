"""Germ-level invariants at the origin: local intersection numbers (the
classical reduction algorithm) and Milnor numbers.

The `_origin` functions take germs already translated to the origin; the
others take a curve and a point on it.  Coefficients may be rational or
number-field elements.  When both germs are rational, the intersection
kernel clears their denominators once per call and reduces with Python
ints and a fraction-free elimination step; over a number field it
divides by the leading coefficient.  The Milnor number of a rational
germ clears the germ's denominators once and takes both partials on ints.

The kernel truncates the germs at an adaptive order n and grows it by a
quarter until a run returns a value below it, which the run then proves
(m^I lies in the ideal, so terms of higher order cannot change I).  The
first order is ord g * ord h + 2, read off the germs alone, or p + 1
when the caller predicts the value p and that is larger:
`classify.analyze_germ` passes the Milnor number 2*delta - r + 1 that
the resolution predicts, so when delta and r are right the first run
proves mu.  The prediction cannot change the value, since a run that
returns I < n returns the true I whatever n is: a prediction too high
still gets the true value from the first run, one too low makes that
run fail and n grows as without it.  So the law mu = 2*delta - r + 1 is
still checked against a mu that the reduction proved, and a wrong delta
or r still fails it.

Within a run the order falls as the running sum t grows: the germs left
must have I - t < n - t, so their terms of degree >= n - t are dropped.
Once n reaches the Bezout bound deg g * deg h + 2, the last run is the
full reduction with its guard for a shared component.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Unused here; perfbench/tracer.py patches factor_over_field in this namespace.
from ..numfield import factor_over_field  # noqa: F401
from ..poly import DomainError, Poly, clear_denominators, primitive_ints, \
    rational_content
from .points import translate_to_origin

__all__ = [
    "InfiniteIntersectionError",
    "intersection_multiplicity_origin",
    "intersection_multiplicity",
    "milnor_number_origin",
]


XY = ("x", "y")


class InfiniteIntersectionError(DomainError):
    """The two curves share a component through the point."""


def _scale_reduce(terms: dict) -> dict:
    """Divide by the rational content (a unit; intersection numbers keep)."""
    c = rational_content(terms.values())
    if c == 1:
        return terms
    inv = 1 / c
    return {m: v * inv for m, v in terms.items()}


def _reduce(g_terms: dict, h_terms: dict, n: int, cap: int,
            rational: bool) -> int:
    """One run of the reduction with both germs truncated at total degree
    n - t, t the running sum (see the kernel's docstring).

    Returns I of the truncated germs, or the running sum as soon as it
    reaches `cap`; raises InfiniteIntersectionError when both germs become
    divisible by y or one reduces to zero.  `rational` says that both
    germs have integer coefficients and picks the integer step, else the
    field-division step.
    """
    G = {m: c for m, c in g_terms.items() if sum(m) < n}
    H = {m: c for m, c in h_terms.items() if sum(m) < n}
    # dividing by the content is a unit, as above
    reduce = primitive_ints if rational else _scale_reduce
    G = reduce(G)
    H = reduce(H)
    total = 0
    order = n
    while True:
        # Poly drops zero coefficients and the elimination deletes the ones
        # it makes, so every key is a nonzero term
        if (0, 0) in G or (0, 0) in H:
            return total
        a = [i for i, j in G if j == 0]
        b = [i for i, j in H if j == 0]
        if not a and not b:
            raise InfiniteIntersectionError("both germs divisible by y")
        if not a or not b:
            # I(y*g1, h) = I(y, h) + I(g1, h), and I(y, h) = ord h(x, 0)
            if not a:
                G = {(i, j - 1): c for (i, j), c in G.items()}
                total += min(b)
            else:
                H = {(i, j - 1): c for (i, j), c in H.items()}
                total += min(a)
            if total >= cap:
                return total
            # the germs left must have I' < n - total for the run to prove
            # anything, so their terms of degree >= n - total cannot matter
            order = n - total
            G = {m: c for m, c in G.items() if sum(m) < order}
            H = {m: c for m, c in H.items() if sum(m) < order}
            continue
        r, s = max(a), max(b)
        if r > s:
            G, H = H, G
            r, s = s, r
        # kill the leading coefficient of b(x) = h(x, 0)
        if rational:
            q = gcd(G[(r, 0)], H[(s, 0)])
            d, c = G[(r, 0)] // q, H[(s, 0)] // q
            if d != 1:
                H = {m: d * v for m, v in H.items()}
        else:
            c = H[(s, 0)] / G[(r, 0)]
        k = s - r
        for (i, j), cg in G.items():
            mon = (i + k, j)
            if i + k + j >= order:
                continue
            v = H.get(mon)
            v = -(c * cg) if v is None else v - c * cg
            if v:
                H[mon] = v
            else:
                del H[mon]
        if not H:
            raise InfiniteIntersectionError(
                "a germ reduces to zero: the curves share a component"
                " through the point")
        H = reduce(H)


def intersection_multiplicity_origin(g: Poly, h: Poly) -> int:
    """Local intersection number I(g, h; O) by the reduction algorithm.

    The reduction (Fulton, Algebraic Curves, 3.3) works on the term dicts
    {(i, j): coef} of the two germs.  While neither germ has a constant
    term, it compares the restrictions a = g(x, 0) and b = h(x, 0): when
    one of them is zero, that germ is y times a cofactor, so I gains the
    order of the other restriction and the germ is divided by y; otherwise
    an elimination step with deg a <= deg b kills the leading term of b.
    After each step the new germ is divided by its content.  Both are
    multiplications by nonzero constants, units that leave I unchanged.

    The step's scalars depend on the coefficients, chosen once per call.
    When every coefficient of both germs is rational, their denominators
    are cleared once, at entry, and every run reduces on Python ints: the
    step is fraction-free, h <- d*h - c*x^k*g with (d, c) the leading
    coefficients of a and b over their gcd, and the content is the gcd of
    the integer coefficients.  Over a number field the step is
    h <- h - c*x^k*g with c = lc(b) / lc(a), and the content is the
    rational content; scaling h by an algebraic d there would let the
    coordinates grow with nothing to take the growth out again.  The
    integer germs of each step are nonzero rational multiples of the ones
    that field division gives, so both steps lead through the same
    monomials to the same I.

    Every run truncates both germs at a total degree n: terms of degree
    >= n are dropped.  Each division by y raises the running sum to some
    t; both germs then lose their terms of degree >= n - t, and the
    elimination keeps only terms below n - t.  The first run takes
    n = ord g * ord h + 2, from the germs' orders alone (I is at least
    ord g * ord h); the Milnor number starts at p + 1 instead when its
    caller predicts p and that is larger (`milnor_number_origin`).  The
    choice cannot change the value: the argument below holds for every
    n, so a run that returns some I < n has proved it.  Let J = (g, h)
    in the local ring O at the origin, over Q or over the number field,
    and m its maximal ideal.  If dim O/J = n', then m^n' lies in J: the
    dimension of O/(J + m^i) rises strictly with i until the chain
    stops, so it stops by i = n', and J + m^n' = J + m^(n'+1) gives
    m^n' in J by Nakayama.  So changing g or h by terms in m^(n'+1),
    inside m*J, leaves J and I unchanged (Nakayama again).  Read the run
    backwards: every step is exact on the truncated germs (the division
    by y, the elimination and the unit scalings), so the germs left at
    running sum t have I' = I - t < n - t, and the terms dropped there
    lie in m^(n-t), inside m^(I'+1); the germs before that truncation
    therefore have the same I'.  At the first truncation this is I(g, h).
    The elimination must keep every term below n - t: with a lower bound
    it would not cancel the leading term of b, and the run would not end.

    A run proves nothing once its running sum reaches n, or when its
    truncated germs become both divisible by y or one of them reduces to
    zero; then n grows to n * 5 // 4 + 1 and the reduction runs again.
    It is aborted at a sum of n, not n - 1, because a rerun costs about
    as much as the whole reduction on a small germ.

    Once n reaches deg g * deg h + 2 the last run is the reduction at the
    Bezout bound: a finite I is at most deg g * deg h, so at that order
    the germs keep every term that can matter, and the same bound is the
    guard for a shared component through the origin.  Each pass either
    returns or, after finitely many eliminations, raises the running sum,
    so InfiniteIntersectionError is raised once that sum passes the
    Bezout bound, or at once when both germs are divisible by y or a germ
    reduces to zero.  Pruning keeps these conclusions: if I were at most
    deg g * deg h, the argument above would give every truncated pair the
    same finite I', so neither germ of a pair could vanish and they could
    not both be divisible by y.
    """
    G = g.with_vars(XY).terms
    H = h.with_vars(XY).terms
    if all(isinstance(c, Fraction) for c in (*G.values(), *H.values())):
        return _intersection(clear_denominators(G)[0],
                             clear_denominators(H)[0], True)
    return _intersection(G, H, False)


def _intersection(G: dict, H: dict, rational: bool, predicted: int = 0) -> int:
    """I(g, h; O) of the germs with term dicts G and H in (x, y), by the
    runs of `_reduce` that `intersection_multiplicity_origin` describes;
    `rational` as there, `predicted` as in `milnor_number_origin`."""
    if not G or not H:
        raise InfiniteIntersectionError("zero germ shares every component")
    limit = max(map(sum, G)) * max(map(sum, H))
    bound = limit + 2
    n = max(min(map(sum, G)) * min(map(sum, H)) + 2, predicted + 1)
    G = {m: c for m, c in G.items() if sum(m) < bound}
    H = {m: c for m, c in H.items() if sum(m) < bound}
    while n < bound:
        try:
            total = _reduce(G, H, n, n, rational)
            if total < n:
                return total
        except InfiniteIntersectionError:
            pass
        n = n * 5 // 4 + 1
    total = _reduce(G, H, bound, limit + 1, rational)
    if total > limit:
        raise InfiniteIntersectionError(
            "intersection passes the Bezout bound %d: the curves"
            " share a component through the point" % limit)
    return total


def intersection_multiplicity(g: Poly, h: Poly, p) -> int:
    return intersection_multiplicity_origin(
        translate_to_origin(g, p), translate_to_origin(h, p))


def milnor_number_origin(germ: Poly, predicted: int = 0) -> int:
    """mu = I(f_x, f_y; O) for an isolated singularity at the origin.

    `predicted` is a guess at mu, from the resolution in
    `classify.analyze_germ`: the first reduction run truncates at
    predicted + 1 when that is above ord f_x * ord f_y + 2, so a right
    guess, or one above mu, makes one run.  The run still proves mu; a wrong guess costs
    time, never the value (see `intersection_multiplicity_origin`).

    A rational germ has its denominators cleared once, a unit that keeps
    the ideal of the partials, and both partials are taken on ints.
    """
    terms = germ.with_vars(XY).terms
    rational = all(isinstance(c, Fraction) for c in terms.values())
    if rational:
        terms = clear_denominators(terms)[0]
    gx = {(i - 1, j): c * i for (i, j), c in terms.items() if i}
    gy = {(i, j - 1): c * j for (i, j), c in terms.items() if j}
    try:
        return _intersection(gx, gy, rational, predicted)
    except InfiniteIntersectionError:
        raise DomainError("non-isolated singularity (partials share a factor)")
