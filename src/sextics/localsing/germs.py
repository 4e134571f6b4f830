"""Germ-level invariants at the origin: local intersection numbers (the
classical reduction algorithm) and Milnor numbers.

Every function takes germs already translated to the origin, with
rational or number-field coefficients.  Each call clears the germs'
denominators once, to Python ints or to integer coordinate vectors over
a number field, and the kernel reduces with no denominator at all.

The kernel truncates the germs at an adaptive order n and grows it by a
quarter until a run returns a value below it, which the run then proves
(m^I lies in the ideal, so terms of higher order cannot change I).  The
first order is ord g * ord h + 2, read off the germs alone, or p + 1
when the caller predicts the value p and that is larger:
`classify.analyze_germ` passes the Milnor number 2*delta - r + 1 that
the resolution predicts, so when delta and r are right the first run
proves mu; `torus.inner_outer_split` passes the iota that the type of
an inner point predicts.  The prediction cannot change the value, since
a run that returns I < n returns the true I whatever n is: one too high
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

from math import gcd
from operator import mul

# Unused here; perfbench/tracer.py patches factor_over_field in this namespace.
from ..numfield import factor_over_field  # noqa: F401
from ..poly import DomainError, Poly, clear_denominators, convolve_reduce, \
    field_of, mul_matrix, primitive_ints, scaled

__all__ = [
    "InfiniteIntersectionError",
    "intersection_multiplicity_origin",
    "milnor_number_origin",
]


XY = ("x", "y")


class InfiniteIntersectionError(DomainError):
    """The two curves share a component through the point."""


def _reduce(g_terms: dict, h_terms: dict, n: int, cap: int, field) -> int:
    """One run of the reduction with both germs truncated at total degree
    n - t, t the running sum (see the kernel's docstring).

    Returns I of the truncated germs, or the running sum as soon as it
    reaches `cap`; raises InfiniteIntersectionError when both germs become
    divisible by y or one reduces to zero.  The germs hold ints, or
    integer coordinate vectors over the number field `field`.
    """
    # dividing by the content is a unit, as above
    G = primitive_ints({m: c for m, c in g_terms.items() if sum(m) < n},
                       field)
    H = primitive_ints({m: c for m, c in h_terms.items() if sum(m) < n},
                       field)
    total = 0
    order = n
    pivot = None   # the lc(a) whose inverse N/D is kept while it leads G
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
        # kill the leading coefficient of b(x) = h(x, 0): H <- d*H - c*x^k*G
        # with d*lc(b) = c*lc(a), d a positive integer
        k = s - r
        if field is None:
            q = gcd(G[(r, 0)], H[(s, 0)])
            d, c = G[(r, 0)] // q, H[(s, 0)] // q
            if d != 1:
                H = {m: d * v for m, v in H.items()}
            for (i, j), cg in G.items():
                if i + k + j < order:
                    mon = (i + k, j)
                    v = H.get(mon, 0) - c * cg
                    if v:
                        H[mon] = v
                    else:
                        del H[mon]
        else:
            if G[(r, 0)] is not pivot:   # no vector changes in place
                pivot = G[(r, 0)]
                inv = field.from_ints(pivot, 1).inverse()
            c = mul_matrix(convolve_reduce(H[(s, 0)], inv.nums,
                                           field.reducer), field.reducer)
            prods = {(i + k, j): [sum(map(mul, row, cg)) for row in c]
                     for (i, j), cg in G.items() if i + k + j < order}
            # often all divisible by D (G is lc(a) times an integral germ):
            # then the step divides them by D rather than scale H by it
            q = gcd(inv.den, *(x for p in prods.values() for x in p))
            d = inv.den // q
            if d != 1:
                H = {m: [d * x for x in v] for m, v in H.items()}
            zero = [0] * field.degree
            for mon, p in prods.items():
                v = [x - y // q for x, y in zip(H.get(mon, zero), p)]
                if any(v):
                    H[mon] = v
                else:
                    del H[mon]
        if (s, 0) in H:
            raise DomainError("the elimination step left the leading term")
        if not H:
            raise InfiniteIntersectionError(
                "a germ reduces to zero: the curves share a component"
                " through the point")
        H = primitive_ints(H, field)


def intersection_multiplicity_origin(g: Poly, h: Poly,
                                     predicted: int = 0) -> int:
    """Local intersection number I(g, h; O) by the reduction algorithm.

    The reduction (Fulton, Algebraic Curves, 3.3) works on the term dicts
    {(i, j): coef} of the two germs.  While neither germ has a constant
    term, it compares the restrictions a = g(x, 0) and b = h(x, 0): when
    one of them is zero, that germ is y times a cofactor, so I gains the
    order of the other restriction and the germ is divided by y; otherwise
    an elimination step with deg a <= deg b kills the leading term of b.
    After each step the new germ is divided by its content.  Both are
    multiplications by nonzero constants, units that leave I unchanged.

    The denominators of both germs are cleared once, at entry, and every
    run reduces on integers (ints, or coordinate vectors over a number
    field): the step is h <- d*h - c*x^k*g with d*lc(b) = c*lc(a), and
    the content is the gcd of all the integers.  Over Q, (d, c) are lc(a)
    and lc(b) over their gcd.  Over a number field, lc(a)^-1 = N/D with
    N integral and D a positive integer is computed once while lc(a)
    stays, and (d, c) = (D, lc(b)*N) over q = gcd(D, the coordinates of
    c*x^k*g), the step's products divided by q: h is scaled only by a
    rational integer, since an algebraic d would let the coordinates grow
    with no integer content to take the growth out again.  Each step's germ is a nonzero
    rational multiple of the one field division h - (lc(b)/lc(a)) x^k g
    gives, so both lead through the same monomials to the same I.

    Every run truncates both germs at a total degree n: terms of degree
    >= n are dropped.  Each division by y raises the running sum to some
    t; both germs then lose their terms of degree >= n - t, and the
    elimination keeps only terms below n - t.  The first run takes
    n = ord g * ord h + 2, from the germs' orders alone (I is at least
    ord g * ord h); a run starts at p + 1 instead when the caller
    predicts the value p and that is larger (`predicted`).  The
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
    field = field_of((*G.values(), *H.values()))
    return _intersection(clear_denominators(G, field)[0],
                         clear_denominators(H, field)[0], field, predicted)


def _intersection(G: dict, H: dict, field, predicted: int) -> int:
    """I(g, h; O) of the germs with cleared term dicts G and H in (x, y),
    by the runs of `_reduce` that `intersection_multiplicity_origin`
    describes."""
    if not G or not H:
        raise InfiniteIntersectionError("zero germ shares every component")
    limit = max(map(sum, G)) * max(map(sum, H))
    bound = limit + 2
    n = max(min(map(sum, G)) * min(map(sum, H)) + 2, predicted + 1)
    G = {m: c for m, c in G.items() if sum(m) < bound}
    H = {m: c for m, c in H.items() if sum(m) < bound}
    while n < bound:
        try:
            total = _reduce(G, H, n, n, field)
            if total < n:
                return total
        except InfiniteIntersectionError:
            pass
        n = n * 5 // 4 + 1
    total = _reduce(G, H, bound, limit + 1, field)
    if total > limit:
        raise InfiniteIntersectionError(
            "intersection passes the Bezout bound %d: the curves"
            " share a component through the point" % limit)
    return total


def milnor_number_origin(germ: Poly, predicted: int = 0) -> int:
    """mu = I(f_x, f_y; O) for an isolated singularity at the origin.

    `predicted` is a guess at mu, from the resolution in
    `classify.analyze_germ`: the first reduction run truncates at
    predicted + 1 when that is above ord f_x * ord f_y + 2, so a right
    guess, or one above mu, makes one run.  The run still proves mu; a
    wrong guess costs time, never the value (see
    `intersection_multiplicity_origin`).

    The germ has its denominators cleared once, a unit that keeps the
    ideal of the partials, and both partials are taken on integers.
    """
    terms = germ.with_vars(XY).terms
    field = field_of(terms.values())
    terms = clear_denominators(terms, field)[0]
    gx = {(i - 1, j): scaled(c, i) for (i, j), c in terms.items() if i}
    gy = {(i, j - 1): scaled(c, j) for (i, j), c in terms.items() if j}
    try:
        return _intersection(gx, gy, field, predicted)
    except InfiniteIntersectionError:
        raise DomainError("non-isolated singularity (partials share a factor)")
