"""Resolution of plane curve germs by successive point blow-ups.

The tree of infinitely near points is computed over number-field towers:
a tangent direction that is irrational over the current field extends the
field, and the node then stands for a whole conjugacy cluster (`d_rel`
points over the base field).  From the finished tree we read off

* delta = sum of d * m(m-1)/2 over all infinitely near points,
* the multiplicity sequence of every geometric branch (one per conjugate),
  reconstructed bottom-up from each leaf through the proximity relations,
* the multiset of intersection numbers of all unordered pairs of branches
  (Noether's formula over pairs of leaves, conjugates counted
  combinatorially).

Blow-ups continue past smoothness until each branch is transverse to the
exceptional locus at a simple point of it; those extra multiplicity-one
points make the proximity sums exact.  Each blow-up is a map on the
exponents of the germ's terms, followed for a tangent direction t0 != 0
by the Taylor shift y -> y + t0.

A node holds its germ as a term dict {(i, j): c} with no denominator,
divided by the gcd of all its integers: over Q each c is an int, over a
number field an integer coordinate vector.  The tangent cone L(1, t) of
a node over Q goes to `factor.factor_univariate` as a list of ints; over
a number field its m + 1 coefficients are the only field elements a node
builds (for `factor_over_field`), besides the embedding of its germ into
an extension field.  Every node builds its x-chart child at a root
t0 = u/w (w > 0 an integer, u an int or t0's coordinate vector) the same
way (`_x_chart`), as the x-chart at the slope u of g(wx, y),

    sum of c w^i x^(i+j-m) (y + u)^j,

each column (the terms of one x-exponent) shifted by Horner's rule
(`poly.horner_shift`, through u's integer matrix over a field).  This is
w^m C(wx, y/w) for the true child C, and every child is then divided by
the gcd of its integers.  Neither step changes the tree.  A nonzero
rational factor is a unit.  A diagonal change D(x, y) = C(ax, by) keeps
both axes, the order of every term (hence every truncation below), the
multiplicity, the degrees of the factors of the tangent cone (its roots
are scaled by b/a), the vertical count and the leaf test.  It also
commutes with blowing up: the x-chart of D at the root s is the x-chart
of C at bs/a under x -> ax, y -> (b/a)y, and the y-chart of D is the
y-chart of C under x -> (a/b)x, y -> by.  So by induction the kept germ
of every node is a unit times a diagonal image of the true one, and the
tree, multiplicities, proximities and leaves are those of the true
germ.  (Scaling each column by a power of w of its own would not be a
change of coordinates.)  A tangent factor of degree >= 2 extends the
field, and its child is a node over the extension.

The blow-ups run on truncated jets.  Every node carries an order budget
L and keeps only the terms of its germ of order <= L; the root's budget
is deg g + ord g, so it keeps the whole germ, and a child of a node of
multiplicity m gets the budget L - m.  This is exact.  Take a term
x^i y^j of order D at a node of multiplicity m:

* in the x-chart it becomes x^(i+j-m) (y + t0)^j, and every term of that
  has order >= D - m, since the shift keeps the x-exponent and only
  lowers the y-exponent;
* in the y-chart it becomes x^i y^(i+j-m), of order D + i - m >= D - m.

So the terms of order > L of a node reach its children only in orders
> L - m, and by induction each kept germ agrees with the true germ in
every term of order <= its budget (in the unit times diagonal image
above, which keeps orders).  So the shift stops each column of
x-exponent a at y-degree L - m - a.  A node whose kept germ is nonzero
therefore has its true order m, and also its true degree-m tangent cone,
vertical count, direction factors and leaf test, which read only terms
of order <= m.  A run in which no kept germ becomes zero builds the tree
of the whole germ, with the same delta, branches, contacts and
multiplicity sequence.  When a kept germ does become zero the budget is
exhausted, and the resolution starts again from the root with twice the
budget; a reduced germ's tree is finite, so some budget suffices.

A germ can carry factors, germs through the origin whose product is the
germ times a unit (the components of a curve through a point).  Each
child map is applied to a factor with its own order mq <= m and the
node's budget, which keeps the truncation exact (a term of order D goes
to orders >= D - mq >= D - m); a factor whose child has a constant term
leaves that subtree.  At every node the factors' orders must sum to m,
else `ConsistencyError`.  A factor's directions are among the germ's, with
the same field extensions, so the nodes it passes, cut where it passes
the leaf test alone, are its own tree, and `_invariants` reads its delta,
branches, contacts and multiplicity sequence off them as it does the
germ's.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from ..factor import factor_univariate
from ..numfield import (
    NumberField,
    TowerCapError,
    extend_field,
    factor_over_field,
)
from ..poly import DomainError, Poly, UniPoly, _trim, clear_denominators, \
    horner_shift, mul_matrix, primitive_ints, scaled

__all__ = ["Resolution", "resolve", "UnresolvedGermError", "ConsistencyError"]

_MAX_NODES = 600
_MAX_DEPTH = 120


class UnresolvedGermError(DomainError):
    """Resolution needs a field tower beyond `numfield.TOWER_CAP`."""


class ConsistencyError(DomainError):
    """Two independent computations disagree (build-failing)."""


class _Node:
    __slots__ = ("parent", "depth", "field", "d_rel", "germ", "budget", "m",
                 "axes", "factors")

    def __init__(self, parent: Optional[int], depth: int,
                 field: Optional[NumberField], d_rel: int, germ: dict,
                 budget: int, m: int, axes: dict, factors: list):
        self.parent = parent
        self.depth = depth
        self.field = field
        self.d_rel = d_rel        # conjugates over the germ's base field
        self.germ = germ          # the terms {(i, j): c} of order <= budget:
                                  # primitive ints or coordinate vectors
        self.budget = budget
        self.m = m
        self.axes = axes          # coordinate axis ("x"/"y") -> creating
                                  # node id
        self.factors = factors    # (k, germ, own) of the carried factors
                                  # through the node, own while it is on
                                  # k's own tree


class Resolution(NamedTuple):
    """The invariants of a resolved germ, with the carried factors' own
    Resolutions in `factors`."""

    delta: int
    branch_count: int
    mult_sequence: tuple   # germ fingerprint, level by level
    branches: tuple        # sorted multiplicity sequences, one per geometric
                           # branch, trailing 1s trimmed
    contacts: tuple        # sorted intersection numbers of all unordered
                           # pairs of branches
    tower_capped: bool     # always False (a capped resolve raises);
                           # perfbench/tracer.py reads it
    factors: tuple


def _directions(germ: dict, m: int, field):
    """(nu, slopes, cones) of a node of multiplicity m: the vertical count
    nu = m - deg L(1, t) for the degree-m tangent cone L, the roots of
    L(1, t) in the node's field, and its monic irreducible factors of
    degree >= 2 over that field.

    A root is a pair (u, w) for u/w, w > 0, and 0 is (0, 1).  Over Q the
    integer coefficients of L(1, t) go straight to
    `factor.factor_univariate`, whose factors are primitive with positive
    leading coefficient, so a linear factor w t - u gives u/w in lowest
    terms.  Over a number field u is a root's coordinate vector over its
    denominator w.
    """
    if field is None:
        cone = _trim([germ.get((m - j, j), 0) for j in range(m + 1)])
        factors = factor_univariate(cone) if len(cone) > 1 else []
        return (m + 1 - len(cone),
                [(-q[0], q[1]) for q in factors if len(q) == 2],
                [UniPoly("t", [Fraction(c, q[-1]) for c in q])
                 for q in factors if len(q) > 2])
    cone = [germ.get((m - j, j), [0] * field.degree) for j in range(m + 1)]
    # divided by its own content, a unit, so that lc(L) is cheap to invert
    content = gcd(*(x for v in cone for x in v))
    lt = UniPoly("t", [field.from_ints(v, content) for v in cone])
    factors = factor_over_field(field, lt) if lt.degree() > 0 else []
    roots = [-q.coeffs[0] for q in factors if q.degree() == 1]
    return (m - lt.degree(),
            [(t0.nums, t0.den) if t0 else (0, 1) for t0 in roots],
            [q for q in factors if q.degree() > 1])


def _order(germ: dict) -> int:
    return min(i + j for i, j in germ)


def _x_chart(germ: dict, m: int, keep: int, u, w: int, field) -> dict:
    """The x-chart child at the slope u/w of a node of multiplicity m,
    scaled by x -> wx, y -> y/w: the terms of order <= keep of the sum of
    c w^i x^(i+j-m) (y + u)^j.  u and the coefficients are ints over Q
    (`field` None), integer coordinate vectors over a number field.

    Each column (the terms of one x-exponent a) is shifted by Horner's
    rule (`horner_shift`), stopped once its coefficients of y-degree
    <= keep - a are final.
    """
    if field is not None:
        u = mul_matrix(u, field.reducer)
    cols: dict = {}
    for (i, j), c in germ.items():
        cols.setdefault(i + j - m, {})[j] = c if w == 1 else scaled(c, w ** i)
    out = {}
    for a, col in cols.items():
        n = max(col)
        cs = [0 if field is None else [0] * field.degree] * (n + 1)
        for j, c in col.items():
            cs[j] = c
        last = min(n, keep - a)
        horner_shift(cs, u, last)
        for k in range(last + 1):
            if cs[k] if field is None else any(cs[k]):
                out[(a, k)] = cs[k]
    return out


def _x_chart0(germ: dict, m: int, keep: int) -> dict:
    """y = xy: x^i y^j -> x^(i+j-m) y^j, kept if of order <= keep."""
    return {(i + j - m, j): c for (i, j), c in germ.items()
            if i + 2 * j - m <= keep}


def _y_chart(germ: dict, m: int, keep: int) -> dict:
    """x = xy: x^i y^j -> x^i y^(i+j-m), kept if of order <= keep."""
    return {(i, i + j - m): c for (i, j), c in germ.items()
            if 2 * i + j - m <= keep}


def _lifted_x_chart(germ: dict, m: int, keep: int, field, embed, cfield,
                    t0) -> dict:
    """`_x_chart` at a root t0 of a tangent factor, in its field `cfield`."""
    if field is not None:
        germ = {mon: embed(field.from_ints(v, 1)) for mon, v in germ.items()}
    return _x_chart(clear_denominators(germ, cfield)[0], m, keep, t0.nums,
                    t0.den, cfield)


def _is_leaf(m: int, axes: dict, germ: dict) -> bool:
    if m != 1:
        return False
    if len(axes) > 1:
        return False
    if not axes:
        return True
    # the germ has order 1 and holds no zero coefficient
    if next(iter(axes)) == "x":
        return (0, 1) in germ
    return (1, 0) in germ


def resolve(germ: Poly, field: Optional[NumberField] = None,
            factors: tuple = ()) -> Resolution:
    """Resolve a reduced germ vanishing at the origin, and with `factors`,
    germs in x, y through the origin whose product is `germ` times a unit,
    each of those along the germ's own tree (`Resolution.factors`).

    Raises UnresolvedGermError when a branch needs a field tower beyond
    `numfield.TOWER_CAP`, so a returned Resolution is always complete
    (`tower_capped` is always False).
    """
    g = germ.with_vars(("x", "y"))
    for p in (g, *factors):
        if p.is_zero():
            raise DomainError("zero germ")
        if (0, 0) in p.terms:
            raise DomainError("germ does not vanish at the origin")
    budget = g.degree() + g.lowest_degree()
    res = _resolve(g, field, budget, factors)
    while res is None:
        budget *= 2
        res = _resolve(g, field, budget, factors)
    return res


def _resolve(g: Poly, field: Optional[NumberField], budget: int,
             factors: tuple = ()) -> Optional[Resolution]:
    """The resolution of the germ g in x, y, and of its `factors`, from
    their terms of order <= budget at the root, or None when some kept
    germ becomes zero: the budget is exhausted."""
    root, *carried = [primitive_ints(clear_denominators(p.terms, field)[0],
                                     field) for p in (g, *factors)]
    nodes = [_Node(None, 0, field, 1, root, budget, _order(root), {},
                   [(k, q, True) for k, q in enumerate(carried)])]
    # per factor: its order at each node of its own tree, and its leaves
    trees = [({}, []) for _ in factors]
    stack = [0]
    leaves = []
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        m, germ = node.m, node.germ
        passing = []
        for k, q, own in node.factors:
            mq = _order(q)
            if own:
                trees[k][0][nid] = mq
                if _is_leaf(mq, node.axes, q):
                    trees[k][1].append(nid)
                    own = False
            passing.append((k, q, mq, own))
        if passing and sum(mq for _, _, mq, _ in passing) != m:
            raise ConsistencyError("internal resolution inconsistency: factor"
                                   " orders do not sum to %d" % m)
        if _is_leaf(m, node.axes, germ):
            leaves.append(nid)
            continue
        if node.depth >= _MAX_DEPTH or len(nodes) >= _MAX_NODES:
            raise DomainError("resolution runaway (is the germ reduced?)")
        keep = node.budget - m
        nu_vertical, slopes, cones = _directions(germ, m, node.field)
        # chart(g, m, keep, *args) is the child of a germ g of order m,
        # for the germ and each factor through the node (of order mq)
        children = []
        for u, w in slopes:
            axes = {"x": nid}
            if not u:
                chart = (_x_chart0, ())
                if "y" in node.axes:
                    axes["y"] = node.axes["y"]
            else:
                chart = (_x_chart, (u, w, node.field))
            children.append((node.field, node.d_rel, chart, axes))
        for q in cones:
            try:
                cfield, embed, t0 = extend_field(node.field, q)
            except TowerCapError as exc:
                raise UnresolvedGermError(
                    "germ needs a field tower beyond the cap: %s" % exc
                ) from exc
            chart = (_lifted_x_chart, (node.field, embed, cfield, t0))
            children.append((cfield, node.d_rel * q.degree(), chart,
                             {"x": nid}))
        if nu_vertical > 0:
            axes = {"y": nid}
            if "x" in node.axes:
                axes["x"] = node.axes["x"]
            children.append((node.field, node.d_rel, (_y_chart, ()), axes))
        for cfield, d_rel, (chart, args), axes in children:
            child = chart(germ, m, keep, *args)
            if not child:
                return None
            below = []
            for k, q, mq, own in passing:
                c = chart(q, mq, keep, *args)
                if not c:
                    return None
                # a factor whose child has a constant term leaves the subtree
                if (0, 0) not in c:
                    below.append((k, primitive_ints(c, cfield), own))
            stack.append(len(nodes))
            nodes.append(_Node(nid, node.depth + 1, cfield, d_rel,
                               primitive_ints(child, cfield), keep,
                               _order(child), axes, below))
    of_factors = tuple(_invariants(nodes, ends, mults)
                       for mults, ends in trees)
    return _invariants(nodes, leaves, {nid: n.m for nid, n in
                                       enumerate(nodes)}, of_factors)


def _invariants(nodes: list, leaves: list, mults: dict,
                factors: tuple = ()) -> Resolution:
    """The Resolution of a germ whose tree is the nodes in `mults` (node id
    -> the germ's multiplicity there), ending at `leaves`."""
    # delta, and the germ multiplicity-sequence fingerprint level by level
    delta = 0
    by_depth: dict = {}
    for nid, m in mults.items():
        n = nodes[nid]
        delta += n.d_rel * m * (m - 1) // 2
        by_depth.setdefault(n.depth, []).extend([m] * n.d_rel)
    levels = [tuple(sorted(by_depth[d], reverse=True)) for d in sorted(by_depth)]
    while levels and all(m == 1 for m in levels[-1]):
        levels.pop()
    mult_sequence = tuple(m for level in levels for m in level)
    if not mult_sequence:
        mult_sequence = (1,)

    # per-leaf paths and branch multiplicities through the proximity sums
    paths = {}
    bmults = {}
    branches = []
    for lid in leaves:
        path = []
        cur = lid
        while cur is not None:
            path.append(cur)
            cur = nodes[cur].parent
        path.reverse()
        paths[lid] = path
        mb = {lid: 1}
        for idx in range(len(path) - 2, -1, -1):
            u = path[idx]
            total = 0
            for j in range(idx + 1, len(path)):
                v = path[j]
                if u in nodes[v].axes.values():
                    total += mb[v]
            mb[u] = total
        bmults[lid] = mb
        seq = [mb[u] for u in path]
        while len(seq) > 1 and seq[-1] == 1:
            seq.pop()
        branches += [tuple(seq)] * nodes[lid].d_rel

    # Noether's formula over pairs of leaves.  Of the d1*d2 ordered pairs
    # of conjugate branches, d1*d2/d_u pass through the same conjugate of a
    # shared node u; those that part after u meet with the running sum
    # there.  A leaf paired with itself counts its d branches with
    # themselves as never parting, and each unordered pair twice.
    contacts = []
    for i, l1 in enumerate(leaves):
        for l2 in leaves[i:]:
            p1, p2 = paths[l1], paths[l2]
            mb1, mb2 = bmults[l1], bmults[l2]
            d1 = nodes[l1].d_rel
            ordered = d1 * nodes[l2].d_rel
            k = 0
            while k < len(p1) and k < len(p2) and p1[k] == p2[k]:
                k += 1
            partial = 0
            for idx in range(k):
                u = p1[idx]
                partial += mb1[u] * mb2[u]
                if idx + 1 < k:
                    parted = ordered // nodes[p1[idx + 1]].d_rel
                else:
                    parted = d1 if l1 == l2 else 0
                npairs = ordered // nodes[u].d_rel - parted
                contacts += [partial] * (npairs // 2 if l1 == l2 else npairs)

    # internal consistency: delta from nodes == sum of branch deltas + contacts
    check = sum(m * (m - 1) // 2 for seq in branches for m in seq)
    check += sum(contacts)
    if check != delta:
        raise ConsistencyError(
            "internal resolution inconsistency: %d vs %d" % (check, delta))
    return Resolution(delta, len(branches), mult_sequence,
                      tuple(sorted(branches)), tuple(sorted(contacts)), False,
                      factors)
