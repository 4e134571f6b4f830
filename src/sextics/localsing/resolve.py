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
by the Taylor shift y -> y + t0 (`Poly.shift`, on integers: Python ints
when the germ and t0 are rational, else the field's integer coordinate
vectors, with one field element built per term of the shifted germ).

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
every term of order <= its budget.  A node whose kept germ is nonzero
therefore has its true order m, and also its true degree-m tangent
cone, vertical count, direction factors and leaf test, which read only
terms of order <= m.  A run in which no kept germ becomes zero builds
the tree of the whole germ, with the same delta, branches, contacts and
multiplicity sequence.  When a kept germ does become zero the budget is
exhausted, and the resolution starts again from the root with twice the
budget; a reduced germ's tree is finite, so some budget suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..numfield import (
    NumberField,
    TowerCapError,
    extend_field,
    factor_over_field,
    nf,
)
from ..poly import DomainError, Poly, UniPoly

__all__ = ["Resolution", "resolve", "UnresolvedGermError"]

_MAX_NODES = 600
_MAX_DEPTH = 120


class UnresolvedGermError(DomainError):
    """Resolution needs a field tower beyond `numfield.TOWER_CAP`."""


@dataclass
class _Node:
    parent: Optional[int]
    depth: int
    field: Optional[NumberField]
    d_rel: int                # conjugates over the germ's base field
    germ: Poly                # the terms of order <= budget
    budget: int
    m: int
    axes: dict                # coordinate axis ("x"/"y") -> creating node id


@dataclass(frozen=True)
class Resolution:
    delta: int
    branch_count: int
    mult_sequence: tuple         # germ fingerprint, level by level
    branches: tuple              # sorted multiplicity sequences, one per
                                 # geometric branch, trailing 1s trimmed
    contacts: tuple              # sorted intersection numbers of all
                                 # unordered pairs of branches
    tower_capped: bool           # always False (a capped resolve raises);
                                 # perfbench/tracer.py reads it


def _direction_poly(germ: Poly, m: int, field) -> UniPoly:
    """L(1, t) for the degree-m tangent cone L."""
    coeffs = [nf(field, 0)] * (m + 1)
    for (i, j), c in germ.terms.items():
        if i + j == m:
            coeffs[j] = coeffs[j] + c
    return UniPoly("t", coeffs)


def _map_coeffs(p: Poly, embed) -> Poly:
    return Poly._trusted(p.vars, {mon: embed(c) for mon, c in p.terms.items()})


def _is_leaf(node: _Node) -> bool:
    if node.m != 1:
        return False
    if len(node.axes) > 1:
        return False
    if not node.axes:
        return True
    lin = node.germ.homogeneous_part(1)
    ax = next(iter(node.axes))
    if ax == "x":
        beta = lin.terms.get((0, 1))
        return bool(beta)
    alpha = lin.terms.get((1, 0))
    return bool(alpha)


def resolve(germ: Poly, field: Optional[NumberField] = None) -> Resolution:
    """Resolve a reduced germ vanishing at the origin.

    Raises UnresolvedGermError when a branch needs a field tower beyond
    `numfield.TOWER_CAP`, so a returned Resolution is always complete
    (`tower_capped` is always False).
    """
    g = germ.with_vars(("x", "y"))
    if g.is_zero():
        raise DomainError("zero germ")
    if (0, 0) in g.terms:
        raise DomainError("germ does not vanish at the origin")
    budget = g.degree() + g.lowest_degree()
    res = _resolve(g, field, budget)
    while res is None:
        budget *= 2
        res = _resolve(g, field, budget)
    return res


def _resolve(g: Poly, field: Optional[NumberField],
             budget: int) -> Optional[Resolution]:
    """The resolution of the germ g in x, y from its terms of order <= budget
    at the root, or None when some kept germ becomes zero: the budget is
    exhausted."""
    nodes = [_Node(None, 0, field, 1, g, budget, g.lowest_degree(), {})]
    stack = [0]
    leaves = []
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        if _is_leaf(node):
            leaves.append(nid)
            continue
        if node.depth >= _MAX_DEPTH or len(nodes) >= _MAX_NODES:
            raise DomainError("resolution runaway (is the germ reduced?)")
        m, top = node.m, node.budget
        lt = _direction_poly(node.germ, m, node.field)
        nu_vertical = m - lt.degree()
        factors = factor_over_field(node.field, lt) if lt.degree() > 0 else []
        children = []
        for q in factors:
            if q.degree() == 1:
                t0 = -q.coeffs[0]   # q is monic
                cfield = node.field
                gg = node.germ
                rel = 1
            else:
                try:
                    cfield, embed, t0 = extend_field(node.field, q)
                except TowerCapError as exc:
                    raise UnresolvedGermError(
                        "germ needs a field tower beyond the cap: %s" % exc
                    ) from exc
                gg = _map_coeffs(node.germ, embed)
                rel = q.degree()
            # y = x(y + t0) takes x^i y^j to x^(i+j-m) (y + t0)^j; every
            # exponent stays >= 0 since m is the germ's order, so the
            # blown-up germs of both charts are built unchecked.  A child
            # keeps the terms of order <= top - m: for t0 = 0 those of
            # i + 2j <= top, else the low terms of the shifted germ
            axes = {"x": nid}
            if t0:
                child_germ = Poly._trusted(("x", "y"), {
                    (i + j - m, j): c for (i, j), c in gg.terms.items()}
                ).shift({"y": t0})
                child_germ = Poly._trusted(("x", "y"), {
                    (a, b): c for (a, b), c in child_germ.terms.items()
                    if a + b <= top - m})
            else:
                child_germ = Poly._trusted(("x", "y"), {
                    (i + j - m, j): c for (i, j), c in gg.terms.items()
                    if i + 2 * j <= top})
                if "y" in node.axes:
                    axes["y"] = node.axes["y"]
            children.append((cfield, node.d_rel * rel, child_germ, axes))
        if nu_vertical > 0:
            # x = xy takes x^i y^j to x^i y^(i+j-m), of order <= top - m
            # when 2i + j <= top
            child_germ = Poly._trusted(("x", "y"), {
                (i, i + j - m): c for (i, j), c in node.germ.terms.items()
                if 2 * i + j <= top})
            axes = {"y": nid}
            if "x" in node.axes:
                axes["x"] = node.axes["x"]
            children.append((node.field, node.d_rel, child_germ, axes))
        for cfield, d_rel, child_germ, axes in children:
            if not child_germ.terms:
                return None
            stack.append(len(nodes))
            nodes.append(_Node(nid, node.depth + 1, cfield, d_rel,
                               child_germ, top - m,
                               child_germ.lowest_degree(), axes))
    delta = sum(n.d_rel * n.m * (n.m - 1) // 2 for n in nodes)

    # germ multiplicity-sequence fingerprint, level by level
    by_depth: dict = {}
    for n in nodes:
        by_depth.setdefault(n.depth, []).extend([n.m] * n.d_rel)
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
                if u in set(nodes[v].axes.values()) or nodes[v].parent == u:
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
        raise DomainError(
            "internal resolution inconsistency: %d vs %d" % (check, delta))
    return Resolution(delta, len(branches), mult_sequence,
                      tuple(sorted(branches)), tuple(sorted(contacts)), False)
