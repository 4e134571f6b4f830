"""Resolution of plane curve germs by successive point blow-ups.

The tree of infinitely near points is computed over number-field towers:
a tangent direction that is irrational over the current field extends the
field, and the node then stands for a whole conjugacy cluster (`d_rel`
points over the base field).  From the finished tree we read off

* delta = sum of d * m(m-1)/2 over all infinitely near points,
* the branch clusters (leaves) with per-branch multiplicity sequences,
  reconstructed bottom-up through the proximity relations,
* the multiset of pairwise intersection numbers between branches
  (Noether's formula, with conjugate clusters expanded combinatorially).

Blow-ups continue past smoothness until each branch is transverse to the
exceptional locus at a simple point of it; those extra multiplicity-one
points make the proximity sums exact.
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

__all__ = ["BranchCluster", "Resolution", "resolve", "UnresolvedGermError"]

_MAX_NODES = 600
_MAX_DEPTH = 120


class UnresolvedGermError(DomainError):
    """Resolution hit the field-tower cap; partial data only."""


@dataclass
class _Node:
    nid: int
    parent: Optional[int]
    depth: int
    field: Optional[NumberField]
    d_rel: int                # conjugates over the germ's base field
    germ: Poly
    m: int
    axes: dict                # coordinate axis ("x"/"y") -> creating node id


@dataclass(frozen=True)
class BranchCluster:
    """One local branch up to conjugacy over the base field."""

    degree: int                  # number of conjugate branches
    mult_sequence: tuple         # strict multiplicities, trailing 1s trimmed
    field: Optional[NumberField]


@dataclass(frozen=True)
class Resolution:
    delta: int
    branch_count: int
    mult_sequence: tuple         # germ fingerprint, level by level
    branches: tuple              # BranchCluster, in deterministic order
    contacts: tuple              # ((value, npairs), ...) unordered pairs
    tower_capped: bool           # always False (a capped resolve raises);
                                 # perfbench/tracer.py reads it

    def contact_multiset(self) -> tuple:
        out = []
        for value, npairs in self.contacts:
            out.extend([value] * npairs)
        return tuple(sorted(out))

    def branch_fingerprints(self) -> tuple:
        out = []
        for b in self.branches:
            out.extend([b.mult_sequence] * b.degree)
        return tuple(sorted(out))


def _direction_poly(germ: Poly, m: int, field) -> UniPoly:
    """L(1, t) for the degree-m tangent cone L."""
    coeffs = [nf(field, 0)] * (m + 1)
    for (i, j), c in germ.with_vars(("x", "y")).terms.items():
        if i + j == m:
            coeffs[j] = coeffs[j] + c
    return UniPoly("t", coeffs)


def _map_coeffs(p: Poly, embed) -> Poly:
    return Poly(p.vars, {mon: embed(c) for mon, c in p.terms.items()})


def _is_leaf(node: _Node) -> bool:
    if node.m != 1:
        return False
    if len(node.axes) > 1:
        return False
    if not node.axes:
        return True
    lin = node.germ.homogeneous_part(1).with_vars(("x", "y"))
    ax = next(iter(node.axes))
    if ax == "x":
        beta = lin.terms.get((0, 1))
        return bool(beta)
    alpha = lin.terms.get((1, 0))
    return bool(alpha)


def resolve(germ: Poly, field: Optional[NumberField] = None,
            tower_cap: int = 12) -> Resolution:
    """Resolve a reduced germ vanishing at the origin.

    Raises UnresolvedGermError when the tower cap cuts a branch off, so a
    returned Resolution is always complete (`tower_capped` is always False).
    """
    g = germ.with_vars(("x", "y"))
    if g.is_zero():
        raise DomainError("zero germ")
    if (0, 0) in g.terms:
        raise DomainError("germ does not vanish at the origin")
    nodes: list = []
    root = _Node(0, None, 0, field, 1, g, g.lowest_degree(), {})
    nodes.append(root)
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
        xv = Poly.var("x", ("x", "y"))
        yv = Poly.var("y", ("x", "y"))
        lt = _direction_poly(node.germ, node.m, node.field)
        nu_vertical = node.m - lt.degree()
        factors = factor_over_field(node.field, lt) if lt.degree() > 0 else []
        for q, _mult in factors:
            if q.degree() == 1:
                t0 = (-q.coeffs[0]) / q.coeffs[1]
                cfield = node.field
                gg = node.germ
                rel = 1
            else:
                try:
                    cfield, embed, t0 = extend_field(
                        node.field, q, cap=tower_cap)
                except TowerCapError as exc:
                    raise UnresolvedGermError(
                        "germ needs a field tower beyond the cap: %s" % exc
                    ) from exc
                gg = _map_coeffs(node.germ, embed)
                rel = q.degree()
            sub = gg.substitute({"y": xv * (yv + Poly.const(t0, ("x", "y")))})
            child_germ = sub.divexact(xv ** node.m)
            axes = {"x": node.nid}
            if not t0 and "y" in node.axes:
                axes["y"] = node.axes["y"]
            child = _Node(len(nodes), node.nid, node.depth + 1, cfield,
                          node.d_rel * rel, child_germ,
                          child_germ.lowest_degree(), axes)
            nodes.append(child)
            stack.append(child.nid)
        if nu_vertical > 0:
            sub = node.germ.substitute({"x": xv * yv})
            child_germ = sub.divexact(yv ** node.m)
            axes = {"y": node.nid}
            if "x" in node.axes:
                axes["x"] = node.axes["x"]
            child = _Node(len(nodes), node.nid, node.depth + 1, node.field,
                          node.d_rel, child_germ, child_germ.lowest_degree(),
                          axes)
            nodes.append(child)
            stack.append(child.nid)
    delta = sum(n.d_rel * n.m * (n.m - 1) // 2 for n in nodes)
    branch_count = sum(nodes[l].d_rel for l in leaves)

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

    # contacts: within clusters and across clusters
    contact_counter: dict = {}

    def _add(value: int, npairs: int):
        if npairs:
            contact_counter[value] = contact_counter.get(value, 0) + npairs

    for lid in leaves:
        d = nodes[lid].d_rel
        if d < 2:
            continue
        path = paths[lid]
        mb = bmults[lid]
        partial = 0
        for idx, u in enumerate(path):
            partial += mb[u] ** 2
            d_here = nodes[u].d_rel
            d_next = nodes[path[idx + 1]].d_rel if idx + 1 < len(path) else None
            ordered_here = d * d // d_here
            ordered_next = d * d // d_next if d_next is not None else d
            _add(partial, (ordered_here - ordered_next) // 2)
    for i, l1 in enumerate(leaves):
        for l2 in leaves[i + 1:]:
            p1, p2 = paths[l1], paths[l2]
            mb1, mb2 = bmults[l1], bmults[l2]
            d1, d2 = nodes[l1].d_rel, nodes[l2].d_rel
            partial = 0
            k = 0
            while k < len(p1) and k < len(p2) and p1[k] == p2[k]:
                k += 1
            for idx in range(k):
                u = p1[idx]
                partial += mb1[u] * mb2[u]
                d_here = nodes[u].d_rel
                d_next = nodes[p1[idx + 1]].d_rel if idx + 1 < k else None
                pairs_here = d1 * d2 // d_here
                pairs_next = d1 * d2 // d_next if d_next is not None else 0
                _add(partial, pairs_here - pairs_next)

    contacts = tuple(sorted(contact_counter.items()))

    # internal consistency: delta from nodes == sum of branch deltas + contacts
    branch_tuples = []
    for lid in leaves:
        path = paths[lid]
        mb = bmults[lid]
        seq = [mb[u] for u in path]
        while seq and seq[-1] == 1:
            seq.pop()
        if not seq:
            seq = [1]
        branch_tuples.append((lid, tuple(seq)))
    check = sum(nodes[lid].d_rel * sum(m * (m - 1) // 2 for m in seq)
                for lid, seq in branch_tuples)
    check += sum(v * n for v, n in contacts)
    if check != delta:
        raise DomainError(
            "internal resolution inconsistency: %d vs %d" % (check, delta))

    branches = [BranchCluster(nodes[lid].d_rel, seq, nodes[lid].field)
                for lid, seq in branch_tuples]
    branches.sort(key=lambda b: (b.mult_sequence, b.degree))
    return Resolution(delta, branch_count, mult_sequence, tuple(branches),
                      contacts, False)

