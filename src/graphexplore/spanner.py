"""Greedy (1+epsilon)-spanners and their verification.

The greedy construction scans edges from light to heavy (ties by id) and
keeps an edge only when the current spanner's distance between its endpoints
exceeds (1+epsilon) times its weight; all comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    EdgeSubset,
    Graph,
    _within,
    as_fraction,
    minimum_spanning_tree,
    require_connected,
    restrict,  # unused here; the benchmark's tracer wraps spanner.restrict
)
from .errors import DegenerateInstanceError


@dataclass
class SpannerResult:
    edges: EdgeSubset
    epsilon: Fraction
    lightness: Fraction
    mst_weight: Fraction  # the denominator of lightness


def greedy_spanner(g: Graph, epsilon) -> SpannerResult:
    """Light-to-heavy greedy spanner with exact acceptance tests.

    Keeps edge e = (u, v) iff the distance inside the spanner built so far
    exceeds (1+epsilon) * w(e).  The result spans g, has stretch at most
    1+epsilon, contains the (weight, id)-tie Kruskal MST, and no kept edge
    is redundant.  Every search runs in the spanner's own adjacency lists,
    grown as edges are kept, and stops at the first detour within the
    edge's allowance, so no distance is found exactly here: the spanner's
    maximum stretch is verify_spanner_stretch's max_ratio.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    require_connected(g, "greedy_spanner")
    one_plus = 1 + eps
    p, q = one_plus.numerator, one_plus.denominator
    m = g.edge_count
    iw = g._iw
    ends = g._edges
    hadj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    kept: list[int] = []
    for eid in sorted(range(m), key=lambda e: (iw[e], e)):
        u, v = ends[eid]
        w = iw[eid]
        if _within(hadj, u, v, p * w // q, exact=False) is None:
            # distance exceeds (1+eps) * w: keep
            hadj[u].append((v, eid, w))
            hadj[v].append((u, eid, w))
            kept.append(eid)
    h = EdgeSubset(g, kept)
    mst_w = minimum_spanning_tree(g).weight()
    return SpannerResult(
        edges=h,
        epsilon=eps,
        lightness=_over_mst(h.weight(), mst_w),
        mst_weight=mst_w,
    )


def lightness(g: Graph, h: EdgeSubset) -> Fraction:
    """w(h) / w(MST of g); errors when the MST weight is zero."""
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    return _over_mst(h.weight(), minimum_spanning_tree(g).weight())


def _over_mst(weight: Fraction, mst_w: Fraction) -> Fraction:
    if mst_w == 0:
        raise DegenerateInstanceError("MST weight is zero; lightness undefined")
    return weight / mst_w


@dataclass
class StretchReport:
    ok: bool
    pairs_checked: int
    max_ratio: Fraction
    worst_pair: tuple[int, int] | None
    violations: list


def verify_spanner_stretch(g: Graph, h: EdgeSubset, epsilon) -> StretchReport:
    """Independent stretch check: d_h(u,v) <= (1+eps) d_g(u,v) for all pairs.

    The bound is proved for all pairs by checking edges: if every edge's
    endpoints are connected in h, the max over all pairs of d_h/d_g equals
    the max over edges of d_h(u,v)/w(e), because d_g(u,v) <= w(e) and the
    per-edge detours along a shortest g-path concatenate.  So it runs one
    search in h per edge of g, which stops at the first detour within the
    edge's allowance.  Exact distances are found only where a number is
    reported: an edge whose detour beats the running maximum ratio is
    searched again up to that detour, and an edge that fails gets an
    unbounded search, to report its ratio or "pair disconnected in h".  A
    zero-weight edge needs h-distance zero.  `pairs_checked` is the number
    of edges checked, `worst_pair` the endpoints of the first edge in id
    order with the largest ratio, and `max_ratio` equals the all-pairs
    maximum whenever h connects every edge's endpoints and keeps every
    zero-weight edge's endpoints at distance zero.  The cost is local to
    each edge's allowance, so there is no size guard.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    one_plus = 1 + eps
    p, q = one_plus.numerator, one_plus.denominator
    iw = g._iw
    ids = h.ids
    hadj = [[t for t in row if t[1] in ids] for row in g._adj]
    # ratios are kept as integer pairs (d_h, w(e))
    top_d, top_w = 1, 1
    worst = None
    violations = []
    for eid, (u, v) in enumerate(g._edges):
        if eid in ids:
            continue  # the edge itself is a path of ratio 1
        w = iw[eid]
        pair = (u, v) if u < v else (v, u)
        d = _within(hadj, u, v, p * w // q, exact=False)
        if w == 0:
            if d is None:
                violations.append({"pair": pair, "why": "zero g-distance, positive h-distance"})
            continue
        if d is None:
            d = _within(hadj, u, v, INF)
            if d is None:
                violations.append({"pair": pair, "why": "pair disconnected in h"})
                continue
            violations.append(
                {"pair": pair, "ratio": str(Fraction(d, w)), "allowed": str(one_plus)}
            )
        elif d * top_w > top_d * w:
            d = _within(hadj, u, v, d)  # the detour may beat the maximum: make it exact
        if d * top_w > top_d * w:
            top_d, top_w = d, w
            worst = pair
    return StretchReport(
        ok=not violations,
        pairs_checked=g.edge_count,
        max_ratio=Fraction(top_d, top_w),
        worst_pair=worst,
        violations=violations,
    )


@dataclass
class MinimalityReport:
    ok: bool
    checked: int
    violations: list  # the redundant edges

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checked": self.checked, "violations": self.violations}


def verify_spanner_minimality(g: Graph, h: EdgeSubset, epsilon) -> MinimalityReport:
    """No single edge of h can be dropped and leave a (1+eps)-spanner of h.

    An edge e = (u, v) of h is redundant iff the rest of h keeps u, v within
    (1+eps) * w(e).  h's adjacency is built once; each edge then gets one
    search inside h without that edge, bounded by its allowance.  Every
    redundant edge is reported by its id in g, with its detour.  For the
    taken edges of a blocking run plus their MST this is the long-cycle
    property: every cycle C of the subgraph has w(C - e) > (1+eps) w(e).
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    one_plus = 1 + eps
    p, q = one_plus.numerator, one_plus.denominator
    iw = g._iw
    ids = h.ids
    hadj = [[t for t in row if t[1] in ids] for row in g._adj]
    violations = []
    for eid in sorted(ids):
        u, v = g._edges[eid]
        d = _within(hadj, u, v, p * iw[eid] // q, skip=eid)
        if d is not None:
            violations.append(
                {"edge": eid, "detour": str(Fraction(d, g._scale)), "allowed": str(one_plus * g.weight(eid))}
            )
    return MinimalityReport(ok=not violations, checked=len(ids), violations=violations)


@dataclass
class MstContainmentReport:
    ok: bool
    mst_weight: Fraction
    missing: list  # the tree edges h lacks, by id


def verify_mst_containment(g: Graph, h: EdgeSubset) -> MstContainmentReport:
    """h contains a minimum spanning tree of g.

    The deterministic (weight, id)-tie Kruskal tree of g must be literally
    a subset of h (true for the greedy spanner because both scan in the
    same order).  An h that contains it spans g and has g's MST weight; an
    h that lacks a tree edge fails, even if another tree of equal weight
    lies in h.
    """
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    tree = minimum_spanning_tree(g)
    missing = sorted(tree.ids - h.ids)
    return MstContainmentReport(ok=not missing, mst_weight=tree.weight(), missing=missing)
