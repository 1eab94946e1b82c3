"""Greedy (1+epsilon)-spanners and their verification.

The greedy construction scans edges from light to heavy (ties by id) and
keeps an edge only when the current spanner's distance between its endpoints
exceeds (1+epsilon) times its weight; all comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    INF,
    EdgeSubset,
    Graph,
    _within,
    as_fraction,
    minimum_spanning_tree,
    require_connected,
    restrict,
)
from .errors import DegenerateInstanceError


@dataclass
class SpannerResult:
    edges: EdgeSubset
    epsilon: Fraction
    lightness: Fraction
    stretch_certificate: Fraction
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "edge_ids": sorted(self.edges.ids),
            "lightness": str(self.lightness),
            "stretch_certificate": str(self.stretch_certificate),
            "checks": self.checks,
        }


def greedy_spanner(g: Graph, epsilon) -> SpannerResult:
    """Light-to-heavy greedy spanner with exact acceptance tests.

    Keeps edge e = (u, v) iff the distance inside the spanner built so far
    exceeds (1+epsilon) * w(e).  The result spans g, has stretch at most
    1+epsilon, contains the (weight, id)-tie Kruskal MST, and no kept edge
    is redundant.  Every search runs in the spanner's own adjacency lists,
    grown as edges are kept, and stops at the edge's allowance.
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
    dropped: list[tuple[Fraction, int, int]] = []  # (d / w, eid, d) when dropped
    for eid in sorted(range(m), key=lambda e: (iw[e], e)):
        u, v = ends[eid]
        w = iw[eid]
        d = _within(hadj, u, v, p * w // q)
        if d is None:  # distance exceeds (1+eps) * w: keep
            hadj[u].append((v, eid, w))
            hadj[v].append((u, eid, w))
            kept.append(eid)
        elif w:
            dropped.append((Fraction(d, w), eid, d))
    h = EdgeSubset(g, kept)
    # max stretch over all vertex pairs equals the max over edges of
    # d_h(u, v) / w(e): along a shortest g-path, each edge's endpoints are
    # within its per-edge ratio in h, and those detours concatenate.  A kept
    # edge has ratio exactly 1 (a lighter h-path would have blocked it).  h
    # only grew after an edge was dropped, so the distance d seen then bounds
    # its final one: search the final h from the largest d / w down, and
    # stop once no bound can beat the ratio found so far
    dropped.sort(key=lambda t: t[0], reverse=True)
    cert = Fraction(1)
    for bound, eid, d in dropped:
        if bound <= cert:
            break
        u, v = ends[eid]
        dh = _within(hadj, u, v, d)
        assert dh is not None, "kept spanner must satisfy its own bound"
        cert = max(cert, Fraction(dh, iw[eid]))
    return SpannerResult(
        edges=h,
        epsilon=eps,
        lightness=lightness(g, h),
        stretch_certificate=cert,
    )


def lightness(g: Graph, h: EdgeSubset) -> Fraction:
    """w(h) / w(MST of g); errors when the MST weight is zero."""
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    mst_w = minimum_spanning_tree(g).weight()
    if mst_w == 0:
        raise DegenerateInstanceError("MST weight is zero; lightness undefined")
    return h.weight() / mst_w


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
    search in h per edge of g, bounded by the edge's allowance; only an
    edge that fails gets an unbounded search, to report its ratio or "pair
    disconnected in h".  A zero-weight edge needs h-distance zero.
    `pairs_checked` is the number of edges checked, `worst_pair` the
    endpoints of the worst edge, and `max_ratio` equals the all-pairs
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
        d = _within(hadj, u, v, p * w // q)
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
    redundant: list


def verify_spanner_minimality(g_h: Graph, epsilon) -> MinimalityReport:
    """No single edge of g_h can be dropped and leave a (1+eps)-spanner of it.

    g_h is the spanner as a graph in its own right; an edge e = (u, v) is
    redundant iff the remaining edges keep u, v within (1+eps) * w(e).
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    one_plus = 1 + eps
    p, q = one_plus.numerator, one_plus.denominator
    iw = g_h._iw
    adj = g_h._adj
    redundant = []
    for eid, (u, v) in enumerate(g_h._edges):
        d = _within(adj, u, v, p * iw[eid] // q, skip=eid)
        if d is not None:
            redundant.append(
                {"edge": eid, "detour": str(Fraction(d, g_h._scale)), "allowed": str(one_plus * g_h.weight(eid))}
            )
    return MinimalityReport(ok=not redundant, checked=g_h.edge_count, redundant=redundant)


@dataclass
class MstContainmentReport:
    ok: bool
    mst_weight: Fraction
    sub_mst_weight: Fraction
    kruskal_contained: bool


def verify_mst_containment(g: Graph, h: EdgeSubset) -> MstContainmentReport:
    """h contains a minimum spanning tree of g.

    Checked two ways: the MST weight of h as a graph equals g's, and the
    deterministic (weight, id)-tie Kruskal tree of g is literally a subset
    of h (true for the greedy spanner because both scan in the same order).
    """
    if h.parent is not g:
        raise ValueError("subset belongs to a different graph")
    tree = minimum_spanning_tree(g)
    g_mst_w = tree.weight()
    sub, _ids = restrict(g, h)
    sub_mst_w = minimum_spanning_tree(sub).weight()
    contained = tree.ids <= h.ids
    return MstContainmentReport(
        ok=(sub_mst_w == g_mst_w) and contained,
        mst_weight=g_mst_w,
        sub_mst_weight=sub_mst_w,
        kruskal_contained=contained,
    )
