"""Weighted multigraphs with exact rational weights, shortest paths and MSTs.

Weights are `fractions.Fraction` at the API surface.  Internally every graph
stores its weights as integers over one common denominator so that the hot
loops (Dijkstra, Kruskal) only ever add and compare Python ints; no float
rounding can occur anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappush, heappop

from .errors import GraphStructureError

INF = float("inf")


def as_fraction(w) -> Fraction:
    """Coerce an exact weight (Fraction, int, "p/q" string, (p, q) pair).

    Floats are rejected on purpose: they are the one way rounding could
    sneak in.
    """
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, str):
        return Fraction(w)
    if isinstance(w, tuple) and len(w) == 2:
        return Fraction(w[0], w[1])
    raise TypeError(f"expected an exact rational, got {type(w).__name__}: {w!r}")


def positive(x, name: str) -> Fraction:
    """as_fraction(x), which must be positive: a delta or an epsilon."""
    f = as_fraction(x)
    if f <= 0:
        raise ValueError(f"{name} must be positive, got {f}")
    return f


def allowances(g: Graph, factor: Fraction) -> list[int]:
    """factor * w(e) for every edge e of g, scaled and floored.

    For an integer a, a <= factor * w(e) exactly when a <= allowances[e],
    so every test of a scaled length against (1+x) * w(e) is one int
    comparison with an entry of this list.
    """
    p, q = factor.numerator, factor.denominator
    return [p * w // q for w in g._iw]


class Graph:
    """Immutable undirected multigraph; parallel edges allowed, self-loops not.

    Edges are numbered 0..m-1 in construction order and are always referred
    to by that id.  Connectivity is not required here; operations that need
    it check it themselves.
    """

    __slots__ = ("n", "_edges", "_weights", "_scale", "_iw", "_adj", "_mst")

    def __init__(self, vertex_count: int, edges):
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise GraphStructureError(f"vertex_count must be a positive int, got {vertex_count!r}")
        self.n = vertex_count
        pairs: list[tuple[int, int]] = []
        weights: list[Fraction] = []
        for u, v, w in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphStructureError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
            if u == v:
                raise GraphStructureError(f"self-loop at vertex {u} not allowed")
            wf = as_fraction(w)
            if wf < 0:
                raise GraphStructureError(f"negative weight {wf} on edge ({u},{v})")
            pairs.append((u, v))
            weights.append(wf)
        self._edges = tuple(pairs)
        self._weights = tuple(weights)
        scale = 1
        for wf in weights:
            scale = scale * wf.denominator // math.gcd(scale, wf.denominator)
        self._scale = scale
        self._iw = tuple(wf.numerator * (scale // wf.denominator) for wf in weights)
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(self._edges):
            w = self._iw[eid]
            adj[u].append((v, eid, w))
            adj[v].append((u, eid, w))
        self._adj = tuple(tuple(a) for a in adj)
        self._mst = None

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid]

    def weight(self, eid: int) -> Fraction:
        return self._weights[eid]

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._weights

    def total_weight(self) -> Fraction:
        return Fraction(sum(self._iw), self._scale)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


class EdgeSubset:
    """A set of edge ids tied to one specific Graph instance."""

    __slots__ = ("parent", "ids")

    def __init__(self, parent: Graph, ids):
        ids = frozenset(ids)
        m = parent.edge_count
        for eid in ids:
            if not (isinstance(eid, int) and 0 <= eid < m):
                raise ValueError(f"edge id {eid!r} not in parent graph (m={m})")
        self.parent = parent
        self.ids = ids

    def weight(self) -> Fraction:
        g = self.parent
        return Fraction(sum(g._iw[e] for e in self.ids), g._scale)

    def __contains__(self, eid) -> bool:
        return eid in self.ids

    def __iter__(self):
        return iter(sorted(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        return (
            isinstance(other, EdgeSubset)
            and other.parent is self.parent
            and other.ids == self.ids
        )

    def __hash__(self):
        return hash((id(self.parent), self.ids))

    def __repr__(self):
        return f"EdgeSubset({sorted(self.ids)})"


@dataclass(frozen=True)
class DistanceTable:
    """Single-source distances; dist[v] is a Fraction, or inf if unreachable."""

    source: int
    dist: tuple

    def __getitem__(self, v: int):
        return self.dist[v]


def _dijkstra(g: Graph, source: int, *, edge_ok=None):
    """Scaled-int single-source Dijkstra over (a filtered subset of) g.

    Vertices settle in (distance, id) order and a parent edge is set on
    each strict improvement only.  Returns (dist, parent_edge) where
    unreached entries are INF / None.  Bounded or point-to-point questions
    go to _within.
    """
    dist = [INF] * g.n
    par = [None] * g.n
    dist[source] = 0
    heap = [(0, source)]
    adj = g._adj
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, eid, w in adj[u]:
            if edge_ok is not None and not edge_ok(eid):
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                par[v] = eid
                heappush(heap, (nd, v))
    return dist, par


def _within(adj, u: int, v: int, radius, skip: int = -1, exact: bool = True):
    """Scaled distance from u to v over `adj` if it is <= radius, else None.

    `adj` has the shape of `Graph._adj` (rows of (neighbour, edge id, scaled
    weight)) and may hold only some of a graph's edges; edge `skip` is
    ignored.  The search is bidirectional, one ball around u and one around
    v, each grown from its smaller frontier distance.  Heap keys encode
    (distance, vertex) as one int, d * n + x with n = len(adj), as in the
    explorer's Dijkstra.  Every relaxed edge that meets the other ball's
    labels offers a u-v path; once the two frontier distances sum to at
    least the best such path, that path is shortest, and once they sum past
    `radius`, no path is within it.

    Frontier pruning: a neighbour the other ball has not labelled yet is
    pushed only if its distance plus the other frontier's distance is
    within `radius`, since frontier distances never fall and the other
    ball can label it no nearer than that.  A labelled neighbour is first
    recorded as a meeting, then pushed if it is within `radius` itself.
    So the cost is local to two balls of about half the radius.

    With exact=False the search returns at the first meeting on a u-v path
    of length <= radius, with that length: an upper bound on the distance,
    never above `radius`, and equal to it when `radius` is the distance.
    It returns None exactly when the exact search does, so it answers "is
    there a detour within radius" without proving which one is shortest.
    """
    if u == v:
        return 0 if radius >= 0 else None
    n = len(adj)
    dist_u, dist_v = {u: 0}, {v: 0}
    heap_u, heap_v = [u], [v]
    du = dv = 0  # frontier distances: heap_u[0] // n and heap_v[0] // n
    best = INF
    while du + dv < best and du + dv <= radius:
        forward = du <= dv
        if forward:
            heap, mine, other, lim = heap_u, dist_u, dist_v, radius - dv
        else:
            heap, mine, other, lim = heap_v, dist_v, dist_u, radius - du
        key = heappop(heap)
        d = key // n
        x = key - d * n
        if d == mine[x]:  # not a stale entry
            for y, eid, w in adj[x]:
                if eid == skip:
                    continue
                nd = d + w
                if y in other:
                    if nd + other[y] < best:
                        best = nd + other[y]
                        if not exact and best <= radius:
                            return best
                    if nd > radius:
                        continue
                elif nd > lim:
                    continue
                if y not in mine or nd < mine[y]:
                    mine[y] = nd
                    heappush(heap, nd * n + y)
        if not heap:
            break
        if forward:
            du = heap[0] // n
        else:
            dv = heap[0] // n
    return None if best == INF or best > radius else best


def shortest_path_distances(g: Graph, source: int, edge_filter=None) -> DistanceTable:
    """Exact single-source distances, optionally over a subset of edges.

    edge_filter is a predicate over edge ids; edges failing it are ignored.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range")
    dist, _ = _dijkstra(g, source, edge_ok=edge_filter)
    scale = g._scale
    out = tuple(INF if d == INF else Fraction(d, scale) for d in dist)
    return DistanceTable(source=source, dist=out)


class DisjointSet:
    """Union-find with path halving; used by Kruskal and connectivity checks."""

    __slots__ = ("parent", "rank", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.count -= 1
        return True


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    ds = DisjointSet(g.n)
    for u, v in g.edges:
        ds.union(u, v)
    comps: dict[int, list[int]] = {}
    for v in range(g.n):
        comps.setdefault(ds.find(v), []).append(v)
    return [tuple(c) for c in sorted(comps.values())]


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def require_connected(g: Graph, what: str = "operation"):
    comps = connected_components(g)
    if len(comps) > 1:
        small = min(comps, key=len)
        raise GraphStructureError(
            f"{what} requires a connected graph; separated component: {small[:12]}"
            + ("..." if len(small) > 12 else ""),
            component=small,
        )


def _kruskal(g: Graph, sort_key) -> EdgeSubset:
    ds = DisjointSet(g.n)
    chosen = []
    for eid in sorted(range(g.edge_count), key=sort_key):
        u, v = g._edges[eid]
        if ds.union(u, v):
            chosen.append(eid)
            if len(chosen) == g.n - 1:
                break
    if len(chosen) != g.n - 1:
        require_connected(g, "minimum_spanning_tree")
    return EdgeSubset(g, chosen)


def minimum_spanning_tree(g: Graph) -> EdgeSubset:
    """Kruskal MST; ties between equal weights go to the smaller edge id.
    g is immutable, so the tree is built once and kept in g._mst."""
    if g._mst is None:
        iw = g._iw
        g._mst = _kruskal(g, lambda e: (iw[e], e))
    return g._mst


def mst_maximizing_overlap(g: Graph, preferred: EdgeSubset) -> EdgeSubset:
    """Among all MSTs, one sharing as many edges as possible with `preferred`.

    Kruskal with ties broken preferred-first, then by edge id.  Within each
    equal-weight class the addable edges form a matroid restriction, so taking
    preferred edges first is optimal there, and the component structure after
    each weight class is the same for every MST; hence the greedy choice is
    globally optimal.  Validated against brute-force MST enumeration in tests.
    """
    if preferred.parent is not g:
        raise ValueError("preferred subset belongs to a different graph")
    iw = g._iw
    pref = preferred.ids
    return _kruskal(g, lambda e: (iw[e], 0 if e in pref else 1, e))


def _check_spanning_tree(g: Graph, tree: EdgeSubset):
    if tree.parent is not g:
        raise ValueError("tree subset belongs to a different graph")
    if len(tree) != g.n - 1:
        raise ValueError(f"not a spanning tree: {len(tree)} edges for {g.n} vertices")
    ds = DisjointSet(g.n)
    for eid in tree.ids:
        u, v = g._edges[eid]
        if not ds.union(u, v):
            raise ValueError("not a spanning tree: contains a cycle")


def fundamental_cycle(g: Graph, tree: EdgeSubset, eid: int) -> tuple[int, ...]:
    """The unique cycle in tree + {eid}, as edge ids starting with eid."""
    _check_spanning_tree(g, tree)
    if eid in tree:
        raise ValueError(f"edge {eid} is in the tree")
    if not (0 <= eid < g.edge_count):
        raise ValueError(f"edge id {eid} out of range")
    u, v = g._edges[eid]
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for te in tree.ids:
        a, b = g._edges[te]
        tree_adj[a].append((b, te))
        tree_adj[b].append((a, te))
    # BFS from u; walk parents back from v
    par_edge = [None] * g.n
    par_vertex = [None] * g.n
    seen = [False] * g.n
    seen[u] = True
    queue = [u]
    for x in queue:
        if x == v:
            break
        for y, te in tree_adj[x]:
            if not seen[y]:
                seen[y] = True
                par_edge[y] = te
                par_vertex[y] = x
                queue.append(y)
    path = []
    x = v
    while x != u:
        path.append(par_edge[x])
        x = par_vertex[x]
    return (eid, *path)


def restrict(g: Graph, subset: EdgeSubset) -> tuple[Graph, tuple[int, ...]]:
    """New graph on the same vertices keeping only `subset` edges.

    Returns (graph, ids) where ids[i] is the original id of the new edge i.
    """
    if subset.parent is not g:
        raise ValueError("subset belongs to a different graph")
    ids = tuple(sorted(subset.ids))
    edges = [(g._edges[e][0], g._edges[e][1], g._weights[e]) for e in ids]
    return Graph(g.n, edges), ids
