"""Small-instance brute-force oracles.

Everything here recomputes quantities by exhaustive search so the fast
implementations can be cross-checked on instances small enough to afford it.
Each entry point guards its input size and raises ResourceGuardError rather
than silently taking forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .core import (
    INF,
    EdgeSubset,
    Graph,
    _dijkstra,
    _within,
    as_fraction,
    fundamental_cycle,
    minimum_spanning_tree,
    require_connected,
)
from .errors import ResourceGuardError
from .exploration import APPROACH, RETURN, TAKE, TraversalLog, TraversalSteps

TSP_MAX_N = 15
REFERENCE_MAX_N = 16
OPTSPAN_MAX_M = 20
CYCLE_SPACE_MAX_NU = 12
BRUTE_EXPLORATION_MAX_N = 8


@dataclass(frozen=True)
class TourResult:
    cost: Fraction
    order: tuple[int, ...]


def _metric_closure(g: Graph) -> list[list[int]]:
    """All-pairs shortest distances of a connected g, in scaled ints."""
    return [_dijkstra(g, s)[0] for s in range(g.n)]


def exact_tsp(g: Graph, start: int = 0) -> TourResult:
    """Cheapest closed walk visiting every vertex, by Held-Karp.

    Works on the metric closure, so the reported order is the visiting
    order and consecutive vertices may be far apart in g.  The subset table
    is filled one popcount layer at a time with integer NumPy arrays: int64
    when no sum the DP forms can reach 2^62, Python ints (dtype=object)
    otherwise.  Guarded to n <= 15.
    """
    require_connected(g, "exact_tsp")
    n = g.n
    if n > TSP_MAX_N:
        raise ResourceGuardError(f"exact_tsp guarded to n <= {TSP_MAX_N} (got {n})")
    if not (0 <= start < n):
        raise ValueError(f"start {start} out of range")
    if n == 1:
        return TourResult(cost=Fraction(0), order=(start,))
    dmat = _metric_closure(g)
    others = [v for v in range(n) if v != start]
    k = len(others)
    full = (1 << k) - 1
    top = max(map(max, dmat))
    # a walk of at most n hops costs at most n * top, below the sentinel; the
    # largest sum formed, the sentinel plus one hop, is below (top+1) * (n+2)
    unset = (top + 1) * n
    dtype = np.int64 if (top + 1) * (n + 2) < 2**62 else object
    # hop[i, j]: cost of the hop others[i] -> others[j]
    hop = np.array([[dmat[a][b] for b in others] for a in others], dtype=dtype)
    # dp[mask, j]: cheapest start -> ... -> others[j] visiting exactly the
    # others in mask (j among them); the sentinel where j is not in mask
    dp = np.full((full + 1, k), unset, dtype=dtype)
    ids = np.arange(k)
    dp[1 << ids, ids] = np.array([dmat[start][v] for v in others], dtype=dtype)
    masks = np.arange(full + 1)
    popcount = sum((masks >> b) & 1 for b in range(k))
    for size in range(2, k + 1):
        layer = masks[popcount == size]
        for j in range(k):
            sel = layer[(layer >> j) & 1 == 1]
            dp[sel, j] = (dp[sel ^ (1 << j)] + hop[:, j]).min(axis=1)
    closing = dp[full] + np.array([dmat[v][start] for v in others], dtype=dtype)
    # rebuild the visiting order backwards: at each step take the first
    # predecessor whose entry plus the hop reproduces the current cost, which
    # is the first index of the minimum
    j = int(np.argmin(closing))
    best = int(closing[j])
    order = []
    mask = full
    while True:
        order.append(others[j])
        prev = mask ^ (1 << j)
        if not prev:
            break
        j, mask = int(np.argmin(dp[prev] + hop[:, j])), prev
    order.reverse()
    return TourResult(cost=Fraction(best, g._scale), order=(start, *order, start))


def mst_bounds(g: Graph) -> tuple[Fraction, Fraction]:
    """(MST weight, 2 * MST weight): the classic tour sandwich.

    Any closed walk covering all vertices weighs at least the MST and at
    most twice it.
    """
    require_connected(g, "mst_bounds")
    w = minimum_spanning_tree(g).weight()
    return w, 2 * w


def _stretch_ok_all_pairs(g: Graph, keep, one_plus: Fraction) -> bool:
    """Exact all-pairs test that `keep` edges form a (1+eps)-spanner of g.

    Not used by the oracles themselves: the tests check the per-edge
    feasibility test of brute_force_optspan_edges against it.
    """
    p, q = one_plus.numerator, one_plus.denominator
    for s in range(g.n):
        dg, _ = _dijkstra(g, s)
        dh, _ = _dijkstra(g, s, edge_ok=keep.__contains__)
        for t in range(s + 1, g.n):
            if dg[t] == INF:
                continue
            if dh[t] == INF or dh[t] * q > dg[t] * p:
                return False
    return True


def brute_force_optspan_edges(g: Graph, epsilon) -> EdgeSubset:
    """Minimum-weight (1+eps)-spanner by exhaustive edge-subset search.

    Searches over which edges to REMOVE, with two prunings: supersets of an
    infeasible removal set are never feasible (stretch only degrades), and
    branches that cannot beat the incumbent weight are cut.  A removal set
    is feasible iff every removed edge keeps a detour within its allowance
    in the kept edges (max stretch over all pairs equals the max over
    edges), so each test is one bounded search per removed edge.  Guarded
    to m <= 20.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    require_connected(g, "brute_force_optspan")
    m = g.edge_count
    if m > OPTSPAN_MAX_M:
        raise ResourceGuardError(
            f"brute_force_optspan guarded to m <= {OPTSPAN_MAX_M} (got {m})"
        )
    one_plus = 1 + eps
    p, q = one_plus.numerator, one_plus.denominator
    iw = g._iw
    ends = g._edges
    allowance = [p * w // q for w in iw]
    removable = sorted(range(m), key=lambda e: -iw[e])
    all_ids = frozenset(range(m))
    total_w = sum(iw)
    best_keep = all_ids
    best_w = total_w

    def feasible(removed: list[int]) -> bool:
        gone = set(removed)
        adj = [[t for t in row if t[1] not in gone] for row in g._adj]
        # the newest removal is the likeliest to fail, so it is tried first
        return all(
            _within(adj, *ends[e], allowance[e], exact=False) is not None
            for e in reversed(removed)
        )

    # monotone pruning: supersets of an infeasible removal set fail too, so
    # an edge that cannot go on its own is never tried, and a branch is only
    # entered once its removal set is proven feasible
    removable = [e for e in removable if feasible([e])]
    # suffix[j]: weight of removable[j:], the most a branch from j can shed
    suffix = [0] * (len(removable) + 1)
    for j in range(len(removable) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + iw[removable[j]]

    def search(i: int, removed: list[int], removed_w: int) -> None:
        nonlocal best_keep, best_w
        keep_w = total_w - removed_w
        if keep_w < best_w:
            best_keep, best_w = all_ids.difference(removed), keep_w
        for j in range(i, len(removable)):
            if keep_w - suffix[j] >= best_w:
                break  # no branch from here on can beat the incumbent
            e = removable[j]
            removed.append(e)
            if feasible(removed):
                search(j + 1, removed, removed_w + iw[e])
            removed.pop()

    search(0, [], 0)
    return EdgeSubset(g, best_keep)


def brute_force_optspan(g: Graph, epsilon) -> Fraction:
    """Minimum lightness over all spanning (1+eps)-spanner subgraphs; exact.

    Thin wrapper over brute_force_optspan_edges; same m <= 20 guard.
    """
    best = brute_force_optspan_edges(g, epsilon)
    mst_w = minimum_spanning_tree(g).weight()
    return best.weight() / mst_w


@dataclass
class CycleCheckReport:
    ok: bool
    cycles_checked: int
    violations: list


def enumerate_cycles_check(g: Graph, bound) -> CycleCheckReport:
    """Heaviest edge on every simple cycle must exceed its detour allowance.

    `bound` is the full detour multiplier (1+delta for exploration checks,
    1+epsilon for spanner checks).  Enumerates the whole cycle space (all
    2^nu - 1 nonempty XOR combinations of fundamental cycles, nu = m-n+1),
    keeps the simple cycles (every degree 0 or 2, one connected piece), and
    flags a cycle whenever its weight minus its heaviest edge e is at most
    bound * w(e): the rest of the cycle is then a cheap detour around e.
    Guarded to nu <= 12.
    """
    b = as_fraction(bound)
    if b < 1:
        raise ValueError(f"bound must be at least 1, got {b}")
    require_connected(g, "enumerate_cycles_check")
    m = g.edge_count
    nu = m - g.n + 1
    if nu > CYCLE_SPACE_MAX_NU:
        raise ResourceGuardError(
            f"enumerate_cycles_check guarded to cyclomatic number <= "
            f"{CYCLE_SPACE_MAX_NU} (got {nu})"
        )
    tree = minimum_spanning_tree(g)
    non_tree = sorted(set(range(m)) - tree.ids)
    fund = []
    for eid in non_tree:
        mask = 0
        for ce in fundamental_cycle(g, tree, eid):
            mask |= 1 << ce
        fund.append(mask)
    iw = g._iw
    checked = 0
    violations = []
    for combo in range(1, 1 << len(fund)):
        mask = 0
        c = combo
        i = 0
        while c:
            if c & 1:
                mask ^= fund[i]
            c >>= 1
            i += 1
        if mask == 0:
            continue
        edges = [e for e in range(m) if (mask >> e) & 1]
        # simple cycle: every touched vertex has degree exactly 2 and the
        # edge set is connected
        deg: dict[int, int] = {}
        for e in edges:
            u, v = g._edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(x != 2 for x in deg.values()):
            continue
        adj: dict[int, list[int]] = {}
        for e in edges:
            u, v = g._edges[e]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        root = g._edges[edges[0]][0]
        seen = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(deg):
            continue
        heaviest = max(edges, key=lambda e: (iw[e], e))
        checked += 1
        rest = sum(iw[e] for e in edges) - iw[heaviest]
        # violation: the cycle minus its heaviest edge is within the detour
        # allowance of that edge
        if rest * b.denominator <= b.numerator * iw[heaviest]:
            violations.append(
                {
                    "cycle": edges,
                    "heaviest": heaviest,
                    "detour": str(Fraction(rest, g._scale)),
                    "allowed": str(b * g.weight(heaviest)),
                }
            )
    return CycleCheckReport(ok=not violations, cycles_checked=checked, violations=violations)


def brute_force_exploration(g: Graph, start: int = 0) -> TourResult:
    """Optimal covering closed walk by permutation search (tiny n only).

    Tries every visiting order of the remaining vertices over the metric
    closure; agrees with exact_tsp and exists purely to cross-check it.
    """
    require_connected(g, "brute_force_exploration")
    n = g.n
    if n > BRUTE_EXPLORATION_MAX_N:
        raise ResourceGuardError(
            f"brute_force_exploration guarded to n <= {BRUTE_EXPLORATION_MAX_N} (got {n})"
        )
    if not (0 <= start < n):
        raise ValueError(f"start {start} out of range")
    dmat = _metric_closure(g)
    others = [v for v in range(n) if v != start]
    best = None
    for perm in permutations(others):
        cost = 0
        cur = start
        for v in perm:
            cost += dmat[cur][v]
            cur = v
        cost += dmat[cur][start]
        if best is None or cost < best[0]:
            best = (cost, perm)
    if best is None:
        return TourResult(cost=Fraction(0), order=(start,))
    return TourResult(cost=Fraction(best[0], g._scale), order=(start, *best[1], start))


def reference_blocking(g: Graph, params) -> TraversalLog:
    """The delta-blocking explorer computed straight from its definition.

    Shares no state and no kernel with the engine.  At every select,
    "blocked" is recomputed over all boundary edges; nothing is cached.  The
    internally explored distance d(u, x) from explored u to unexplored x is
    a plain Dijkstra over explored-to-explored edges plus the cheapest edge
    from an explored vertex into x.  Just before x is explored, the
    id-ordered tuple of the boundary edges that x blocks is recorded under
    x, and those records alone re-activate edges at x.  Within each class
    of candidates the smaller edge id wins.  Walks are shortest paths over
    explored-to-explored edges, with the (distance, id) settling order and
    first-improvement parents that the engine uses.  Guarded to n <= 16.
    """
    require_connected(g, "reference_blocking")
    if g.n > REFERENCE_MAX_N:
        raise ResourceGuardError(f"reference_blocking guarded to n <= {REFERENCE_MAX_N} (got {g.n})")
    explored = [False] * g.n
    explored[params.start] = True
    one_plus = 1 + params.delta
    records: dict[int, tuple[int, ...]] = {}
    steps = TraversalSteps()
    taken: list[int] = []

    def inside(e):
        a, b = g.edges[e]
        return explored[a] and explored[b]

    def boundary():
        """(edge, explored end, unexplored end) for every boundary edge."""
        return [
            (e, a, b) if explored[a] else (e, b, a)
            for e, (a, b) in enumerate(g.edges)
            if explored[a] != explored[b]
        ]

    def distance(u, x):
        """d(u, x), scaled, for explored u and unexplored x."""
        du, _ = _dijkstra(g, u, edge_ok=inside)
        return min((du[z] + w for z, _, w in g._adj[x] if explored[z]), default=INF)

    def blocks(bnd, x, e, u):
        """Does unexplored x block boundary edge e whose explored end is u?"""
        w = g.weight(e)
        return any(x2 == x and g.weight(e2) < w for e2, _, x2 in bnd) and (
            distance(u, x) <= one_plus * g._iw[e]
        )

    def select(v):
        bnd = boundary()
        class1 = sorted(e for e, u, _ in bnd if u == v)
        class2 = sorted(e for e, u, _ in bnd if u != v and e in records.get(v, ()))
        src = {e: u for e, u, _ in bnd}
        for e in class1 + class2:
            if not any(blocks(bnd, x2, e, src[e]) for _, _, x2 in bnd):
                return e
        return None

    def walk(pos, to, role, charge):
        _, par = _dijkstra(g, pos, edge_ok=inside)
        path = []
        while to != pos:
            a, b = g.edges[par[to]]
            path.append((par[to], a if b == to else b, to))
            to = path[-1][1]
        steps.add_path(path[::-1], role, charge)

    frames = [(params.start, -1)]
    pos = params.start
    while frames:
        v = frames[-1][0]
        e = select(v)
        if e is None:
            _, entered_by = frames.pop()
            if frames:
                walk(pos, frames[-1][0], RETURN, entered_by)
                pos = frames[-1][0]
            continue
        a, b = g.edges[e]
        u, x = (a, b) if explored[a] else (b, a)
        walk(pos, u, APPROACH, e)
        bnd = boundary()
        blocked = sorted(e2 for e2, u2, x2 in bnd if x2 != x and blocks(bnd, x, e2, u2))
        if blocked:
            records[x] = tuple(blocked)
        steps.add_path(((e, u, x),), TAKE, e)
        explored[x] = True
        pos = x
        taken.append(e)
        frames.append((x, e))
    return TraversalLog(
        algorithm="blocking_reference",
        start=params.start,
        steps=steps,
        total_cost=sum(map(g.weight, steps.edge), Fraction(0)),
        taken_boundary=EdgeSubset(g, taken),
        delta=params.delta,
        blocker_records=records,
    )
