import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphexplore.core import (
    INF,
    DisjointSet,
    EdgeSubset,
    Graph,
    _dijkstra,
    _within,
    allowances,
    as_fraction,
    connected_components,
    fundamental_cycle,
    is_connected,
    minimum_spanning_tree,
    mst_maximizing_overlap,
    require_connected,
    restrict,
    shortest_path_distances,
)
from graphexplore.errors import GraphStructureError
from graphexplore.experiments import AlgorithmSpec, ExperimentConfig
from graphexplore.exploration import (
    ExplorationParams,
    ExplorationState,
    is_blocked,
    run_blocking,
    verify_cost_chain,
)
from graphexplore.instances import InstanceSpec, gen_comb_lower_bound
from graphexplore.oracle import brute_force_optspan_edges
from graphexplore.spanner import (
    greedy_spanner,
    verify_mst_containment,
    verify_spanner_minimality,
    verify_spanner_stretch,
)

from conftest import random_connected_graph


# ---------------------------------------------------------------------------
# brute-force spanning-tree oracles (used throughout this file)

def all_spanning_trees(g: Graph):
    """Every spanning tree as a frozenset of edge ids; fine for tiny graphs."""
    n, m = g.n, g.edge_count
    out = []
    for ids in combinations(range(m), n - 1):
        ds = DisjointSet(n)
        ok = True
        for e in ids:
            u, v = g.endpoints(e)
            if not ds.union(u, v):
                ok = False
                break
        if ok and ds.count == 1:
            out.append(frozenset(ids))
    return out


def brute_mst_weight(g: Graph) -> Fraction:
    return min(sum(g.weight(e) for e in t) for t in all_spanning_trees(g))


class TestAsFraction:
    def test_parses_int_str_tuple(self):
        assert as_fraction(3) == 3
        assert as_fraction("5/3") == Fraction(5, 3)
        assert as_fraction((7, 2)) == Fraction(7, 2)
        assert as_fraction(Fraction(1, 9)) == Fraction(1, 9)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError):
            Graph(2, [(0, 0, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphStructureError):
            Graph(2, [(0, 2, 1)])

    def test_negative_weight(self):
        with pytest.raises(GraphStructureError):
            Graph(2, [(0, 1, Fraction(-1, 2))])

    def test_zero_vertices(self):
        with pytest.raises(GraphStructureError):
            Graph(0, [])

    def test_parallel_edges_allowed(self):
        g = Graph(2, [(0, 1, 1), (0, 1, 2)])
        assert g.edge_count == 2
        assert g.total_weight() == 3

    def test_zero_weight_allowed(self):
        g = Graph(2, [(0, 1, 0)])
        assert g.weight(0) == 0


class TestShortestPaths:
    def test_two_edge_path(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2)])
        t = shortest_path_distances(g, 0)
        assert t.dist == (0, 1, 3)

    def test_filter_disconnects(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2)])
        t = shortest_path_distances(g, 0, edge_filter=lambda e: e != 1)
        assert t.dist[2] == INF

    def test_grid_corner_to_corner(self):
        # unit 5x5 grid: opposite corner at hop distance 8
        from graphexplore.instances import gen_grid

        g = gen_grid(5, 5)
        t = shortest_path_distances(g, 0)
        assert t.dist[24] == 8

    def test_invalid_source(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            shortest_path_distances(g, 5)

    def test_triangle_inequality_random(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 9, 6)
            t = shortest_path_distances(g, 0)
            for eid in range(g.edge_count):
                u, v = g.endpoints(eid)
                assert t.dist[v] <= t.dist[u] + g.weight(eid)

    def test_parents_trace_shortest_paths(self, rng):
        # the kernel always records parents: from every vertex they lead
        # back to the source over edges whose weights sum to its distance
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 8))
            src = rng.randrange(g.n)
            dist, par = _dijkstra(g, src)
            assert par[src] is None
            for v in range(g.n):
                x, total = v, 0
                while x != src:
                    a, b = g.endpoints(par[x])
                    total += g._iw[par[x]]
                    x = a if b == x else b
                assert total == dist[v]


class TestMst:
    def test_triangle(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        t = minimum_spanning_tree(g)
        assert t.ids == {0, 1}
        assert t.weight() == 3

    def test_tree_identity(self, rng):
        g = random_connected_graph(rng, 10, 0)
        t = minimum_spanning_tree(g)
        assert t.ids == frozenset(range(9))

    def test_k4_against_enumeration(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph(4, [(u, v, i + 1) for i, (u, v) in enumerate(edges)])
        trees = all_spanning_trees(g)
        assert len(trees) == 16  # Cayley: 4^2
        assert minimum_spanning_tree(g).weight() == brute_mst_weight(g)

    def test_disconnected_names_component(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(GraphStructureError) as ei:
            minimum_spanning_tree(g)
        assert "component" in str(ei.value)

    def test_random_against_enumeration(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 7), rng.randint(1, 4), denom=4)
            assert minimum_spanning_tree(g).weight() == brute_mst_weight(g)


class TestMstMaximizingOverlap:
    def test_unit_triangle_prefers_marked_edge(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        t = mst_maximizing_overlap(g, EdgeSubset(g, {2}))
        assert 2 in t.ids

    def test_unique_mst_ignores_preference(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        t = mst_maximizing_overlap(g, EdgeSubset(g, {2}))
        assert t.ids == minimum_spanning_tree(g).ids

    def test_is_always_an_mst(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 7, 4, denom=2)  # many ties
            pref = EdgeSubset(g, {e for e in range(g.edge_count) if rng.random() < 0.5})
            t = mst_maximizing_overlap(g, pref)
            assert t.weight() == minimum_spanning_tree(g).weight()

    def test_overlap_is_maximal_vs_enumeration(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, 6, 4, denom=1)  # heavy ties
            pref = EdgeSubset(g, {e for e in range(g.edge_count) if rng.random() < 0.5})
            t = mst_maximizing_overlap(g, pref)
            w = minimum_spanning_tree(g).weight()
            best = max(
                len(tree & pref.ids)
                for tree in all_spanning_trees(g)
                if sum(g.weight(e) for e in tree) == w
            )
            assert len(t.ids & pref.ids) == best


class TestFundamentalCycle:
    def test_triangle(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        tree = EdgeSubset(g, {0, 1})
        cyc = fundamental_cycle(g, tree, 2)
        assert cyc[0] == 2 and set(cyc) == {0, 1, 2}

    def test_square_with_chord(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (1, 3, 1)])
        tree = EdgeSubset(g, {0, 1, 2})
        assert set(fundamental_cycle(g, tree, 4)) == {4, 1, 2}
        assert set(fundamental_cycle(g, tree, 3)) == {3, 0, 1, 2}

    def test_tree_edge_rejected(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(ValueError):
            fundamental_cycle(g, EdgeSubset(g, {0, 1}), 1)

    @pytest.mark.parametrize("tree,eid,match", [
        ({0}, 2, "not a spanning tree: 1 edges for 3 vertices"),
        ({0, 1, 2}, 3, "not a spanning tree: 3 edges for 3 vertices"),
        ({0, 3}, 2, "not a spanning tree: contains a cycle"),
        ({0, 1}, 4, "edge id 4 out of range"),
        ({0, 1}, -1, "edge id -1 out of range"),
    ])
    def test_bad_tree_or_edge_rejected(self, tree, eid, match):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match=match):
            fundamental_cycle(g, EdgeSubset(g, tree), eid)

    def test_cycle_closes(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 8, 5)
            tree = minimum_spanning_tree(g)
            for eid in set(range(g.edge_count)) - tree.ids:
                cyc = fundamental_cycle(g, tree, eid)
                deg = {}
                for e in cyc:
                    for x in g.endpoints(e):
                        deg[x] = deg.get(x, 0) + 1
                assert all(d == 2 for d in deg.values())


class TestSubsetAndRestrict:
    def test_bad_edge_id(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            EdgeSubset(g, {3})

    @pytest.mark.parametrize("call", [
        lambda g, h: verify_spanner_stretch(g, h, 1),
        lambda g, h: verify_mst_containment(g, h),
        lambda g, h: restrict(g, h),
        lambda g, h: mst_maximizing_overlap(g, h),
    ], ids=["verify_spanner_stretch", "verify_mst_containment", "restrict", "mst_maximizing_overlap"])
    def test_subset_of_another_graph_rejected(self, call):
        g = Graph(2, [(0, 1, 1)])
        other = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="different graph"):
            call(g, EdgeSubset(other, {0}))

    def test_restrict_keeps_weights(self):
        g = Graph(3, [(0, 1, Fraction(1, 3)), (1, 2, 2), (0, 2, 5)])
        sub, ids = restrict(g, EdgeSubset(g, {0, 2}))
        assert sub.edge_count == 2 and ids == (0, 2)
        assert sub.weight(0) == Fraction(1, 3) and sub.weight(1) == 5

    def test_connected_components(self):
        g = Graph(5, [(0, 1, 1), (2, 3, 1)])
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
        assert not is_connected(g)
        with pytest.raises(GraphStructureError):
            require_connected(g, "test")


@given(
    n=st.integers(min_value=2, max_value=7),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_mst_weight_matches_enumeration_property(n, extra, seed):
    g = random_connected_graph(random.Random(seed), n, extra, denom=3)
    assert minimum_spanning_tree(g).weight() == brute_mst_weight(g)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_distances_satisfy_edge_relaxation_property(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(3, 9), rng.randint(0, 6))
    src = rng.randrange(g.n)
    t = shortest_path_distances(g, src)
    for eid in range(g.edge_count):
        u, v = g.endpoints(eid)
        assert t.dist[v] <= t.dist[u] + g.weight(eid)
        assert t.dist[u] <= t.dist[v] + g.weight(eid)


@settings(max_examples=200)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bounded_search_matches_full_dijkstra(seed):
    # random sub-adjacency with zero weights and parallel edges, random
    # radius (sometimes unbounded) and skipped edge
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    weights = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(4)]
    edges = [(rng.randrange(n), rng.randrange(n), rng.choice(weights)) for _ in range(rng.randint(0, 25))]
    g = Graph(n, [(a, b, w) for a, b, w in edges if a != b])
    keep = {e for e in range(g.edge_count) if rng.random() < 0.8}
    adj = [[t for t in row if t[1] in keep] for row in g._adj]
    skip = rng.randrange(-1, g.edge_count) if g.edge_count else -1
    u, v = rng.randrange(n), rng.randrange(n)
    radius = INF if rng.random() < 0.2 else rng.randint(0, 8 * g._scale)
    dist, _ = _dijkstra(g, u, edge_ok=lambda e: e in keep and e != skip)
    expect = dist[v] if dist[v] <= radius else None
    assert _within(adj, u, v, radius, skip) == (None if expect == INF else expect)


@settings(max_examples=200)
@given(n=st.integers(min_value=2, max_value=30), data=st.data())
def test_bounded_search_radius_boundary(n, data):
    # every pair's exact distance, u == v included, is found at radius d and
    # missed at d - 1, on graphs with zero weights, parallel edges and a
    # skipped edge
    weights = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), 3])
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(st.tuples(ends, weights), max_size=4 * n))
    g = Graph(n, [(a, b, w) for (a, b), w in edges if a != b])
    skip = data.draw(st.integers(-1, g.edge_count - 1))
    for u in range(n):
        dist, _ = _dijkstra(g, u, edge_ok=lambda e: e != skip)
        for v in range(n):
            d = dist[v]
            if d == INF:
                assert _within(g._adj, u, v, INF, skip) is None
                continue
            assert _within(g._adj, u, v, d, skip) == d
            assert _within(g._adj, u, v, d - 1, skip) is None


@settings(max_examples=200)
@given(n=st.integers(min_value=2, max_value=30), data=st.data())
def test_early_exit_search_contract(n, data):
    # exact=False finds a detour iff the exact search does, reports a length
    # between the distance and the radius, and the distance at radius d;
    # u == v is included
    weights = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), 3])
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(st.tuples(ends, weights), max_size=4 * n))
    g = Graph(n, [(a, b, w) for (a, b), w in edges if a != b])
    skip = data.draw(st.integers(-1, g.edge_count - 1))
    radii = data.draw(st.lists(st.integers(0, 8 * g._scale), min_size=1, max_size=4))
    for u in range(n):
        dist, _ = _dijkstra(g, u, edge_ok=lambda e: e != skip)
        for v in range(n):
            d = dist[v]
            rs = radii + ([INF] if d == INF else [d, d - 1, INF])
            for r in rs:
                exact = _within(g._adj, u, v, r, skip)
                early = _within(g._adj, u, v, r, skip, exact=False)
                if exact is None:
                    assert early is None
                else:
                    assert exact == d and d <= early <= r
            if d != INF:
                assert _within(g._adj, u, v, d, skip, exact=False) == d


@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=60), max_size=12))
def test_scaled_weights_are_exact(weights):
    # mixed denominators, and always a zero weight
    weights = weights + [Fraction(0)]
    g = Graph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])
    scale = g._scale
    for e, w in enumerate(weights):
        assert g._iw[e] == int(w * scale)


@given(
    st.lists(st.fractions(min_value=0, max_value=50, max_denominator=60), max_size=12),
    st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60),
)
def test_allowances_floor_exactly(weights, factor):
    # mixed denominators, and always a zero weight: the entry is the largest
    # scaled length within factor * w(e), so a length passes exactly when it
    # is at most the entry
    weights = weights + [Fraction(0)]
    g = Graph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])
    scale = g._scale
    limits = allowances(g, factor)
    assert len(limits) == g.edge_count
    for e, w in enumerate(weights):
        a = limits[e]
        assert Fraction(a, scale) <= factor * w < Fraction(a + 1, scale)


# every entry point that takes a delta or an epsilon, by the name its error
# uses; each is called with a comb k=3 and a run on it
POSITIVE_ENTRY_POINTS = {
    "ExplorationParams": ("delta", lambda g, log, x: ExplorationParams(delta=x)),
    "is_blocked": ("delta", lambda g, log, x: is_blocked(ExplorationState.initial(g, 0), g, 0, x)),
    "gen_comb_lower_bound": ("delta", lambda g, log, x: gen_comb_lower_bound(3, x)),
    "AlgorithmSpec": ("delta", lambda g, log, x: AlgorithmSpec("blocking", x)),
    "ExperimentConfig": (
        "epsilon",
        lambda g, log, x: ExperimentConfig(instances=[InstanceSpec("grid", {"p": 2, "q": 2})], epsilons=[x]),
    ),
    "greedy_spanner": ("epsilon", lambda g, log, x: greedy_spanner(g, x)),
    "verify_spanner_stretch": ("epsilon", lambda g, log, x: verify_spanner_stretch(g, log.taken_boundary, x)),
    "verify_spanner_minimality": (
        "epsilon",
        lambda g, log, x: verify_spanner_minimality(g, log.taken_boundary, x),
    ),
    "brute_force_optspan_edges": ("epsilon", lambda g, log, x: brute_force_optspan_edges(g, x)),
    "verify_cost_chain": ("delta", lambda g, log, x: verify_cost_chain(g, log, x)),
}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("entry", sorted(POSITIVE_ENTRY_POINTS))
def test_non_positive_parameter_is_rejected(entry, value):
    name, call = POSITIVE_ENTRY_POINTS[entry]
    g = gen_comb_lower_bound(3, 2)
    log = run_blocking(g, ExplorationParams(delta=2, verify_invariants=False))
    with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
        call(g, log, value)
