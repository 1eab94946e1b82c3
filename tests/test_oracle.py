import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from graphexplore.core import INF, EdgeSubset, Graph, _dijkstra, minimum_spanning_tree
from graphexplore.errors import DegenerateInstanceError, GraphStructureError, ResourceGuardError
from graphexplore.exploration import ExplorationParams
from graphexplore.oracle import (
    REFERENCE_MAX_N,
    _stretch_ok_all_pairs,
    brute_force_exploration,
    brute_force_optspan,
    brute_force_optspan_edges,
    enumerate_cycles_check,
    exact_tsp,
    mst_bounds,
    reference_blocking,
)
from graphexplore.spanner import greedy_spanner, verify_spanner_minimality

from conftest import random_connected_graph


def list_held_karp(g: Graph, start: int = 0) -> tuple[Fraction, tuple[int, ...]]:
    """The list-based Held-Karp that exact_tsp's arrays replaced: one Python
    list row per subset, float("inf") where the end vertex is not in the
    subset, and the order rebuilt from the first matching predecessor."""
    n = g.n
    if n == 1:
        return Fraction(0), (start,)
    dmat = [_dijkstra(g, s)[0] for s in range(n)]  # scaled ints
    others = [v for v in range(n) if v != start]
    k = len(others)
    full = (1 << k) - 1
    col = [[dmat[a][b] for a in others] for b in others]
    dp = [None] * (full + 1)
    for j, v in enumerate(others):
        row = [INF] * k
        row[j] = dmat[start][v]
        dp[1 << j] = row
    for mask in range(1, full + 1):
        if not mask & (mask - 1):
            continue
        row = [INF] * k
        bits = mask
        while bits:
            bit = bits & -bits
            j = bit.bit_length() - 1
            row[j] = min(map(add, dp[mask ^ bit], col[j]))
            bits ^= bit
        dp[mask] = row
    closing = [dp[full][j] + dmat[v][start] for j, v in enumerate(others)]
    best = min(closing)
    order = []
    mask, j = full, closing.index(best)
    while True:
        order.append(others[j])
        prev = mask ^ (1 << j)
        if not prev:
            break
        via = list(map(add, dp[prev], col[j]))
        j, mask = via.index(dp[mask][j]), prev
    order.reverse()
    return Fraction(best, g._scale), (start, *order, start)


def tour_cost_replay(g: Graph, order) -> Fraction:
    """Re-price a visiting order through single-source distance queries."""
    total = Fraction(0)
    for a, b in zip(order, order[1:]):
        total += Fraction(_dijkstra(g, a)[0][b], g._scale)
    return total


def unit_square() -> Graph:
    return Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])


class TestExactTsp:
    def test_single_vertex(self):
        g = Graph(1, [])
        assert exact_tsp(g) == exact_tsp(g, 0)
        assert exact_tsp(g).cost == 0 and exact_tsp(g).order == (0,)

    def test_single_edge(self):
        g = Graph(2, [(0, 1, Fraction(7, 3))])
        t = exact_tsp(g)
        assert t.cost == Fraction(14, 3)
        assert t.order == (0, 1, 0)

    def test_unit_triangle(self):
        t = exact_tsp(Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
        assert t.cost == 3

    def test_path_doubles_back(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        t = exact_tsp(g)
        assert t.cost == 4
        assert len(t.order) == 4 and t.order[0] == t.order[-1] == 0

    def test_start_respected(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        t = exact_tsp(g, start=2)
        assert t.order[0] == t.order[-1] == 2
        assert sorted(t.order[:-1]) == [0, 1, 2]

    def test_tree_costs_twice_its_weight(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 9), 0)
            assert exact_tsp(g).cost == 2 * g.total_weight()

    def test_metric_closure_shortcut_used(self):
        # heavy direct edge is bypassed through the two cheap ones
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 10)])
        assert exact_tsp(g).cost == 4

    def test_size_guard(self):
        g = Graph(16, [(i, i + 1, 1) for i in range(15)])
        with pytest.raises(ResourceGuardError):
            exact_tsp(g)

    def test_start_out_of_range(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            exact_tsp(g, start=2)

    def test_disconnected_rejected(self):
        g = Graph(3, [(0, 1, 1)])
        with pytest.raises(GraphStructureError):
            exact_tsp(g)

    def test_trees_at_the_guard_cost_twice_their_weight(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, 15, 0)
            t = exact_tsp(g, rng.randrange(15))
            assert t.cost == 2 * g.total_weight()
            assert tour_cost_replay(g, t.order) == t.cost

    def test_order_prices_to_reported_cost(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 5))
            t = exact_tsp(g)
            assert tour_cost_replay(g, t.order) == t.cost


@settings(max_examples=80)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_held_karp_matches_list_reference(seed):
    # zero and tied weights and parallel edges make many tours tie, so equal
    # orders pin the first-matching-predecessor rule, not just the cost
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    weights = [Fraction(0), Fraction(1), Fraction(1), Fraction(3, 2), Fraction(2)]
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(rng.randint(0, 8) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    if n > 1 and rng.random() < 0.5:
        edges.append(edges[rng.randrange(len(edges))])  # an exact parallel copy
    g = Graph(n, edges)
    start = rng.randrange(n)
    t = exact_tsp(g, start)
    cost, order = list_held_karp(g, start)
    assert t.cost == cost and t.order == order


HUGE = [0, 1, 2**61, 2**62, 2**62 + 1, Fraction(2**62 + 1, 3)]


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_huge_weights_stay_exact(seed):
    # closure distances near 2^62 fail the int64 check, so the DP runs on
    # Python ints; float rounding would lose the +1s
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(rng.randrange(i), i, rng.choice(HUGE[2:])) for i in range(1, n)]
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(HUGE)))
    g = Graph(n, edges)
    start = rng.randrange(n)
    t = exact_tsp(g, start)
    assert isinstance(t.cost, Fraction)
    assert t.cost == brute_force_exploration(g, start).cost
    assert (t.cost, t.order) == list_held_karp(g, start)
    assert tour_cost_replay(g, t.order) == t.cost


NEAR_2_31 = [1, 3, 2**27 + 1, 2**30 - 1, 2**31 - 1, 2**31, 2**31 + 1, Fraction(2**31 + 1, 3)]


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_distances_straddling_2_31_stay_exact(seed):
    # closure distances on both sides of 2^31: the table runs in int32 only
    # when every sum it forms stays below 2^31, and in int64 otherwise
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    edges = [(rng.randrange(i), i, rng.choice(NEAR_2_31)) for i in range(1, n)]
    for _ in range(rng.randint(0, 5)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(NEAR_2_31)))
    g = Graph(n, edges)
    start = rng.randrange(n)
    t = exact_tsp(g, start)
    assert (t.cost, t.order) == list_held_karp(g, start)
    assert tour_cost_replay(g, t.order) == t.cost


_W_INT32_MAX = (2**31 // 10 - 1) // 7


@pytest.mark.parametrize("w", [_W_INT32_MAX, _W_INT32_MAX + 1, 2 * _W_INT32_MAX])
def test_int32_check_boundary_is_exact(w):
    # an 8-vertex path: its end-to-end distance 7w is the closure's largest,
    # and (7w + 1) * (8 + 2) < 2^31 holds for the first weight only
    g = Graph(8, [(i, i + 1, w) for i in range(7)])
    t = exact_tsp(g, 3)
    assert t.cost == 14 * w == brute_force_exploration(g, 3).cost
    assert (t.cost, t.order) == list_held_karp(g, 3)


_W_INT64_MAX = (2**62 // 10 - 1) // 7


@pytest.mark.parametrize("w", [_W_INT64_MAX, _W_INT64_MAX + 1, 2 * _W_INT64_MAX])
def test_int64_check_boundary_is_exact(w):
    # an 8-vertex path: its end-to-end distance 7w is the closure's largest,
    # and (7w + 1) * (8 + 2) < 2^62 holds for the first weight only
    g = Graph(8, [(i, i + 1, w) for i in range(7)])
    t = exact_tsp(g, 3)
    assert t.cost == 14 * w == brute_force_exploration(g, 3).cost


class TestPermutationCrossCheck:
    def test_agreement_with_held_karp(self, rng):
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_connected_graph(rng, n, rng.randint(0, 6))
            start = rng.randrange(n)
            assert brute_force_exploration(g, start).cost == exact_tsp(g, start).cost

    def test_guard_at_nine(self):
        g = Graph(9, [(i, i + 1, 1) for i in range(8)])
        with pytest.raises(ResourceGuardError):
            brute_force_exploration(g)

    @pytest.mark.parametrize("start", [-1, 3])
    def test_start_out_of_range(self, start):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError, match=f"start {start} out of range"):
            brute_force_exploration(g, start)

    def test_sandwich(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8))
            lo, hi = mst_bounds(g)
            cost = exact_tsp(g).cost
            assert lo <= cost <= hi
            assert hi == 2 * lo == 2 * minimum_spanning_tree(g).weight()


def test_reference_blocking_size_guard():
    path = Graph(REFERENCE_MAX_N, [(i, i + 1, 1) for i in range(REFERENCE_MAX_N - 1)])
    assert reference_blocking(path, ExplorationParams(delta=2)).total_cost == 2 * (REFERENCE_MAX_N - 1)
    longer = Graph(REFERENCE_MAX_N + 1, [(i, i + 1, 1) for i in range(REFERENCE_MAX_N)])
    with pytest.raises(ResourceGuardError, match=f"n <= {REFERENCE_MAX_N}"):
        reference_blocking(longer, ExplorationParams(delta=2))


class TestOptspan:
    def test_tree_is_its_own_optimum(self):
        g = Graph(4, [(0, 1, 2), (1, 2, 1), (1, 3, 5)])
        assert brute_force_optspan(g, Fraction(1, 2)) == 1
        assert brute_force_optspan_edges(g, Fraction(1, 2)).ids == {0, 1, 2}

    def test_square_drops_exactly_one_edge(self):
        g = unit_square()
        best = brute_force_optspan_edges(g, 2)
        assert len(best.ids) == 3 and best.weight() == 3
        assert brute_force_optspan(g, 2) == 1
        assert brute_force_optspan(g, 1) == Fraction(4, 3)

    def test_removal_that_breaks_an_earlier_detour(self):
        # every removed edge is rechecked after each new removal, not just
        # the newest: (1,2) may go on its own, with detour 1-3-2 of 9/2, but
        # dropping (3,1) as well stretches that detour to 13/2 > 2 * 3
        g = Graph(4, [(0, 1, Fraction(5, 2)), (1, 2, 3), (2, 3, Fraction(3, 2)),
                      (0, 3, Fraction(5, 2)), (3, 1, 3)])
        best = brute_force_optspan_edges(g, 1)
        assert best.ids == {0, 2, 3, 4} and best.weight() == Fraction(19, 2)
        assert best.ids == optspan_all_pairs(g, Fraction(1))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            brute_force_optspan(unit_square(), 0)

    def test_size_guard(self):
        g = Graph(2, [(0, 1, 1)] * 21)
        with pytest.raises(ResourceGuardError):
            brute_force_optspan(g, 1)

    def test_zero_mst_weight_is_degenerate(self):
        # lightness is undefined on the all-zero triangle, here as in the
        # greedy spanner; the optimal edge set itself is still found
        g = Graph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert brute_force_optspan_edges(g, 1).weight() == 0
        for lightness_of in (brute_force_optspan, greedy_spanner):
            with pytest.raises(DegenerateInstanceError, match="MST weight is zero"):
                lightness_of(g, 1)

    def test_optimum_at_most_any_feasible_weight(self, rng):
        # sanity against a hand-rolled feasible candidate: the whole graph
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 4))
            opt = brute_force_optspan(g, Fraction(1, 2))
            whole = g.total_weight() / minimum_spanning_tree(g).weight()
            assert 1 <= opt <= whole


def optspan_all_pairs(g: Graph, eps) -> frozenset:
    """The same removal search, with every candidate tested on all pairs."""
    one_plus = 1 + eps
    iw = g._iw
    removable = sorted(range(g.edge_count), key=lambda e: -iw[e])
    all_ids = frozenset(range(g.edge_count))
    best = [all_ids, sum(iw)]

    def search(i, removed, removed_w):
        keep = all_ids - removed
        if sum(iw) - removed_w < best[1] and _stretch_ok_all_pairs(g, keep, one_plus):
            best[:] = [keep, sum(iw) - removed_w]
        for j in range(i, len(removable)):
            e = removable[j]
            if _stretch_ok_all_pairs(g, keep - {e}, one_plus):
                search(j + 1, removed | {e}, removed_w + iw[e])

    search(0, frozenset(), 0)
    return best[0]


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    eps=st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(3)]),
)
def test_optspan_matches_all_pairs_feasibility(seed, eps):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    weights = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)]
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(rng.randint(0, 6)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    g = Graph(n, edges)
    best = brute_force_optspan_edges(g, eps)
    assert best.ids == optspan_all_pairs(g, eps)
    assert _stretch_ok_all_pairs(g, best.ids, 1 + eps)
    # no lighter feasible keep-set exists, checked over every subset
    for mask in range(1 << g.edge_count):
        keep = frozenset(e for e in range(g.edge_count) if mask >> e & 1)
        if EdgeSubset(g, keep).weight() < best.weight():
            assert not _stretch_ok_all_pairs(g, keep, 1 + eps)


class TestCycleEnumeration:
    def test_tree_has_no_cycles(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        rep = enumerate_cycles_check(g, 5)
        assert rep.ok and rep.cycles_checked == 0

    def test_square_pass_and_fail(self):
        g = unit_square()
        assert enumerate_cycles_check(g, 2).ok  # detour 3 > 2
        rep = enumerate_cycles_check(g, 3)  # detour 3 <= 3
        assert not rep.ok
        (v,) = rep.violations
        assert v["heaviest"] == 3 and v["detour"] == "3" and v["allowed"] == "3"

    def test_theta_counts_all_three_cycles(self):
        edges = [(0, 1, 1), (0, 2, 1), (2, 1, 1), (0, 3, 1), (3, 1, 1)]
        g = Graph(4, edges)
        rep = enumerate_cycles_check(g, Fraction(3, 2))
        assert rep.ok and rep.cycles_checked == 3
        assert not enumerate_cycles_check(g, 2).ok

    def test_disjoint_union_not_a_simple_cycle(self):
        # two triangles joined by a bridge: the XOR of both is disconnected
        edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1),
                 (3, 4, 1), (4, 5, 1), (5, 3, 1)]
        g = Graph(6, edges)
        rep = enumerate_cycles_check(g, Fraction(3, 2))
        assert rep.cycles_checked == 2

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            enumerate_cycles_check(unit_square(), Fraction(1, 2))

    def test_cyclomatic_guard(self):
        g = Graph(2, [(0, 1, 1)] * 14)
        with pytest.raises(ResourceGuardError):
            enumerate_cycles_check(g, 2)

    def test_matches_per_edge_minimality(self, rng):
        # removing any single edge within its detour allowance <=> some simple
        # cycle's heaviest edge is within its allowance
        agree_false = 0
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 10), rng.randint(0, 6))
            eps = rng.choice([Fraction(1, 4), Fraction(1), Fraction(4)])
            a = verify_spanner_minimality(g, EdgeSubset(g, range(g.edge_count)), eps).ok
            b = enumerate_cycles_check(g, 1 + eps).ok
            assert a == b
            if not a:
                agree_false += 1
        assert agree_false >= 5  # the equivalence must be exercised both ways


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tsp_oracles_agree_property(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 5))
    t = exact_tsp(g)
    assert t.cost == brute_force_exploration(g).cost
    lo, hi = mst_bounds(g)
    assert lo <= t.cost <= hi
