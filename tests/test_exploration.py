import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphexplore.core import (
    INF,
    EdgeSubset,
    Graph,
    shortest_path_distances,
)
from graphexplore.errors import (
    GraphStructureError,
    OnlinePurityError,
    StateError,
)
from graphexplore.exploration import (
    ExplorationParams,
    ExplorationState,
    TieBreak,
    TraversalLog,
    TraversalStep,
    internally_explored_distance,
    is_blocked,
    run_blocking,
    run_nearest_neighbor,
    taken_union_mst,
    verify_blocking_cycle_property,
    verify_cost_chain,
)
from graphexplore.instances import (
    gen_comb_lower_bound,
    gen_erdos_renyi,
    gen_grid,
    gen_random_planar,
    gen_toroidal_grid,
)
from graphexplore.oracle import enumerate_cycles_check, reference_blocking

from conftest import random_connected_graph


def comb_cost(k: int, delta) -> Fraction:
    """Closed-form total cost of the scripted run on the comb instance.

    Derived by summing the walk pieces: spine out and unwound (2(2k-1)),
    light teeth (2k), and per heavy tooth an approach from the tooth that
    re-activated it, the tooth itself, and the walk back; the approaches
    telescope to k(k+1) and each return costs h + (approach distance).
    """
    d = Fraction(delta)
    h = Fraction(k + 1, int(d) + 1) if d.denominator == 1 else (k + 1) / (d + 1)
    return 2 * k * k + 8 * k - 2 + 2 * k * h


def assert_closed_walk(g: Graph, log: TraversalLog, start: int) -> None:
    """The step sequence is one continuous closed walk over real edges, and
    every verifier verdict stored in the log passed."""
    for name, report in log.verification.items():
        assert report.get("ok", True), name
    pos = start
    total = Fraction(0)
    for s in log.steps:
        assert s.source == pos
        u, v = g.endpoints(s.edge)
        assert {s.source, s.dest} == {u, v}
        total += g.weight(s.edge)
        pos = s.dest
    assert pos == start
    assert total == log.total_cost


class TestSmallRuns:
    def test_single_edge(self):
        g = Graph(2, [(0, 1, Fraction(7, 4))])
        log = run_blocking(g, ExplorationParams(delta=1))
        assert log.total_cost == Fraction(7, 2)
        assert log.taken_boundary.ids == {0}
        assert_closed_walk(g, log, 0)

    def test_star_equal_weights_never_blocks(self):
        k = 9
        g = Graph(k + 1, [(0, i + 1, 1) for i in range(k)])
        log = run_blocking(g, ExplorationParams(delta=Fraction(1, 3)))
        assert log.total_cost == 2 * k
        # ties resolved by edge id
        assert [s.edge for s in log.steps if s.role == "take-boundary"] == list(range(k))

    def test_star_scripted_order(self):
        k = 5
        g = Graph(k + 1, [(0, i + 1, 1) for i in range(k)])
        script = (3, 0, 4, 1, 2)
        log = run_blocking(
            g, ExplorationParams(delta=1, tie_break=TieBreak.adversarial(script))
        )
        assert [s.edge for s in log.steps if s.role == "take-boundary"] == list(script)

    def test_triangle_heavy_edge_stays_out(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 10)])
        for start in range(3):
            log = run_blocking(g, ExplorationParams(delta=1, start=start))
            assert 2 not in log.taken_boundary.ids
            assert log.verification["cycle_minimality"]["ok"]
            assert_closed_walk(g, log, start)

    def test_disconnected_rejected(self):
        g = Graph(3, [(0, 1, 1)])
        with pytest.raises(GraphStructureError):
            run_blocking(g, ExplorationParams(delta=1))

    def test_start_out_of_range(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            run_blocking(g, ExplorationParams(delta=1, start=7))

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            ExplorationParams(delta=0)


class TestInternallyExploredDistance:
    def test_zero_for_same_vertex(self):
        g = Graph(2, [(0, 1, 1)])
        st_ = ExplorationState.initial(g, 0)
        assert internally_explored_distance(st_, g, 0, 0) == 0

    def test_star_center_two_learned_leaves(self):
        g = Graph(3, [(0, 1, 2), (0, 2, 3)])
        st_ = ExplorationState.initial(g, 0)
        assert internally_explored_distance(st_, g, 1, 2) == 5

    def test_unlearned_vertex_rejected(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        st_ = ExplorationState.initial(g, 0)
        with pytest.raises(ValueError):
            internally_explored_distance(st_, g, 0, 2)

    def test_fully_explored_equals_dijkstra(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, 8, 5)
            st_ = ExplorationState.from_explored(g, range(8), 0)
            ref = shortest_path_distances(g, 3)
            for y in range(8):
                assert internally_explored_distance(st_, g, 3, y) == ref.dist[y]

    def test_unexplored_interior_blocks_path(self):
        # 0 -- 1 -- 2 with 1 unexplored: no internally explored 0-2 path
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        st_ = ExplorationState.from_explored(g, [0], 0)
        assert internally_explored_distance(st_, g, 0, 1) == 1
        assert internally_explored_distance(st_, g, 0, 2) == 5  # direct edge only


class TestBlockingPredicate:
    """Boundary arithmetic on a frozen comb state (spine fully explored)."""

    def setup_method(self):
        self.k, self.delta = 3, Fraction(2)
        self.g, _, _ = gen_comb_lower_bound(self.k, self.delta)
        # spine vertices are 0..2k-1; lights at 2k..3k-1 attach to 0..k-1,
        # heavies at 3k..4k-1 attach to k..2k-1
        self.st = ExplorationState.from_explored(self.g, range(2 * self.k), 2 * self.k - 1)

    def test_heavy_blocked_at_exact_equality(self):
        # farthest heavy: nearest light sits at distance exactly k+1 = (1+delta)h
        blocked, wit = is_blocked(self.st, self.g, 10, self.delta)
        assert blocked and wit == {8}

    def test_heavy_witness_set_grows_toward_spine_start(self):
        blocked, wit = is_blocked(self.st, self.g, 9, self.delta)
        assert blocked and wit == {7, 8}
        blocked, wit = is_blocked(self.st, self.g, 8, self.delta)
        assert blocked and wit == {6, 7, 8}

    def test_unblocked_one_step_beyond(self):
        # with the two nearest lights gone the best witness is at k+2
        st2 = ExplorationState.from_explored(
            self.g, list(range(2 * self.k)) + [7, 8], 2 * self.k - 1
        )
        blocked, wit = is_blocked(st2, self.g, 9, self.delta)
        assert not blocked and wit == set()

    def test_minimum_weight_edge_never_blocked(self):
        blocked, _ = is_blocked(self.st, self.g, 5, self.delta)
        assert not blocked

    def test_smaller_delta_cannot_reach_witness(self):
        blocked, _ = is_blocked(self.st, self.g, 10, Fraction(1))
        assert not blocked

    def test_non_boundary_edge_rejected(self):
        with pytest.raises(StateError):
            is_blocked(self.st, self.g, 0, self.delta)

    def test_records_nothing(self):
        # re-activation records come from the witness sweep alone
        blocked, wit = is_blocked(self.st, self.g, 10, self.delta)
        assert blocked and wit == {8}
        assert self.st.rec_by_witness == {} and self.st._active_wit == {}


class TestCombLowerBound:
    def test_exact_cost_k25_delta3(self):
        g, start, script = gen_comb_lower_bound(25, 3)
        log = run_blocking(
            g, ExplorationParams(delta=3, start=start, tie_break=TieBreak.adversarial(script))
        )
        assert log.total_cost == comb_cost(25, 3) == 1773
        assert log.total_cost >= 25 * 25
        assert_closed_walk(g, log, start)

    @pytest.mark.parametrize("k,delta", [(2, 1), (3, 2), (4, 3), (6, Fraction(3, 2)), (7, Fraction(1, 2))])
    def test_closed_form_cost(self, k, delta):
        d = Fraction(delta)
        g, start, script = gen_comb_lower_bound(k, d)
        log = run_blocking(
            g, ExplorationParams(delta=d, start=start, tie_break=TieBreak.adversarial(script))
        )
        expected = 2 * k * k + 8 * k - 2 + 2 * k * (k + 1) / (d + 1)
        assert log.total_cost == expected

    def test_heavy_teeth_taken_last_and_far(self):
        # the scripted run pays an approach of >= k for every heavy tooth
        k = 5
        g, start, script = gen_comb_lower_bound(k, 2)
        log = run_blocking(
            g, ExplorationParams(delta=2, start=start, tie_break=TieBreak.adversarial(script))
        )
        heavy_ids = set(range(3 * k - 1, 4 * k - 1))
        for hid in heavy_ids:
            approach = sum(
                g.weight(s.edge) for s in log.steps
                if s.charged_to == hid and s.role == "approach"
            )
            assert approach >= k


class TestDeterminismAndTieBreaks:
    def test_identical_runs_identical_logs(self):
        g = gen_random_planar(35, seed=6)
        p = ExplorationParams(delta=Fraction(1, 2))
        a, b = run_blocking(g, p), run_blocking(g, p)
        assert a.steps == b.steps and a.total_cost == b.total_cost

    def test_random_tie_break_reproducible(self):
        g = gen_toroidal_grid(4, 4, weights="unit")
        pa = ExplorationParams(delta=1, tie_break=TieBreak.random(seed=5))
        a, b = run_blocking(g, pa), run_blocking(g, pa)
        assert a.steps == b.steps

    def test_tie_break_descriptor_in_log(self):
        g = Graph(2, [(0, 1, 1)])
        log = run_blocking(g, ExplorationParams(delta=1, tie_break=TieBreak.random(seed=9)))
        assert log.tie_break.describe() == {"random": 9}
        assert log.to_json_dict()["params"]["tie_break"] == {"random": 9}


class TestCostChain:
    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(2), Fraction(5)])
    def test_observation_bounds_random_families(self, rng, delta):
        for build in (
            lambda: gen_random_planar(30, seed=rng.randrange(1000)),
            lambda: gen_toroidal_grid(4, 4, weights="uniform", seed=rng.randrange(1000)),
            lambda: gen_erdos_renyi(12, Fraction(2, 5), seed=rng.randrange(1000)),
        ):
            g = build()
            log = run_blocking(g, ExplorationParams(delta=delta))
            rep = verify_cost_chain(g, log, delta)
            assert rep.ok, rep.failures
            assert log.total_cost <= 2 * (delta + 2) * log.taken_boundary.weight()
            for entry in rep.per_edge:
                w = entry["weight"]
                assert entry["approach"] <= (1 + delta) * w
                assert entry["take"] == w
                assert entry["ret"] <= (2 + delta) * w

    def test_every_charge_lands_on_taken_edge(self):
        g = gen_random_planar(40, seed=1)
        log = run_blocking(g, ExplorationParams(delta=2))
        for s in log.steps:
            assert s.charged_to in log.taken_boundary.ids

    def test_fault_injection_overcharge_flagged(self):
        g = Graph(2, [(0, 1, 1)])
        log = run_blocking(g, ExplorationParams(delta=1))
        bogus = TraversalLog(
            algorithm=log.algorithm,
            start=log.start,
            steps=log.steps + tuple(
                [TraversalStep(edge=0, source=0, dest=1, role="approach", charged_to=0)] * 9
            ),
            total_cost=log.total_cost + 9,
            taken_boundary=log.taken_boundary,
            delta=log.delta,
            tie_break=log.tie_break,
            blocker_records=log.blocker_records,
        )
        rep = verify_cost_chain(g, bogus, 1)
        assert not rep.ok and rep.failures

    def test_optspan_link_with_supplied_bound(self):
        g = gen_random_planar(25, seed=3)
        delta = Fraction(2)
        log = run_blocking(g, ExplorationParams(delta=delta))
        rep = verify_cost_chain(g, log, delta, optspan_bound=1 + 2 / delta)
        assert rep.ok and rep.optspan_ok

    def test_nearest_neighbor_snakes_through_grid(self):
        # boustrophedon over the 4x4 unit grid: 15 edges, then 3 home
        g = gen_grid(4, 4)
        log = run_nearest_neighbor(g)
        assert log.total_cost == 15 + 3
        assert_closed_walk(g, log, 0)


class TestCycleProperty:
    def test_tree_vacuous(self):
        g, start, script = gen_comb_lower_bound(4, 2)
        log = run_blocking(
            g, ExplorationParams(delta=2, start=start, tie_break=TieBreak.adversarial(script))
        )
        rep = verify_blocking_cycle_property(g, log, 2)
        assert rep.ok
        assert all(e["detour"] == INF for e in rep.entries)

    def test_agreement_with_cycle_enumeration(self, rng):
        from graphexplore.core import restrict

        cyclic = 0
        for _ in range(25):
            g = random_connected_graph(rng, 10, 6)
            delta = Fraction(1, 2)
            log = run_blocking(g, ExplorationParams(delta=delta))
            rep = verify_blocking_cycle_property(g, log, delta)
            assert rep.ok
            sub, _ = restrict(g, taken_union_mst(g, log))
            nu = sub.edge_count - sub.n + 1
            if nu > 0:
                cyclic += 1
            assert enumerate_cycles_check(sub, 1 + delta).ok
        assert cyclic >= 3  # the agreement must be exercised on real cycles

    def test_violation_detected_on_corrupt_b(self):
        # pretend blocking took every edge of a unit square: the 4th edge's
        # detour is 3 <= (1+2) * 1 under delta = 2
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        log = run_blocking(g, ExplorationParams(delta=2))
        bogus = TraversalLog(
            algorithm=log.algorithm,
            start=log.start,
            steps=log.steps,
            total_cost=log.total_cost,
            taken_boundary=EdgeSubset(g, {0, 1, 2, 3}),
            delta=log.delta,
            tie_break=log.tie_break,
            blocker_records=log.blocker_records,
        )
        rep = verify_blocking_cycle_property(g, bogus, 2)
        assert not rep.ok and rep.violations

    def test_entries_match_per_edge_dijkstra(self, rng):
        # random S = B + MST_B on multigraphs: every edge gets its exact
        # detour when within the bound, INF otherwise (bridges included)
        bridged = cyclic = 0
        for _ in range(40):
            base = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8), denom=2)
            edges = [(*base.endpoints(e), base.weight(e)) for e in range(base.edge_count)]
            for _ in range(rng.randint(0, 2)):
                u, v, w = rng.choice(edges)
                edges.append((u, v, w))  # a doubled edge in S is no bridge
            g = Graph(base.n, edges)
            b = EdgeSubset(g, rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
            log = TraversalLog("blocking", 0, (), Fraction(0), b)
            delta = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3)])
            rep = verify_blocking_cycle_property(g, log, delta)
            s_ids = taken_union_mst(g, log).ids
            expected = []
            for eid in sorted(s_ids):
                u, v = g.endpoints(eid)
                d = shortest_path_distances(
                    g, u, edge_filter=lambda e, eid=eid: e in s_ids and e != eid
                ).dist[v]
                bound = (1 + delta) * g.weight(eid)
                expected.append({"edge": eid, "detour": d if d <= bound else INF, "bound": bound})
                bridged += d == INF
                cyclic += d != INF
            assert rep.entries == expected
            assert rep.checked == len(s_ids)
            assert rep.ok == all(e["detour"] == INF for e in expected)
        assert bridged and cyclic


class TestOnlinePurity:
    def test_view_rejects_unexplored_reads(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        st_ = ExplorationState.initial(g, 0)
        st_.view.incident(0)
        with pytest.raises(OnlinePurityError):
            st_.view.incident(2)

    def test_runs_report_zero_violations(self):
        for g in (gen_random_planar(30, seed=2), gen_toroidal_grid(4, 5, seed=1)):
            log = run_blocking(g, ExplorationParams(delta=2))
            audit = log.verification["access_audit"]
            assert audit["violations"] == 0
            assert audit["adjacency_reads"] > 0
            log2 = run_nearest_neighbor(g)
            assert log2.verification["access_audit"]["violations"] == 0


class TestNearestNeighbor:
    def test_single_edge(self):
        g = Graph(2, [(0, 1, Fraction(5, 2))])
        log = run_nearest_neighbor(g)
        assert log.total_cost == 5

    def test_unit_path_sweep(self):
        n = 9
        g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)])
        log = run_nearest_neighbor(g)
        assert log.total_cost == 2 * (n - 1)

    def test_comb_cost_recorded(self):
        g, start, _ = gen_comb_lower_bound(4, 2)
        log = run_nearest_neighbor(g, start)
        assert log.total_cost > 0
        assert_closed_walk(g, log, start)


class TestLogSerialization:
    def test_json_shape(self):
        g, start, script = gen_comb_lower_bound(2, 1)
        log = run_blocking(
            g, ExplorationParams(delta=1, start=start, tie_break=TieBreak.adversarial(script))
        )
        doc = log.to_json_dict()
        assert doc["total_cost"] == str(log.total_cost)
        assert doc["boundary_edges"] == sorted(log.taken_boundary.ids)
        assert {"edge", "from", "to", "role", "charged_to"} <= set(doc["steps"][0])
        assert doc["verification"]["cost_chain"]["ok"] is True


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]),
)
def test_exploration_completes_and_returns_property(seed, delta):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 8))
    start = rng.randrange(g.n)
    log = run_blocking(g, ExplorationParams(delta=delta, start=start))
    assert_closed_walk(g, log, start)
    assert log.verification["cost_chain"]["ok"]
    assert log.verification["cycle_minimality"]["ok"]


def _tied_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random connected graph whose weights come from {1, 3/2, 2}: many ties."""
    weights = (Fraction(1), Fraction(3, 2), Fraction(2))
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    return Graph(n, edges)


@settings(max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]),
    kind=st.sampled_from(["by_edge_id", "adversarial", "random"]),
)
def test_engine_matches_reference_definition(seed, delta, kind):
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    g = _tied_graph(rng, n, rng.randint(0, 2 * n))
    if kind == "by_edge_id":
        tb = TieBreak.by_edge_id()
    elif kind == "adversarial":
        tb = TieBreak.adversarial(rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
    else:
        tb = TieBreak.random(rng.randrange(1000))
    params = ExplorationParams(delta=delta, start=rng.randrange(n), tie_break=tb)
    log = run_blocking(g, params)
    ref = reference_blocking(g, params)
    assert [s.edge for s in log.steps if s.role == "take-boundary"] == [
        s.edge for s in ref.steps if s.role == "take-boundary"
    ]
    assert log.steps == ref.steps
    assert log.total_cost == ref.total_cost
    assert log.blocker_records == ref.blocker_records
    assert all(log.verification[name]["ok"] for name in ("cost_chain", "cycle_minimality"))
