import gc
import json
import random
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from graphexplore.core import (
    INF,
    EdgeSubset,
    Graph,
    shortest_path_distances,
)
from graphexplore.errors import (
    GraphStructureError,
    InvariantViolation,
    OnlinePurityError,
    StateError,
)
from graphexplore.experiments import resolve_delta
from graphexplore.exploration import (
    ExplorationParams,
    ExplorationState,
    TraversalLog,
    TraversalStep,
    TraversalSteps,
    _Engine,
    _ball,
    _empty_ball,
    _dijkstra_explored,
    _path_to,
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
    gen_random_tree,
    gen_toroidal_grid,
    read_graph,
)
from graphexplore.oracle import enumerate_cycles_check, reference_blocking

from conftest import random_connected_graph


def comb_cost(k: int, delta) -> Fraction:
    """Closed-form total cost of the blocking run on the comb instance.

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
        # another order is another numbering: edge i leads to leaf script[i]
        k = 5
        script = (3, 0, 4, 1, 2)
        g = Graph(k + 1, [(0, leaf + 1, 1) for leaf in script])
        log = run_blocking(g, ExplorationParams(delta=1))
        taken = [s.dest for s in log.steps if s.role == "take-boundary"]
        assert taken == [leaf + 1 for leaf in script]

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
    """The Dijkstra kernel's distances: explored vertices settle, unexplored
    ones are leaves reached over one boundary edge and never passed through."""

    def test_zero_for_same_vertex(self):
        g = Graph(2, [(0, 1, 1)])
        st_ = ExplorationState.initial(g, 0)
        settled, leaves = _dijkstra_explored(st_, 0, want_leaves=True)
        assert settled == [0] and st_._dj_dist[0] == 0
        assert leaves == {1: 1}

    def test_fully_explored_equals_dijkstra(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, 8, 5)
            st_ = ExplorationState.from_explored(g, range(8), 0)
            settled, _ = _dijkstra_explored(st_, 3)
            assert sorted(settled) == list(range(8))
            ref = shortest_path_distances(g, 3)
            for y in range(8):
                assert Fraction(st_._dj_dist[y], g._scale) == ref.dist[y]

    def test_guided_search_keeps_the_path_and_sees_ties(self, rng):
        # a guide of exact distances to the target leaves the path alone;
        # with positive weights it reports a tie iff a second shortest path
        # exists, counted over tight edges in order of distance
        for _ in range(40):
            n = rng.randint(2, 10)
            g = _tied_graph(rng, n, rng.randint(0, 2 * n))
            st_ = ExplorationState.from_explored(g, range(n), 0)
            s, t = rng.sample(range(n), 2)
            _dijkstra_explored(st_, s, target=t)
            path = _path_to(st_, t)
            settled, _ = _dijkstra_explored(st_, s)
            dist = {x: st_._dj_dist[x] for x in settled}
            count = dict.fromkeys(range(n), 0)
            count[s] = 1
            for x in sorted(settled, key=dist.__getitem__):
                for y, _, w in g._adj[x]:
                    if dist[x] + w == dist[y]:
                        count[y] += count[x]
            guide, _ = _ball(st_, t, sum(g._iw))
            _dijkstra_explored(st_, s, target=t, guide=guide)
            assert _path_to(st_, t) == path
            assert st_._dj_tie == (count[t] > 1)
            guide[s] = -1
            with pytest.raises(InvariantViolation):
                _dijkstra_explored(st_, s, target=t, guide=guide)

    def test_unexplored_interior_blocks_path(self):
        # 0 -- 1 -- 2 with 1 unexplored: no internally explored 0-2 path
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        st_ = ExplorationState.from_explored(g, [0], 0)
        _, leaves = _dijkstra_explored(st_, 0, want_leaves=True)
        assert leaves == {1: 1, 2: 5}  # 2 by its direct edge only


@settings(max_examples=200)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(0, 6),
            st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)]),
        ).filter(lambda e: e[0] != e[1]),
        max_size=16,
    ),
    order=st.permutations(range(7)),
)
def test_state_bookkeeping_after_every_explore(edges, order):
    # parallel and zero-weight edges, explored in a random order: after
    # every mark_explored the boundary equals its definition
    g = Graph(7, edges)
    iw = g._iw
    st_ = ExplorationState.initial(g, order[0])
    for i in range(1, len(order) + 1):
        explored = set(order[:i])
        boundary = []
        for u in range(g.n):
            # u's edges to unexplored vertices, in id order, if u is explored
            want = [
                e for e in range(g.edge_count)
                if u in explored and u in g.endpoints(e) and sum(g.endpoints(e)) - u not in explored
            ]
            assert st_.out[u] == want
            for e in want:
                assert st_.src[e] == u and st_.far[e] == sum(g.endpoints(e)) - u
            boundary += want
        for v in range(g.n):
            into = [iw[e] for e in boundary if v in g.endpoints(e)] if v not in explored else []
            assert st_.minw[v] == (min(into) if into else None)
        assert st_.min_boundary_weight_scaled() == min((iw[e] for e in boundary), default=None)
        for e in range(g.edge_count):
            a, b = g.endpoints(e)
            assert st_.on_boundary(e) == ((a in explored) != (b in explored))
        if i < len(order):
            st_.mark_explored(order[i])


class TestBlockingPredicate:
    """Boundary arithmetic on a frozen comb state (spine fully explored)."""

    def setup_method(self):
        self.k, self.delta = 3, Fraction(2)
        self.g = gen_comb_lower_bound(self.k, self.delta)
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
        # re-activation records come from the engine's ball lookup alone;
        # the state holds none, and a check leaves its boundary as it was
        st_ = self.st
        before = ([list(o) for o in st_.out], list(st_.minw), list(st_.src), list(st_.far))
        blocked, wit = is_blocked(st_, self.g, 10, self.delta)
        assert blocked and wit == {8}
        assert (st_.out, st_.minw, st_.src, st_.far) == before


class TestCombLowerBound:
    def test_exact_cost_k25_delta3(self):
        g = gen_comb_lower_bound(25, 3)
        log = run_blocking(g, ExplorationParams(delta=3))
        assert log.total_cost == comb_cost(25, 3) == 1773
        assert log.total_cost >= 25 * 25
        assert_closed_walk(g, log, 0)

    @pytest.mark.parametrize("k,delta", [(2, 1), (3, 2), (4, 3), (6, Fraction(3, 2)), (7, Fraction(1, 2))])
    def test_closed_form_cost(self, k, delta):
        d = Fraction(delta)
        g = gen_comb_lower_bound(k, d)
        log = run_blocking(g, ExplorationParams(delta=d))
        expected = 2 * k * k + 8 * k - 2 + 2 * k * (k + 1) / (d + 1)
        assert log.total_cost == expected

    def test_heavy_teeth_taken_last_and_far(self):
        # the run in edge-id order pays an approach of >= k for every heavy tooth
        k = 5
        g = gen_comb_lower_bound(k, 2)
        log = run_blocking(g, ExplorationParams(delta=2))
        heavy_ids = set(range(3 * k - 1, 4 * k - 1))
        for hid in heavy_ids:
            approach = sum(
                g.weight(s.edge) for s in log.steps
                if s.charged_to == hid and s.role == "approach"
            )
            assert approach >= k

    def test_walks_cost_about_what_they_emit(self):
        # on the benchmark's comb k=200 at delta=2 the steps are the output
        # itself; ball-guided approaches and retraced dead-end returns keep
        # the reads near them (searching every walk read 239,785)
        g = gen_comb_lower_bound(200, 2)
        log = run_blocking(g, ExplorationParams(delta=2, verify_invariants=False))
        assert len(log.steps) == 81_998
        assert log.verification["access_audit"]["adjacency_reads"] <= 130_000


class TestDeterminismAndTieBreaks:
    def test_identical_runs_identical_logs(self):
        g = gen_random_planar(35, seed=6)
        p = ExplorationParams(delta=Fraction(1, 2))
        a, b = run_blocking(g, p), run_blocking(g, p)
        assert a.steps == b.steps and a.total_cost == b.total_cost

    def test_random_tie_break_reproducible(self):
        # a seeded renumbering of the edges is a seeded random tie-break
        g = gen_toroidal_grid(4, 4, weights="unit")
        a, b = (run_blocking(_renumbered(g, random.Random(5)), ExplorationParams(delta=1))
                for _ in range(2))
        assert a.steps == b.steps


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

    def test_every_charge_lands_on_taken_edge(self):
        g = gen_random_planar(40, seed=1)
        log = run_blocking(g, ExplorationParams(delta=2))
        for s in log.steps:
            assert s.charged_to in log.taken_boundary.ids

    def test_fault_injection_overcharge_flagged(self):
        g = Graph(2, [(0, 1, 1)])
        log = run_blocking(g, ExplorationParams(delta=1))
        steps = log.steps
        steps.add_path([(0, 0, 1)] * 9, "approach", 0)
        bogus = TraversalLog(
            algorithm=log.algorithm,
            start=log.start,
            steps=steps,
            total_cost=log.total_cost + 9,
            taken_boundary=log.taken_boundary,
            delta=log.delta,
            blocker_records=log.blocker_records,
        )
        rep = verify_cost_chain(g, bogus, 1)
        assert not rep.ok and rep.failures

    def test_nearest_neighbor_snakes_through_grid(self):
        # boustrophedon over the 4x4 unit grid: 15 edges, then 3 home
        g = gen_grid(4, 4)
        log = run_nearest_neighbor(g)
        assert log.total_cost == 15 + 3
        assert_closed_walk(g, log, 0)


class TestCycleProperty:
    def test_tree_vacuous(self):
        g = gen_comb_lower_bound(4, 2)
        log = run_blocking(g, ExplorationParams(delta=2))
        rep = verify_blocking_cycle_property(g, log, 2)
        assert rep.ok and not rep.violations
        assert rep.checked == g.edge_count == g.n - 1

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
            blocker_records=log.blocker_records,
        )
        rep = verify_blocking_cycle_property(g, bogus, 2)
        assert not rep.ok and rep.violations

    def test_entries_match_per_edge_dijkstra(self, rng):
        # random S = B + MST_B on multigraphs: the report lists exactly the
        # edges of S whose detour inside S without them is within
        # (1+delta) w, with that detour, by their ids in g
        bridged = cyclic = 0
        for _ in range(40):
            base = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8), denom=2)
            edges = [(*base.endpoints(e), base.weight(e)) for e in range(base.edge_count)]
            for _ in range(rng.randint(0, 2)):
                u, v, w = rng.choice(edges)
                edges.append((u, v, w))  # a doubled edge in S is no bridge
            g = Graph(base.n, edges)
            b = EdgeSubset(g, rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
            log = TraversalLog("blocking", 0, TraversalSteps(), Fraction(0), b)
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
                if d <= bound:
                    expected.append({"edge": eid, "detour": str(d), "allowed": str(bound)})
                bridged += d == INF
                cyclic += d != INF
            assert rep.violations == expected
            assert rep.checked == len(s_ids)
            assert rep.ok == (not expected)
        assert bridged and cyclic

    def test_violations_use_graph_edge_ids(self):
        # S = B + MST_B is edges 2..5 of g, a unit square that B takes whole;
        # ids 0 and 1 are heavy edges outside S, so S's ids are not 0..3
        g = Graph(4, [(0, 2, 9), (0, 1, 5), (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        log = TraversalLog("blocking", 0, TraversalSteps(), Fraction(0), EdgeSubset(g, {2, 3, 4, 5}))
        rep = verify_blocking_cycle_property(g, log, 2)
        assert rep.checked == 4
        assert rep.violations == [
            {"edge": e, "detour": "3", "allowed": "3"} for e in (2, 3, 4, 5)
        ]


class TestOnlinePurity:
    def test_kernel_rejects_unexplored_seed(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        st_ = ExplorationState.initial(g, 0)
        _dijkstra_explored(st_, 0)
        reads = st_.adjacency_reads
        with pytest.raises(OnlinePurityError):
            _dijkstra_explored(st_, 2)
        assert st_.adjacency_reads == reads

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
        g = gen_comb_lower_bound(4, 2)
        log = run_nearest_neighbor(g)
        assert log.total_cost > 0
        assert_closed_walk(g, log, 0)


class TestLogSerialization:
    def test_json_shape(self):
        g = gen_comb_lower_bound(2, 1)
        log = run_blocking(g, ExplorationParams(delta=1))
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


def _tied_graph(
    rng: random.Random,
    n: int,
    extra: int,
    weights=(Fraction(1), Fraction(3, 2), Fraction(2)),
) -> Graph:
    """Random connected graph whose weights come from `weights`: many ties."""
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    return Graph(n, edges)


def _renumbered(g: Graph, rng: random.Random) -> Graph:
    """g with its edges renumbered in a seeded random order.

    Ties are broken by edge id, so this is a seeded random tie-break.
    """
    edges = [(*g.endpoints(e), g.weight(e)) for e in range(g.edge_count)]
    rng.shuffle(edges)
    return Graph(g.n, edges)


@settings(max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]),
    shuffled=st.booleans(),
)
# a dead-end return that must search: its approach had a second shortest path
@example(seed=96, delta=Fraction(1, 2), shuffled=True)
def test_engine_matches_reference_definition(seed, delta, shuffled):
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    g = _tied_graph(rng, n, rng.randint(0, 2 * n))
    if shuffled:
        g = _renumbered(g, rng)
    params = ExplorationParams(delta=delta, start=rng.randrange(n))
    log = run_blocking(g, params)
    ref = reference_blocking(g, params)
    assert [s.edge for s in log.steps if s.role == "take-boundary"] == [
        s.edge for s in ref.steps if s.role == "take-boundary"
    ]
    assert log.steps == ref.steps
    assert log.total_cost == ref.total_cost
    assert log.blocker_records == ref.blocker_records
    assert all(log.verification[name]["ok"] for name in ("cost_chain", "cycle_minimality"))


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=10**6))
# a second shortest path into the target from a vertex settled after it
@example(seed=12373)
def test_engine_matches_reference_with_zero_weights(seed):
    # zero-weight edges put several vertices at the distance of a walk's
    # target: a guided approach must still see every second shortest path
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    g = _tied_graph(rng, n, rng.randint(0, 2 * n), (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)))
    g = _renumbered(g, rng)
    delta = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)])
    params = ExplorationParams(delta, rng.randrange(n))
    log = run_blocking(g, params)
    ref = reference_blocking(g, params)
    assert log.steps == ref.steps and log.blocker_records == ref.blocker_records


def _small_instance(family: str, rng: random.Random):
    """(graph, start) of a seeded instance with n <= 16; half of them, the
    comb aside, have their edges renumbered at random."""
    seed = rng.randrange(10**6)
    if family == "comb_lower_bound":
        return gen_comb_lower_bound(rng.randint(2, 4), 1), 0
    if family == "random_planar":
        g = gen_random_planar(rng.randint(3, 16), seed=seed)
    elif family == "toroidal_grid":
        g = gen_toroidal_grid(3, rng.randint(3, 5), seed=seed)
    elif family == "grid":
        g = gen_grid(rng.randint(1, 4), rng.randint(2, 4), weights="uniform", seed=seed)
    elif family == "random_tree":
        g = gen_random_tree(rng.randint(2, 16), seed=seed)
    elif family == "erdos_renyi":
        g = gen_erdos_renyi(rng.randint(2, 16), Fraction(1, 3), seed=seed)
    else:  # ties, zero weights among them: zero-length paths and balls
        n = rng.randint(2, 11)
        weights = (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2))
        g = _tied_graph(rng, n, rng.randint(0, 2 * n), weights)
    if rng.random() < 0.5:
        g = _renumbered(g, rng)
    return g, rng.randrange(g.n)


_FAMILIES = [
    "random_planar",
    "toroidal_grid",
    "grid",
    "random_tree",
    "erdos_renyi",
    "comb_lower_bound",
    "tied_with_zero",
]


@settings(max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]),
    family=st.sampled_from(_FAMILIES),
)
def test_engine_matches_reference_on_every_family(seed, delta, family):
    g, start = _small_instance(family, random.Random(seed))
    params = ExplorationParams(delta=delta, start=start)
    log = run_blocking(g, params)
    ref = reference_blocking(g, params)
    assert log.steps == ref.steps
    assert log.total_cost == ref.total_cost
    assert log.blocker_records == ref.blocker_records


def test_empty_ball_fits_its_radius():
    small = _empty_ball(5, 2**63 - 1)
    assert type(small) is array and small.typecode == "q" and list(small) == [-1] * 5
    big = _empty_ball(5, 2**63)
    assert big == [-1] * 5
    big[0] = 2**64  # a list holds any distance


def test_weights_beyond_64_bits_match_reference():
    # radii of 2**63 and more do not fit array('q'), so those balls are lists
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 9)
        weights = (Fraction(2**61), Fraction(2**63 - 1), Fraction(2**64), Fraction(2**66))
        g = _tied_graph(rng, n, rng.randint(0, 2 * n), weights)
        params = ExplorationParams(delta=Fraction(1, 2), start=rng.randrange(n))
        log = run_blocking(g, params)
        ref = reference_blocking(g, params)
        assert log.steps == ref.steps and log.blocker_records == ref.blocker_records


class _CheckedEngine(_Engine):
    """The engine, checking its balls and its witness index against fresh
    searches and the definition as it runs."""

    def _select(self, v):
        # after the balls are built, every source whose heaviest boundary
        # edge is heavier than the lightest one has a ball, and every ball
        # this select built equals a from-scratch search
        before = list(self.balls)
        eid = super()._select(v)
        st_ = self.state
        mn = st_.min_boundary_weight_scaled()
        for u in range(self.g.n):
            if st_.explored[u] and st_.out[u]:
                heavy = max(self.g._iw[e] for e in st_.out[u])
                assert self.balls[u] is not None or heavy <= mn
            ball = self.balls[u]
            if ball is not None and ball is not before[u]:
                fresh, leaves = _ball(st_, u, self.radius[u])
                assert list(ball) == list(fresh)
                assert sorted(self.leaves[u]) == sorted(leaves)
                assert all(u in self.holders[v] for v in leaves)
        return eid

    def _explore(self, z):
        super()._explore(z)
        st_ = self.state
        for u in range(self.g.n):
            # _select scans out[u] as it stands: it must be in id order
            assert not st_.explored[u] or st_.out[u] == sorted(st_.out[u])
            ball = self.balls[u]
            if ball is None:
                continue
            r = self.radius[u]
            assert r == max(self.bnd[e] for e in st_.out[u])
            fresh, leaves = _ball(st_, u, r)
            assert [d if d <= r else -1 for d in ball] == list(fresh)
            for v in leaves:
                assert v in self.leaves[u] and u in self.holders[v]
        # an edge still on the boundary and known to be blocked is filed
        # under its first witness, which still blocks it
        for e in range(self.g.edge_count):
            if not (e in self.wit and st_.on_boundary(e)):
                continue
            x = self.wit[e][0]
            assert not st_.explored[x] and e in self.filed[x]
            assert 0 <= self.balls[st_.src[e]][x] <= self.bnd[e]
            assert st_.minw[x] < self.g._iw[e]


@pytest.mark.parametrize("family", _FAMILIES)
def test_balls_stay_exact(family):
    # every live ball equals a from-scratch search within its radius when
    # it is built and after each vertex is explored, and its leaves know it
    # holds them; every edge known to be blocked waits on a witness that
    # still blocks it
    rng = random.Random(7)
    for _ in range(20):
        g, start = _small_instance(family, rng)
        delta = rng.choice([Fraction(1, 2), Fraction(2), Fraction(5)])
        params = ExplorationParams(delta=delta, start=start)
        log = _CheckedEngine(g, params).run()
        assert log.steps == reference_blocking(g, params).steps


def test_known_blocked_edges_wait_for_their_witness():
    # on the comb k=200 at delta=2 a heavy tooth stays blocked by a light
    # one for many selects; filed under its witness, it is checked again
    # only once that witness is explored: 999 checks in 1,599 selects
    calls = []

    class Counting(_Engine):
        def _blocked(self, eid, mn):
            calls.append(eid)
            return super()._blocked(eid, mn)

    delta = Fraction(2)
    log = Counting(gen_comb_lower_bound(200, delta), ExplorationParams(delta=delta)).run()
    assert log.total_cost == comb_cost(200, delta)
    assert len(calls) <= 1200


def test_equal_weights_build_no_ball():
    # on a unit grid no boundary edge is heavier than the lightest, so no
    # ball is ever built: the walks and the reads of each vertex explored
    # are all there is, 3,488 reads, as many as before balls existed
    g = gen_grid(32, 32)
    params = ExplorationParams(delta=resolve_delta("log2n", g.n), verify_invariants=False)
    log = run_blocking(g, params)
    assert log.verification["access_audit"]["adjacency_reads"] <= 3488


# ---------------------------------------------------------------------------
# the compact step log

DATA = Path(__file__).parent / "data"


class TestTraversalSteps:
    @pytest.fixture
    def pair(self):
        g = gen_random_planar(20, seed=4)
        log = run_blocking(g, ExplorationParams(delta=2))
        return log.steps, tuple(log.steps)

    def test_a_log_holds_columns(self, pair):
        steps, _ = pair
        assert type(steps) is TraversalSteps
        assert steps.edge.itemsize == 4 and steps.role.itemsize == 1
        assert not hasattr(steps, "__dict__")

    def test_indexes_and_slices(self, pair):
        steps, as_tuple = pair
        for i in (0, 1, len(steps) - 1, -1, -len(steps)):
            assert steps[i] == as_tuple[i] and type(steps[i]) is TraversalStep
        with pytest.raises(IndexError):
            steps[len(steps)]
        with pytest.raises(IndexError):
            steps[-len(steps) - 1]
        with pytest.raises(TypeError):
            steps[2:7]

    def test_out_of_range_id_raises_and_changes_nothing(self, pair):
        steps, as_tuple = pair
        for bad in ((2**31, 0, 1), (0, 0, -(2**31) - 1)):
            with pytest.raises(OverflowError):
                steps.add_path([(0, 0, 1), bad], "approach", 0)
            assert tuple(steps) == as_tuple
        with pytest.raises(OverflowError):
            steps.add_path([(0, 0, 1)], "approach", 2**31)
        assert tuple(steps) == as_tuple
        with pytest.raises(ValueError, match="role"):
            steps.add_path([(0, 0, 1)], "teleport", 0)
        assert tuple(steps) == as_tuple

    def test_hand_built_logs_share_the_form(self):
        g = Graph(2, [(0, 1, 1)])
        step = TraversalStep(0, 0, 1, "take-boundary", 0)
        with pytest.raises(TypeError, match="TraversalSteps"):
            TraversalLog("blocking", 0, [step], Fraction(1), EdgeSubset(g, {0}))
        steps = TraversalSteps()
        steps.add_path([(0, 0, 1)], "take-boundary", 0)
        steps.add_path([(0, 1, 0)], "return", 0)
        log = TraversalLog("blocking", 0, steps, Fraction(2), EdgeSubset(g, {0}))
        assert log.steps[0] == step
        assert verify_cost_chain(g, log, 1).ok

    def test_json_matches_the_tuple_era_log(self):
        # captured from the engine when steps were a tuple of TraversalStep
        g = read_graph(DATA / "comb_k3_d2.edges")
        log = run_blocking(g, ExplorationParams(delta=2))
        expected = json.loads((DATA / "comb_k3_d2.log.json").read_text(encoding="utf-8"))
        assert log.to_json_dict() == expected
        assert log.blocker_records == {4: (8,), 5: (8, 9), 6: (8,), 7: (8, 9), 8: (8, 9, 10)}


def test_log_memory_per_step_and_record():
    # what the log of comb k=200, delta=2 keeps alive, by tracemalloc: a
    # tuple of TraversalStep took about 97 bytes a step and frozensets of
    # witnesses about 48 bytes a record; columns take about 18 and tuples 8
    g = gen_comb_lower_bound(200, 2)
    params = ExplorationParams(delta=2, verify_invariants=False)
    tracemalloc.start()
    try:
        log = run_blocking(g, params)
        steps, pairs = len(log.steps), sum(map(len, log.blocker_records.values()))
        freed = {}
        for name in ("steps", "blocker_records"):
            before = tracemalloc.get_traced_memory()[0]
            setattr(log, name, None)
            gc.collect()
            freed[name] = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert steps > 80_000 and pairs > 30_000
    assert freed["steps"] < 40 * steps
    assert freed["blocker_records"] < 20 * pairs
