import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphexplore.core import (
    BoundedSearch,
    EdgeSubset,
    Graph,
    _dijkstra,
    minimum_spanning_tree,
)
from graphexplore.errors import (
    DegenerateInstanceError,
    GraphStructureError,
)
import graphexplore.core as core
import graphexplore.experiments as experiments
from graphexplore.experiments import SPANNER_CHECKS, AlgorithmSpec, spanner_row
from graphexplore.exploration import ExplorationParams, run_blocking, verify_blocking_cycle_property
from graphexplore.instances import (
    BuiltInstance,
    InstanceSpec,
    build_instance,
    gen_comb_lower_bound,
    gen_random_planar,
    gen_toroidal_grid,
)
from graphexplore.oracle import brute_force_optspan, brute_force_optspan_edges
from graphexplore.spanner import (
    greedy_spanner,
    lightness,
    verify_mst_containment,
    verify_spanner_minimality,
    verify_spanner_stretch,
)

from conftest import random_connected_graph


def c6_with_chord() -> Graph:
    edges = [(i, (i + 1) % 6, Fraction(1)) for i in range(6)]
    edges.append((0, 3, Fraction(5, 2)))
    return Graph(6, edges)


def chord_instance():
    """c6_with_chord as a built instance, for spanner rows."""
    g = c6_with_chord()
    spec = InstanceSpec("file", {"path": "c6_with_chord.edges"})
    return BuiltInstance(spec=spec, graph=g, start=0, genus=None)


def exact_max_stretch(g: Graph, ids) -> Fraction:
    """Independent all-pairs oracle, brute force over every vertex pair."""
    best = Fraction(1)
    for a in range(g.n):
        dg, _ = _dijkstra(g, a)  # scaled ints: their ratios are exact
        dh, _ = _dijkstra(g, a, edge_ok=lambda e: e in ids)
        for b in range(a + 1, g.n):
            if dg[b] == 0:
                assert dh[b] == 0
                continue
            r = Fraction(dh[b], dg[b])
            if r > best:
                best = r
    return best


class TestGreedyBasics:
    def test_tree_kept_whole(self):
        g = Graph(5, [(0, 1, 2), (1, 2, 1), (1, 3, 3), (3, 4, Fraction(1, 2))])
        r = greedy_spanner(g, Fraction(1, 2))
        assert r.edges.ids == {0, 1, 2, 3}
        assert r.lightness == 1
        assert verify_spanner_stretch(g, r.edges, Fraction(1, 2)).max_ratio == 1

    def test_unit_triangle_all_kept(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        r = greedy_spanner(g, Fraction(1, 2))
        # closing edge has detour 2 > 3/2, so it survives
        assert r.edges.ids == {0, 1, 2}
        assert r.lightness == Fraction(3, 2)

    def test_chord_kept_under_tight_epsilon(self):
        g = c6_with_chord()
        r = greedy_spanner(g, Fraction(1, 10))
        assert 6 in r.edges.ids
        assert r.lightness == Fraction(17, 10)
        assert verify_spanner_stretch(g, r.edges, Fraction(1, 10)).max_ratio == 1

    def test_chord_dropped_when_detour_allowed(self):
        g = c6_with_chord()
        r = greedy_spanner(g, Fraction(1, 5))
        assert 6 not in r.edges.ids
        assert r.edges.ids == {0, 1, 2, 3, 4, 5}
        assert r.lightness == Fraction(6, 5)
        # worst pair is the chord's endpoints: 3 around vs 5/2 direct
        rep = verify_spanner_stretch(g, r.edges, Fraction(1, 5))
        assert rep.max_ratio == Fraction(6, 5) and rep.worst_pair == (0, 3)

    def test_parallel_edges_keep_lightest(self):
        g = Graph(2, [(0, 1, 2), (0, 1, 1), (0, 1, 1)])
        r = greedy_spanner(g, 1)
        assert r.edges.ids == {1}

    def test_epsilon_validation(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            greedy_spanner(g, 0)
        with pytest.raises(ValueError):
            greedy_spanner(g, Fraction(-1, 2))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(GraphStructureError):
            greedy_spanner(g, 1)

    def test_json_shape(self):
        # the spanner's report is its row, written as CSV or JSON
        row = spanner_row(chord_instance(), Fraction(1, 5), SPANNER_CHECKS)
        assert row["epsilon"] == "1/5" and row["kept_edges"] == "6"
        assert row["lightness"] == "6/5"
        assert row["stretch_certificate"] == "6/5"
        assert row["verified_ok"] == "yes"

    def test_row_certificate_without_the_stretch_check(self):
        # the certificate is the stretch check's max_ratio whether or not
        # its verdict is asked for
        built = chord_instance()
        full = spanner_row(built, Fraction(1, 5), SPANNER_CHECKS)
        only = spanner_row(built, Fraction(1, 5), ("minimality",))
        assert only["stretch_certificate"] == full["stretch_certificate"] == "6/5"
        assert only["stretch_certificate_float"] == full["stretch_certificate_float"]


class TestLightness:
    def test_zero_weight_mst_rejected(self):
        g = Graph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
        with pytest.raises(DegenerateInstanceError):
            lightness(g, EdgeSubset(g, {0, 1}))

    def test_foreign_subset_rejected(self):
        g = Graph(2, [(0, 1, 1)])
        g2 = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            lightness(g, EdgeSubset(g2, {0}))

    def test_row_reads_the_spanner_mst_weight(self, monkeypatch):
        # greedy_spanner's MST is the only one a row without checks computes
        import graphexplore.spanner as spanner

        calls = []

        def counting(g):
            calls.append(g)
            return minimum_spanning_tree(g)

        monkeypatch.setattr(spanner, "minimum_spanning_tree", counting)
        monkeypatch.setattr(experiments, "minimum_spanning_tree", counting)
        built = build_instance(InstanceSpec("grid", {"p": 4, "q": 4, "weights": "uniform"}, 2))
        res = greedy_spanner(built.graph, Fraction(1, 2))
        assert res.mst_weight == minimum_spanning_tree(built.graph).weight()
        assert res.lightness == res.edges.weight() / res.mst_weight
        calls.clear()
        row = spanner_row(built, Fraction(1, 2), ())
        assert len(calls) == 1
        assert row["mst_weight"] == str(res.mst_weight)

    def test_mst_is_built_once_per_graph(self, monkeypatch):
        # g keeps its tree: greedy_spanner and the containment check of a
        # row share one Kruskal run, and later rows on g reuse it
        import graphexplore.core as core

        runs = []
        real = core._kruskal

        def counting(g, sort_key):
            runs.append(g)
            return real(g, sort_key)

        monkeypatch.setattr(core, "_kruskal", counting)
        built = build_instance(InstanceSpec("grid", {"p": 4, "q": 4, "weights": "uniform"}, 2))
        spanner_row(built, Fraction(1, 2), SPANNER_CHECKS)
        assert runs == [built.graph]
        spanner_row(built, Fraction(2), SPANNER_CHECKS)
        experiments.explore_row(built, AlgorithmSpec("nearest_neighbor"), ())
        assert runs == [built.graph]


class TestStretchVerifier:
    def test_mst_alone_can_violate(self):
        # star plus a rim: the star is the MST but stretches rim pairs to 4/3
        edges = [(0, i, Fraction(1)) for i in range(1, 5)]
        edges += [(1, 2, Fraction(3, 2)), (2, 3, Fraction(3, 2)),
                  (3, 4, Fraction(3, 2)), (4, 1, Fraction(3, 2))]
        g = Graph(5, edges)
        h = EdgeSubset(g, {0, 1, 2, 3})
        rep = verify_spanner_stretch(g, h, Fraction(1, 4))
        assert not rep.ok
        assert rep.max_ratio == Fraction(4, 3)
        assert rep.worst_pair is not None and rep.violations

    def test_greedy_output_always_passes(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 14), rng.randint(0, 10))
            eps = rng.choice([Fraction(1, 10), Fraction(1, 2), Fraction(3)])
            r = greedy_spanner(g, eps)
            rep = verify_spanner_stretch(g, r.edges, eps)
            assert rep.ok
            assert rep.max_ratio <= 1 + eps

    def test_disconnected_h_flagged(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        rep = verify_spanner_stretch(g, EdgeSubset(g, {0}), 1)
        assert not rep.ok
        assert any(v["why"] == "pair disconnected in h" for v in rep.violations)

    def test_zero_distance_pairs(self):
        g = Graph(3, [(0, 1, 0), (1, 2, 1)])
        ok_rep = verify_spanner_stretch(g, EdgeSubset(g, {0, 1}), 1)
        assert ok_rep.ok
        bad = verify_spanner_stretch(g, EdgeSubset(g, {1}), 1)
        assert not bad.ok

    def test_exact_above_two_thousand_vertices(self):
        # a unit cycle on 2001 vertices: every edge is checked, at any n
        n = 2001
        g = Graph(n, [(i, (i + 1) % n, 1) for i in range(n)])
        rep = verify_spanner_stretch(g, EdgeSubset(g, range(n)), 1)
        assert rep.ok and rep.pairs_checked == n
        # without edge (2000, 0) its endpoints are 2000 apart
        rep = verify_spanner_stretch(g, EdgeSubset(g, range(n - 1)), 1)
        assert not rep.ok
        assert rep.max_ratio == 2000
        assert rep.worst_pair == (0, 2000)

    @pytest.mark.parametrize("chords", [[(1, 3), (0, 2)], [(0, 2), (1, 3)]])
    def test_first_edge_in_id_order_wins_a_tie(self, chords):
        # both unit chords of a kept unit square have ratio 2
        square = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
        g = Graph(4, square + [(a, b, 1) for a, b in chords])
        rep = verify_spanner_stretch(g, EdgeSubset(g, range(4)), 1)
        assert rep.ok and rep.max_ratio == 2
        assert rep.worst_pair == chords[0]

    def test_spanner_row_above_two_thousand_vertices(self):
        built = build_instance(InstanceSpec("toroidal_grid", {"p": 46, "q": 46}, 1))
        assert built.graph.n > 2000
        row = spanner_row(built, Fraction(1, 2), SPANNER_CHECKS)
        assert row["verified_ok"] == "yes"


class TestCertificate:
    # a spanner row's stretch certificate is the stretch check's max_ratio

    def test_certificate_equals_all_pairs_max(self, rng):
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.randint(0, 9))
            eps = rng.choice([Fraction(1, 8), Fraction(1, 2), Fraction(2)])
            r = greedy_spanner(g, eps)
            cert = verify_spanner_stretch(g, r.edges, eps).max_ratio
            assert cert == exact_max_stretch(g, r.edges.ids)

    def test_certificate_measured_in_the_final_spanner(self):
        # (0,2) is dropped at detour 2 through vertex 1; the heavier (0,3),
        # kept later, shortens that detour to 11/10 + 1/2
        g = Graph(4, [(3, 2, Fraction(1, 2)), (0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, Fraction(11, 10))])
        r = greedy_spanner(g, 1)
        assert r.edges.ids == {0, 1, 2, 4}
        cert = verify_spanner_stretch(g, r.edges, 1).max_ratio
        assert cert == Fraction(8, 5) == exact_max_stretch(g, r.edges.ids)

    def test_certificate_never_exceeds_allowance(self, rng):
        for _ in range(8):
            g = random_connected_graph(rng, 10, 6)
            eps = Fraction(rng.randint(1, 8), 4)
            r = greedy_spanner(g, eps)
            assert verify_spanner_stretch(g, r.edges, eps).max_ratio <= 1 + eps


class TestSearchWork:
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(2)])
    def test_exact_searches_only_where_a_number_is_reported(self, monkeypatch, eps):
        # dense G(200, 1/5): about 4,000 edges, each searched by the greedy
        # and again by the stretch check; the greedy finds no distance
        # exactly, and the check few of them
        g = build_instance(InstanceSpec("erdos_renyi", {"n": 200, "p": "1/5"}, 0)).graph
        exact_calls = [0]
        within = BoundedSearch.within

        def counting(self, *args, **kwargs):
            exact_calls[0] += kwargs.get("exact", True)
            return within(self, *args, **kwargs)

        monkeypatch.setattr(BoundedSearch, "within", counting)
        r = greedy_spanner(g, eps)
        assert exact_calls[0] == 0
        assert verify_spanner_stretch(g, r.edges, eps).ok
        assert exact_calls[0] <= 100

    @staticmethod
    def count_pops(monkeypatch) -> list[int]:
        pops = [0]
        heappop = core.heappop

        def counting(heap):
            pops[0] += 1
            return heappop(heap)

        monkeypatch.setattr(core, "heappop", counting)
        return pops

    def test_searches_stop_on_both_lower_bounds(self, monkeypatch):
        # greedy plus minimality on G(200, 1/5) at eps=1/2 pop 10,109 heap
        # entries; stopping on the frontier sum du + dv alone pops 38,329,
        # and choosing sides by v's lower bound instead of its frontier 13,123
        g = build_instance(InstanceSpec("erdos_renyi", {"n": 200, "p": "1/5"}, 0)).graph
        pops = self.count_pops(monkeypatch)
        r = greedy_spanner(g, Fraction(1, 2))
        assert verify_spanner_minimality(g, r.edges, Fraction(1, 2)).ok
        assert pops[0] <= 11_600

    def test_far_end_is_expanded_right_after_the_near_one(self, monkeypatch):
        # on the comb every edge is a bridge and a leaf's only edge is the
        # skipped one, so a leaf's lower bound is INF: the cycle check pops
        # 2,093 entries at k=300, within 2m.  A bound that counts the skipped
        # edge pops 3,295, and 63,794 if it also chooses the side to pop,
        # which puts off expanding the leaf while u's side walks the comb
        g = gen_comb_lower_bound(300, 2)
        log = run_blocking(g, ExplorationParams(delta=2))
        pops = self.count_pops(monkeypatch)
        assert verify_blocking_cycle_property(g, log, 2).ok
        assert pops[0] <= 2 * g.edge_count


class TestMinimality:
    def test_full_square_every_edge_redundant(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        rep = verify_spanner_minimality(g, EdgeSubset(g, range(4)), 2)
        assert not rep.ok
        assert len(rep.violations) == 4

    def test_square_tight_epsilon_minimal(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        rep = verify_spanner_minimality(g, EdgeSubset(g, range(4)), Fraction(3, 2))
        assert rep.ok and rep.checked == 4

    def test_foreign_subset_rejected(self):
        g = Graph(2, [(0, 1, 1)])
        other = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            verify_spanner_minimality(g, EdgeSubset(other, {0}), 1)

    def test_greedy_output_always_minimal(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 12), rng.randint(0, 8))
            eps = rng.choice([Fraction(1, 4), Fraction(1), Fraction(5, 2)])
            r = greedy_spanner(g, eps)
            assert verify_spanner_minimality(g, r.edges, eps).ok


class TestMstContainment:
    def test_greedy_contains_kruskal_tree(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 14), rng.randint(0, 10))
            r = greedy_spanner(g, rng.choice([Fraction(1, 3), Fraction(2)]))
            rep = verify_mst_containment(g, r.edges)
            assert rep.ok and rep.missing == []

    def test_missing_mst_edge_detected(self):
        # drop the lightest edge of a triangle: remaining spanning set is heavier
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        rep = verify_mst_containment(g, EdgeSubset(g, {1, 2}))
        assert not rep.ok
        assert rep.missing == [0] and rep.mst_weight == 3

    def test_non_spanning_subset_fails(self):
        # h = {0} leaves vertex 2 isolated: the tree edge into it is missing
        g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        rep = verify_mst_containment(g, EdgeSubset(g, {0}))
        assert not rep.ok
        assert rep.missing == [1] and rep.mst_weight == 3

    def test_spanner_row_with_isolated_vertex(self, monkeypatch):
        # a spanner that drops every edge at vertex 0 of a 3x3 grid gets a
        # failed verdict in its row, not an error row
        real = experiments.greedy_spanner

        def isolating(g, eps):
            res = real(g, eps)
            kept = [e for e in res.edges.ids if 0 not in g.endpoints(e)]
            return replace(res, edges=EdgeSubset(g, kept))

        monkeypatch.setattr(experiments, "greedy_spanner", isolating)
        built = build_instance(InstanceSpec("grid", {"p": 3, "q": 3}, 0))
        row = spanner_row(built, Fraction(1, 2), SPANNER_CHECKS)
        assert row["verified_ok"] == "no:mst_containment,stretch"

    def test_equal_weight_alternative_tree_fails_literal_check(self):
        # unit square: ids {0,1,2} form the Kruskal tree; {0,1,3} spans at the
        # same weight but is a different tree, so the literal check trips
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        rep = verify_mst_containment(g, EdgeSubset(g, {0, 1, 3}))
        assert rep.mst_weight == 3
        assert rep.missing == [2] and not rep.ok


class TestMonotonicityAndBounds:
    def test_weight_shrinks_as_epsilon_grows(self, rng):
        ladder = [Fraction(1, 10), Fraction(1, 2), Fraction(2), Fraction(6)]
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 12))
            weights = [greedy_spanner(g, e).edges.weight() for e in ladder]
            assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_planar_lightness_bound(self):
        for seed in (0, 1, 2):
            g = gen_random_planar(120, seed=seed)
            for eps in (Fraction(1, 2), Fraction(2)):
                r = greedy_spanner(g, eps)
                assert r.lightness <= 1 + 2 / eps

    def test_toroidal_lightness_bound(self):
        g = gen_toroidal_grid(8, 8, weights="uniform", seed=5)
        for eps in (Fraction(1, 2), Fraction(2)):
            r = greedy_spanner(g, eps)
            assert r.lightness <= (1 + 2 / eps) * (1 + 2 / (1 + eps))

    def test_large_epsilon_reduces_to_mst(self, rng):
        # once 1+eps exceeds any cycle's detour ratio the spanner is the MST
        g = random_connected_graph(rng, 10, 8)
        r = greedy_spanner(g, 10 ** 6)
        assert r.edges.ids == minimum_spanning_tree(g).ids


class TestAgainstBruteForce:
    def test_tree_optimum_is_one(self):
        g = Graph(4, [(0, 1, 2), (1, 2, 1), (1, 3, 5)])
        assert brute_force_optspan(g, 1) == 1

    def test_square_optimum(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        # at eps = 2 one edge can go; at eps = 1 detour 3 > 2 keeps all four
        assert brute_force_optspan(g, 2) == 1
        assert brute_force_optspan(g, 1) == Fraction(4, 3)

    def test_greedy_never_beats_optimum_reversed(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 7), rng.randint(0, 4))
            eps = rng.choice([Fraction(1, 3), Fraction(1), Fraction(3)])
            opt = brute_force_optspan(g, eps)
            r = greedy_spanner(g, eps)
            assert opt <= r.lightness

    def test_optimal_subset_is_a_valid_spanner(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, 6, 3)
            eps = Fraction(1, 2)
            best = brute_force_optspan_edges(g, eps)
            assert verify_spanner_stretch(g, best, eps).ok


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    eps=st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(2), Fraction(9)]),
)
def test_spanner_contract_property(seed, eps):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 8))
    r = greedy_spanner(g, eps)
    assert minimum_spanning_tree(g).ids <= r.edges.ids
    rep = verify_spanner_stretch(g, r.edges, eps)
    assert rep.ok and rep.max_ratio <= 1 + eps
    assert verify_spanner_minimality(g, r.edges, eps).ok


def all_pairs_stretch(g: Graph, ids, eps) -> tuple[bool, Fraction]:
    """(ok, max ratio) of h = ids over every vertex pair, from the definition."""
    ok, best = True, Fraction(1)
    for a in range(g.n):
        dg, _ = _dijkstra(g, a)  # scaled ints: their ratios are exact
        dh, _ = _dijkstra(g, a, edge_ok=lambda e: e in ids)
        for b in range(a + 1, g.n):
            if dg[b] == float("inf"):
                continue
            if dg[b] == 0:
                ok = ok and dh[b] == 0
                continue
            if dh[b] == float("inf"):
                ok = False
                continue
            r = Fraction(dh[b], dg[b])
            best = max(best, r)
            ok = ok and r <= 1 + eps
    return ok, best


@settings(max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    eps=st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(3)]),
    keep_share=st.sampled_from([Fraction(1, 2), Fraction(4, 5), Fraction(1)]),
)
def test_per_edge_stretch_matches_all_pairs(seed, eps, keep_share):
    # zero weights, parallel edges and violating keep-sets included
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    weights = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(rng.randint(0, 8)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    if rng.random() < 0.5:
        u, v, _ = rng.choice(edges)
        edges.append((v, u, rng.choice(weights)))
    g = Graph(n, edges)
    keep = {e for e in range(g.edge_count) if rng.random() < keep_share}
    rep = verify_spanner_stretch(g, EdgeSubset(g, keep), eps)
    ok, max_ratio = all_pairs_stretch(g, keep, eps)
    assert rep.ok == ok
    assert rep.pairs_checked == g.edge_count
    # the per-edge maximum is the all-pairs one once h joins every edge's
    # endpoints, and zero-weight ones at distance zero
    joined = True
    for eid, (u, v) in enumerate(g.edges):
        dh = _dijkstra(g, u, edge_ok=lambda e: e in keep)[0][v]
        joined = joined and dh != float("inf") and (g.weight(eid) > 0 or dh == 0)
    if joined:
        assert rep.max_ratio == max_ratio


def per_edge_stretch_report(g: Graph, ids, eps):
    """(ok, max ratio, worst pair, violations) from one Dijkstra over h per edge."""
    top, worst, violations = Fraction(1), None, []
    for eid, (u, v) in enumerate(g.edges):
        if eid in ids:
            continue
        pair = (min(u, v), max(u, v))
        w = g._iw[eid]  # scaled, like dh
        dh = _dijkstra(g, u, edge_ok=lambda e: e in ids)[0][v]
        if w == 0:
            if dh != 0:
                violations.append({"pair": pair, "why": "zero g-distance, positive h-distance"})
            continue
        if dh == float("inf"):
            violations.append({"pair": pair, "why": "pair disconnected in h"})
            continue
        ratio = Fraction(dh, w)
        if ratio > 1 + eps:
            violations.append({"pair": pair, "ratio": str(ratio), "allowed": str(1 + eps)})
        if ratio > top:
            top, worst = ratio, pair
    return not violations, top, worst, violations


@settings(max_examples=150)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    eps=st.sampled_from([Fraction(1, 7), Fraction(1, 2), Fraction(1), Fraction(3)]),
    keep_share=st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1)]),
)
def test_stretch_report_matches_per_edge_reference(seed, eps, keep_share):
    # zero weights, parallel edges and violating keep-sets; with four
    # weights, edges of different pairs often tie on the maximum ratio, and
    # the first of them in id order must be the worst pair
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    weights = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)]
    edges = [(rng.randrange(i), i, rng.choice(weights)) for i in range(1, n)]
    for _ in range(rng.randint(0, 12)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    for _ in range(rng.randint(0, 3)):
        u, v, w = rng.choice(edges)
        edges.append((v, u, w))
    g = Graph(n, edges)
    keep = {e for e in range(g.edge_count) if rng.random() < keep_share}
    rep = verify_spanner_stretch(g, EdgeSubset(g, keep), eps)
    assert rep.pairs_checked == g.edge_count
    assert (rep.ok, rep.max_ratio, rep.worst_pair, rep.violations) == per_edge_stretch_report(g, keep, eps)
