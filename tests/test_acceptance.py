"""Release gate: quantitative bound checks and zero-violation campaigns.

Every test prints one summary line (visible with -s or in failure output) and
asserts the bound it reports.  Heavy artifacts are module-scoped and shared:
the 1000+-run exploration campaign feeds three tests, the 50-instance planar
and toroidal pools feed four.
"""

import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import pytest

from graphexplore.core import minimum_spanning_tree, restrict
from graphexplore.errors import OnlinePurityError
from graphexplore.experiments import dyadic_log2
from graphexplore.exploration import (
    ExplorationParams,
    run_blocking,
    taken_union_mst,
    verify_blocking_cycle_property,
    verify_cost_chain,
)
from graphexplore.instances import InstanceSpec, build_instance, gen_grid, gen_random_planar
from graphexplore.oracle import (
    brute_force_exploration,
    brute_force_optspan,
    enumerate_cycles_check,
    exact_tsp,
)
from graphexplore.spanner import (
    greedy_spanner,
    verify_mst_containment,
    verify_spanner_minimality,
)

from conftest import ACCEPTANCE_LINES, random_connected_graph

CAMPAIGN_DELTAS = (Fraction(1, 2), Fraction(2), Fraction(5))


def report(line: str) -> None:
    # also queued for the terminal summary, which is not swallowed by capture
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


def verdict(num: int, ok: bool, detail: str) -> None:
    report(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared pools


def campaign_specs() -> list[InstanceSpec]:
    specs = []
    for k in range(2, 14):
        for d in ("1", "2", "3"):
            specs.append(InstanceSpec("comb_lower_bound", {"k": k, "delta": d}))
    for pts in (8, 12, 16, 20):
        for seed in range(25):
            specs.append(InstanceSpec("random_planar", {"points": pts}, seed))
    for p, q in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        for seed in range(10):
            specs.append(InstanceSpec("toroidal_grid", {"p": p, "q": q}, seed))
    for p, q in ((2, 3), (3, 3), (3, 5), (4, 4), (5, 5)):
        for seed in range(9):
            specs.append(InstanceSpec("grid", {"p": p, "q": q, "weights": "uniform"}, seed))
    for p, q in ((2, 2), (3, 4), (4, 4), (6, 6)):
        specs.append(InstanceSpec("grid", {"p": p, "q": q}))
    for n in (4, 8, 16):
        for seed in range(15):
            specs.append(InstanceSpec("random_tree", {"n": n}, seed))
    for n, prob in ((10, "2/5"), (12, "1/3"), (14, "3/10")):
        for seed in range(19):
            specs.append(InstanceSpec("erdos_renyi", {"n": n, "p": prob}, seed))
    return specs


@dataclass
class CampaignResult:
    runs: int = 0
    families: set = field(default_factory=set)
    chain_failures: list = field(default_factory=list)
    cycle_failures: list = field(default_factory=list)
    agreement_failures: list = field(default_factory=list)
    agreement_checked: int = 0
    cyclic_runs: int = 0
    purity_errors: list = field(default_factory=list)
    adjacency_reads: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def campaign() -> CampaignResult:
    out = CampaignResult()
    t0 = time.monotonic()
    for spec in campaign_specs():
        built = build_instance(spec)
        g = built.graph
        out.families.add(spec.family)
        for delta in CAMPAIGN_DELTAS:
            out.runs += 1
            tag = f"{spec.label} delta={delta}"
            params = ExplorationParams(delta=delta, start=built.start, verify_invariants=False)
            try:
                log = run_blocking(g, params)
            except OnlinePurityError as exc:
                out.purity_errors.append(f"{tag}: {exc}")
                continue
            out.adjacency_reads += log.verification["access_audit"]["adjacency_reads"]
            chain = verify_cost_chain(g, log, delta)
            if not chain.ok:
                out.chain_failures.append(f"{tag}: {chain.failures[:2]}")
            cyc = verify_blocking_cycle_property(g, log, delta)
            if not cyc.ok:
                out.cycle_failures.append(f"{tag}: {cyc.violations[:2]}")
            sub, _ = restrict(g, taken_union_mst(g, log))
            nu = sub.edge_count - sub.n + 1
            if nu >= 1:
                out.cyclic_runs += 1
            if nu <= 12:
                out.agreement_checked += 1
                rep = enumerate_cycles_check(sub, 1 + delta)
                if rep.ok != cyc.ok:
                    out.agreement_failures.append(f"{tag}: enum={rep.ok} detour={cyc.ok}")
    out.elapsed = time.monotonic() - t0
    assert out.runs >= 1000, f"campaign too small: {out.runs} runs"
    assert len(out.families) == 6
    return out


@pytest.fixture(scope="module")
def planar_pool():
    sizes = (200, 250, 300, 350, 425, 500)
    pool = []
    for i in range(50):
        spec = InstanceSpec("random_planar", {"points": sizes[i % len(sizes)]}, 100 + i)
        pool.append((spec.label, build_instance(spec).graph))
    return pool


@pytest.fixture(scope="module")
def toroidal_pool():
    shapes = ((10, 10), (14, 12), (20, 16), (25, 20), (32, 24), (40, 40))
    pool = []
    for i in range(50):
        p, q = shapes[i % len(shapes)]
        spec = InstanceSpec("toroidal_grid", {"p": p, "q": q}, 200 + i)
        pool.append((spec.label, build_instance(spec).graph))
    return pool


@pytest.fixture(scope="module")
def spanner_campaign(planar_pool, toroidal_pool):
    """Greedy runs for the lightness criteria; one entry per (instance, eps)."""
    entries = []
    for label, g in planar_pool:
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            res = greedy_spanner(g, eps)
            entries.append(("planar", label, eps, g, res, 1 + 2 / eps))
    for label, g in toroidal_pool:
        for eps in (Fraction(1, 2), Fraction(1)):
            res = greedy_spanner(g, eps)
            entries.append(
                ("toroidal", label, eps, g, res, (1 + 2 / eps) * (1 + 2 / (1 + eps)))
            )
    return entries


# ---------------------------------------------------------------------------
# the criteria


def test_01_comb_adversarial_cost_floor():
    t0 = time.monotonic()
    delta = Fraction(3)
    measured = {}
    formula = {}
    for k in (25, 200):
        built = build_instance(InstanceSpec("comb_lower_bound", {"k": k, "delta": "3"}))
        log = run_blocking(
            built.graph,
            ExplorationParams(delta=delta, start=built.start, verify_invariants=False),
        )
        if k == 25:
            assert log.total_cost >= 25 * 25
            assert log.total_cost == 1773
        measured[k] = log.total_cost / (2 * built.graph.total_weight())
        formula[k] = Fraction(k * k) / (2 * (Fraction(k * k, 4) + 3 * k - 1))
    limit = Fraction(delta + 1, 2)
    slack = 1 - formula[200] / limit
    elapsed = time.monotonic() - t0
    ok = (
        measured[25] >= formula[25]
        and measured[200] >= formula[200]
        and slack <= Fraction(1, 10)
        and elapsed < 10
    )
    verdict(
        1, ok,
        f"comb cost 1773 >= 625; ratio k=25 {float(measured[25]):.3f} >= "
        f"{float(formula[25]):.3f}, k=200 {float(measured[200]):.3f} >= "
        f"{float(formula[200]):.4f} (slack to {limit}: {float(slack):.2%} <= 10%), "
        f"{elapsed:.1f}s < 10s",
    )


def test_02_cost_chain_zero_violations(campaign):
    ok = not campaign.chain_failures and campaign.elapsed < 300
    verdict(
        2, ok,
        f"total <= 2(delta+2)w(B) and per-edge charges held on all "
        f"{campaign.runs} runs ({len(campaign.families)} families, "
        f"deltas {{1/2, 2, 5}}); {len(campaign.chain_failures)} violations; "
        f"campaign {campaign.elapsed:.0f}s < 300s"
        + (f"; first: {campaign.chain_failures[:1]}" if campaign.chain_failures else ""),
    )


def test_03_taken_edges_cycle_minimality(campaign):
    ok = (
        not campaign.cycle_failures
        and not campaign.agreement_failures
        and campaign.agreement_checked > 0
        and campaign.cyclic_runs > 0
    )
    verdict(
        3, ok,
        f"B+MST(B) minimal on all {campaign.runs} runs "
        f"({len(campaign.cycle_failures)} violations); cycle enumeration agreed "
        f"on {campaign.agreement_checked} runs with cyclomatic number <= 12 "
        f"({campaign.cyclic_runs} genuinely cyclic, "
        f"{len(campaign.agreement_failures)} disagreements)",
    )


def test_04_planar_competitive_ratio(planar_pool):
    ratios = []
    for _, g in planar_pool:
        log = run_blocking(g, ExplorationParams(delta=2, verify_invariants=False))
        ratios.append(log.total_cost / minimum_spanning_tree(g).weight())
    worst = max(ratios)
    verdict(
        4, worst <= 16,
        f"50 planar runs (200-500 points, delta=2): max cost/w(MST) "
        f"{float(worst):.3f} <= 16",
    )


def test_05_toroidal_competitive_ratio(toroidal_pool):
    ratios = []
    for _, g in toroidal_pool:
        log = run_blocking(g, ExplorationParams(delta=2, verify_invariants=False))
        ratios.append(log.total_cost / minimum_spanning_tree(g).weight())
    worst = max(ratios)
    verdict(
        5, worst <= Fraction(80, 3),
        f"50 toroidal runs (up to 40x40, delta=2): max cost/w(MST) "
        f"{float(worst):.3f} <= 80/3 ~ 26.67",
    )


def test_06_planar_lightness_and_small_optima(spanner_campaign):
    planar = [e for e in spanner_campaign if e[0] == "planar"]
    assert len(planar) == 150
    over = [
        (label, eps, res.lightness, bound)
        for _, label, eps, _, res, bound in planar
        if res.lightness > bound
    ]
    worst = max(res.lightness / bound for _, _, _, _, res, bound in planar)
    opt_mismatches = []
    checked = 0
    for pts in (4, 5, 6, 7):
        for seed in range(6):
            g = gen_random_planar(pts, seed=seed)
            if g.edge_count > 20:
                continue
            for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
                checked += 1
                opt = brute_force_optspan(g, eps)
                light = greedy_spanner(g, eps).lightness
                if light < opt:
                    opt_mismatches.append((pts, seed, str(eps), str(light), str(opt)))
    ok = not over and not opt_mismatches and checked >= 60
    verdict(
        6, ok,
        f"greedy lightness <= 1+2/eps on 50 planar x eps in {{1/2, 1, 2}} "
        f"(worst at {float(worst):.2f} of bound); greedy >= exact optimum on "
        f"{checked} tiny instances ({len(opt_mismatches)} mismatches)",
    )


def test_07_toroidal_lightness(spanner_campaign):
    toroidal = [e for e in spanner_campaign if e[0] == "toroidal"]
    assert len(toroidal) == 100
    over = [e for e in toroidal if e[4].lightness > e[5]]
    worst = max(e[4].lightness / e[5] for e in toroidal)
    verdict(
        7, not over,
        f"greedy lightness <= (1+2/eps)(1+2/(1+eps)) on 50 toroidal x eps in "
        f"{{1/2, 1}} (worst at {float(worst):.2f} of bound, {len(over)} over)",
    )


def test_08_spanner_outputs_contain_mst_and_are_minimal(spanner_campaign):
    bad = []
    for kind, label, eps, g, res, _ in spanner_campaign:
        if not verify_mst_containment(g, res.edges).ok:
            bad.append(f"{label} eps={eps}: mst containment")
        if not verify_spanner_minimality(g, res.edges, eps).ok:
            bad.append(f"{label} eps={eps}: redundant edge")
    verdict(
        8, not bad,
        f"MST containment and no-redundant-edge checks passed on all "
        f"{len(spanner_campaign)} greedy outputs ({len(bad)} violations)"
        + (f"; first: {bad[:1]}" if bad else ""),
    )


def test_09_log_delta_ratio_trend():
    rows = {}
    for family in ("grid", "planar"):
        values = []
        for n in (16, 64, 256, 1024, 4096):
            delta = dyadic_log2(n)
            if family == "grid":
                g = gen_grid(isqrt(n), isqrt(n))
            else:
                g = gen_random_planar(n, seed=1)
            log = run_blocking(
                g, ExplorationParams(delta=delta, verify_invariants=False)
            )
            ratio = log.total_cost / minimum_spanning_tree(g).weight()
            values.append(ratio / delta)
        rows[family] = values
    bound = Fraction(1)
    ok = True
    parts = []
    for family, values in rows.items():
        vmax = max(values)
        med = statistics.median(values)
        ok = ok and vmax <= bound and values[-1] <= Fraction(3, 2) * med
        parts.append(
            f"{family}: max ratio/log2(n) {float(vmax):.3f}, "
            f"last {float(values[-1]):.3f} <= 1.5 x median {float(med):.3f}"
        )
    verdict(
        9, ok,
        f"delta=log2(n) sweep over n in {{16..4096}} bounded by {bound} and "
        f"non-diverging ({'; '.join(parts)})",
    )


def test_10_tsp_oracles_agree():
    rng = random.Random(1009)
    mismatches = 0
    sandwich_breaks = 0
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 6))
        start = rng.randrange(g.n)
        a = exact_tsp(g, start)
        b = brute_force_exploration(g, start)
        if a.cost != b.cost:
            mismatches += 1
        lo = minimum_spanning_tree(g).weight()
        if not (lo <= a.cost <= 2 * lo):
            sandwich_breaks += 1
    ok = mismatches == 0 and sandwich_breaks == 0
    verdict(
        10, ok,
        f"held-karp == permutation search on 200 seeded graphs (n <= 8), "
        f"{mismatches} mismatches; w(MST) <= tour <= 2w(MST) held, "
        f"{sandwich_breaks} breaks",
    )


def test_11_online_purity_audit(campaign):
    ok = not campaign.purity_errors and campaign.adjacency_reads > 0
    verdict(
        11, ok,
        f"zero unexplored-adjacency reads across {campaign.runs} runs "
        f"({campaign.adjacency_reads} audited reads, "
        f"{len(campaign.purity_errors)} violations)",
    )
