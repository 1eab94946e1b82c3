"""The benchmark's workloads: their instances, their rows and row checks.

A workload is a sequence of parts; a part is a list of tasks, one instance
each.  Every row goes through the same public entry point the CLI's batch
tasks call (`explore_row`, `spanner_row`, `verify_rows`), one at a time, in
this process.  Why each part exists is written down in README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from graphexplore import experiments, instances
from graphexplore.experiments import (
    EXPLORE_CHECKS,
    SPANNER_CHECKS,
    AlgorithmSpec,
    ExperimentConfig,
)
from graphexplore.instances import InstanceSpec

# Reference rows are pinned for this many input sets, so the seed argument
# is reduced modulo it (see README.md, "Seeds").
INPUT_SETS = 16


@dataclass(frozen=True)
class Task:
    """One call into the row layer: all the rows of one instance."""

    part: str  # which of PARTS made it; references are kept per part
    spec: InstanceSpec
    kind: str  # "explore" | "spanner" | "verify"
    args: tuple  # algorithms, epsilons or the verify config

    @property
    def label(self) -> str:
        return self.spec.label


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def _planar(points: int, seed: int) -> InstanceSpec:
    return InstanceSpec("random_planar", {"points": points}, seed=seed)


PLANAR_ALGORITHMS = (
    AlgorithmSpec("blocking", Fraction(2)),
    AlgorithmSpec("blocking", "log2n"),
    AlgorithmSpec("nearest_neighbor"),
)


def explore_planar(s: int) -> list[Task]:
    return [
        Task("explore_planar", _planar(points, s), "explore", PLANAR_ALGORITHMS)
        for points in (256, 512, 1024)
    ]


def explore_comb(s: int) -> list[Task]:
    # the comb family is deterministic: s does not change it
    combs = [(100, 2), (200, 2), (300, 2), (200, 1)]
    return [
        Task(
            "explore_comb",
            InstanceSpec("comb_lower_bound", {"k": k, "delta": str(d)}),
            "explore",
            (AlgorithmSpec("blocking", Fraction(d)),),
        )
        for k, d in combs
    ]


def spanner_mixed(s: int) -> list[Task]:
    eps = (Fraction(1, 2), Fraction(2))
    specs = [
        _planar(512, s),
        InstanceSpec("toroidal_grid", {"p": 24, "q": 24, "weights": "uniform"}, seed=s),
        InstanceSpec("erdos_renyi", {"n": 200, "p": "1/5"}, seed=s),
    ]
    return [Task("spanner_mixed", spec, "spanner", eps) for spec in specs]


def _verify_tasks(part: str, specs: list[InstanceSpec]) -> list[Task]:
    config = ExperimentConfig(
        instances=specs,
        algorithms=[AlgorithmSpec("blocking", Fraction(2)), AlgorithmSpec("blocking", Fraction(1, 2))],
        epsilons=[Fraction(1, 2), Fraction(1)],
    )
    return [Task(part, spec, "verify", (config,)) for spec in specs]


def verify_small(s: int) -> list[Task]:
    families = [
        ("random_planar", {"points": 12}),
        ("random_planar", {"points": 8}),
        ("erdos_renyi", {"n": 10, "p": "1/3"}),
        ("random_tree", {"n": 15}),
    ]
    specs = [
        InstanceSpec(fam, params, seed=seed)
        for seed in range(s, s + 8)
        for fam, params in families
    ]
    return _verify_tasks("verify_small", specs)


# Probes: one tiny instance through the layers a workload's main parts
# bypass, so that every layer has a measured, nonzero time in every traced
# run of every workload.  Each costs well under 1% of a pass.


def verify_probe(s: int) -> list[Task]:
    """Spanner and oracle layers (n=8 admits every oracle row)."""
    return _verify_tasks("verify_probe", [InstanceSpec("random_tree", {"n": 8}, seed=s)])


def explore_probe(s: int) -> list[Task]:
    """Nearest neighbour, which only the planar ladder runs otherwise."""
    return [Task("explore_probe", _planar(64, s), "explore", PLANAR_ALGORITHMS)]


PARTS = {
    "explore_planar": explore_planar,
    "explore_comb": explore_comb,
    "spanner_mixed": spanner_mixed,
    "verify_small": verify_small,
    "verify_probe": verify_probe,
    "explore_probe": explore_probe,
}

# Each workload runs two main parts back to back, so that one run measures
# long enough to average out the load swings of a shared machine, plus the
# probe of the layers those parts bypass (README.md).
WORKLOADS = {
    "explore": ("explore_planar", "explore_comb", "verify_probe"),
    "spanner_verify": ("spanner_mixed", "verify_small", "explore_probe"),
}


def tasks(workload: str, seed: int) -> list[Task]:
    s = input_set(seed)
    return [t for part in WORKLOADS[workload] for t in PARTS[part](s)]


def build(task: Task):
    """Looked up through the module so a traced run sees the call."""
    return instances.build_instance(task.spec)


def run_task(task: Task, built) -> list[dict]:
    """All rows of one task, through the public row functions."""
    if task.kind == "explore":
        return [experiments.explore_row(built, a, EXPLORE_CHECKS) for a in task.args]
    if task.kind == "spanner":
        return [experiments.spanner_row(built, e, SPANNER_CHECKS) for e in task.args]
    (config,) = task.args
    return experiments.verify_rows(built, config)


# ---------------------------------------------------------------------------
# row identity and the exact columns compared against the reference


def row_key(row: dict) -> str:
    """Names a row among the rows of its instance."""
    if "check" in row:
        return f"{row['check']}|{row['param']}"
    if "epsilon" in row:
        return f"spanner|{row['epsilon']}"
    return f"{row['algorithm']}|{row['delta']}"


def exact_columns(row: dict) -> dict:
    """Everything but float conveniences and work-count text.

    The `reads=N` detail of an online_purity row counts adjacency reads,
    which engine optimisations are meant to lower.
    """
    out = {k: v for k, v in row.items() if not k.endswith("_float")}
    if row.get("check") == "online_purity":
        out.pop("detail")
    return out


def row_digest(row: dict) -> str:
    text = json.dumps(exact_columns(row), sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


def verdict_failure(row: dict) -> str | None:
    """The row's own verdicts: why it failed, or None."""
    if row.get("verified_ok", "yes") != "yes":
        return f"verified_ok={row['verified_ok']}"
    if row.get("bound_ok") == "no":
        return "bound_ok=no"
    if row.get("ok") == "no":
        return "ok=no"
    return None
