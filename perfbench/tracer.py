"""Spans and counters recorded from outside graphexplore's layers.

A `Tracer` replaces public functions at the module bindings their callers
look up (for example `experiments.run_blocking`, which `explore_row` calls,
or `exploration.verify_cost_chain`, which `run_blocking` calls) with
wrappers that record a span: name, parent span, start and end.  Spans stay
in memory until the run writes them out.  Counters come from the objects
the calls return, never from engine internals.

The layers are the package modules: instances, core, exploration, spanner,
oracle and experiments (the row functions).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from time import perf_counter

from graphexplore import experiments, exploration, instances, oracle, spanner


def steps_sha1(log) -> str:
    """The behaviour contract of one exploration: its exact step list."""
    h = hashlib.sha1()
    for s in log.steps:
        h.update(f"{s.edge},{s.source},{s.dest},{s.role},{s.charged_to};".encode())
    return h.hexdigest()


def kept_sha1(edges) -> str:
    return hashlib.sha1(",".join(map(str, sorted(edges.ids))).encode()).hexdigest()


# observers: read counters and hashes off the returned objects

def _saw_blocking(tr, args, log):
    g, params = args
    tr.counts["blocking_vertices"] += g.n
    tr.counts["adjacency_reads"] += log.verification["access_audit"]["adjacency_reads"]
    tr.counts["steps"] += len(log.steps)
    tr.record_hash(f"blocking|{params.delta}", steps_sha1(log))


def _saw_nearest_neighbor(tr, args, log):
    tr.counts["nn_adjacency_reads"] += log.verification["access_audit"]["adjacency_reads"]
    tr.record_hash("nearest_neighbor|", steps_sha1(log))


def _saw_cycle_check(tr, args, report):
    tr.counts["cycle_edges_checked"] += report.checked


def _saw_greedy(tr, args, res):
    g, eps = args
    tr.counts["greedy_kept"] += len(res.edges)
    tr.counts["greedy_edges_seen"] += g.edge_count
    tr.record_hash(f"greedy|{res.epsilon}", kept_sha1(res.edges))


def _saw_stretch(tr, args, report):
    tr.counts["stretch_pairs"] += report.pairs_checked


def _saw_cycle_enum(tr, args, report):
    tr.counts["cycles_checked"] += report.cycles_checked


# (module, attribute, span name, observer); each binding is where a caller
# looks the function up, so every call on the workloads' paths is seen
BINDINGS = (
    (instances, "build_instance", "instances.build", None),
    (experiments, "explore_row", "experiments.row", None),
    (experiments, "spanner_row", "experiments.row", None),
    (experiments, "verify_rows", "experiments.row", None),
    (experiments, "minimum_spanning_tree", "core.mst", None),
    (spanner, "minimum_spanning_tree", "core.mst", None),
    (oracle, "minimum_spanning_tree", "core.mst", None),
    (exploration, "mst_maximizing_overlap", "core.mst", None),
    (experiments, "restrict", "core.restrict", None),
    (spanner, "restrict", "core.restrict", None),
    (experiments, "run_blocking", "exploration.blocking", _saw_blocking),
    (experiments, "run_nearest_neighbor", "exploration.nn", _saw_nearest_neighbor),
    (exploration, "verify_cost_chain", "exploration.cost_chain", None),
    (exploration, "verify_blocking_cycle_property", "exploration.cycle_check", _saw_cycle_check),
    (experiments, "greedy_spanner", "spanner.greedy", _saw_greedy),
    (experiments, "verify_spanner_stretch", "spanner.stretch", _saw_stretch),
    (experiments, "verify_spanner_minimality", "spanner.minimality", None),
    (experiments, "verify_mst_containment", "spanner.mst_containment", None),
    (experiments, "exact_tsp", "oracle.exact_tsp", None),
    (experiments, "brute_force_exploration", "oracle.brute_exploration", None),
    (experiments, "brute_force_optspan", "oracle.optspan", None),
    (experiments, "enumerate_cycles_check", "oracle.cycle_enum", _saw_cycle_enum),
)

# every per-layer metric and its unit, as the traced run reports them
LAYER_METRICS = {
    "instances.build_s": "s",
    "core.mst_s": "s",
    "core.mst_calls": "count",
    "core.restrict_s": "s",
    "exploration.blocking_self_s": "s",
    "exploration.blocking_calls": "count",
    "exploration.adjacency_reads": "count",
    "exploration.reads_per_vertex": "reads/vertex",
    "exploration.steps": "count",
    "exploration.nn_s": "s",
    "exploration.nn_adjacency_reads": "count",
    "exploration.cost_chain_s": "s",
    "exploration.cycle_check_s": "s",
    "exploration.cycle_edges_checked": "count",
    "spanner.greedy_s": "s",
    "spanner.kept_ratio": "ratio",
    "spanner.stretch_s": "s",
    "spanner.stretch_pairs": "count",
    "spanner.minimality_s": "s",
    "spanner.mst_containment_s": "s",
    "oracle.exact_tsp_s": "s",
    "oracle.exact_tsp_calls": "count",
    "oracle.brute_exploration_s": "s",
    "oracle.optspan_s": "s",
    "oracle.cycle_enum_s": "s",
    "oracle.cycles_checked": "count",
    "experiments.row_self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# span name -> inclusive-time metric
_INCLUSIVE = {
    "instances.build": "instances.build_s",
    "core.mst": "core.mst_s",
    "core.restrict": "core.restrict_s",
    "exploration.nn": "exploration.nn_s",
    "exploration.cost_chain": "exploration.cost_chain_s",
    "exploration.cycle_check": "exploration.cycle_check_s",
    "spanner.greedy": "spanner.greedy_s",
    "spanner.stretch": "spanner.stretch_s",
    "spanner.minimality": "spanner.minimality_s",
    "spanner.mst_containment": "spanner.mst_containment_s",
    "oracle.exact_tsp": "oracle.exact_tsp_s",
    "oracle.brute_exploration": "oracle.brute_exploration_s",
    "oracle.optspan": "oracle.optspan_s",
    "oracle.cycle_enum": "oracle.cycle_enum_s",
}

# span name -> self-time metric (span minus its direct children)
_SELF = {
    "exploration.blocking": "exploration.blocking_self_s",
    "experiments.row": "experiments.row_self_s",
}


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.hashes: dict[str, str] = {}
        self.instance = ""  # label of the instance whose rows run now
        self._stack: list[int] = []
        self._undo: list = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def record_hash(self, what: str, digest: str) -> None:
        key = f"{self.instance}|{what}"
        if self.hashes.setdefault(key, digest) != digest:
            self.counts["hash_conflicts"] += 1

    def _wrap(self, module, attr, name, observe):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if observe is not None:
                # a span of its own, so hashing is not charged to the caller
                self.call("trace.observe", observe, self, args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def __enter__(self):
        for module, attr, name, observe in BINDINGS:
            self._wrap(module, attr, name, observe)
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts of everything recorded (0 if unused)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: 0 for name in LAYER_METRICS}
        for i, (name, _, t0, t1) in enumerate(self.spans):
            if name in _INCLUSIVE:
                out[_INCLUSIVE[name]] += t1 - t0
            elif name in _SELF:
                out[_SELF[name]] += t1 - t0 - child[i]
        c = self.counts
        calls = self._calls()
        out["core.mst_calls"] = calls["core.mst"]
        out["oracle.exact_tsp_calls"] = calls["oracle.exact_tsp"]
        out["exploration.blocking_calls"] = calls["exploration.blocking"]
        out["exploration.adjacency_reads"] = c["adjacency_reads"]
        if c["blocking_vertices"]:
            out["exploration.reads_per_vertex"] = c["adjacency_reads"] / c["blocking_vertices"]
        out["exploration.steps"] = c["steps"]
        out["exploration.nn_adjacency_reads"] = c["nn_adjacency_reads"]
        out["exploration.cycle_edges_checked"] = c["cycle_edges_checked"]
        if c["greedy_edges_seen"]:
            out["spanner.kept_ratio"] = c["greedy_kept"] / c["greedy_edges_seen"]
        out["spanner.stretch_pairs"] = c["stretch_pairs"]
        out["oracle.cycles_checked"] = c["cycles_checked"]
        return out

    def _calls(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return calls

    def counters(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        return {"counts": dict(self.counts), "calls": dict(self._calls()), "hashes": dict(self.hashes)}

    def span_dump(self) -> list[dict]:
        base = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": n, "parent": p, "start": t0 - base, "end": t1 - base}
            for n, p, t0, t1 in self.spans
        ]
