"""Batch experiment harness.

Builds instances from specs, runs the exploration algorithms and the greedy
spanner over them, applies the competitive-ratio / lightness bound matching
each family's (known) genus, and produces deterministic report rows for the
CLI.  All quantities in rows are exact "p/q" strings; *_float columns are
advisory conveniences.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .core import as_fraction, minimum_spanning_tree, positive, restrict
from .errors import ParseError
from .exploration import (
    ExplorationParams,
    run_blocking,
    run_nearest_neighbor,
    taken_union_mst,
)
from .instances import BuiltInstance, InstanceSpec, build_instance
from .oracle import (
    BRUTE_EXPLORATION_MAX_N,
    CYCLE_SPACE_MAX_NU,
    OPTSPAN_MAX_M,
    TSP_MAX_N,
    brute_force_exploration,
    brute_force_optspan,
    enumerate_cycles_check,
    exact_tsp,
    mst_bounds,
)
from .spanner import (
    greedy_spanner,
    verify_mst_containment,
    verify_spanner_minimality,
    verify_spanner_stretch,
)

EXPLORE_CHECKS = ("cost_chain", "cycle_minimality")
SPANNER_CHECKS = ("stretch", "minimality", "mst_containment")


def dyadic_log2(n: int) -> Fraction:
    """log2(n) rounded to a dyadic grid finer than 1/n^2; exact integers in,
    exact rational out (shift-and-square digit extraction, no floats)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    s = (n * n - 1).bit_length()  # 2^s >= n^2
    prec = s + 16
    a = n.bit_length() - 1
    y = (n << prec) >> a  # n / 2^a in [1, 2), fixed point
    bits = 0
    for _ in range(prec):
        y = (y * y) >> prec
        bits <<= 1
        if y >> (prec + 1):
            bits |= 1
            y >>= 1
    frac_bits = (bits + (1 << 15)) >> 16  # round the 16 guard bits away
    return a + Fraction(frac_bits, 1 << s)


def resolve_delta(expr, n: int) -> Fraction:
    """A delta expression is either a rational or the string "log2n"."""
    if expr == "log2n":
        return dyadic_log2(n)
    return as_fraction(expr)


def competitive_bound(delta: Fraction, genus: int | None) -> Fraction | None:
    """Cost/w(MST) bound 2(d+2) * lightness_bound(d, genus): Blocking costs
    at most 2(2+d) w(B), and B union MST_B is a minimal (1+d)-spanner of
    itself, so its weight over w(MST) obeys the lightness bound."""
    if genus is None:
        return None
    return 2 * (as_fraction(delta) + 2) * lightness_bound(delta, genus)


def lightness_bound(epsilon: Fraction, genus: int | None) -> Fraction | None:
    """Greedy-spanner lightness bound (1+2/e)(1+2g/(1+e)) for known genus."""
    if genus is None:
        return None
    e = as_fraction(epsilon)
    return (1 + Fraction(2) / e) * (1 + Fraction(2 * genus) / (1 + e))


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str  # "blocking" | "nearest_neighbor"
    delta: object = None  # Fraction or "log2n"; None for nearest_neighbor

    def __post_init__(self):
        if self.name == "blocking":
            if self.delta != "log2n":
                object.__setattr__(self, "delta", positive(self.delta, "delta"))
        elif self.name == "nearest_neighbor":
            if self.delta is not None:
                raise ValueError("nearest_neighbor takes no delta")
        else:
            raise ValueError(f"unknown algorithm {self.name!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "AlgorithmSpec":
        return cls(name=d["name"], delta=d.get("delta"))


# every key a config file may use
_CONFIG_KEYS = frozenset({"instances", "algorithms", "epsilons", "checks", "jobs", "output"})
_OUTPUT_KEYS = frozenset({"path", "format"})


@dataclass
class ExperimentConfig:
    instances: list
    algorithms: list = field(default_factory=list)
    epsilons: list = field(default_factory=list)
    checks: tuple = EXPLORE_CHECKS + SPANNER_CHECKS
    jobs: int = 1
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if not self.instances:
            raise ValueError("config needs at least one instance")
        self.epsilons = [positive(e, "epsilon") for e in self.epsilons]
        known = set(EXPLORE_CHECKS + SPANNER_CHECKS)
        bad = set(self.checks) - known
        if bad:
            raise ValueError(f"unknown checks: {sorted(bad)}")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.out_format!r}")
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int):
            raise ValueError(f"jobs must be an int, got {self.jobs!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse a config file's object; unknown keys are a ParseError."""
        out = d.get("output", {}) if isinstance(d, dict) else None
        if not isinstance(out, dict):
            raise ParseError("bad experiment config: expected a JSON object")
        unknown = sorted(d.keys() - _CONFIG_KEYS) + sorted(
            f"output.{k}" for k in out.keys() - _OUTPUT_KEYS
        )
        if unknown:
            raise ParseError(f"bad experiment config: unknown keys {', '.join(unknown)}")
        try:
            instances = [InstanceSpec.from_json_dict(i) for i in d["instances"]]
            algorithms = [AlgorithmSpec.from_json_dict(a) for a in d.get("algorithms", [])]
            return cls(
                instances=instances,
                algorithms=algorithms,
                epsilons=d.get("epsilons", []),
                checks=tuple(d.get("checks", EXPLORE_CHECKS + SPANNER_CHECKS)),
                jobs=d.get("jobs", 1),
                out_path=out.get("path"),
                out_format=out.get("format", "csv"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad experiment config: {exc}") from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    return str(x)


def _ffloat(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def explore_row(built: BuiltInstance, algo: AlgorithmSpec, checks) -> dict:
    """One report row: run `algo` on the built instance and bound-check it."""
    g = built.graph
    delta = None
    if algo.name == "blocking":
        delta = resolve_delta(algo.delta, g.n)
        params = ExplorationParams(
            delta=delta,
            start=built.start,
            verify_invariants=bool({"cost_chain", "cycle_minimality"} & set(checks)),
        )
        log = run_blocking(g, params)
    else:
        log = run_nearest_neighbor(g, built.start)
    mst_w = minimum_spanning_tree(g).weight()
    ratio = log.total_cost / mst_w if mst_w else None
    bound = competitive_bound(delta, built.genus) if delta is not None else None
    bound_ok = None if (bound is None or ratio is None) else ratio <= bound
    opt = None
    if g.n <= TSP_MAX_N:
        opt = exact_tsp(g, built.start).cost
    checks_ok = True
    failed = []
    for name in ("cost_chain", "cycle_minimality"):
        if name in checks and algo.name == "blocking":
            verdict = log.verification.get(name, {}).get("ok")
            if verdict is not True:
                checks_ok = False
                failed.append(name)
    return {
        "instance": built.spec.label,
        "n": str(g.n),
        "m": str(g.edge_count),
        "genus": _fmt(built.genus),
        "algorithm": algo.name,
        "delta": _fmt(delta),
        "total_cost": str(log.total_cost),
        "total_cost_float": _ffloat(log.total_cost),
        "mst_weight": str(mst_w),
        "ratio_vs_mst": _fmt(ratio),
        "ratio_vs_mst_float": _ffloat(ratio),
        "bound": _fmt(bound),
        "bound_ok": "" if bound_ok is None else ("yes" if bound_ok else "no"),
        "opt_cost": _fmt(opt),
        "ratio_vs_opt": _fmt(log.total_cost / opt if opt else None),
        "verified_ok": "yes" if checks_ok else "no:" + ",".join(failed),
    }


EXPLORE_COLUMNS = (
    "instance", "n", "m", "genus", "algorithm", "delta",
    "total_cost", "total_cost_float", "mst_weight",
    "ratio_vs_mst", "ratio_vs_mst_float", "bound", "bound_ok",
    "opt_cost", "ratio_vs_opt", "verified_ok",
)


def spanner_row(built: BuiltInstance, epsilon: Fraction, checks) -> dict:
    g = built.graph
    res = greedy_spanner(g, epsilon)
    bound = lightness_bound(epsilon, built.genus)
    bound_ok = None if bound is None else res.lightness <= bound
    # the stretch check runs for every row: its max_ratio is the row's
    # certificate, and its verdict counts only when "stretch" is asked for
    stretch = verify_spanner_stretch(g, res.edges, epsilon)
    verdicts = {}
    if "stretch" in checks:
        verdicts["stretch"] = stretch.ok
    if "minimality" in checks:
        verdicts["minimality"] = verify_spanner_minimality(g, res.edges, epsilon).ok
    if "mst_containment" in checks:
        verdicts["mst_containment"] = verify_mst_containment(g, res.edges).ok
    failed = sorted(k for k, v in verdicts.items() if not v)
    return {
        "instance": built.spec.label,
        "n": str(g.n),
        "m": str(g.edge_count),
        "genus": _fmt(built.genus),
        "epsilon": str(epsilon),
        "kept_edges": str(len(res.edges)),
        "spanner_weight": str(res.edges.weight()),
        "spanner_weight_float": _ffloat(res.edges.weight()),
        "mst_weight": str(res.mst_weight),
        "lightness": str(res.lightness),
        "lightness_float": _ffloat(res.lightness),
        "bound": _fmt(bound),
        "bound_ok": "" if bound_ok is None else ("yes" if bound_ok else "no"),
        "stretch_certificate": str(stretch.max_ratio),
        "stretch_certificate_float": _ffloat(stretch.max_ratio),
        "verified_ok": "yes" if not failed else "no:" + ",".join(failed),
    }


SPANNER_COLUMNS = (
    "instance", "n", "m", "genus", "epsilon", "kept_edges",
    "spanner_weight", "spanner_weight_float", "mst_weight",
    "lightness", "lightness_float", "bound", "bound_ok",
    "stretch_certificate", "stretch_certificate_float", "verified_ok",
)


def verify_rows(built: BuiltInstance, config: ExperimentConfig) -> list[dict]:
    """Cross-check campaign rows for one instance.

    Runs every configured blocking delta with full invariant verification,
    compares the cycle property against brute-force cycle enumeration when
    the cyclomatic number permits, cross-checks the TSP oracles on tiny
    instances, and validates every configured spanner epsilon including the
    optimum-lightness comparison on tiny edge counts.
    """
    g = built.graph
    rows = []

    def row(check: str, param, ok: bool, detail: str = "") -> dict:
        return {
            "instance": built.spec.label,
            "check": check,
            "param": _fmt(param),
            "ok": "yes" if ok else "no",
            "detail": detail,
        }

    for algo in config.algorithms:
        if algo.name != "blocking":
            continue
        delta = resolve_delta(algo.delta, g.n)
        log = run_blocking(g, ExplorationParams(delta=delta, start=built.start))
        chain = log.verification["cost_chain"]
        rows.append(row("cost_chain", delta, chain["ok"]))
        cyc = log.verification["cycle_minimality"]
        rows.append(row("cycle_minimality", delta, cyc["ok"]))
        audit = log.verification["access_audit"]
        rows.append(
            row("online_purity", delta, audit["violations"] == 0,
                f"reads={audit['adjacency_reads']}")
        )
        # brute-force agreement on the taken-plus-MST subgraph
        s_edges = taken_union_mst(g, log)
        sub, _ = restrict(g, s_edges)
        nu = sub.edge_count - sub.n + 1
        if nu <= CYCLE_SPACE_MAX_NU:
            rep = enumerate_cycles_check(sub, 1 + delta)
            rows.append(
                row("cycle_enumeration_agreement", delta,
                    rep.ok == cyc["ok"] and rep.ok,
                    f"cycles={rep.cycles_checked}")
            )
    if g.n <= TSP_MAX_N:
        t = exact_tsp(g, built.start)
        if g.n <= BRUTE_EXPLORATION_MAX_N:
            b = brute_force_exploration(g, built.start)
            rows.append(row("tsp_permutation_agreement", None, t.cost == b.cost,
                            f"cost={t.cost}"))
        lo, hi = mst_bounds(g)
        rows.append(row("tsp_mst_sandwich", None, lo <= t.cost <= hi))
    for eps in config.epsilons:
        res = greedy_spanner(g, eps)
        rows.append(row("spanner_stretch", eps, verify_spanner_stretch(g, res.edges, eps).ok))
        rows.append(row("spanner_minimality", eps, verify_spanner_minimality(g, res.edges, eps).ok))
        rows.append(row("spanner_mst_containment", eps, verify_mst_containment(g, res.edges).ok))
        if g.edge_count <= OPTSPAN_MAX_M:
            best = brute_force_optspan(g, eps)
            rows.append(
                row("optspan_lower_bounds_greedy", eps, best <= res.lightness,
                    f"opt={best} greedy={res.lightness}")
            )
    return rows


VERIFY_COLUMNS = ("instance", "check", "param", "ok", "detail")


def _explore_task(args) -> list[dict]:
    spec, algos, checks = args
    built = build_instance(spec)
    return [explore_row(built, a, checks) for a in algos]


def _spanner_task(args) -> list[dict]:
    spec, epsilons, checks = args
    built = build_instance(spec)
    return [spanner_row(built, e, checks) for e in epsilons]


def _verify_task(args) -> list[dict]:
    spec, config = args
    return verify_rows(build_instance(spec), config)


def _error_row(columns, spec: InstanceSpec, exc: Exception) -> dict:
    """The row for an instance whose task raised `exc`: every column blank
    except the instance and the verdict, which names the exception and its
    message."""
    row = dict.fromkeys(columns, "")
    row["instance"] = spec.label
    cause = f"{type(exc).__name__}: {exc}"
    if "check" in row:
        row.update(check="error", ok="no", detail=cause)
    else:
        row["verified_ok"] = f"error:{cause}"
    return row


def _guarded(job) -> list[dict]:
    """Run one task; an exception becomes one error row for its instance,
    so it cannot cancel the rest of the batch."""
    task_fn, columns, task = job
    try:
        return task_fn(task)
    except Exception as exc:
        return [_error_row(columns, task[0], exc)]


def _run_tasks(task_fn, columns, tasks, jobs: int) -> list[dict]:
    work = [(task_fn, columns, t) for t in tasks]
    if jobs > 1 and len(work) > 1:
        # one worker per task at most: a fork pool starts every worker at once
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            chunks = list(pool.map(_guarded, work))
    else:
        chunks = [_guarded(w) for w in work]
    return [r for chunk in chunks for r in chunk]


def _num(s: str) -> Fraction:
    return as_fraction(s) if s else Fraction(-1)


def _sort_key_explore(row: dict):
    return (row["instance"], row["algorithm"], _num(row["delta"]))


def run_explore(config: ExperimentConfig) -> list[dict]:
    if not config.algorithms:
        raise ValueError("explore needs at least one algorithm")
    checks = tuple(c for c in config.checks if c in EXPLORE_CHECKS)
    tasks = [(s, config.algorithms, checks) for s in config.instances]
    rows = _run_tasks(_explore_task, EXPLORE_COLUMNS, tasks, config.jobs)
    rows.sort(key=_sort_key_explore)
    return rows


def run_spanner(config: ExperimentConfig) -> list[dict]:
    if not config.epsilons:
        raise ValueError("spanner needs at least one epsilon")
    checks = tuple(c for c in config.checks if c in SPANNER_CHECKS)
    tasks = [(s, config.epsilons, checks) for s in config.instances]
    rows = _run_tasks(_spanner_task, SPANNER_COLUMNS, tasks, config.jobs)
    rows.sort(key=lambda r: (r["instance"], _num(r["epsilon"])))
    return rows


def run_verify(config: ExperimentConfig) -> list[dict]:
    """The verify_rows of every instance.  With no algorithm and no epsilon
    an instance still gets its TSP rows, or none when it is too large."""
    tasks = [(s, config) for s in config.instances]
    rows = _run_tasks(_verify_task, VERIFY_COLUMNS, tasks, config.jobs)
    rows.sort(key=lambda r: (r["instance"], r["check"], r["param"]))
    return rows


def report_failures(rows: list[dict]) -> list[str]:
    """Row-level failures that drive a nonzero exit: bound violations,
    failed verification verdicts and error rows."""
    bad = []
    for r in rows:
        if r.get("bound_ok") == "no":
            bad.append(f"{r['instance']}: bound exceeded")
        if r.get("ok") == "no":
            detail = f" ({r['detail']})" if r.get("detail") else ""
            bad.append(f"{r['instance']}: check {r.get('check')} failed{detail}")
        if r.get("verified_ok", "yes").startswith(("no", "error")):
            bad.append(f"{r['instance']}: verification failed ({r['verified_ok']})")
    return bad
