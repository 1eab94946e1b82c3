"""graphexplore benchmark: one workload, one process, one client, jobs=1.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The workload's instances are built
once, then whole passes over its rows are timed back to back (a closed loop:
each row starts when the previous one has returned).

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
processes that import graphexplore and build every instance), run_s (median
wall time of one pass) and peak_rss_mb (this process).  --trace 1 runs one
untraced pass and two traced passes and reports the per-layer metrics; the
two traced passes must give identical counters and hashes.

Every row is checked: it fails when it raises, when its own verdicts say
so, or when its exact columns differ from perfbench/reference.  Human
readable lines come first; the last line of stdout is one JSON object.
A full record, spans included when traced, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TRACED_PASSES = 2
# ROADMAP baseline: planar n=1024, seed 1, delta=log2 n reads this many
# adjacency lists on the seed commit; an engine change may lower it
ANCHOR_READS = 810_873


def import_package():
    """Put ./src first on the path and make sure that is what gets imported."""
    if not (SRC / "graphexplore" / "__init__.py").is_file():
        sys.exit(f"perfbench: graphexplore sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphexplore

    if Path(graphexplore.__file__).resolve().parent != SRC / "graphexplore":
        sys.exit(f"perfbench: imported graphexplore from {graphexplore.__file__}, not {SRC}")


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_sha1() -> str:
    h = hashlib.sha1()
    for path in sorted((SRC / "graphexplore").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha1": _source_sha1(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


# ---------------------------------------------------------------------------
# set-up


def setup(tasks):
    import workloads

    return [workloads.build(t) for t in tasks]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its workload can run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


# ---------------------------------------------------------------------------
# passes and row checks


def run_pass(tasks, built, tracer=None):
    """Time one pass; returns (seconds, per-task rows or traceback text)."""
    import workloads

    outcomes = []
    task_s = []
    t0 = time.perf_counter()
    for task, b in zip(tasks, built):
        if tracer is not None:
            tracer.instance = task.label
        t = time.perf_counter()
        try:
            outcomes.append(workloads.run_task(task, b))
        except Exception:  # one bad instance must not end the batch
            outcomes.append(traceback.format_exc())
        task_s.append(time.perf_counter() - t)
    return time.perf_counter() - t0, outcomes, task_s


def check_pass(tasks, outcomes, references, hashes=None):
    """(rows attempted, list of failures) against the reference rows."""
    import workloads

    attempted = 0
    failures = []
    for task, outcome in zip(tasks, outcomes):
        reference = references[task.part]
        expected = reference["rows"].get(task.label, {})
        if isinstance(outcome, str):
            n = max(1, len(expected))
            attempted += n
            failures.append({"instance": task.label, "rows": n, "why": "raised", "traceback": outcome})
            continue
        seen = set()
        for row in outcome:
            key = workloads.row_key(row)
            seen.add(key)
            attempted += 1
            why = workloads.verdict_failure(row)
            if why is None and key not in expected:
                why = "no reference row"
            elif why is None and workloads.row_digest(row) != expected[key]:
                why = "differs from reference: " + json.dumps(workloads.exact_columns(row))
            if why:
                failures.append({"instance": task.label, "row": key, "why": why})
        missing = sorted(set(expected) - seen)
        attempted += len(missing)
        failures.extend({"instance": task.label, "row": k, "why": "row missing"} for k in missing)
        if hashes is not None:
            want = reference["hashes"].get(task.label, {})
            got = {k[len(task.label) + 1:]: v for k, v in hashes.items()
                   if k.startswith(task.label + "|")}
            for k in sorted(set(want) | set(got)):
                attempted += 1
                if want.get(k) != got.get(k):
                    failures.append({"instance": task.label, "row": k,
                                     "why": "step or kept-edge hash differs from reference"})
    return attempted, failures


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(args, tasks, built, references) -> dict:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    times = []
    task_times = []
    attempted = 0
    failures = []
    start = time.perf_counter()
    while True:
        seconds, outcomes, task_s = run_pass(tasks, built)
        times.append(seconds)
        task_times.append(task_s)
        a, f = check_pass(tasks, outcomes, references)
        attempted += a
        failures += f
        # stop before a pass that would overrun the measuring time
        if time.perf_counter() - start + statistics.median(times) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    samples = {"setup_s": setups, "run_s": times}
    for part in dict.fromkeys(t.part for t in tasks):
        samples[f"{part}_s"] = [
            sum(s for t, s in zip(tasks, task_s) if t.part == part) for task_s in task_times
        ]
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
    }


def _anchor_reads() -> int:
    from graphexplore import ExplorationParams, InstanceSpec, build_instance, run_blocking
    from graphexplore.experiments import dyadic_log2

    built = build_instance(InstanceSpec("random_planar", {"points": 1024}, seed=1))
    params = ExplorationParams(delta=dyadic_log2(1024), verify_invariants=False)
    log = run_blocking(built.graph, params)
    return log.verification["access_audit"]["adjacency_reads"]


def traced_run(args, tasks, references) -> dict:
    from tracer import LAYER_METRICS, Tracer

    with Tracer() as setup_tracer:
        built = setup(tasks)
    untraced_s, outcomes, _ = run_pass(tasks, built)
    attempted, failures = check_pass(tasks, outcomes, references)
    tracers = []
    times = []
    for _ in range(TRACED_PASSES):
        with Tracer() as tr:
            seconds, outcomes, _ = run_pass(tasks, built, tr)
        a, f = check_pass(tasks, outcomes, references, tr.hashes)
        attempted += a
        failures += f
        tracers.append(tr)
        times.append(seconds)
    # the counters themselves are checked too: they must repeat exactly
    counters = [tr.counters() for tr in tracers]
    deterministic = all(c == counters[0] for c in counters)
    attempted += 1
    if not deterministic:
        failures.append({"why": "traced passes disagree on counters or hashes",
                         "counters": counters})
    elif counters[0]["counts"].get("hash_conflicts"):
        failures.append({"why": "one pass produced two hashes for one key"})
    per_pass = [tr.layer_metrics() for tr in tracers]
    values = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "count":  # equal in every pass, or the run failed above
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(m[name] for m in per_pass)
    values["instances.build_s"] = setup_tracer.layer_metrics()["instances.build_s"]
    values["trace.overhead_ratio"] = statistics.median(times) / untraced_s
    extra = {"untraced_run_s": untraced_s, "traced_run_s": times,
             "counters_repeat": deterministic, "counters": counters[0]}
    if "explore_planar" in references:
        reads = _anchor_reads()
        extra["anchor"] = {"instance": "random_planar[points=1024]#1 delta=log2n",
                           "adjacency_reads": reads, "seed_commit_reads": ANCHOR_READS}
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()},
        "extra": extra,
        "spans": [tr.span_dump() for tr in [setup_tracer] + tracers],
    }


# ---------------------------------------------------------------------------


def _report(args, env, result, failed) -> None:
    """Human-readable lines before the final JSON line."""
    attempted = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed} (input set {env['input_set']})  "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    samples = result.get("samples", {})
    for name, xs in samples.items():
        q = _quartiles(xs)
        print(f"  {name} samples: n={len(xs)} median={q[1]:.4f} q1={q[0]:.4f} q3={q[2]:.4f}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for f in result["failures"][:10]:
        print(f"  FAILED {f.get('instance', '')} {f.get('row', '')}: {f['why']}")
        if "traceback" in f:
            print("    " + f["traceback"].strip().splitlines()[-1])
    extra = result.get("extra", {})
    if "anchor" in extra:
        a = extra["anchor"]
        note = "matches" if a["adjacency_reads"] == a["seed_commit_reads"] else "differs from"
        print(f"  anchor {a['instance']}: {a['adjacency_reads']} adjacency reads, "
              f"{note} the seed commit's {a['seed_commit_reads']}")
    if "counters_repeat" in extra:
        print(f"  counters repeat across traced passes: {extra['counters_repeat']}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tasks = workloads.tasks(args.workload, args.seed)
    if args.setup_probe:
        setup(tasks)
        print("ready", flush=True)
        return 0

    references = {
        part: json.loads((HERE / "reference" / f"{part}.json").read_text())
        for part in workloads.WORKLOADS[args.workload]
    }
    env = environment(args.seed)
    env["input_set"] = workloads.input_set(args.seed)
    env["workload"] = args.workload
    if args.trace:
        result = traced_run(args, tasks, references)
    else:
        result = timed_run(args, tasks, setup(tasks), references)
    failed = sum(f.get("rows", 1) for f in result["failures"])

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=env, failed=failed)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    _report(args, env, result, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
