"""Record the reference rows and behaviour hashes every benchmark run checks.

    python3 perfbench/record_reference.py [--part NAME ...]

Runs every instance of every input set (see workloads.INPUT_SETS) once,
traced, and writes perfbench/reference/<part>.json with, per instance
label, the digest of each row's exact columns and the SHA-1 of each
exploration's step list and each spanner's kept edge ids.  Re-record only
when a change to graphexplore is meant to change its output; say so in the
change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, ROOT, environment, import_package


def record(name: str) -> dict:
    import workloads
    from tracer import Tracer

    rows: dict[str, dict] = {}
    hashes: dict[str, dict] = {}
    for s in range(workloads.INPUT_SETS):
        for task in workloads.PARTS[name](s):
            if task.label in rows:
                continue
            built = workloads.build(task)
            t0 = time.perf_counter()
            with Tracer() as tr:
                tr.instance = task.label
                out = workloads.run_task(task, built)
            bad = [f for f in map(workloads.verdict_failure, out) if f]
            if bad or tr.counts["hash_conflicts"]:
                sys.exit(f"{task.label}: refusing to record a failing row: {bad}")
            rows[task.label] = {workloads.row_key(r): workloads.row_digest(r) for r in out}
            prefix = task.label + "|"
            hashes[task.label] = {k[len(prefix):]: v for k, v in tr.hashes.items()}
            print(f"{name} {task.label} rows={len(out)} {time.perf_counter() - t0:.3f}s", flush=True)
    return {"recorded_with": environment(None), "rows": rows, "hashes": hashes}


def main() -> int:
    import_package()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", action="append", choices=sorted(workloads.PARTS))
    args = ap.parse_args()
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in args.part or sorted(workloads.PARTS):
        ref = record(name)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
