"""Command-line harness.

Subcommands: explore (run exploration algorithms and bound-check the cost),
spanner (build greedy spanners and bound-check lightness), verify (the full
cross-check campaign), gen (materialize an instance to an edge-list file).

Exit codes: 0 every bound and verification verdict passes; 1 a bound or a
verification failed or an instance's task raised (the interesting outcome;
every row, error rows included, is written first); 2 usage or input error
found before any task runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (
    GenerationError,
    GraphStructureError,
    ParseError,
    ResourceGuardError,
)
from .experiments import (
    EXPLORE_COLUMNS,
    SPANNER_COLUMNS,
    VERIFY_COLUMNS,
    AlgorithmSpec,
    ExperimentConfig,
    report_failures,
    run_explore,
    run_spanner,
    run_verify,
)
from .instances import InstanceSpec, build_instance, graph_to_text

_USAGE_ERRORS = (ParseError, GenerationError, GraphStructureError, ValueError,
                 ResourceGuardError, OSError, json.JSONDecodeError, KeyError)


def _parse_instance_arg(text: str) -> InstanceSpec:
    """--instance accepts an InstanceSpec JSON object or an edge-list path.

    A path that names no file is a usage error here, before any task runs.
    """
    text = text.strip()
    if text.startswith("{"):
        return InstanceSpec.from_json_dict(json.loads(text))
    if Path(text).is_file():
        return InstanceSpec(family="file", params={"path": text})
    raise ParseError(f"--instance {text!r} is neither a JSON spec nor a file")


def _check_out_path(path: str | None) -> None:
    """An output path that is a directory, or whose directory is missing,
    is a usage error, found here before any task runs rather than when the
    rows are written."""
    if not path:
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"output path {path!r} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory {str(out.parent)!r} does not exist")


def _build_config(args, need: str) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json_dict(
            json.loads(Path(args.config).read_text(encoding="utf-8"))
        )
    else:
        if not args.instance:
            raise ValueError("need --config or --instance")
        config = ExperimentConfig(
            instances=[_parse_instance_arg(i) for i in args.instance],
        )
    # flag overrides stack on top of the file config; replace() builds a new
    # config, so its validation sees the final values
    instances = config.instances
    if args.instance and args.config:
        instances = instances + [_parse_instance_arg(i) for i in args.instance]
    if args.seed is not None:  # every instance's seed, the file's ones too
        instances = [replace(spec, seed=args.seed) for spec in instances]
    changes = {"instances": instances}
    if getattr(args, "delta", None):
        changes["algorithms"] = config.algorithms + [
            AlgorithmSpec("blocking", d) for d in args.delta
        ]
    if getattr(args, "epsilon", None):
        changes["epsilons"] = config.epsilons + args.epsilon
    if args.jobs is not None:
        changes["jobs"] = args.jobs
    if args.out:
        changes["out_path"] = args.out
    if args.format:
        changes["out_format"] = args.format
    config = replace(config, **changes)
    if need == "explore" and not config.algorithms:
        raise ValueError("explore needs --delta or config algorithms")
    if need == "spanner" and not config.epsilons:
        raise ValueError("spanner needs --epsilon or config epsilons")
    if need == "verify" and not (config.algorithms or config.epsilons):
        raise ValueError("verify needs algorithms and/or epsilons")
    _check_out_path(config.out_path)
    return config


def _emit(rows: list[dict], columns, config: ExperimentConfig) -> None:
    if config.out_format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if config.out_path:
        Path(config.out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _finish(rows, columns, config) -> int:
    _emit(rows, columns, config)
    failures = report_failures(rows)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_explore(args) -> int:
    config = _build_config(args, "explore")
    return _finish(run_explore(config), EXPLORE_COLUMNS, config)


def _cmd_spanner(args) -> int:
    config = _build_config(args, "spanner")
    return _finish(run_spanner(config), SPANNER_COLUMNS, config)


def _cmd_verify(args) -> int:
    config = _build_config(args, "verify")
    return _finish(run_verify(config), VERIFY_COLUMNS, config)


def _cmd_gen(args) -> int:
    if not args.instance or len(args.instance) != 1:
        raise ValueError("gen needs exactly one --instance")
    _check_out_path(args.out)
    spec = _parse_instance_arg(args.instance[0])
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    built = build_instance(spec)
    if args.format == "json":
        doc = {
            "spec": built.spec.to_json_dict(),
            "n": built.graph.n,
            "m": built.graph.edge_count,
            "start": built.start,
            "genus": built.genus,
            "graph": graph_to_text(built.graph),
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = graph_to_text(built.graph)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub: argparse.ArgumentParser, many: bool = False) -> None:
    """--instance (repeatable when `many`), --seed, --out and --format."""
    sub.add_argument(
        "--instance",
        action="append",
        help="instance spec as JSON, or a path to an edge-list file"
        + (" (repeatable)" if many else ""),
    )
    sub.add_argument("--seed", type=int, help="override the instance seed")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")


def _add_batch(sub: argparse.ArgumentParser) -> None:
    """The common flags plus the ones only the row-producing commands read."""
    _add_common(sub, many=True)
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--jobs", type=int, help="parallel worker count")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphexplore",
        description="online graph exploration and greedy spanner experiment harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("explore", help="run exploration algorithms, check cost bounds")
    _add_batch(pe)
    pe.add_argument(
        "--delta", action="append",
        help='blocking parameter as p/q or "log2n" (repeatable)',
    )
    pe.set_defaults(fn=_cmd_explore)

    ps = sub.add_parser("spanner", help="build greedy spanners, check lightness bounds")
    _add_batch(ps)
    ps.add_argument("--epsilon", action="append", help="stretch slack as p/q (repeatable)")
    ps.set_defaults(fn=_cmd_spanner)

    pv = sub.add_parser("verify", help="run the oracle cross-check campaign")
    _add_batch(pv)
    pv.add_argument("--delta", action="append", help="blocking parameters to campaign over")
    pv.add_argument("--epsilon", action="append", help="spanner parameters to campaign over")
    pv.set_defaults(fn=_cmd_verify)

    pg = sub.add_parser("gen", help="materialize an instance to an edge-list file")
    _add_common(pg)
    pg.set_defaults(fn=_cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
