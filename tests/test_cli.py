import csv
import json
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import graphexplore.cli as cli
import graphexplore.experiments as experiments
import graphexplore.exploration as exploration
from graphexplore.cli import build_parser, main
from graphexplore.errors import ParseError
from graphexplore.experiments import (
    EXPLORE_COLUMNS,
    SPANNER_COLUMNS,
    VERIFY_COLUMNS,
    AlgorithmSpec,
    ExperimentConfig,
    competitive_bound,
    dyadic_log2,
    lightness_bound,
    report_failures,
    resolve_delta,
    run_explore,
    run_spanner,
    run_verify,
)
from graphexplore.instances import InstanceSpec, build_instance, read_graph
from graphexplore.spanner import greedy_spanner

COMB = '{"family": "comb_lower_bound", "params": {"k": 3, "delta": "2"}}'
PLANAR = '{"family": "random_planar", "params": {"points": 25}, "seed": 2}'
GRID = '{"family": "grid", "params": {"p": 3, "q": 3}}'
BAD_COMB = '{"family": "comb_lower_bound", "params": {"k": 0, "delta": "2"}}'


# a spec the spec check rejects, the extra flags that make it bad, and a
# phrase of the error
BAD_SPECS = {
    "unknown family": ({"family": "moebius", "params": {}}, [], "unknown instance family 'moebius'"),
    "missing param": ({"family": "grid", "params": {"p": 3}}, [], "needs params ['p', 'q']"),
    "unknown param": (
        {"family": "toroidal_grid", "params": {"p": 3, "q": 3, "weight": "unit"}}, [], "'weight'"
    ),
    "negative seed": (json.loads(GRID) | {"seed": -1}, [], "seed must be an int >= 0, got -1"),
    "negative --seed": (json.loads(GRID), ["--seed", "-1"], "seed must be an int >= 0, got -1"),
    "params not an object": ({"family": "grid", "params": [1]}, [], "params must be a JSON object"),
    "list param": ({"family": "grid", "params": {"p": [3], "q": 3}}, [], "'p' must be a number or a string"),
    "object param": ({"family": "grid", "params": {"p": 3, "q": {"n": 3}}}, [], "'q' must be a number"),
    "null param": ({"family": "random_planar", "params": {"points": None}}, [], "'points' must be a number"),
    "bool param": ({"family": "random_planar", "params": {"points": True}}, [], "'points' must be a number"),
}


def spec_of(text: str) -> InstanceSpec:
    return InstanceSpec.from_json_dict(json.loads(text))


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, rows


class TestDyadicLog:
    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 2), (32, 5), (1024, 10)])
    def test_exact_on_powers_of_two(self, n, expected):
        assert dyadic_log2(n) == expected

    @pytest.mark.parametrize("n", [3, 5, 17, 100, 999, 4096, 10**6])
    def test_within_grid_of_true_log(self, n):
        x = dyadic_log2(n)
        assert abs(float(x) - math.log2(n)) <= 1 / n**2 + 1e-12
        den = x.denominator
        assert den & (den - 1) == 0  # dyadic

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            dyadic_log2(1)

    def test_resolve_delta(self):
        assert resolve_delta("log2n", 40) == dyadic_log2(40)
        assert resolve_delta("3/2", 40) == Fraction(3, 2)
        assert resolve_delta(Fraction(2), 99) == 2


class TestBoundFormulas:
    def test_competitive_bound_values(self):
        assert competitive_bound(Fraction(2), 0) == 16
        assert competitive_bound(Fraction(2), 1) == Fraction(80, 3)
        assert competitive_bound(Fraction(1, 2), 0) == 25
        assert competitive_bound(Fraction(2), None) is None

    def test_lightness_bound_values(self):
        assert lightness_bound(Fraction(2), 0) == 2
        assert lightness_bound(Fraction(2), 1) == Fraction(10, 3)
        assert lightness_bound(Fraction(1, 2), 0) == 5
        assert lightness_bound(Fraction(1), None) is None


class TestAlgorithmSpec:
    def test_from_json_dict(self):
        parse = AlgorithmSpec.from_json_dict
        assert parse({"name": "blocking", "delta": "5/2"}) == AlgorithmSpec("blocking", Fraction(5, 2))
        assert parse({"name": "blocking", "delta": "log2n"}) == AlgorithmSpec("blocking", "log2n")
        assert parse({"name": "nearest_neighbor"}) == AlgorithmSpec("nearest_neighbor")

    def test_validation(self):
        with pytest.raises(ValueError):
            AlgorithmSpec("nearest_neighbor", delta=1)
        with pytest.raises(ValueError):
            AlgorithmSpec("simulated_annealing")
        with pytest.raises(ValueError):
            AlgorithmSpec("blocking", "fast")


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(instances=[])
        inst = [spec_of(COMB)]
        with pytest.raises(ValueError):
            ExperimentConfig(instances=inst, checks=("vibes",))
        with pytest.raises(ValueError):
            ExperimentConfig(instances=inst, out_format="xml")
        with pytest.raises(ValueError):
            ExperimentConfig(instances=inst, jobs=0)

    def test_from_json_parallelism_is_an_unknown_key(self, tmp_path, capsys):
        # "jobs" is the one key for workers; "parallelism" once shadowed it
        cfg = ExperimentConfig.from_json_dict({"instances": [json.loads(COMB)], "jobs": 2})
        assert cfg.jobs == 2
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"instances": [json.loads(COMB)], "jobs": 4, "parallelism": 1}),
                     encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "2"]) == 2
        assert "unknown keys parallelism" in capsys.readouterr().err

    def test_unknown_keys_are_named(self):
        with pytest.raises(ParseError, match="algoritms, strict"):
            ExperimentConfig.from_json_dict(
                {"instances": [json.loads(COMB)], "strict": True, "algoritms": []}
            )
        with pytest.raises(ParseError, match="output.fmt"):
            ExperimentConfig.from_json_dict(
                {"instances": [json.loads(COMB)], "output": {"fmt": "csv"}}
            )
        with pytest.raises(ParseError):
            ExperimentConfig.from_json_dict({"instances": [json.loads(COMB)], "output": "x"})

    def test_from_json_bad_input_is_parse_error(self):
        with pytest.raises(ParseError):
            ExperimentConfig.from_json_dict({"instances": "nope"})
        with pytest.raises(ParseError):
            ExperimentConfig.from_json_dict({})


class TestExploreRows:
    def test_comb_row_values(self):
        built = build_instance(spec_of(COMB))
        row = experiments.explore_row(
            built, AlgorithmSpec("blocking", Fraction(2)), EXPLORE_COLUMNS
        )
        assert row["total_cost"] == "48"
        assert row["mst_weight"] == "12"
        assert row["ratio_vs_mst"] == "4"
        assert row["bound"] == "16" and row["bound_ok"] == "yes"
        assert row["opt_cost"] == "24" and row["ratio_vs_opt"] == "2"
        assert row["genus"] == "0" and row["verified_ok"] == "yes"
        assert set(row) == set(EXPLORE_COLUMNS)

    def test_nearest_neighbor_row_has_no_bound(self):
        built = build_instance(spec_of(COMB))
        row = experiments.explore_row(built, AlgorithmSpec("nearest_neighbor"), ())
        assert row["algorithm"] == "nearest_neighbor"
        assert row["delta"] == "" and row["bound"] == "" and row["bound_ok"] == ""
        assert row["verified_ok"] == "yes"

    def test_run_explore_sorts_numerically(self):
        cfg = ExperimentConfig(
            instances=[spec_of(COMB)],
            algorithms=[
                AlgorithmSpec("blocking", Fraction(2)),
                AlgorithmSpec("blocking", Fraction(1, 2)),
                AlgorithmSpec("nearest_neighbor"),
            ],
        )
        rows = run_explore(cfg)
        deltas = [r["delta"] for r in rows if r["algorithm"] == "blocking"]
        assert deltas == ["1/2", "2"]

    def test_log2n_delta_resolved_per_instance(self):
        cfg = ExperimentConfig(
            instances=[spec_of(PLANAR)],
            algorithms=[AlgorithmSpec("blocking", "log2n")],
        )
        (row,) = run_explore(cfg)
        assert row["delta"] == str(dyadic_log2(25))

    def test_algorithm_required(self):
        with pytest.raises(ValueError, match="explore needs at least one algorithm"):
            run_explore(ExperimentConfig(instances=[spec_of(COMB)]))

    def test_parallel_matches_serial(self):
        instances = [spec_of(COMB), spec_of(PLANAR)]
        algos = [AlgorithmSpec("blocking", Fraction(2))]
        serial = run_explore(ExperimentConfig(instances=instances, algorithms=algos))
        parallel = run_explore(
            ExperimentConfig(instances=instances, algorithms=algos, jobs=2)
        )
        assert serial == parallel

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so that
        # no process starts: --jobs 64 over two instances asks for two
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        instances = [spec_of(COMB), spec_of(GRID)]
        algos = [AlgorithmSpec("blocking", Fraction(2))]
        serial = run_explore(ExperimentConfig(instances=instances, algorithms=algos))
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        assert run_explore(ExperimentConfig(instances=instances, algorithms=algos, jobs=64)) == serial
        assert sizes == [2]


class TestSpannerRows:
    def test_planar_row(self):
        cfg = ExperimentConfig(
            instances=[spec_of(PLANAR)], epsilons=[Fraction(1, 2), Fraction(2)]
        )
        rows = run_spanner(cfg)
        assert [r["epsilon"] for r in rows] == ["1/2", "2"]
        for row in rows:
            assert set(row) == set(SPANNER_COLUMNS)
            assert row["bound_ok"] == "yes" and row["verified_ok"] == "yes"
            g = build_instance(spec_of(PLANAR)).graph
            res = greedy_spanner(g, Fraction(row["epsilon"]))
            assert row["lightness"] == str(res.lightness)
            assert row["kept_edges"] == str(len(res.edges))

    def test_parallel_matches_serial(self):
        instances = [spec_of(COMB), spec_of(PLANAR)]
        eps = [Fraction(1, 2), Fraction(2)]
        serial = run_spanner(ExperimentConfig(instances=instances, epsilons=eps))
        parallel = run_spanner(ExperimentConfig(instances=instances, epsilons=eps, jobs=2))
        assert serial == parallel

    def test_unknown_genus_leaves_bound_blank(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("3 3\n0 1 1 1\n1 2 1 1\n0 2 1 1\n", encoding="utf-8")
        cfg = ExperimentConfig(
            instances=[InstanceSpec("file", {"path": str(path)})],
            epsilons=[Fraction(1, 2)],
        )
        (row,) = run_spanner(cfg)
        assert row["bound"] == "" and row["bound_ok"] == ""
        assert row["lightness"] == "3/2"

    def test_epsilon_required(self):
        with pytest.raises(ValueError):
            run_spanner(ExperimentConfig(instances=[spec_of(COMB)]))


class TestVerifyRows:
    def test_small_comb_campaign_all_yes(self):
        cfg = ExperimentConfig(
            instances=[InstanceSpec("comb_lower_bound", {"k": 2, "delta": "1"})],
            algorithms=[AlgorithmSpec("blocking", Fraction(1))],
            epsilons=[Fraction(1, 2)],
        )
        rows = run_verify(cfg)
        assert all(r["ok"] == "yes" for r in rows)
        names = {r["check"] for r in rows}
        assert names == {
            "cost_chain", "cycle_minimality", "online_purity",
            "cycle_enumeration_agreement", "tsp_permutation_agreement",
            "tsp_mst_sandwich", "spanner_stretch", "spanner_minimality",
            "spanner_mst_containment", "optspan_lower_bounds_greedy",
        }
        for r in rows:
            assert set(r) == set(VERIFY_COLUMNS)

    def test_no_parameter_yields_tsp_rows_only(self):
        # the TSP rows need no delta and no epsilon: n = 8 gets both, the
        # 12-vertex comb the sandwich only, and 25 points none
        small = InstanceSpec("comb_lower_bound", {"k": 2, "delta": "1"})
        rows = run_verify(ExperimentConfig(instances=[small, spec_of(COMB), spec_of(PLANAR)]))
        assert [(r["instance"], r["check"]) for r in rows] == [
            (small.label, "tsp_mst_sandwich"),
            (small.label, "tsp_permutation_agreement"),
            (spec_of(COMB).label, "tsp_mst_sandwich"),
        ]
        assert all(r["ok"] == "yes" and r["param"] == "" for r in rows)

    def test_permutation_check_skipped_when_large(self):
        cfg = ExperimentConfig(
            instances=[spec_of(PLANAR)], algorithms=[AlgorithmSpec("blocking", 2)]
        )
        names = {r["check"] for r in run_verify(cfg)}
        assert "tsp_permutation_agreement" not in names
        assert "cost_chain" in names

    def test_parallel_matches_serial(self):
        kw = dict(
            instances=[spec_of(COMB), InstanceSpec("comb_lower_bound", {"k": 2, "delta": "1"})],
            algorithms=[AlgorithmSpec("blocking", Fraction(1))],
            epsilons=[Fraction(1, 2)],
        )
        serial = run_verify(ExperimentConfig(**kw))
        parallel = run_verify(ExperimentConfig(**kw, jobs=2))
        assert serial == parallel


class TestErrorRows:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_instance_keeps_the_batch(self, tmp_path, capsys, jobs):
        out = tmp_path / "rows.csv"
        rc = main(["explore", "--instance", GRID, "--instance", BAD_COMB,
                   "--delta", "1", "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        header, rows = read_csv(out)
        assert header == list(EXPLORE_COLUMNS)
        by_instance = {r["instance"]: r for r in rows}
        assert len(rows) == 2
        assert by_instance[spec_of(GRID).label]["verified_ok"] == "yes"
        bad = by_instance[spec_of(BAD_COMB).label]
        cause = "error:ValueError: k must be a positive int, got 0"
        assert bad["verified_ok"] == cause
        assert cause in capsys.readouterr().err

    def test_float_comb_delta(self, tmp_path, capsys):
        # a rational param given as a JSON float: a usage error for gen, an
        # error row for a batch command
        spec = '{"family": "comb_lower_bound", "params": {"k": 3, "delta": 2.5}}'
        assert main(["gen", "--instance", spec]) == 2
        assert "instance param 'delta' must be an exact rational, got 2.5" in capsys.readouterr().err
        out = tmp_path / "rows.csv"
        assert main(["explore", "--instance", spec, "--delta", "1", "--out", str(out)]) == 1
        _, rows = read_csv(out)
        assert [r["verified_ok"] for r in rows] == [
            "error:ValueError: instance param 'delta' must be an exact rational, got 2.5"]

    def test_spanner_error_row(self):
        cfg = ExperimentConfig(instances=[spec_of(BAD_COMB), spec_of(COMB)],
                               epsilons=[Fraction(1, 2)])
        rows = run_spanner(cfg)
        assert [r["verified_ok"] for r in rows] == [
            "error:ValueError: k must be a positive int, got 0", "yes"]
        assert set(rows[0]) == set(SPANNER_COLUMNS)

    def test_verify_error_row_carries_the_message(self):
        cfg = ExperimentConfig(instances=[spec_of(BAD_COMB)],
                               algorithms=[AlgorithmSpec("blocking", "1")])
        (row,) = run_verify(cfg)
        assert row["check"] == "error" and row["ok"] == "no"
        assert row["detail"] == "ValueError: k must be a positive int, got 0"
        assert report_failures([row])

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(built, algo, checks):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "explore_row", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_explore(ExperimentConfig(instances=[spec_of(GRID)],
                                         algorithms=[AlgorithmSpec("blocking", "1")]))


class TestReportFailures:
    def test_bound_violations_always_count(self):
        rows = [{"instance": "x", "bound_ok": "no"}]
        assert report_failures(rows)

    def test_check_rows_always_count(self):
        rows = [{"instance": "x", "check": "cost_chain", "ok": "no"}]
        assert report_failures(rows)

    def test_verification_always_counts(self):
        rows = [{"instance": "x", "verified_ok": "no:stretch"}]
        assert report_failures(rows)

    def test_clean_rows_pass(self):
        rows = [{"instance": "x", "bound_ok": "yes", "verified_ok": "yes"}]
        assert not report_failures(rows)


class TestCliRoundTrips:
    def test_gen_text_round_trip(self, tmp_path):
        out = tmp_path / "comb.edges"
        assert main(["gen", "--instance", COMB, "--out", str(out)]) == 0
        g = read_graph(out)
        direct = build_instance(spec_of(COMB)).graph
        assert g.n == direct.n and g.weights == direct.weights

    def test_gen_json_document(self, tmp_path):
        out = tmp_path / "comb.json"
        assert main(["gen", "--instance", COMB, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["n"] == 12 and doc["m"] == 11
        assert doc["genus"] == 0 and doc["start"] == 0
        assert "tie_break_script" not in doc
        assert doc["spec"]["family"] == "comb_lower_bound"
        assert doc["graph"].startswith("12 11\n")

    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "--instance", '{"family": "grid", "params": {"p": 2, "q": 2}}']) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "4 4"

    def test_explore_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main([
            "explore", "--instance", COMB,
            "--delta", "2", "--delta", "1/2",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == list(EXPLORE_COLUMNS)
        assert len(rows) == 2
        assert rows[0]["delta"] == "1/2" and rows[1]["delta"] == "2"
        assert rows[1]["total_cost"] == "48"

    def test_explore_from_edge_list_path(self, tmp_path):
        gpath = tmp_path / "inst.edges"
        main(["gen", "--instance", PLANAR, "--out", str(gpath)])
        out = tmp_path / "rows.csv"
        rc = main(["explore", "--instance", str(gpath), "--delta", "1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0]["bound"] == ""  # genus unknown for files
        assert rows[0]["verified_ok"] == "yes"

    def test_spanner_json(self, tmp_path):
        out = tmp_path / "rows.json"
        rc = main([
            "spanner", "--instance", PLANAR, "--epsilon", "1/2",
            "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 1 and set(rows[0]) == set(SPANNER_COLUMNS)
        assert rows[0]["bound_ok"] == "yes"

    def test_verify_both_parameter_kinds(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main([
            "verify", "--instance", COMB, "--delta", "2",
            "--epsilon", "1/2", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows and all(r["ok"] == "yes" for r in rows)

    def test_verify_without_parameters_writes_tsp_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["verify", "--instance", COMB, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [(r["check"], r["ok"]) for r in rows] == [("tsp_mst_sandwich", "yes")]

    def test_config_file_with_flag_overrides(self, tmp_path):
        out = tmp_path / "rows.json"
        cfg = {
            "instances": [json.loads(COMB)],
            "algorithms": [{"name": "blocking", "delta": "2"}],
            "jobs": 2,
            "output": {"format": "json"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main([
            "explore", "--config", str(cfg_path),
            "--instance", PLANAR, "--out", str(out),
        ])
        assert rc == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert {r["instance"] for r in rows} == {
            spec_of(COMB).label, spec_of(PLANAR).label
        }

    def test_seed_override(self, tmp_path):
        a, b, c = (tmp_path / x for x in ("a.edges", "b.edges", "c.edges"))
        base = '{"family": "random_planar", "params": {"points": 12}}'
        main(["gen", "--instance", base, "--out", str(a)])
        main(["gen", "--instance", base, "--seed", "7", "--out", str(b)])
        seeded = '{"family": "random_planar", "params": {"points": 12}, "seed": 7}'
        main(["gen", "--instance", seeded, "--out", str(c)])
        assert b.read_text() == c.read_text()
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("command, flags", [
        ("explore", ["--delta", "2"]),
        ("spanner", ["--epsilon", "1/2"]),
    ])
    def test_seed_overrides_config_instances(self, tmp_path, command, flags):
        # --seed reaches the file's instances as well as --instance ones
        cfg_path = tmp_path / "cfg.json"
        cfg = {"instances": [{"family": "random_planar", "params": {"points": 16}}]}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        labels = {}
        for seed in (5, 9):
            out = tmp_path / f"rows{seed}.json"
            rc = main([command, "--config", str(cfg_path), "--instance", PLANAR,
                       "--seed", str(seed), "--format", "json", "--out", str(out), *flags])
            assert rc == 0
            labels[seed] = {r["instance"] for r in json.loads(out.read_text(encoding="utf-8"))}
        assert labels[5] == {"random_planar[points=16]#5", "random_planar[points=25]#5"}
        assert labels[9] == {"random_planar[points=16]#9", "random_planar[points=25]#9"}


class TestCliErrors:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_family(self, capsys):
        assert main(["gen", "--instance", '{"family": "moebius"}']) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_instance(self):
        assert main(["explore", "--delta", "1"]) == 2

    def test_explore_needs_delta(self):
        assert main(["explore", "--instance", COMB]) == 2

    def test_spanner_needs_epsilon(self):
        assert main(["spanner", "--instance", COMB]) == 2

    @pytest.mark.parametrize("command,given", [
        ("explore", ["--instance", GRID, "--delta", "1/0"]),
        ("spanner", ["--instance", GRID, "--epsilon", "1/0"]),
        ("verify", ["--instance", GRID, "--delta", "2", "--epsilon", "1/0"]),
        ("gen", ["--instance", '{"family": "comb_lower_bound", "params": {"k": 3, "delta": "1/0"}}']),
    ])
    def test_zero_denominator_is_usage_error(self, tmp_path, capsys, monkeypatch, command, given):
        batch = "build_instance" if command == "gen" else f"run_{command}"

        def never(*args):
            raise AssertionError(f"{batch} ran")

        if command != "gen":  # gen meets the comb's delta in build_instance
            monkeypatch.setattr(cli, batch, never)
        out = tmp_path / "out.txt"
        assert main([command, *given, "--out", str(out)]) == 2
        assert "1/0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("epsilons", ["1/2", "1/0"]),
        ("algorithms", [{"name": "blocking", "delta": "3/0"}]),
    ])
    def test_zero_denominator_in_config_is_parse_error(self, tmp_path, capsys, key, value):
        cfg = {"instances": [json.loads(GRID)], key: value}
        with pytest.raises(ParseError, match="zero denominator"):
            ExperimentConfig.from_json_dict(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["verify", "--config", str(p)]) == 2
        assert "bad experiment config" in capsys.readouterr().err

    def test_bad_delta_expression(self):
        assert main(["explore", "--instance", COMB, "--delta", "fast"]) == 2

    def test_missing_edge_list_file(self):
        assert main(["explore", "--instance", "/nonexistent.edges", "--delta", "1"]) == 2

    def test_bad_config_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{", encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "1"]) == 2
        p.write_text('{"instances": []}', encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "1"]) == 2

    def test_misspelt_config_key_is_named(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "instances": [json.loads(GRID)],
            "algoritms": [{"name": "blocking", "delta": "2"}],
        }), encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "1"]) == 2
        assert "algoritms" in capsys.readouterr().err

    def test_misspelt_instance_key_is_named(self, capsys):
        spec = '{"family": "random_planar", "params": {"points": 6}, "sed": 5}'
        assert main(["gen", "--instance", spec]) == 2
        assert "sed" in capsys.readouterr().err

    def test_misspelt_instance_key_in_config_is_named(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "instances": [{"family": "grid", "params": {"p": 3, "q": 3}, "sede": 1}],
        }), encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "1"]) == 2
        assert "sede" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        assert main(["explore", "--instance", COMB, "--delta", "2", "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [2.7, True, "4"])
    def test_config_jobs_must_be_an_int(self, tmp_path, capsys, jobs):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"instances": [json.loads(COMB)], "jobs": jobs}), encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "2"]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2.7, True, "4"])
    @pytest.mark.parametrize("command,flags", [("gen", []), ("explore", ["--delta", "2"])])
    def test_instance_seed_must_be_an_int(self, tmp_path, capsys, seed, command, flags):
        # no coercion: 2.7, true and "4" once built seeds 2, 1 and 4
        spec = json.dumps({"family": "random_planar", "params": {"points": 6}, "seed": seed})
        out = tmp_path / "out.txt"
        assert main([command, "--instance", spec, *flags, "--out", str(out)]) == 2
        assert "seed must be an int" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", sorted(BAD_SPECS))
    @pytest.mark.parametrize("command,flags,source", [
        ("gen", [], "--instance"),
        ("explore", ["--delta", "2"], "--instance"),
        ("explore", ["--delta", "2"], "--config"),
        ("spanner", ["--epsilon", "1/2"], "--instance"),
        ("spanner", ["--epsilon", "1/2"], "--config"),
        ("verify", ["--delta", "2"], "--instance"),
        ("verify", ["--delta", "2"], "--config"),
    ])
    def test_bad_spec_runs_no_task(self, tmp_path, capsys, monkeypatch, command, flags, source, bad):
        # the spec check runs when a spec is made, from --instance, from a
        # config file or by --seed, so a bad one is a usage error (exit 2)
        batch = "build_instance" if command == "gen" else f"run_{command}"

        def never(*args):
            raise AssertionError(f"{batch} ran")

        monkeypatch.setattr(cli, batch, never)
        spec, extra, message = BAD_SPECS[bad]
        if source == "--instance":
            given = ["--instance", json.dumps(spec)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"instances": [spec]}), encoding="utf-8")
            given = ["--config", str(cfg)]
        out = tmp_path / "out.txt"
        assert main([command, *given, *extra, *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("explore", ["--delta", "0"]),
        ("explore", ["--delta", "2", "--delta", "-1"]),
        ("spanner", ["--epsilon", "-1"]),
        ("verify", ["--delta", "1", "--epsilon", "0"]),
    ])
    def test_non_positive_flag_parameter_runs_no_task(self, tmp_path, capsys, command, flags):
        out = tmp_path / "rows.csv"
        assert main([command, "--instance", COMB, *flags, "--out", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("algorithms", [{"name": "blocking", "delta": "2"}, {"name": "blocking", "delta": "0"}]),
        ("algorithms", [{"name": "blocking", "delta": "-1/2"}]),
        ("epsilons", ["1/2", "0"]),
        ("epsilons", ["-3"]),
    ])
    def test_non_positive_config_parameter_runs_no_task(self, tmp_path, capsys, key, value):
        p = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        p.write_text(json.dumps({
            "instances": [json.loads(COMB)], key: value, "output": {"path": str(out)},
        }), encoding="utf-8")
        assert main(["verify", "--config", str(p)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_wants_exactly_one_instance(self):
        assert main(["gen", "--instance", COMB, "--instance", PLANAR]) == 2
        assert main(["gen"]) == 2

    def test_only_batch_commands_call_instance_repeatable(self, capsys):
        for command, many in (("explore", True), ("spanner", True), ("verify", True), ("gen", False)):
            with pytest.raises(SystemExit) as ei:
                main([command, "--help"])
            assert ei.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            assert "path to an edge-list file" in text
            assert ("edge-list file (repeatable)" in text) == many, command

    @pytest.mark.parametrize("flag", [["--config", "cfg.json"], ["--jobs", "-1"]])
    def test_gen_rejects_flags_it_does_not_read(self, flag):
        with pytest.raises(SystemExit) as ei:
            main(["gen", "--instance", GRID, *flag])
        assert ei.value.code == 2

    @pytest.mark.parametrize("command,flags,batch", [
        ("explore", ["--delta", "2"], "run_explore"),
        ("spanner", ["--epsilon", "1/2"], "run_spanner"),
        ("verify", ["--delta", "2"], "run_verify"),
        ("gen", [], "build_instance"),
    ])
    def test_unwritable_out_path_runs_no_task(
        self, tmp_path, capsys, monkeypatch, command, flags, batch
    ):
        def never(*args):
            raise AssertionError(f"{batch} ran")

        monkeypatch.setattr(cli, batch, never)
        out = tmp_path / "missing" / "rows.csv"
        assert main([command, "--instance", COMB, *flags, "--out", str(out)]) == 2
        assert "output directory" in capsys.readouterr().err
        assert not out.parent.exists()
        assert main([command, "--instance", COMB, *flags, "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_config_out_path_into_missing_directory_runs_no_task(self, tmp_path, monkeypatch):
        def never(*args):
            raise AssertionError("run_explore ran")

        monkeypatch.setattr(cli, "run_explore", never)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "instances": [json.loads(GRID)],
            "output": {"path": str(tmp_path / "missing" / "rows.csv")},
        }), encoding="utf-8")
        assert main(["explore", "--config", str(p), "--delta", "1"]) == 2

    def test_degenerate_comb_params(self):
        # k=1, delta=1: heavy weight drops to 1 and the instance degenerates
        bad = '{"family": "comb_lower_bound", "params": {"k": 0, "delta": "1"}}'
        assert main(["gen", "--instance", bad]) == 2


class TestCliFailureExit:
    def test_bound_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            experiments, "competitive_bound", lambda delta, genus: Fraction(1, 1000)
        )
        out = tmp_path / "rows.csv"
        rc = main(["explore", "--instance", COMB, "--delta", "2", "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err
        _, rows = read_csv(out)  # rows still emitted for inspection
        assert rows[0]["bound_ok"] == "no"

    def test_broken_spanner_caught_by_verify(self, tmp_path, capsys, monkeypatch):
        # six-cycle plus a chord: at eps = 1/10 the chord must be kept, and
        # silently dropping it leaves its endpoints at stretch 6/5 > 11/10
        gpath = tmp_path / "c6.edges"
        gpath.write_text(
            "6 7\n0 1 1 1\n1 2 1 1\n2 3 1 1\n3 4 1 1\n4 5 1 1\n5 0 1 1\n0 3 5 2\n",
            encoding="utf-8",
        )
        real = greedy_spanner

        def sabotage(g, eps):
            res = real(g, eps)
            ids = sorted(res.edges.ids)[:-1]
            return SimpleNamespace(
                edges=type(res.edges)(g, ids), lightness=res.lightness
            )

        monkeypatch.setattr(experiments, "greedy_spanner", sabotage)
        out = tmp_path / "rows.csv"
        rc = main(["verify", "--instance", str(gpath), "--epsilon", "1/10", "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err
        _, rows = read_csv(out)
        bad = {r["check"] for r in rows if r["ok"] == "no"}
        assert "spanner_stretch" in bad

    def test_failed_stretch_verdict_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            experiments, "verify_spanner_stretch",
            lambda *a, **k: SimpleNamespace(ok=False, max_ratio=Fraction(2)),
        )
        out = tmp_path / "r.csv"
        assert main(["spanner", "--instance", COMB, "--epsilon", "1/2", "--out", str(out)]) == 1
        _, rows = read_csv(out)
        assert rows[0]["verified_ok"] == "no:stretch"

    def test_failed_explore_verdict_reaches_every_row(self, tmp_path, capsys, monkeypatch):
        real = exploration.verify_cost_chain

        def failing(g, log, delta):
            rep = real(g, log, delta)
            rep.ok = False
            rep.failures.append({"why": "injected"})
            return rep

        monkeypatch.setattr(exploration, "verify_cost_chain", failing)
        out = tmp_path / "rows.csv"
        rc = main(["explore", "--instance", COMB, "--instance", PLANAR,
                   "--delta", "2", "--out", str(out)])
        assert rc == 1
        assert "verification failed" in capsys.readouterr().err
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(r["verified_ok"] == "no:cost_chain" for r in rows)

    def test_invariant_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        from graphexplore.errors import InvariantViolation

        def boom(g, params):
            raise InvariantViolation("cost-charge-bound", witness=None)

        monkeypatch.setattr(experiments, "run_blocking", boom)
        out = tmp_path / "rows.csv"
        assert main(["explore", "--instance", COMB, "--delta", "2", "--out", str(out)]) == 1
        (row,) = read_csv(out)[1]
        cause = "error:InvariantViolation: invariant violated: cost-charge-bound"
        assert row["verified_ok"] == cause
        assert cause in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.edges"
        proc = subprocess.run(
            [sys.executable, "-m", "graphexplore", "gen", "--instance", COMB,
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_graph(out).n == 12

    def test_parser_prog_name(self):
        assert build_parser().prog == "graphexplore"
