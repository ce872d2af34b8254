"""The aabft command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for cmd in (
            "table1",
            "bounds",
            "detect",
            "coverage",
            "all",
            "demo",
            "ci-gate",
            "serve",
            "loadgen",
            "bench",
            "backends",
            "autotune",
        ):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_telemetry_out_is_global(self):
        args = build_parser().parse_args(
            ["--telemetry-out", "events.jsonl", "demo"]
        )
        assert args.telemetry_out == "events.jsonl"
        assert build_parser().parse_args(["demo"]).telemetry_out is None

    def test_ci_gate_options(self):
        args = build_parser().parse_args(
            [
                "ci-gate",
                "--quick",
                "--coverage-floor",
                "0.9",
                "--throughput-tolerance",
                "0.5",
                "--baseline",
                "custom.json",
            ]
        )
        assert args.quick is True
        assert args.coverage_floor == 0.9
        assert args.throughput_tolerance == 0.5
        assert args.baseline == "custom.json"
        assert args.skip_chaos is False
        assert args.chaos_recipes is None
        assert args.chaos_report is None

    def test_ci_gate_chaos_options(self):
        args = build_parser().parse_args(
            [
                "ci-gate",
                "--chaos-recipes",
                "suite.json",
                "--chaos-report",
                "report-dir",
                "--skip-chaos",
            ]
        )
        assert args.chaos_recipes == "suite.json"
        assert args.chaos_report == "report-dir"
        assert args.skip_chaos is True

    def test_chaos_run_options(self):
        args = build_parser().parse_args(
            [
                "chaos",
                "run",
                "--recipes",
                "suite.json",
                "--report",
                "out-dir",
                "--p99-ms",
                "100",
                "--error-budget",
                "0.25",
                "--burn-limit",
                "3.0",
            ]
        )
        assert args.command == "chaos"
        assert args.chaos_command == "run"
        assert args.recipes == "suite.json"
        assert args.report == "out-dir"
        assert args.p99_ms == 100
        assert args.error_budget == 0.25
        assert args.burn_limit == 3.0

    def test_chaos_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_loadgen_verify_results_flag(self):
        assert build_parser().parse_args(
            ["loadgen", "--verify-results"]
        ).verify_results is True
        assert build_parser().parse_args(["loadgen"]).verify_results is False

    def test_detect_options(self):
        args = build_parser().parse_args(
            ["detect", "--injections", "7", "--flips", "3", "--field", "exponent"]
        )
        assert args.injections == 7
        assert args.flips == 3
        assert args.field == "exponent"

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--requests", "reqs.jsonl",
                "--m", "128", "--n", "64", "--q", "8",
                "--deadline-s", "0.5",
                "--max-batch", "16",
                "--window-s", "0.01",
                "--queue-depth", "64",
            ]
        )
        assert args.requests == "reqs.jsonl"
        assert (args.m, args.n, args.q) == (128, 64, 8)
        assert args.deadline_s == 0.5
        assert args.max_batch == 16
        assert args.window_s == 0.01
        assert args.queue_depth == 64

    def test_serve_defaults_to_stdin(self):
        assert build_parser().parse_args(["serve"]).requests == "-"

    def test_loadgen_options(self):
        args = build_parser().parse_args(
            [
                "loadgen",
                "--requests", "50",
                "--concurrency", "8",
                "--m", "64", "--n", "64", "--q", "4",
                "--deadline-s", "2.0",
                "--fresh-a",
            ]
        )
        assert args.requests == 50
        assert args.concurrency == 8
        assert (args.m, args.n, args.q) == (64, 64, 4)
        assert args.deadline_s == 2.0
        assert args.fresh_a is True

    def test_bench_options(self):
        args = build_parser().parse_args(
            [
                "bench",
                "--which", "all",
                "--quick",
                "--compare",
                "--baseline", "custom.json",
                "--tolerance", "0.4",
            ]
        )
        assert args.which == "all"
        assert args.quick and args.compare
        assert args.baseline == "custom.json"
        assert args.tolerance == 0.4
        assert build_parser().parse_args(["bench"]).which == "serve"

    def test_bench_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--which", "bogus"])

    def test_ci_gate_backends_option(self):
        args = build_parser().parse_args(
            ["ci-gate", "--backends", "numpy,cupy"]
        )
        assert args.backends == "numpy,cupy"
        assert build_parser().parse_args(["ci-gate"]).backends is None

    def test_autotune_options(self):
        args = build_parser().parse_args(
            [
                "autotune",
                "--shapes", "128x128x64",
                "--block-size", "32",
                "--p", "3",
                "--scheme", "sea",
                "--repeats", "5",
                "--cache", "tune.json",
                "--force",
                "--expect-cached",
            ]
        )
        assert args.shapes == "128x128x64"
        assert args.block_size == 32
        assert args.p == 3
        assert args.scheme == "sea"
        assert args.repeats == 5
        assert args.cache == "tune.json"
        assert args.force and args.expect_cached


class TestModelParser:
    def test_model_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model"])

    def test_model_plan_options(self):
        args = build_parser().parse_args(
            [
                "model", "plan",
                "--model", "attention",
                "--batch", "32",
                "--d-model", "128",
                "--dtype", "float16",
                "--coverage-target", "0.9",
                "--full-intensity", "40",
                "--sea-intensity", "12",
                "--json",
            ]
        )
        assert args.command == "model"
        assert args.model_command == "plan"
        assert args.model == "attention"
        assert args.batch == 32
        assert args.d_model == 128
        assert args.dtype == "float16"
        assert args.coverage_target == 0.9
        assert (args.full_intensity, args.sea_intensity) == (40.0, 12.0)
        assert args.json is True

    def test_model_run_options(self):
        args = build_parser().parse_args(
            [
                "model", "run",
                "--depth", "3",
                "--verify-results",
                "--inject-layer", "fc2",
                "--inject-row", "3",
                "--inject-col", "5",
                "--inject-field", "mantissa",
            ]
        )
        assert args.model_command == "run"
        assert args.verify_results is True
        assert args.inject_layer == "fc2"
        assert (args.inject_row, args.inject_col) == (3, 5)
        assert args.inject_field == "mantissa"

    def test_model_run_defaults(self):
        args = build_parser().parse_args(["model", "run"])
        assert args.model == "mlp"
        assert args.inject_layer is None
        assert args.inject_field == "exponent"
        assert args.coverage_target == 0.85

    def test_model_bench_options(self):
        args = build_parser().parse_args(
            [
                "model", "bench",
                "--quick",
                "--compare",
                "--baseline", "custom.json",
                "--tolerance", "0.4",
            ]
        )
        assert args.model_command == "bench"
        assert args.quick and args.compare
        assert args.baseline == "custom.json"
        assert args.tolerance == 0.4

    def test_model_rejects_unknown_dtype(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "plan", "--dtype", "float8"])


class TestModelExecution:
    def test_plan_prints_decision_table(self, capsys):
        assert main(
            [
                "model", "plan",
                "--batch", "64", "--d-in", "64", "--hidden", "64",
                "--depth", "3", "--d-out", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "fc1" in out and "head" in out

    def test_plan_json_mode(self, capsys):
        assert main(
            [
                "model", "plan", "--json",
                "--batch", "64", "--d-in", "64", "--hidden", "64",
                "--depth", "2",
            ]
        ) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["coverage"] >= plan["coverage_target"]
        assert {a["layer"] for a in plan["assignments"]} == {"fc1", "head"}

    def test_run_verified_with_telemetry(self, capsys, tmp_path):
        telemetry = tmp_path / "model.jsonl"
        assert main(
            [
                "--telemetry-out", str(telemetry),
                "model", "run",
                "--batch", "32", "--d-in", "32", "--hidden", "32",
                "--depth", "2", "--block-size", "16",
                "--verify-results",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert summary["detected"] is False
        events = [
            json.loads(line) for line in telemetry.read_text().splitlines()
        ]
        snapshot = events[-1]
        assert snapshot["type"] == "snapshot"
        assert "abft_model_runs_total" in snapshot["metrics"]
        assert "abft_model_layers_total" in snapshot["metrics"]

    def test_run_spec_file(self, capsys, tmp_path):
        from repro.models import mlp

        spec = tmp_path / "model.json"
        spec.write_text(
            mlp(name="from-file", batch=16, d_in=32, hidden=32, depth=2)
            .to_json()
        )
        assert main(["model", "run", "--spec", str(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == "from-file"

    def test_injected_fault_on_protected_layer_is_detected(self, capsys):
        assert main(
            [
                "model", "run",
                "--batch", "32", "--d-in", "32", "--hidden", "32",
                "--depth", "2", "--block-size", "16",
                "--coverage-target", "1.0",
                "--inject-layer", "fc1",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["detected"] is True


class TestExecution:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "A-ABFT" in out
        assert "8192" in out

    def test_demo_detects_or_tolerates(self, capsys):
        assert main(["--seed", "3", "demo", "--n", "128"]) == 0
        out = capsys.readouterr().out
        assert "fault-free run: detected=False" in out
        assert "injected:" in out

    def test_loadgen_end_to_end_with_telemetry(self, capsys, tmp_path):
        telemetry = tmp_path / "serve.jsonl"
        assert main(
            [
                "--telemetry-out", str(telemetry),
                "loadgen",
                "--requests", "20",
                "--concurrency", "5",
                "--m", "64", "--n", "64", "--q", "8",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["served"] == 20
        assert summary["rejected"] == 0 and summary["dropped"] == 0
        assert summary["status_counts"] == {"full": 20}
        assert summary["max_batch_size"] > 1
        # the telemetry stream ends with a metrics snapshot carrying the
        # serve counters the CI job gates on
        events = [
            json.loads(line) for line in telemetry.read_text().splitlines()
        ]
        snapshot = events[-1]
        assert snapshot["type"] == "snapshot"
        metrics = snapshot["metrics"]
        assert "abft_serve_requests_total" in metrics
        assert "abft_serve_batch_size" in metrics
        completed = [
            v["value"]
            for v in metrics["abft_serve_requests_total"]["values"]
            if v["labels"].get("outcome") == "completed"
        ]
        assert completed == [20.0]
        dropped = metrics["abft_serve_dropped_total"]["values"]
        assert sum(v["value"] for v in dropped) == 0.0  # no child = never hit

    def test_bench_all_rejects_baseline(self, capsys):
        # Regression: --which all used to silently ignore --baseline,
        # comparing against the repo defaults instead of the given file.
        assert main(
            ["bench", "--which", "all", "--quick", "--compare",
             "--baseline", "custom.json"]
        ) == 2
        err = capsys.readouterr().err
        assert "--baseline cannot be combined with --which all" in err

    def test_backends_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "cupy" in out

    def test_autotune_caches_and_reuses(self, capsys, tmp_path):
        cache = tmp_path / "autotune.json"
        argv = [
            "autotune", "--shapes", "96x96x48", "--repeats", "1",
            "--cache", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "tuned" in first and cache.exists()
        assert "fusion=" in first and "separate check" in first
        # Second run must serve the winner from the cache without timing.
        assert main(argv + ["--expect-cached"]) == 0
        second = capsys.readouterr().out
        assert "cached" in second

    def test_autotune_expect_cached_fails_on_cold_cache(self, capsys, tmp_path):
        assert main(
            ["autotune", "--shapes", "96x96x48",
             "--cache", str(tmp_path / "cold.json"), "--expect-cached"]
        ) == 1
        assert "no cached winner" in capsys.readouterr().err

    def test_serve_reads_jsonl_requests(self, capsys, tmp_path):
        spec = tmp_path / "requests.jsonl"
        spec.write_text(
            "# comment lines are skipped\n"
            '{"m": 64, "n": 64, "q": 8, "count": 3, "seed": 11, "id": "w"}\n'
            '{"m": 64, "n": 64, "q": 8, "seed": 12}\n'
        )
        assert main(
            ["serve", "--requests", str(spec), "--window-s", "0.001"]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        responses, summary = lines[:-1], lines[-1]["summary"]
        assert summary == {"submitted": 4, "served": 4, "rejected": 0}
        assert [r["request_id"] for r in responses[:3]] == [
            "w.0", "w.1", "w.2",
        ]
        assert all(r["status"] == "full" for r in responses)
        assert max(r["batch_size"] for r in responses) > 1
