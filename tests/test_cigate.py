"""CI gates: coverage/throughput pass clean and fail on injected regressions."""

from __future__ import annotations

import json

import pytest

from repro.cigate import (
    DEFAULT_COVERAGE_FLOOR,
    coverage_gate,
    default_gate_backends,
    fused_coverage_gate,
    model_coverage_gate,
    pipeline_coverage_gate,
    run_ci_gate,
    throughput_gate,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry


def tiny_baseline(tmp_path, engine_seconds, repeats=100):
    """A doctored BENCH_engine.json at a fast-to-benchmark size."""
    path = tmp_path / "BENCH_engine.json"
    path.write_text(
        json.dumps(
            {
                "size": 128,
                "block_size": 64,
                "p": 2,
                "repeats": repeats,
                "engine_seconds": engine_seconds,
            }
        )
    )
    return path


class TestCoverageGate:
    def test_passes_at_default_floor(self):
        reg = MetricsRegistry()
        result = coverage_gate(n=128, num_injections=80, registry=reg)
        assert result.passed
        assert result.gate == "coverage"
        assert result.measured >= DEFAULT_COVERAGE_FLOOR
        assert result.describe().startswith("[PASS] coverage:")

    def test_fails_when_floor_is_unreachable(self):
        # Injected regression: no campaign detects more than 100%.
        result = coverage_gate(
            floor=1.01, n=128, num_injections=80, registry=MetricsRegistry()
        )
        assert not result.passed
        assert result.threshold == 1.01
        assert result.describe().startswith("[FAIL] coverage:")

    def test_publishes_gauges(self):
        reg = MetricsRegistry()
        result = coverage_gate(n=128, num_injections=80, registry=reg)
        gauges = reg.gauge("abft_ci_gate_coverage", labelnames=("quantity",))
        assert gauges.labels(quantity="detection_rate").get() == result.measured
        assert gauges.labels(quantity="baseline_clean").get() == 1.0
        assert gauges.labels(quantity="critical_errors").get() > 0

    def test_publishes_per_backend_gauges(self):
        reg = MetricsRegistry()
        result = coverage_gate(n=128, num_injections=80, registry=reg)
        by_backend = reg.gauge(
            "abft_ci_gate_coverage_by_backend",
            labelnames=("backend", "quantity"),
        )
        assert (
            by_backend.labels(backend="numpy", quantity="detection_rate").get()
            == result.measured
        )

    def test_second_backend_gate(self, delegate_backend):
        reg = MetricsRegistry()
        result = coverage_gate(
            n=128, num_injections=80, backend=delegate_backend, registry=reg
        )
        assert result.gate == f"coverage[{delegate_backend}]"
        assert result.passed
        assert f"backend {delegate_backend!r}" in result.detail
        by_backend = reg.gauge(
            "abft_ci_gate_coverage_by_backend",
            labelnames=("backend", "quantity"),
        )
        assert (
            by_backend.labels(
                backend=delegate_backend, quantity="detection_rate"
            ).get()
            == result.measured
        )

    def test_unavailable_backend_fails_instead_of_remeasuring_numpy(self):
        result = coverage_gate(
            n=128, num_injections=80, backend="cupy", registry=MetricsRegistry()
        )
        if result.passed:  # pragma: no cover - only on a CUDA machine
            pytest.skip("cupy is available here")
        assert result.gate == "coverage[cupy]"
        assert "fell back" in result.detail


class TestPipelineCoverageGate:
    def test_passes_at_default_floor(self):
        reg = MetricsRegistry()
        result = pipeline_coverage_gate(
            n=128, num_injections=80, registry=reg
        )
        assert result.passed
        assert result.gate == "pipeline-coverage"
        assert result.measured >= DEFAULT_COVERAGE_FLOOR
        assert result.describe().startswith("[PASS] pipeline-coverage:")

    def test_fails_when_floor_is_unreachable(self):
        result = pipeline_coverage_gate(
            floor=1.01, n=128, num_injections=80, registry=MetricsRegistry()
        )
        assert not result.passed
        assert result.describe().startswith("[FAIL] pipeline-coverage:")

    def test_publishes_gauges(self):
        reg = MetricsRegistry()
        result = pipeline_coverage_gate(
            n=128, num_injections=80, registry=reg
        )
        gauges = reg.gauge(
            "abft_ci_gate_pipeline_coverage", labelnames=("quantity",)
        )
        assert (
            gauges.labels(quantity="detection_rate").get() == result.measured
        )
        assert gauges.labels(quantity="baseline_clean").get() == 1.0
        assert gauges.labels(quantity="pipelined_ran").get() == 1.0
        assert gauges.labels(quantity="critical_errors").get() > 0


class TestFusedCoverageGate:
    def test_passes_at_default_floor(self):
        reg = MetricsRegistry()
        result = fused_coverage_gate(n=128, num_injections=40, registry=reg)
        assert result.passed
        assert result.gate == "fused-coverage"
        assert result.measured >= DEFAULT_COVERAGE_FLOOR
        assert result.describe().startswith("[PASS] fused-coverage:")

    def test_fails_when_floor_is_unreachable(self):
        result = fused_coverage_gate(
            floor=1.01, n=128, num_injections=40, registry=MetricsRegistry()
        )
        assert not result.passed
        assert result.threshold == 1.01

    def test_publishes_gauges_including_early_abort_proof(self):
        reg = MetricsRegistry()
        result = fused_coverage_gate(n=128, num_injections=40, registry=reg)
        gauges = reg.gauge(
            "abft_ci_gate_fused_coverage", labelnames=("quantity",)
        )
        assert gauges.labels(quantity="detection_rate").get() == result.measured
        assert gauges.labels(quantity="baseline_clean").get() == 1.0
        assert gauges.labels(quantity="fused_ran").get() == 1.0
        assert gauges.labels(quantity="critical_errors").get() > 0
        # Every detection must have been an early abort (proven by the
        # tile scan stopping before the last tile), so the abort rate
        # equals the detection rate exactly.
        assert (
            gauges.labels(quantity="early_abort_rate").get() == result.measured
        )


class TestModelCoverageGate:
    def test_passes_at_default_floor(self):
        reg = MetricsRegistry()
        result = model_coverage_gate(
            trials_per_layer=2,
            clean_trials=1,
            registry=reg,
        )
        assert result.passed
        assert result.gate == "model-coverage"
        assert result.measured >= DEFAULT_COVERAGE_FLOOR
        assert "false positives" in result.detail
        assert result.describe().startswith("[PASS] model-coverage:")

    def test_fails_when_floor_is_unreachable(self):
        result = model_coverage_gate(
            floor=1.01,
            trials_per_layer=2,
            clean_trials=1,
            registry=MetricsRegistry(),
        )
        assert not result.passed
        assert result.threshold == 1.01

    def test_publishes_gauges(self):
        reg = MetricsRegistry()
        result = model_coverage_gate(
            trials_per_layer=2,
            clean_trials=1,
            registry=reg,
        )
        gauges = reg.gauge(
            "abft_ci_gate_model_coverage", labelnames=("quantity",)
        )
        assert gauges.labels(quantity="detection_rate").get() == result.measured
        assert gauges.labels(quantity="false_positives").get() == 0.0
        assert gauges.labels(quantity="clean_runs").get() == 2.0
        # fp32 MLP + fp16 attention, both swept at every layer.
        assert gauges.labels(quantity="protected_trials").get() > 0
        assert gauges.labels(quantity="plan_coverage").get() >= (
            DEFAULT_COVERAGE_FLOOR
        )
        # The roofline claim: the mixed plan must beat all-full outright.
        assert gauges.labels(quantity="latency_ratio").get() < 1.0


class TestThroughputGate:
    def test_passes_against_committed_baseline(self):
        # BENCH_engine.json at the repo root is the real CI contract.
        result = throughput_gate(repeats=3, registry=MetricsRegistry())
        assert result.passed
        assert result.measured <= result.threshold
        assert "ms/call" in result.detail

    def test_fails_against_doctored_fast_baseline(self, tmp_path):
        # Injected regression: the baseline claims 1 microsecond per call.
        baseline = tiny_baseline(tmp_path, engine_seconds=1e-4)
        result = throughput_gate(
            repeats=3, baseline_path=baseline, registry=MetricsRegistry()
        )
        assert not result.passed
        assert result.describe().startswith("[FAIL] throughput:")

    def test_passes_against_generous_baseline(self, tmp_path):
        baseline = tiny_baseline(tmp_path, engine_seconds=1000.0)
        result = throughput_gate(
            repeats=3, baseline_path=baseline, registry=MetricsRegistry()
        )
        assert result.passed

    def test_missing_baseline_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="baseline"):
            throughput_gate(
                baseline_path=tmp_path / "nope.json", registry=MetricsRegistry()
            )


class TestRunCiGate:
    def test_default_backends_start_with_numpy(self):
        backends = default_gate_backends()
        assert backends[0] == "numpy"
        assert "cupy" not in backends  # non-deterministic, never auto-gated

    def test_clean_quick_run_exits_zero(self):
        # chaos=False: the chaos-slo gate has its own live-traffic suite
        # in tests/chaos/test_gate.py; this also pins the skip behaviour.
        reg = MetricsRegistry()
        code, results = run_ci_gate(quick=True, chaos=False, registry=reg)
        assert code == 0
        expected = [
            "coverage" if b == "numpy" else f"coverage[{b}]"
            for b in default_gate_backends()
        ] + ["pipeline-coverage", "fused-coverage", "model-coverage", "throughput"]
        assert [r.gate for r in results] == expected
        assert "chaos-slo" not in [r.gate for r in results]
        assert all(r.passed for r in results)
        pass_gauge = reg.gauge("abft_ci_gate_pass", labelnames=("gate",))
        assert pass_gauge.labels(gate="coverage").get() == 1.0
        assert pass_gauge.labels(gate="throughput").get() == 1.0

    def test_explicit_backend_list(self, tmp_path, delegate_backend):
        reg = MetricsRegistry()
        code, results = run_ci_gate(
            quick=True,
            chaos=False,
            backends=("numpy", delegate_backend),
            baseline_path=tiny_baseline(tmp_path, engine_seconds=1000.0),
            registry=reg,
        )
        assert code == 0
        assert [r.gate for r in results] == [
            "coverage",
            f"coverage[{delegate_backend}]",
            "pipeline-coverage",
            "fused-coverage",
            "model-coverage",
            "throughput",
        ]

    def test_injected_regression_exits_nonzero(self, tmp_path):
        reg = MetricsRegistry()
        code, results = run_ci_gate(
            quick=True,
            chaos=False,
            coverage_floor=1.01,
            backends=("numpy",),
            baseline_path=tiny_baseline(tmp_path, engine_seconds=1e-4),
            registry=reg,
        )
        assert code == 1
        assert not any(r.passed for r in results)
        pass_gauge = reg.gauge("abft_ci_gate_pass", labelnames=("gate",))
        assert pass_gauge.labels(gate="coverage").get() == 0.0
        assert pass_gauge.labels(gate="throughput").get() == 0.0


class TestCliCommand:
    @pytest.fixture(autouse=True)
    def fresh_global_registry(self):
        # main() runs against the process-global registry; the chaos gate
        # drives real serve traffic through it, so isolate these tests
        # from CLI tests that assert absolute global-counter values.
        from repro.telemetry import get_registry, set_registry

        previous = get_registry()
        set_registry(MetricsRegistry())
        yield
        set_registry(previous)

    def test_quick_gate_exits_zero(self, capsys):
        assert main(["ci-gate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] coverage:" in out
        assert "[PASS] pipeline-coverage:" in out
        assert "[PASS] fused-coverage:" in out
        assert "[PASS] throughput:" in out
        assert "[PASS] chaos-slo:" in out
        assert "all gates passed" in out

    def test_impossible_floor_exits_nonzero(self, capsys):
        assert main(
            ["ci-gate", "--quick", "--coverage-floor", "1.01", "--skip-chaos"]
        ) == 1
        out = capsys.readouterr().out
        assert "[FAIL] coverage:" in out
        assert "GATE FAILURE" in out

    def test_telemetry_out_records_the_gates(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.jsonl"
        assert main(
            ["--telemetry-out", str(out_path), "ci-gate", "--quick", "--skip-chaos"]
        ) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        span_paths = [ev["path"] for ev in lines if ev["type"] == "span"]
        assert "ci_gate.coverage" in span_paths
        assert "ci_gate.pipeline_coverage" in span_paths
        assert "ci_gate.fused_coverage" in span_paths
        assert "ci_gate.model_coverage" in span_paths
        assert "ci_gate.throughput" in span_paths
        snapshots = [ev for ev in lines if ev["type"] == "snapshot"]
        assert len(snapshots) == 1
        metrics = snapshots[0]["metrics"]
        assert "abft_ci_gate_pass" in metrics
        assert "abft_campaign_injections_total" in metrics
        assert "abft_engine_calls_total" in metrics
