"""End-to-end chaos harness runs (fast: short windows, small shapes)."""

import json

import pytest

from repro.chaos import ChaosRecipe, SLOSpec, run_chaos
from repro.errors import ConfigurationError
from repro.serve import ServeConfig
from repro.telemetry import MetricsRegistry

FAST = dict(
    requests_per_wave=8,
    concurrency=4,
    m=48,
    n=48,
    q=8,
    drain_margin_s=0.1,
)


def counter_value(registry, name, **labels):
    for row in registry.snapshot()[name]["values"]:
        if row["labels"] == labels:
            return row["value"]
    return 0.0


@pytest.fixture(scope="module")
def bitflip_report():
    recipes = [
        ChaosRecipe(
            kind="bitflip", site="gemm", intensity=0.5, duration_s=0.4,
            seed=7, name="flip",
        )
    ]
    return run_chaos(recipes, SLOSpec(), seed=3, **FAST)


class TestBitflipSuite:
    def test_run_is_clean_and_reconciled(self, bitflip_report):
        report = bitflip_report
        assert report.ok, [b.to_dict() for b in report.breaches]
        assert report.reconciliation_diffs == []
        assert report.result.silent_wrong == 0

    def test_flips_are_injected_and_caught(self, bitflip_report):
        report = bitflip_report
        [outcome] = report.recipes
        assert outcome.injections > 0
        r = report.result
        # Every critical flip must surface through honest channels.
        assert r.detected + r.corrected + r.recomputed > 0

    def test_injections_land_in_chaos_telemetry(self):
        registry = MetricsRegistry()
        recipes = [
            ChaosRecipe(
                kind="bitflip", site="gemm", intensity=0.5, duration_s=0.3,
                seed=5, name="flip",
            )
        ]
        report = run_chaos(
            recipes, SLOSpec(), seed=4, registry=registry, **FAST
        )
        [outcome] = report.recipes
        assert counter_value(
            registry, "abft_chaos_injections_total",
            kind="bitflip", site="gemm",
        ) == outcome.injections


class TestQueueBurst:
    def test_saturation_rejects_honestly_and_reconciles(self):
        recipes = [
            ChaosRecipe(
                kind="queue_burst", site="admission", intensity=64.0,
                duration_s=0.3, name="burst",
            )
        ]
        # Saturation is the point: keep the latency/burn objectives out
        # of the way and assert only on honest accounting.
        slo = SLOSpec(
            p99_latency_s=5.0, error_budget=0.99, burn_rate_limit=1e6
        )
        report = run_chaos(
            recipes, slo, seed=6,
            serve_config=ServeConfig(max_queue_depth=8),
            **FAST,
        )
        r = report.result
        assert r.rejection_reasons.get("queue_full", 0) > 0
        assert report.reconciliation_diffs == []
        assert r.dropped == 0
        assert r.served + r.rejected == r.submitted
        assert report.ok, [b.to_dict() for b in report.breaches]


class TestBackendFailure:
    def test_dispatch_faults_ride_the_never_silent_fallback(self):
        recipes = [
            ChaosRecipe(
                kind="backend_failure", site="chaos", intensity=1.0,
                duration_s=0.4, name="kill-stand-in",
            )
        ]
        report = run_chaos(recipes, SLOSpec(), seed=8, **FAST)
        [outcome] = report.recipes
        assert outcome.injections > 0  # probes hit the poisoned backend
        assert report.result.silent_wrong == 0
        assert report.ok, [b.to_dict() for b in report.breaches]


class TestStallBreach:
    def test_stall_past_the_ceiling_breaches_p99(self):
        recipes = [
            ChaosRecipe(
                kind="stage_stall", site="multiply", intensity=0.05,
                duration_s=0.4, name="tarpit",
            )
        ]
        slo = SLOSpec(p99_latency_s=0.005)
        report = run_chaos(recipes, slo, seed=9, **FAST)
        assert not report.ok
        assert any(b.slo == "p99_latency" for b in report.breaches)
        assert report.result.p99_s > slo.p99_latency_s


class TestReportWriter:
    def test_writes_dated_pair(self, bitflip_report, tmp_path):
        paths = bitflip_report.write(tmp_path, run_date="2026-08-08")
        payload = json.loads(
            (tmp_path / "VALIDATION_REPORT_2026-08-08.json").read_text()
        )
        assert payload["date"] == "2026-08-08"
        assert payload["ok"] is True
        assert payload["recipes"][0]["injections"] > 0
        md = (tmp_path / "VALIDATION_REPORT_2026-08-08.md").read_text()
        assert "# Chaos validation report — 2026-08-08" in md
        assert "**PASS**" in md
        assert set(paths) == {"json", "markdown"}


class TestArguments:
    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one recipe"):
            run_chaos([], SLOSpec())
