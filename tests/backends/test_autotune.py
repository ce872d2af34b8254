"""Autotuner: cache persistence, versioning and the fusion decision."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import Autotuner, AutotuneCache, TunedChoice
from repro.backends.autotune import default_cache_path
from repro.engine import AbftConfig
from repro.telemetry import MetricsRegistry


@pytest.fixture
def cache(tmp_path) -> AutotuneCache:
    return AutotuneCache(tmp_path / "autotune.json")


CHOICE = TunedChoice(
    per_call_s=0.5, fusion="separate", fused_per_call_s=0.7,
    separate_check_s=0.1,
)


class TestCache:
    def test_round_trip_through_disk(self, cache):
        cache.put("k1", CHOICE)
        reloaded = AutotuneCache(cache.path)
        assert reloaded.get("k1") == CHOICE
        assert reloaded.keys() == ["k1"]
        assert len(reloaded) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert AutotuneCache(tmp_path / "nope.json").get("k") is None

    def test_corrupt_file_reads_empty(self, cache):
        # Valid JSON that is not an object is corrupt too.
        cache.path.write_text("[]")
        assert AutotuneCache(cache.path).get("k") is None
        cache.path.write_text("{not json")
        assert cache.get("k") is None
        # ...and stays writable: the corrupt file is replaced atomically.
        cache.put("k", CHOICE)
        assert json.loads(cache.path.read_text())["entries"]["k"][
            "fusion"
        ] == "separate"

    def test_unwritable_path_degrades_to_memory(self, tmp_path):
        target = tmp_path / "not-a-dir.json" / "cache.json"
        tmp_path.joinpath("not-a-dir.json").write_text("a file, not a dir")
        cache = AutotuneCache(target)
        cache.put("k", CHOICE)  # must not raise
        assert cache.get("k") == CHOICE  # held in memory

    def test_clear_removes_file(self, cache):
        cache.put("k", CHOICE)
        assert cache.path.exists()
        cache.clear()
        assert not cache.path.exists() and len(cache) == 0

    def test_other_versions_read_empty_and_are_replaced(self, cache):
        # Version 1 held (backend, tile) winners; they are re-tuned, not
        # migrated.
        cache.path.write_text(json.dumps({
            "version": 1,
            "entries": {"k": {
                "backend": "numpy", "tile": None, "per_call_s": 1.0,
                "baseline_per_call_s": 1.0, "fusion": "fused",
            }},
        }))
        assert cache.get("k") is None and len(cache) == 0
        cache.put("k", CHOICE)
        on_disk = json.loads(cache.path.read_text())
        assert on_disk["version"] == 2
        assert AutotuneCache(cache.path).get("k") == CHOICE

    def test_env_var_overrides_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AABFT_AUTOTUNE_CACHE", str(tmp_path / "env.json"))
        assert default_cache_path() == tmp_path / "env.json"


class TestAutotuner:
    def test_key_covers_shape_dtype_and_config(self, cache):
        tuner = Autotuner(cache, repeats=1)
        config = AbftConfig(block_size=32, p=3, scheme="sea")
        key = tuner.key(10, 20, 30, np.float32, config)
        assert key == "10x20x30/float32/sea/bs32/p3"

    def test_tune_persists_and_lookup_serves_cache(self, cache):
        reg = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=reg)
        config = AbftConfig()
        choice = tuner.tune(96, 96, 48, config=config)
        assert isinstance(choice, TunedChoice)
        hit = tuner.lookup(96, 96, 48, np.float64, config)
        assert hit == choice
        counter = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert counter.labels(event="tuned").get() == 1.0
        assert counter.labels(event="cache_hit").get() == 1.0

    def test_lookup_miss_is_counted_not_timed(self, cache):
        reg = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=reg)
        assert tuner.lookup(7, 7, 7, np.float64, AbftConfig()) is None
        counter = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert counter.labels(event="cache_miss").get() == 1.0

    def test_each_untuned_call_looks_the_cache_up_once(
        self, cache, monkeypatch
    ):
        # Only an auto fusion strategy consults the tuner: ten matmul
        # calls on a fresh cache count ten misses, not twenty.
        from repro.engine import MatmulEngine

        monkeypatch.delenv("AABFT_FUSION", raising=False)
        reg = MetricsRegistry()
        engine = MatmulEngine(
            autotuner=Autotuner(cache, metrics_registry=reg), registry=reg
        )
        a = np.random.default_rng(0).uniform(-1, 1, (48, 48))
        for _ in range(10):
            engine.matmul(a, a)
        counter = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert counter.labels(event="cache_miss").get() == 10.0
        assert counter.labels(event="cache_hit").get() == 0.0

    def test_cached_winner_skips_timing_unless_forced(self, cache):
        tuner = Autotuner(cache, repeats=1)
        planted = TunedChoice(per_call_s=123.0)
        cache.put(tuner.key(64, 64, 64, np.float64, AbftConfig()), planted)
        assert tuner.tune(64, 64, 64) == planted  # served, not re-timed
        retuned = tuner.tune(64, 64, 64, force=True)
        assert retuned.per_call_s < 123.0

    def test_validation(self, cache):
        with pytest.raises(ValueError):
            Autotuner(cache, repeats=0)
        with pytest.raises(ValueError):
            Autotuner(cache, hysteresis=1.5)


class TestFusionTuning:
    def test_fusion_fields_survive_cache_round_trip(self, tmp_path):
        path = tmp_path / "autotune.json"
        cache = AutotuneCache(path)
        planted = TunedChoice(
            per_call_s=1.0, fusion="fused", fused_tile_blocks=None,
            fused_per_call_s=0.8, separate_check_s=0.3,
        )
        cache.put("k", planted)
        reloaded = AutotuneCache(path).get("k")
        assert reloaded == planted
        assert reloaded.fusion == "fused"
        assert reloaded.fused_tile_blocks is None

    def test_decision_carries_timed_evidence(self, cache):
        tuner = Autotuner(cache, repeats=1)
        choice = tuner.tune(96, 64, 96)
        assert choice.fusion in ("fused", "separate")
        assert choice.fused_per_call_s is not None
        assert choice.separate_check_s is not None
        if choice.fusion == "fused":
            # Only where it wins: the fused evidence must beat the
            # separate GEMM + grid-check total.
            assert choice.fused_per_call_s < (
                choice.per_call_s + choice.separate_check_s
            )

    def test_total_hysteresis_keeps_separate(self, cache):
        tuner = Autotuner(cache, repeats=1, hysteresis=0.999)
        choice = tuner.tune(96, 64, 96)
        assert choice.fusion == "separate"
        assert choice.fused_tile_blocks is None

    def test_candidate_tile_blocks_subdivide_the_encoded_result(self, cache):
        tuner = Autotuner(cache, repeats=1)
        blocks = tuner.candidate_tile_blocks(256, 256, 64)
        assert blocks == [2]  # 2*65 < 260; 4*65 does not subdivide
        assert tuner.candidate_tile_blocks(64, 64, 64) == []

    def test_fusion_decisions_are_counted(self, cache):
        registry = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=registry)
        tuner.tune(96, 64, 96)
        snap = registry.snapshot()["abft_fused_autotune_total"]
        decided = {v["labels"]["decision"]: v["value"] for v in snap["values"]}
        assert sum(decided.values()) == 1.0
        assert set(decided) <= {"fused", "separate"}
