"""ChaosRecipe validation, JSON round-trips and the built-in quick suite."""

import json

import pytest

from repro.chaos import (
    CHAOS_KINDS,
    ChaosRecipe,
    default_quick_suite,
    dump_recipes,
    load_recipes,
)
from repro.errors import ConfigurationError


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            ChaosRecipe(kind="meteor_strike", site="dc", intensity=1.0)

    def test_stage_stall_site_must_be_a_stage(self):
        with pytest.raises(ConfigurationError, match="targets sites"):
            ChaosRecipe(kind="stage_stall", site="gemm", intensity=0.01)

    def test_backend_failure_refuses_numpy(self):
        with pytest.raises(ConfigurationError, match="terminal"):
            ChaosRecipe(kind="backend_failure", site="numpy", intensity=1.0)

    @pytest.mark.parametrize("kind", ["backend_failure", "bitflip"])
    def test_probability_kinds_bounded(self, kind):
        site = "chaos" if kind == "backend_failure" else "gemm"
        with pytest.raises(ConfigurationError, match="probability"):
            ChaosRecipe(kind=kind, site=site, intensity=1.5)

    def test_queue_burst_intensity_is_a_count(self):
        with pytest.raises(ConfigurationError, match="whole request count"):
            ChaosRecipe(kind="queue_burst", site="admission", intensity=2.5)

    def test_stall_needs_positive_seconds(self):
        with pytest.raises(ConfigurationError, match="positive seconds"):
            ChaosRecipe(kind="stage_stall", site="encode", intensity=0.0)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError, match="duration_s"):
            ChaosRecipe(
                kind="clock_skew", site="server", intensity=1.0, duration_s=0.0
            )
        with pytest.raises(ConfigurationError, match="start_s"):
            ChaosRecipe(
                kind="clock_skew", site="server", intensity=1.0, start_s=-1.0
            )

    def test_window_arming(self):
        recipe = ChaosRecipe(
            kind="bitflip", site="gemm", intensity=0.5, start_s=1.0,
            duration_s=2.0,
        )
        assert not recipe.active_at(0.5)
        assert recipe.active_at(1.0)
        assert recipe.active_at(2.9)
        assert not recipe.active_at(3.0)
        assert recipe.end_s == 3.0


class TestJsonRoundTrip:
    def test_to_from_dict(self):
        recipe = ChaosRecipe(
            kind="stage_stall", site="check", intensity=0.01, seed=9
        )
        assert ChaosRecipe.from_dict(recipe.to_dict()) == recipe

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos recipe"):
            ChaosRecipe.from_dict(
                {"kind": "bitflip", "site": "gemm", "intensity": 0.5,
                 "blast_radius": 3}
            )

    def test_dump_and_load(self, tmp_path):
        suite = default_quick_suite()
        path = tmp_path / "recipes.json"
        dump_recipes(suite, path)
        assert load_recipes(path) == suite

    def test_load_accepts_bare_list(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(
            [{"kind": "bitflip", "site": "gemm", "intensity": 0.5}]
        ))
        [recipe] = load_recipes(path)
        assert recipe.kind == "bitflip"

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError, match="non-empty"):
            load_recipes(path)


class TestQuickSuite:
    def test_covers_every_kind(self):
        suite = default_quick_suite()
        assert {r.kind for r in suite} == set(CHAOS_KINDS)

    def test_windows_are_staggered(self):
        # worker_kill runs in the harness's separate cluster phase on its
        # own clock, so only same-phase windows must not overlap.
        server_phase = [
            r for r in default_quick_suite() if r.kind != "worker_kill"
        ]
        suite = sorted(server_phase, key=lambda r: r.start_s)
        for earlier, later in zip(suite, suite[1:]):
            assert earlier.end_s <= later.start_s + 1e-9
