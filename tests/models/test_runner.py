"""ModelRunner: verified chains, encoding reuse, injection, degradation."""

import numpy as np
import pytest

from repro.engine import AbftConfig, MatmulEngine
from repro.errors import ConfigurationError
from repro.models import (
    LayerSpec,
    ModelInjection,
    ModelInputs,
    ModelRunner,
    ModelSpec,
    ProtectionPlanner,
    attention,
    mlp,
)
from repro.telemetry import MetricsRegistry

CFG = AbftConfig(block_size=16, p=2)


@pytest.fixture(scope="module")
def engine():
    with MatmulEngine(CFG, registry=MetricsRegistry()) as eng:
        yield eng


@pytest.fixture()
def runner(engine):
    return ModelRunner(engine, registry=MetricsRegistry())


def full_plan(model):
    return ProtectionPlanner(
        CFG, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
    ).plan(model)


def counter_value(registry, name, **labels):
    family = registry._families[name]
    return family.labels(**labels).get() if labels else family.get()


class TestEndToEnd:
    def test_fp32_mlp_verifies_against_reference(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.max_abs_diff is not None
        assert result.max_abs_diff <= 1e-5  # fp32 summation-order noise only
        assert result.output.shape == (16, 8)
        assert not result.detected
        assert not result.degraded

    def test_fp16_attention_verifies_and_stays_clean(self, runner):
        model = attention(name="a16", batch=16, d_model=32, dtype="float16")
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.output.dtype == np.float16
        assert not result.detected  # adaptive tolerance: no false positives

    def test_verified_is_none_unless_requested(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        result = runner.run(model, full_plan(model))
        assert result.verified is None
        assert result.max_abs_diff is None

    def test_padded_batch_not_divisible_by_block(self, runner):
        model = mlp(name="m", batch=30, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.output.shape == (30, 8)

    def test_unchecked_layers_recorded_never_silent(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        result = runner.run(model, plan, verify=True)
        assert result.verified is True
        for run in result.layers:
            assert run.rung == "unchecked"
            assert run.scheme is None
            assert not run.protected

    def test_mismatched_plan_rejected(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        other = mlp(name="other", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="was built for"):
            runner.run(model, full_plan(other))

    def test_layer_run_lookup(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        result = runner.run(model, full_plan(model))
        assert result.layer_run("head").planned_rung == "full"
        with pytest.raises(ConfigurationError, match="no layer"):
            result.layer_run("missing")

    def test_to_dict_shape(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        data = runner.run(model, full_plan(model), verify=True).to_dict()
        assert data["model"] == "m"
        assert data["verified"] is True
        assert len(data["layers"]) == 2
        assert {"layer", "rung", "scheme", "reused_encoding"} <= set(
            data["layers"][0]
        )


class TestEncodingReuse:
    def linear_chain(self):
        # Identity activations + uniform width: every inner boundary is
        # legal for checksum propagation.
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, activation="none") for i in range(4)
        )
        return ModelSpec("chain", 32, layers)

    def test_linear_chain_reuses_encodings(self, runner):
        model = self.linear_chain()
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 3  # every layer after the first
        assert not result.layers[0].reused_encoding
        assert all(run.reused_encoding for run in result.layers[1:])

    def test_reuse_counted_in_telemetry(self, engine):
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        model = self.linear_chain()
        runner.run(model, full_plan(model))
        assert counter_value(reg, "abft_model_encode_reuses_total") == 3.0

    def test_alternating_schemes_rebuild_reused_handles(self, runner):
        # full/sea alternate, so every consuming layer computes the other
        # scheme's preprocessing (top-p vs norms) on the reused slice.
        model = self.linear_chain()
        result = runner.run(
            model,
            full_plan(model),
            verify=True,
            rung_cap=lambda i, a: "full" if i % 2 == 0 else "sea",
        )
        assert [run.scheme for run in result.layers] == [
            "aabft", "sea", "aabft", "sea",
        ]
        assert all(run.reused_encoding for run in result.layers[1:])
        assert result.verified is True
        assert not result.detected

    def test_rebuilt_handle_reports_its_own_top_p_depth(self, engine):
        from repro.models.runner import _rebuild_handle

        x = np.random.default_rng(5).uniform(-1, 1, (32, 32))
        handle = engine.encode(x, side="a")
        assert {len(t.values) for t in handle.tops()} == {CFG.p}
        rebuilt = _rebuild_handle(handle, CFG.replace(p=CFG.p + 1))
        assert {len(t.values) for t in rebuilt.tops()} == {CFG.p + 1}
        assert {len(t.values) for t in handle.tops()} == {CFG.p}

    def test_relu_blocks_reuse(self, runner):
        model = mlp(name="m", batch=32, d_in=32, hidden=32, depth=4, d_out=32)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 0  # relu breaks checksum linearity

    def test_fp16_blocks_reuse(self, runner):
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, dtype="float16") for i in range(3)
        )
        model = ModelSpec("chain16", 32, layers)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 0  # storage quantisation invalidates


class TestInjection:
    def test_injected_fault_detected_on_protected_layer(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        inject = ModelInjection(layer="fc2", row=3, col=5)
        result = runner.run(model, full_plan(model), inject=inject)
        run = result.layer_run("fc2")
        assert run.injected
        assert run.detected
        assert result.detected

    def test_injected_fault_detected_on_fp16_adaptive_layer(self, runner):
        model = attention(name="a16", batch=16, d_model=32, dtype="float16")
        inject = ModelInjection(layer="wk", row=1, col=2)
        result = runner.run(model, full_plan(model), inject=inject)
        assert result.layer_run("wk").detected

    def test_unchecked_layer_never_detects(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        inject = ModelInjection(layer="head", row=0, col=0)
        result = runner.run(model, plan, inject=inject)
        run = result.layer_run("head")
        assert run.injected
        assert not run.detected  # the explicit coverage hole

    def test_injection_blocks_downstream_reuse(self, runner):
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, activation="none") for i in range(3)
        )
        model = ModelSpec("chain", 32, layers)
        inject = ModelInjection(layer="l0", row=0, col=0)
        result = runner.run(model, full_plan(model), inject=inject)
        assert not result.layers[1].reused_encoding

    def test_unknown_layer_rejected_eagerly(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="no layer"):
            runner.run(
                model, full_plan(model), inject=ModelInjection(layer="nope")
            )

    def test_bad_fault_field_rejected(self):
        with pytest.raises(ConfigurationError, match="fault_field"):
            ModelInjection(layer="fc1", fault_field="parity")

    def test_injection_telemetry_labels_detection(self, engine):
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        runner.run(
            model, full_plan(model), inject=ModelInjection(layer="fc1")
        )
        assert counter_value(
            reg, "abft_model_injections_total", layer="fc1", detected="true"
        ) == 1.0


class TestDegradation:
    def test_rung_cap_degrades_and_records(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(
            model,
            full_plan(model),
            rung_cap=lambda i, a: "unchecked" if i == 1 else "full",
        )
        capped = result.layers[1]
        assert capped.rung == "unchecked"
        assert capped.planned_rung == "full"
        assert capped.degraded
        assert result.degraded
        assert not result.layers[0].degraded

    def test_cap_never_upgrades(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        result = runner.run(model, plan, rung_cap=lambda i, a: "full")
        assert all(run.rung == "unchecked" for run in result.layers)
        assert not result.degraded

    def test_invalid_cap_value_rejected(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="rung_cap"):
            runner.run(
                model, full_plan(model), rung_cap=lambda i, a: "paranoid"
            )


class TestInputs:
    def test_generation_is_deterministic(self):
        model = mlp(name="m", batch=8, d_in=16, hidden=16, depth=2)
        one = ModelInputs.generate(model, seed=5)
        two = ModelInputs.generate(model, seed=5)
        assert np.array_equal(one.x, two.x)
        for w1, w2 in zip(one.weights, two.weights):
            assert np.array_equal(w1, w2)

    def test_dtypes_follow_the_layers(self):
        model = attention(name="a16", batch=8, d_model=16, dtype="float16")
        inputs = ModelInputs.generate(model)
        assert inputs.x.dtype == np.float16
        assert all(w.dtype == np.float16 for w in inputs.weights)
