"""``model_mlp``: closed loop of full-plan vs all-unchecked MLP passes.

The model is the 6-layer float32 MLP of ``BENCH_models.json`` (batch 128,
256 -> 512 x5 -> 16).  Weights are fixed by the seed; every pass draws fresh
activations.  Each full-plan pass (A-ABFT on every layer) is interleaved
with an all-unchecked pass on the same inputs, the bare baseline of
``overhead_x``, and followed by one calibration kernel
(``harness.HostSpeed``); every time is scaled to the reference host.

The traced run also executes the planner's mixed plan and the all-SEA
plan, and reads each layer's time from the ``LayerRun`` records the runner
returns.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine import AbftConfig, MatmulEngine
from repro.models import ModelInjection, ModelInputs, ModelRunner, ProtectionPlanner, mlp
from repro.perfmodel.intensity import arithmetic_intensity, gemm_bytes, gemm_flops

import harness as H

MODEL_KWARGS = dict(name="bench-mlp", batch=128, d_in=256, hidden=512, depth=6, d_out=16)
CONFIG = AbftConfig(block_size=32, p=2)
SETUPS = 5
WARMUP_PASSES = 2
UNTRACED_SHARE = 1.0 / 3.0
#: Reconciliation: the share of a pass not covered by its layers' records.
UNATTRIBUTED_TOL = 0.10


def planners() -> dict:
    inf = float("inf")
    return {
        "mixed": ProtectionPlanner(CONFIG, coverage_target=0.85),
        "full": ProtectionPlanner(
            CONFIG, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
        ),
        "sea": ProtectionPlanner(
            CONFIG, coverage_target=0.0, full_intensity=inf, sea_intensity=0.0
        ),
        "unchecked": ProtectionPlanner(
            CONFIG, coverage_target=0.0, full_intensity=inf, sea_intensity=inf
        ),
    }


class Setup:
    def __init__(self, seed: int, plan_names) -> None:
        self.model = mlp(**MODEL_KWARGS)
        self.weights = ModelInputs.generate(self.model, seed=seed).weights
        self.engine = MatmulEngine(CONFIG)
        self.runner = ModelRunner(self.engine)
        every = planners()
        self.plans = {name: every[name].plan(self.model) for name in plan_names}
        inputs = ModelInputs(x=self.activations(np.random.default_rng(seed)), weights=self.weights)
        for _ in range(WARMUP_PASSES):
            for plan in self.plans.values():
                self.runner.run(self.model, plan, inputs)

    def activations(self, rng) -> np.ndarray:
        shape = (self.model.batch, self.model.d_in)
        return rng.standard_normal(shape).astype(np.float32)

    def inner_dim(self) -> int:
        return sum(layer.d_in for layer in self.model.layers)


def timed_setup(seed: int, plan_names, speed: H.HostSpeed):
    """Set up ``SETUPS`` times; returns the last setup and the median time.

    Each set-up's time is scaled to the reference host by calibration
    samples taken just before and after it.
    """
    times, setup = [], None
    for _ in range(SETUPS):
        if setup is not None:
            setup.engine.close()
        cal = speed.samples_of(H.CAL_SETUP_SAMPLES)
        t0 = time.perf_counter()
        setup = Setup(seed, plan_names)
        seconds = time.perf_counter() - t0
        cal += speed.samples_of(H.CAL_SETUP_SAMPLES)
        times.append(H.to_reference(seconds, cal))
    return setup, H.median(times)


def model_op(setup: Setup, plan, inputs):
    """One timed pass; returns ``(seconds, result)`` or ``(seconds, exception)``."""
    t0 = time.perf_counter()
    try:
        result = setup.runner.run(setup.model, plan, inputs)
    except Exception as exc:
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, result


def closed_loop(setup: Setup, seconds: float, rng, ledger: H.Ledger, speed: H.HostSpeed):
    """Interleaved full/unchecked passes.

    Returns the full and unchecked latency lists and, at the same
    positions, the calibration sample timed after each pair of passes.
    """
    full, bare = setup.plans["full"], setup.plans["unchecked"]
    prot, base, cal = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inputs = ModelInputs(x=setup.activations(rng), weights=setup.weights)
        if i % 2 == 0:
            t_p, r_p = model_op(setup, full, inputs)
            t_b, r_b = model_op(setup, bare, inputs)
        else:
            t_b, r_b = model_op(setup, bare, inputs)
            t_p, r_p = model_op(setup, full, inputs)
        t_cal = speed.sample()
        i += 1
        if isinstance(r_p, Exception) or isinstance(r_b, Exception):
            ledger.record("raised", repr(r_p if isinstance(r_p, Exception) else r_b))
            continue
        ledger.record(H.classify_model(r_p, r_b.output, setup.inner_dim(), np.float32))
        prot.append(t_p)
        base.append(t_b)
        cal.append(t_cal)
    return prot, base, cal


def fault_probe(seed: int, ledger: H.Ledger) -> None:
    """One exponent-bit flip per layer through ``ModelRunner.run(inject=...)``.

    Runs on a runner and engine of its own.  Each flip lands on the
    largest-magnitude pre-activation of a seeded row, so it is critical.
    """
    setup = Setup(seed, ("full",))
    rng = np.random.default_rng([seed, 0xFA17])
    inputs = ModelInputs(x=setup.activations(rng), weights=setup.weights)
    x = inputs.x
    try:
        for layer, w in zip(setup.model.layers, setup.weights):
            y = x @ w
            row = int(rng.integers(setup.model.batch))
            col = int(np.argmax(np.abs(y[row])))
            inject = ModelInjection(layer=layer.name, row=row, col=col)
            try:
                result = setup.runner.run(
                    setup.model, setup.plans["full"], inputs, inject=inject
                )
            except Exception as exc:
                ledger.record("raised", repr(exc))
            else:
                ledger.record(H.classify_probe(result.layer_run(layer.name).detected))
            x = y if layer.activation == "none" else np.maximum(y, 0)
    finally:
        setup.engine.close()


def _layer_counts(model) -> dict:
    out = {}
    for layer in model.layers:
        m, k, n = model.batch, layer.d_in, layer.d_out
        out[layer.name] = {
            "flops": gemm_flops(m, n, k),
            "bytes_computed": gemm_bytes(m, n, k, dtype=layer.dtype),
            "intensity": arithmetic_intensity(m, n, k, dtype=layer.dtype),
        }
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> H.WorkloadRun:
    plan_names = ("mixed", "full", "sea", "unchecked") if trace else ("full", "unchecked")
    speed = H.HostSpeed(seed)
    setup, setup_s = timed_setup(seed, plan_names, speed)
    ledger = H.Ledger()
    rng = np.random.default_rng([seed, 2])
    model = setup.model
    detail = {
        "model": model.to_dict(),
        "block_size": CONFIG.block_size,
        "working_set_bytes": sum(int(w.nbytes) for w in setup.weights)
        + model.batch * model.d_in * 4,
    }
    try:
        if trace:
            return _traced(setup, seconds, seed, rng, ledger, detail, speed)
        prot, base, cal = closed_loop(setup, seconds, rng, ledger, speed)
        fault_probe(seed, ledger)
        ref = H.to_reference_series(prot, cal)
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": H.percentile(ref, 50) * 1e3,
            "latency_p90_ms": H.percentile(ref, 90) * 1e3,
            "overhead_x": H.median(ref) / H.median(H.to_reference_series(base, cal)),
        }
        detail.update(
            samples=len(prot),
            wall_p50_ms=H.median(prot) * 1e3,
            wall_p90_ms=H.percentile(prot, 90) * 1e3,
            unchecked_wall_p50_ms=H.median(base) * 1e3,
            host_slowdown=speed.factor(),
        )
        return H.WorkloadRun(metrics, ledger, detail)
    finally:
        setup.engine.close()


def _traced(setup: Setup, seconds, seed, rng, ledger, detail, speed) -> H.WorkloadRun:
    untraced, _, _ = closed_loop(setup, seconds * UNTRACED_SHARE, rng, ledger, speed)
    tracer = H.Tracer()
    model = setup.model
    stats0 = setup.engine.stats()
    before = H.registry_counters(setup.engine.registry)
    passes = []  # (plan name, external seconds, result)
    deadline = time.perf_counter() + seconds * (1 - UNTRACED_SHARE)
    i = 0
    while time.perf_counter() < deadline:
        inputs = ModelInputs(x=setup.activations(rng), weights=setup.weights)
        results = {}
        for name, plan in setup.plans.items():
            with tracer.span(f"models.pass.{name}", f"pass{i}"):
                t, result = model_op(setup, plan, inputs)
            if isinstance(result, Exception):
                ledger.record("raised", repr(result))
                continue
            results[name] = result
            passes.append((name, t, result))
        if "full" in results and "unchecked" in results:
            ledger.record(
                H.classify_model(
                    results["full"], results["unchecked"].output, setup.inner_dim(), np.float32
                )
            )
        i += 1
    stats1 = setup.engine.stats()
    after = H.registry_counters(setup.engine.registry)
    fault_probe(seed, ledger)

    def layer_ms(plan_name, layer_name):
        return H.median(
            [r.layer_run(layer_name).seconds for n, _t, r in passes if n == plan_name]
        ) * 1e3

    counts = _layer_counts(model)
    metrics = {}
    for layer in model.layers:
        for rung in ("full", "sea", "unchecked"):
            metrics[f"models.{layer.name}.{rung}_ms"] = layer_ms(rung, layer.name)
        metrics[f"models.{layer.name}.overhead_x"] = (
            metrics[f"models.{layer.name}.full_ms"] / metrics[f"models.{layer.name}.unchecked_ms"]
        )
        metrics[f"models.{layer.name}.intensity"] = counts[layer.name]["intensity"]
    metrics["models.reuse_count"] = H.median([r.reuse_count for n, _t, r in passes if n == "full"])

    protected = [lr for _n, _t, r in passes for lr in r.layers if lr.protected]
    metrics.update(
        H.engine_metrics(
            stats0, stats1, before, after, len(protected), sum(lr.seconds for lr in protected)
        )
    )
    full_times = [t for n, t, _r in passes if n == "full"]
    metrics["trace.overhead_frac"] = (
        H.percentile(full_times, 50) / H.percentile(untraced, 50) - 1.0
    )

    layer_sums = [sum(lr.seconds for lr in r.layers) for _n, _t, r in passes]
    nested = all(
        s <= r.seconds <= t for s, (_n, t, r) in zip(layer_sums, passes)
    )
    unattributed = H.median([(t - s) / t for s, (_n, t, _r) in zip(layer_sums, passes)])
    checks = [
        H.check(
            "sum of LayerRun.seconds <= ModelRunResult.seconds <= pass time, every pass",
            nested,
        ),
        H.check(
            "sum of LayerRun.seconds matches the pass time",
            unattributed <= UNATTRIBUTED_TOL,
            median_unattributed_share=unattributed,
            tolerance_share=UNATTRIBUTED_TOL,
        ),
    ]
    mixed = setup.plans["mixed"]
    detail.update(
        traced_passes=len(passes),
        untraced_samples=len(untraced),
        layer_counts_computed=counts,
        mixed_plan={a.layer.name: a.rung for a in mixed.assignments},
        pass_p50_ms={
            name: H.median([t for n, t, _r in passes if n == name]) * 1e3
            for name in setup.plans
        },
    )
    return H.WorkloadRun(metrics, ledger, detail, checks, tracer)
