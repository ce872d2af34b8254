"""CI quality gates: detection coverage and warm-engine throughput.

``aabft ci-gate`` is the machine-checkable contract the CI jobs consume.
It runs two gates and exits nonzero when either fails:

* **coverage** — a quick fault-injection campaign (mantissa single-bit
  flips, the paper's Figure 4 setup at reduced scale) must detect at
  least ``coverage_floor`` of the *critical* errors with the A-ABFT
  tolerances, and the fault-free workload must pass every scheme's check
  (no baseline false positives).  The gate runs once per compute backend
  (numpy plus every available deterministic backend by default) so the
  detection floor holds on every backend's product too;
* **pipeline-coverage** — faults injected into results produced by the
  stage-pipelined ``execute_batch`` executor must be detected by the
  results' own providers at the same ``coverage_floor``: the pipelined
  fast path shares the serial path's bytes, so its detection coverage
  must not regress either;
* **fused-coverage** — faults injected *inside the fused online tile
  loop* (persistent per-tile mantissa flips through the ``tile_result``
  chaos seam) must be detected at the same ``coverage_floor`` **and**
  provably early-aborted: every detected critical injection must show an
  ``abft_fused_early_aborts_total`` increment and an in-loop
  tiles-checked count strictly below the tile total — evidence the
  corrupted tile was flagged before the remaining tiles were checked;
* **model-coverage** — named-layer fault campaigns over the
  :mod:`repro.models` workloads (a mixed-plan float32 MLP and a float16
  attention block) must detect at least ``coverage_floor`` of the faults
  injected into *protected* layers, fault-free passes — including every
  float16 layer under the variance-adaptive tolerance — must report zero
  false positives, and the planner-mixed plan must run the model
  measurably faster than protecting every layer with full A-ABFT
  (otherwise per-layer planning buys nothing);
* **throughput** — a warm plan-cached :class:`~repro.engine.MatmulEngine`
  micro-benchmark must stay within ``throughput_tolerance`` of the
  committed per-call baseline in ``BENCH_engine.json``;
* **chaos-slo** — a quick chaos-recipe suite (stage stalls, backend
  dispatch failures, queue bursts, kernel bit-flips, deadline clock
  skew, plus worker-process kills against a sharded cluster frontend)
  runs against live serving stacks under closed-loop load and every
  declared SLO must hold: the p99 ceiling, the zero-silent-wrong-answer
  invariant, exact ``abft_serve_*`` counter reconciliation and the
  multi-window error-budget burn-rate limit.

All gates publish their measurements as ``abft_ci_gate_*`` gauges, so a
``--telemetry-out`` JSON-lines artifact records exactly what CI saw.
Thresholds and the local repro commands are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fp.bits import flip_bit
from .telemetry import MetricsRegistry, get_registry, span

__all__ = [
    "GateResult",
    "coverage_gate",
    "default_gate_backends",
    "fused_coverage_gate",
    "model_coverage_gate",
    "pipeline_coverage_gate",
    "throughput_gate",
    "chaos_slo_gate",
    "run_ci_gate",
    "DEFAULT_COVERAGE_FLOOR",
    "DEFAULT_THROUGHPUT_TOLERANCE",
]

#: Minimum fraction of critical errors A-ABFT must detect.  Single-bit
#: mantissa campaigns measure ~90-91% across sizes (Figure 4 territory);
#: the floor leaves head room for sampling noise at the quick campaign's
#: injection count while still catching a broken tolerance path cold.
DEFAULT_COVERAGE_FLOOR = 0.85

#: Allowed slowdown of the warm per-call time versus the committed
#: baseline (0.30 = +30%; generous so shared-runner noise doesn't flap).
DEFAULT_THROUGHPUT_TOLERANCE = 0.30


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate."""

    gate: str
    passed: bool
    #: The measured quantity (detection rate, or warm seconds per call).
    measured: float
    #: The pass threshold the measurement was held against.
    threshold: float
    detail: str

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.gate}: {self.detail}"


def _default_baseline() -> Path:
    """``BENCH_engine.json`` from the cwd, else next to the package."""
    cwd_candidate = Path.cwd() / "BENCH_engine.json"
    if cwd_candidate.exists():
        return cwd_candidate
    return Path(__file__).resolve().parents[2] / "BENCH_engine.json"


def coverage_gate(
    *,
    floor: float = DEFAULT_COVERAGE_FLOOR,
    quick: bool = True,
    seed: int = 2014,
    n: int | None = None,
    num_injections: int | None = None,
    backend: str = "numpy",
    registry: MetricsRegistry | None = None,
) -> GateResult:
    """Run a fault-injection campaign and gate on A-ABFT's detection rate.

    ``n``/``num_injections`` override the quick/full campaign scale (the
    tests use tiny campaigns; CI uses the defaults).  ``backend`` routes
    the campaign's reference multiplication through a named compute
    backend; the gate is named ``coverage`` for numpy and
    ``coverage[<backend>]`` otherwise.
    """
    from .faults.campaign import CampaignConfig, FaultCampaign
    from .workloads import SUITE_UNIT

    reg = registry if registry is not None else get_registry()
    if n is None:
        n = 256 if quick else 512
    if num_injections is None:
        num_injections = 400 if quick else 1000
    config = CampaignConfig(
        n=n,
        suite=SUITE_UNIT,
        num_injections=num_injections,
        block_size=64,
        p=2,
        seed=seed,
        schemes=("aabft", "sea"),
        backend=backend,
    )
    with span(
        "ci_gate.coverage",
        registry=reg,
        n=n,
        injections=num_injections,
        backend=backend,
    ):
        campaign = FaultCampaign(config, registry=reg)
        result = campaign.run()
    rate = result.detection_rate("aabft")
    rate = 0.0 if math.isnan(rate) else rate
    critical = result.num_critical()
    baseline_clean = all(result.false_positive_free.values())
    backend_used = campaign.backend_used

    if backend == "numpy":
        gauges = reg.gauge(
            "abft_ci_gate_coverage",
            "Coverage-gate measurements of the last ci-gate run",
            ("quantity",),
        )
        gauges.labels(quantity="detection_rate").set(rate)
        gauges.labels(quantity="critical_errors").set(critical)
        gauges.labels(quantity="floor").set(floor)
        gauges.labels(quantity="baseline_clean").set(
            1.0 if baseline_clean else 0.0
        )
    by_backend = reg.gauge(
        "abft_ci_gate_coverage_by_backend",
        "Coverage-gate measurements per compute backend",
        ("backend", "quantity"),
    )
    by_backend.labels(backend=backend, quantity="detection_rate").set(rate)
    by_backend.labels(backend=backend, quantity="critical_errors").set(critical)
    by_backend.labels(backend=backend, quantity="floor").set(floor)
    by_backend.labels(backend=backend, quantity="baseline_clean").set(
        1.0 if baseline_clean else 0.0
    )

    # The per-backend gate exists to exercise that backend's product; a
    # fallback means it silently re-measured numpy, so fail loudly.
    fell_back = backend_used != backend
    passed = baseline_clean and critical > 0 and rate >= floor and not fell_back
    detail = (
        f"A-ABFT detected {rate:.1%} of {critical} critical errors "
        f"(floor {floor:.1%}, {num_injections} injections at n={n}, "
        f"backend {backend_used!r}, "
        f"fault-free baseline {'clean' if baseline_clean else 'FLAGGED'})"
    )
    if fell_back:
        detail += f"; backend fell back: {campaign.backend_fallback}"
    gate_name = "coverage" if backend == "numpy" else f"coverage[{backend}]"
    return GateResult(
        gate=gate_name, passed=passed, measured=rate, threshold=floor,
        detail=detail,
    )


def pipeline_coverage_gate(
    *,
    floor: float = DEFAULT_COVERAGE_FLOOR,
    quick: bool = True,
    seed: int = 2014,
    n: int | None = None,
    num_injections: int | None = None,
    registry: MetricsRegistry | None = None,
) -> GateResult:
    """Gate detection coverage of the stage-pipelined batch executor.

    Runs a shared-weight batch through ``execute_batch`` under
    ``ExecutionPolicy(mode="pipelined")``, then injects single-bit
    mantissa flips into copies of the full-checksum results and re-checks
    each with the result's *own* provider (the tolerances the pipelined
    path computed).  Injections whose induced element error is critical
    under the probabilistic rounding-error model must be detected at
    ``floor`` — the same bar the serial campaign is held to — and the
    fault-free batch must be clean.  Fails loudly if the batch did not
    actually run pipelined (a silent fallback would gate nothing).
    """
    from .abft.checking import check_partitioned
    from .abft.classify import ErrorClassifier
    from .engine import AbftConfig, ExecutionPolicy, MatmulEngine

    reg = registry if registry is not None else get_registry()
    if n is None:
        n = 128 if quick else 256
    q = 64
    batch = 8
    if num_injections is None:
        num_injections = 200 if quick else 500
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    bs = [rng.uniform(-1.0, 1.0, (n, q)) for _ in range(batch)]
    config = AbftConfig(block_size=64, p=2)

    with span(
        "ci_gate.pipeline_coverage",
        registry=reg,
        n=n,
        injections=num_injections,
    ):
        with MatmulEngine(config) as engine:
            results = engine.execute_batch(
                [(a, b) for b in bs],
                policy=ExecutionPolicy(mode="pipelined"),
            )
            modes = engine.registry.counter(
                "abft_engine_execute_batch_total", labelnames=("mode",)
            )
            pipelined_ran = modes.labels(mode="pipelined").get() >= 1.0
        baseline_clean = all(not r.detected for r in results)

        classifier = ErrorClassifier(omega=config.omega)
        # conservative per-element product bound: overestimating y shrinks
        # the critical set to the strongest errors, never inflates it
        y = float(np.abs(a).max()) * max(
            float(np.abs(b).max()) for b in bs
        )
        critical = detected_critical = 0
        for _ in range(num_injections):
            res = results[int(rng.integers(len(results)))]
            c_fc = res.c_fc.copy()
            # restrict to data elements so the inner-product length and
            # the y bound of the classifier apply to the flipped value
            while True:
                r = int(rng.integers(c_fc.shape[0]))
                c = int(rng.integers(c_fc.shape[1]))
                if not res.row_layout.is_checksum_index(
                    r
                ) and not res.col_layout.is_checksum_index(c):
                    break
            bit = int(rng.integers(52))  # binary64 mantissa bits
            c_fc[r, c] = flip_bit(c_fc[r, c], bit)
            delta = float(c_fc[r, c]) - float(res.c_fc[r, c])
            if not classifier.classify(delta, n, y).is_critical:
                continue
            critical += 1
            report = check_partitioned(
                c_fc, res.row_layout, res.col_layout, res.provider
            )
            if report.error_detected:
                detected_critical += 1
    rate = detected_critical / critical if critical else 0.0

    gauges = reg.gauge(
        "abft_ci_gate_pipeline_coverage",
        "Pipeline-coverage-gate measurements of the last ci-gate run",
        ("quantity",),
    )
    gauges.labels(quantity="detection_rate").set(rate)
    gauges.labels(quantity="critical_errors").set(critical)
    gauges.labels(quantity="floor").set(floor)
    gauges.labels(quantity="baseline_clean").set(
        1.0 if baseline_clean else 0.0
    )
    gauges.labels(quantity="pipelined_ran").set(1.0 if pipelined_ran else 0.0)

    passed = (
        baseline_clean and pipelined_ran and critical > 0 and rate >= floor
    )
    detail = (
        f"pipelined batch detected {rate:.1%} of {critical} critical "
        f"errors (floor {floor:.1%}, {num_injections} injections at "
        f"n={n}, batch {batch}, "
        f"fault-free batch {'clean' if baseline_clean else 'FLAGGED'}"
        f"{'' if pipelined_ran else ', did NOT run pipelined'})"
    )
    return GateResult(
        gate="pipeline-coverage", passed=passed, measured=rate,
        threshold=floor, detail=detail,
    )


def fused_coverage_gate(
    *,
    floor: float = DEFAULT_COVERAGE_FLOOR,
    quick: bool = True,
    seed: int = 2014,
    n: int | None = None,
    num_injections: int | None = None,
    registry: MetricsRegistry | None = None,
) -> GateResult:
    """Gate in-loop detection and early abort of the fused online path.

    Each trial picks a result tile of a ``fusion="fused"`` multiplication
    and flips one mantissa bit of a data element *inside the tile loop*
    through the ``tile_result`` chaos seam — persistently, re-applying
    the flip after every tile recompute, so a critical flip cannot heal.
    Detection is judged by the result's canonical report; the early-abort
    proof is per-trial counter deltas: every detected critical injection
    must increment ``abft_fused_early_aborts_total`` exactly once and
    check strictly fewer tiles than the tile total (the corrupted tile
    stopped the in-loop checking before the remaining tiles ran).  The
    fault-free baseline must be clean and must actually run fused.
    """
    from .abft.classify import ErrorClassifier
    from .engine import AbftConfig, MatmulEngine
    from .kernels.online_fused import plan_fused_tiles

    reg = registry if registry is not None else get_registry()
    if n is None:
        n = 128 if quick else 256
    q = 64
    if num_injections is None:
        num_injections = 200 if quick else 500
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, q))
    # A small block size gives the quick shapes a real multi-tile grid,
    # so "checked fewer tiles than the total" is demonstrable.
    config = AbftConfig(
        block_size=32, p=2, fusion="fused", fused_tile_blocks=1
    )

    with span(
        "ci_gate.fused_coverage",
        registry=reg,
        n=n,
        injections=num_injections,
    ):
        with MatmulEngine(config) as engine:
            baseline = engine.matmul(a, b)
            fused_ran = baseline.fused
            baseline_clean = not baseline.detected
            tiles_total = len(
                plan_fused_tiles(
                    baseline.row_layout, baseline.col_layout,
                    config.fused_tile_blocks,
                )
            )
            aborts = engine.registry.counter("abft_fused_early_aborts_total")
            checked = engine.registry.counter("abft_fused_tiles_checked_total")

            classifier = ErrorClassifier(omega=config.omega)
            # conservative per-element product bound (see pipeline gate)
            y = float(np.abs(a).max()) * float(np.abs(b).max())
            critical = detected_critical = early_aborted = 0
            for _ in range(num_injections):
                # Never the last tile: an abort there leaves no tile
                # unchecked, so "cut short" would be unprovable.
                target = int(rng.integers(tiles_total - 1))
                bit = int(rng.integers(52))  # binary64 mantissa bits
                trial = {"delta": None}

                def hook(event, **kwargs):
                    if event != "tile_result":
                        return
                    if kwargs["tile_index"] != target:
                        return
                    tile = kwargs["c_tile"]
                    if trial["delta"] is None:
                        # First firing picks a data element of the tile
                        # (checksum flips are detectable too, but only
                        # data flips fit the criticality model).
                        while True:
                            r = int(rng.integers(tile.shape[0]))
                            c = int(rng.integers(tile.shape[1]))
                            if tile[r, c] != 0.0:
                                break
                        trial["site"] = (r, c)
                        trial["before"] = float(tile[r, c])
                    r, c = trial["site"]
                    tile[r, c] = flip_bit(tile[r, c], bit)
                    trial["delta"] = tile[r, c] - trial["before"]

                aborts_before = aborts.get()
                checked_before = checked.get()
                engine.set_chaos_hook(hook)
                try:
                    result = engine.matmul(a, b)
                finally:
                    engine.set_chaos_hook(None)
                if trial["delta"] is None or not classifier.classify(
                    trial["delta"], n, y
                ).is_critical:
                    continue
                critical += 1
                if not result.detected:
                    continue
                detected_critical += 1
                aborted = aborts.get() - aborts_before == 1.0
                cut_short = checked.get() - checked_before < tiles_total
                if aborted and cut_short:
                    early_aborted += 1
    rate = detected_critical / critical if critical else 0.0
    abort_rate = early_aborted / critical if critical else 0.0

    gauges = reg.gauge(
        "abft_ci_gate_fused_coverage",
        "Fused-coverage-gate measurements of the last ci-gate run",
        ("quantity",),
    )
    gauges.labels(quantity="detection_rate").set(rate)
    gauges.labels(quantity="critical_errors").set(critical)
    gauges.labels(quantity="floor").set(floor)
    gauges.labels(quantity="baseline_clean").set(
        1.0 if baseline_clean else 0.0
    )
    gauges.labels(quantity="fused_ran").set(1.0 if fused_ran else 0.0)
    gauges.labels(quantity="early_abort_rate").set(abort_rate)
    gauges.labels(quantity="tiles_total").set(tiles_total)

    # Every detected critical injection must be backed by an early abort
    # that stopped the in-loop checking short — detection without the
    # abort evidence means the fused path gated nothing.
    passed = (
        baseline_clean
        and fused_ran
        and critical > 0
        and rate >= floor
        and early_aborted == detected_critical
    )
    detail = (
        f"fused tile loop detected {rate:.1%} of {critical} critical "
        f"in-loop errors, all early-aborted: "
        f"{early_aborted == detected_critical} "
        f"(floor {floor:.1%}, {num_injections} injections at n={n}, "
        f"{tiles_total} tiles, "
        f"fault-free baseline {'clean' if baseline_clean else 'FLAGGED'}"
        f"{'' if fused_ran else ', did NOT run fused'})"
    )
    return GateResult(
        gate="fused-coverage", passed=passed, measured=rate,
        threshold=floor, detail=detail,
    )


def model_coverage_gate(
    *,
    floor: float = DEFAULT_COVERAGE_FLOOR,
    quick: bool = True,
    seed: int = 2014,
    trials_per_layer: int | None = None,
    clean_trials: int | None = None,
    latency_repeats: int | None = None,
    registry: MetricsRegistry | None = None,
) -> GateResult:
    """Gate the model workloads' per-layer detection, false positives and
    the planner's latency advantage.

    Three checks, all of which must hold:

    * faults injected at named *protected* layers of a mixed-plan float32
      MLP and a float16 attention block are detected at ``floor``
      (unchecked layers are an explicit planner-accepted hole, accounted
      separately, never averaged in);
    * every fault-free pass is clean — for the float16 model this pins
      the variance-adaptive tolerance's zero-false-positive calibration;
    * the planner-mixed plan runs the MLP measurably faster (median over
      ``latency_repeats`` warm passes) than an all-full-A-ABFT plan of
      the same model — the roofline argument the planner exists for.
    """
    from .engine import AbftConfig, MatmulEngine
    from .models import ModelCampaign, ModelRunner, ProtectionPlanner, attention, mlp

    reg = registry if registry is not None else get_registry()
    if trials_per_layer is None:
        trials_per_layer = 6 if quick else 16
    if clean_trials is None:
        clean_trials = 3 if quick else 8
    if latency_repeats is None:
        latency_repeats = 7 if quick else 15

    cfg = AbftConfig(block_size=32, p=2)
    model32 = mlp(
        name="gate-mlp", batch=96, d_in=192, hidden=384, depth=6, d_out=48
    )
    model16 = attention(
        name="gate-attn16", batch=64, d_model=128, dtype="float16"
    )
    # ``floor`` is the *detection-rate* threshold and may deliberately be
    # set unreachable (> 1) to exercise the failure path; the planner's
    # flop-coverage target is a fraction by definition, so clamp it.
    planner = ProtectionPlanner(
        cfg, coverage_target=min(max(floor, 0.0), 1.0)
    )
    full_planner = ProtectionPlanner(
        cfg, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
    )

    with span(
        "ci_gate.model_coverage",
        registry=reg,
        trials_per_layer=trials_per_layer,
    ):
        with MatmulEngine(cfg) as engine:
            runner = ModelRunner(engine, registry=reg)
            campaign = ModelCampaign(
                runner,
                trials_per_layer=trials_per_layer,
                clean_trials=clean_trials,
                seed=seed,
            )
            plan32 = planner.plan(model32)
            plan16 = planner.plan(model16)
            res32 = campaign.run(model32, plan32)
            res16 = campaign.run(model16, plan16)

            # Latency: planner-mixed vs all-full on the same warm engine.
            full32 = full_planner.plan(model32)
            runner.run(model32, plan32)  # warm plan caches for both plans
            runner.run(model32, full32)
            mixed_times, full_times = [], []
            for _ in range(latency_repeats):
                mixed_times.append(runner.run(model32, plan32).seconds)
                full_times.append(runner.run(model32, full32).seconds)
            mixed_s = float(np.median(mixed_times))
            full_s = float(np.median(full_times))

    protected_trials = res32.protected_trials + res16.protected_trials
    protected_detected = res32.protected_detected + res16.protected_detected
    rate = protected_detected / protected_trials if protected_trials else 0.0
    false_positives = res32.false_positives + res16.false_positives
    clean_runs = res32.clean_trials + res16.clean_trials
    latency_ratio = mixed_s / full_s if full_s else math.inf
    mixed_faster = mixed_s < full_s and plan32.mixed

    gauges = reg.gauge(
        "abft_ci_gate_model_coverage",
        "Model-coverage-gate measurements of the last ci-gate run",
        ("quantity",),
    )
    gauges.labels(quantity="detection_rate").set(rate)
    gauges.labels(quantity="protected_trials").set(protected_trials)
    gauges.labels(quantity="floor").set(floor)
    gauges.labels(quantity="false_positives").set(false_positives)
    gauges.labels(quantity="clean_runs").set(clean_runs)
    gauges.labels(quantity="latency_ratio").set(latency_ratio)
    gauges.labels(quantity="mixed_seconds").set(mixed_s)
    gauges.labels(quantity="full_seconds").set(full_s)
    gauges.labels(quantity="plan_coverage").set(plan32.coverage)

    passed = (
        protected_trials > 0
        and rate >= floor
        and false_positives == 0
        and clean_runs > 0
        and mixed_faster
    )
    detail = (
        f"protected layers detected {rate:.1%} of {protected_trials} "
        f"injected faults (floor {floor:.1%}; fp32 MLP + fp16 attention), "
        f"{false_positives} false positives over {clean_runs} clean passes, "
        f"mixed/full latency {latency_ratio:.2f} "
        f"({mixed_s * 1e3:.1f} vs {full_s * 1e3:.1f} ms"
        f"{'' if plan32.mixed else ', plan NOT mixed'})"
    )
    return GateResult(
        gate="model-coverage", passed=passed, measured=rate,
        threshold=floor, detail=detail,
    )


def throughput_gate(
    *,
    tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
    quick: bool = True,
    seed: int = 20140623,
    baseline_path: str | Path | None = None,
    repeats: int | None = None,
    registry: MetricsRegistry | None = None,
) -> GateResult:
    """Micro-benchmark the warm engine and gate on per-call regression.

    The baseline is the ``engine_seconds / repeats`` per-call time in
    ``BENCH_engine.json`` (same size, block size and ``p``); the gate
    fails when the measured warm per-call time exceeds it by more than
    ``tolerance``.
    """
    from .engine import AbftConfig, MatmulEngine

    reg = registry if registry is not None else get_registry()
    path = Path(baseline_path) if baseline_path is not None else _default_baseline()
    if not path.exists():
        raise ConfigurationError(
            f"throughput baseline {path} not found; pass --baseline or run "
            "benchmarks/bench_engine_throughput.py first"
        )
    baseline = json.loads(path.read_text())
    baseline_per_call = baseline["engine_seconds"] / baseline["repeats"]
    if repeats is None:
        repeats = 15 if quick else 50

    rng = np.random.default_rng(seed)
    size = int(baseline["size"])
    config = AbftConfig(block_size=int(baseline["block_size"]), p=int(baseline["p"]))
    a = rng.uniform(-1, 1, (size, size))
    bs = [rng.uniform(-1, 1, (size, size)) for _ in range(repeats)]
    with span("ci_gate.throughput", registry=reg, repeats=repeats):
        with MatmulEngine(config, registry=reg) as engine:
            engine.matmul(a, bs[0])  # warm the plan cache
            start = time.perf_counter()
            for b in bs:
                engine.matmul(a, b)
            measured_per_call = (time.perf_counter() - start) / repeats

    threshold = baseline_per_call * (1.0 + tolerance)
    gauges = reg.gauge(
        "abft_ci_gate_throughput",
        "Throughput-gate measurements of the last ci-gate run (seconds/call)",
        ("quantity",),
    )
    gauges.labels(quantity="measured_per_call").set(measured_per_call)
    gauges.labels(quantity="baseline_per_call").set(baseline_per_call)
    gauges.labels(quantity="threshold_per_call").set(threshold)

    passed = measured_per_call <= threshold
    detail = (
        f"warm engine {measured_per_call * 1e3:.2f} ms/call vs baseline "
        f"{baseline_per_call * 1e3:.2f} ms/call "
        f"(limit {threshold * 1e3:.2f} ms/call = +{tolerance:.0%}, "
        f"{repeats} calls at {size}x{size})"
    )
    return GateResult(
        gate="throughput", passed=passed, measured=measured_per_call,
        threshold=threshold, detail=detail,
    )


def chaos_slo_gate(
    *,
    quick: bool = True,
    recipes_path: str | Path | None = None,
    slo=None,
    seed: int = 2014,
    report_dir: str | Path | None = None,
    registry: MetricsRegistry | None = None,
    cluster_workers: int = 2,
) -> GateResult:
    """Run a chaos-recipe suite under live load and gate on the SLOs.

    Replays ``recipes_path`` (default: the built-in quick suite — one
    recipe per fault kind) via :func:`repro.chaos.run_chaos` — most kinds
    against a private single-process server, ``worker_kill`` recipes
    against a ``cluster_workers``-shard
    :class:`~repro.cluster.frontend.ClusterFrontend` — and fails on
    **any** SLO breach: a p99 past the ceiling, a silent wrong answer, a
    client/counter accounting mismatch, a dropped request or a sustained
    multi-window burn-rate overrun.  The suite must also actually inject
    faults — a run with zero injections gates nothing and fails.
    ``report_dir`` additionally writes the dated VALIDATION_REPORT pair
    there (what the ``chaos-soak`` CI job uploads).
    """
    from .chaos import SLOSpec, default_quick_suite, load_recipes, run_chaos

    reg = registry if registry is not None else get_registry()
    recipes = (
        load_recipes(recipes_path)
        if recipes_path is not None
        else default_quick_suite()
    )
    slo = slo if slo is not None else SLOSpec()
    requests_per_wave = 24 if quick else 64
    with span("ci_gate.chaos", registry=reg, recipes=len(recipes)):
        report = run_chaos(
            recipes,
            slo,
            seed=seed,
            requests_per_wave=requests_per_wave,
            registry=reg,
            cluster_workers=cluster_workers,
        )
    if report_dir is not None:
        report.write(report_dir)

    injections = sum(o.injections for o in report.recipes)
    traffic = report.result
    gauges = reg.gauge(
        "abft_ci_gate_chaos",
        "Chaos-SLO-gate measurements of the last ci-gate run",
        ("quantity",),
    )
    gauges.labels(quantity="p99_s").set(traffic.p99_s)
    gauges.labels(quantity="p99_ceiling_s").set(slo.p99_latency_s)
    gauges.labels(quantity="breaches").set(len(report.breaches))
    gauges.labels(quantity="silent_wrong").set(traffic.silent_wrong)
    gauges.labels(quantity="dropped").set(traffic.dropped)
    gauges.labels(quantity="reconciled").set(
        0.0 if report.reconciliation_diffs else 1.0
    )
    gauges.labels(quantity="burn_worst").set(
        report.burn.get("worst_multi_window", 0.0)
    )
    gauges.labels(quantity="burn_limit").set(slo.burn_rate_limit)
    gauges.labels(quantity="injections").set(injections)

    passed = report.ok and injections > 0
    detail = (
        f"{len(recipes)} recipes / {injections} injections over "
        f"{traffic.submitted} requests in {report.wall_s:.1f}s: "
        f"p99 {traffic.p99_s * 1e3:.1f} ms "
        f"(ceiling {slo.p99_latency_s * 1e3:.1f} ms), "
        f"silent wrong {traffic.silent_wrong}, dropped {traffic.dropped}, "
        f"worst burn {report.burn.get('worst_multi_window', 0.0):.2f} "
        f"(limit {slo.burn_rate_limit:g}), "
        f"accounting {'reconciled' if not report.reconciliation_diffs else 'MISMATCH'}"
    )
    if not injections:
        detail += "; suite injected NOTHING — gate cannot attest anything"
    if report.breaches:
        detail += "; breaches: " + "; ".join(
            f"{b.slo} ({b.measured:g} vs {b.threshold:g})"
            for b in report.breaches
        )
    return GateResult(
        gate="chaos-slo",
        passed=passed,
        measured=float(len(report.breaches)),
        threshold=0.0,
        detail=detail,
    )


def default_gate_backends() -> tuple[str, ...]:
    """``numpy`` plus every available deterministic non-numpy backend."""
    from .backends import default_registry

    registry = default_registry()
    names = ["numpy"]
    for name in registry.names():
        if name == "numpy":
            continue
        backend = registry.get(name)
        available, _ = backend.availability()
        if available and backend.capabilities().deterministic:
            names.append(name)
    return tuple(names)


def run_ci_gate(
    *,
    quick: bool = True,
    coverage_floor: float = DEFAULT_COVERAGE_FLOOR,
    throughput_tolerance: float = DEFAULT_THROUGHPUT_TOLERANCE,
    baseline_path: str | Path | None = None,
    seed: int = 2014,
    backends: tuple[str, ...] | None = None,
    chaos: bool = True,
    chaos_recipes_path: str | Path | None = None,
    chaos_slo=None,
    chaos_report_dir: str | Path | None = None,
    registry: MetricsRegistry | None = None,
) -> tuple[int, list[GateResult]]:
    """Run all gates; returns ``(exit_code, results)`` with 0 == all pass.

    The coverage gate runs once per entry of ``backends`` (default:
    :func:`default_gate_backends` — numpy plus every available
    deterministic backend), so the detection floor is held on each
    backend's product, not just numpy's.  The
    chaos-SLO gate runs last (``chaos=False`` skips it; pass
    ``chaos_recipes_path`` / ``chaos_slo`` to override the built-in quick
    suite and default :class:`~repro.chaos.SLOSpec`).
    """
    reg = registry if registry is not None else get_registry()
    if backends is None:
        backends = default_gate_backends()
    results = [
        coverage_gate(
            floor=coverage_floor,
            quick=quick,
            seed=seed,
            backend=backend,
            registry=reg,
        )
        for backend in backends
    ]
    results.append(
        pipeline_coverage_gate(
            floor=coverage_floor,
            quick=quick,
            seed=seed,
            registry=reg,
        )
    )
    results.append(
        fused_coverage_gate(
            floor=coverage_floor,
            quick=quick,
            seed=seed,
            registry=reg,
        )
    )
    results.append(
        model_coverage_gate(
            floor=coverage_floor,
            quick=quick,
            seed=seed,
            registry=reg,
        )
    )
    results.append(
        throughput_gate(
            tolerance=throughput_tolerance,
            quick=quick,
            baseline_path=baseline_path,
            registry=reg,
        )
    )
    if chaos:
        results.append(
            chaos_slo_gate(
                quick=quick,
                recipes_path=chaos_recipes_path,
                slo=chaos_slo,
                seed=seed,
                report_dir=chaos_report_dir,
                registry=reg,
            )
        )
    pass_gauge = reg.gauge(
        "abft_ci_gate_pass", "1 when the gate passed, 0 when it failed", ("gate",)
    )
    for result in results:
        pass_gauge.labels(gate=result.gate).set(1.0 if result.passed else 0.0)
    return (0 if all(r.passed for r in results) else 1), results
