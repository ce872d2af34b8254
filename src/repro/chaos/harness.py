"""The chaos harness: recipes × live traffic × SLO evaluation.

:func:`run_chaos` builds a private serving stack (its own
:class:`~repro.serve.server.MatmulServer` on a skewable clock), installs
the engine's chaos seam, drives closed-loop
:func:`~repro.serve.loadgen.run_loadgen` traffic in waves while each
recipe's schedule window arms its injector, then drains, reconciles the
combined client tally against the ``abft_serve_*`` counter movement and
evaluates the :class:`~repro.chaos.slo.SLOSpec`.

Injection mechanics per kind:

* ``stage_stall`` sleeps inside the engine's stage-completion hook, so
  the stall lands on whichever thread executes the stage — serial and
  pipelined paths alike — without polluting the stage timers, which
  report real work only.
* ``backend_failure`` raises :class:`InjectedFault` from the dispatch
  hook for the targeted backend and simultaneously submits probe
  requests pinned to that backend, so the window exercises the engine's
  never-silent numpy fallback even when negotiation would otherwise
  never pick the target.  The harness's engine registers a stand-in
  backend named ``"chaos"`` beside ``numpy``: it delegates to ``numpy``
  and passes negotiation on any host, so the pinned probes reach
  dispatch.
* ``queue_burst`` fires a synchronous volley of extra submissions at
  window start; their futures are tracked and tallied with the rest.
* ``bitflip`` XORs a high mantissa bit of one element of the in-flight
  GEMM result (the fault-campaign injector arithmetic): high bits make
  the corruption critical, so an unflagged pass-through would be a
  silent wrong answer, not a benign rounding artefact.
* ``clock_skew`` jumps the server's deadline clock forward, expiring
  in-flight deadlines early; the responses must land on the degradation
  ladder or an explicit ``deadline`` rejection — never vanish.
* ``worker_kill`` SIGKILLs live worker processes of a sharded
  :class:`~repro.cluster.frontend.ClusterFrontend` mid-load.  An engine
  hook cannot cross a process boundary, so the harness runs these
  recipes in a dedicated **cluster phase** after the single-process
  phase (each phase's recipe windows are relative to its own start).
  Both phases share one registry and yield one combined tally, one
  counter reconciliation and one SLO verdict — the supervisor must
  requeue the dead shard's in-flight requests and restart the worker,
  and a request dropped or silently wrong in either phase fails the
  run the same way.

All telemetry lands under ``abft_chaos_*`` (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import threading
import time
from collections import Counter as _TallyCounter

import numpy as np

from ..backends import BackendCapabilities, BackendRegistry, NumpyBackend
from ..engine.engine import MatmulEngine
from ..errors import ConfigurationError
from ..fp.bits import flip_bit
from ..serve.config import ServeConfig
from ..serve.loadgen import (
    LoadgenResult,
    _tally,
    counter_delta,
    reconcile_counters,
    run_loadgen,
    serve_counter_snapshot,
)
from ..serve.server import MatmulServer
from ..telemetry import MetricsRegistry
from ..workloads import uniform_matrix
from .recipe import ChaosRecipe
from .report import ChaosReport, RecipeOutcome
from .slo import BurnSample, SLOSpec, burn_rates, evaluate_slo

__all__ = ["InjectedFault", "run_chaos"]


class InjectedFault(RuntimeError):
    """Raised by the dispatch injector to emulate a backend failure."""


class _StandInBackend(NumpyBackend):
    """A second backend for dispatch faults to land on: ``numpy``'s GEMM
    under another name."""

    name = "chaos"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            fused_online=True,
            description="numpy stand-in for injected dispatch failures",
        )


def _harness_backends() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register(_StandInBackend.name, _StandInBackend)
    return registry


class _SkewClock:
    """Monotonic clock with an injectable forward offset (thread-safe)."""

    def __init__(self) -> None:
        self._offset = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return time.monotonic() + self._offset

    def skew(self, seconds: float) -> None:
        with self._lock:
            self._offset += seconds


class _Injector:
    """One armed recipe: knows its window and counts its own injections."""

    def __init__(self, recipe: ChaosRecipe, metrics: dict) -> None:
        self.recipe = recipe
        self.rng = np.random.default_rng(recipe.seed)
        self.injections = 0
        self._m = metrics
        self._lock = threading.Lock()

    def _record(self) -> None:
        with self._lock:
            self.injections += 1
        self._m["injections"].labels(
            kind=self.recipe.kind, site=self.recipe.site
        ).inc()

    # Engine-hook kinds override this; window-start kinds override fire().
    def handle(self, event: str, **kwargs) -> None:  # pragma: no cover
        pass

    def fire(self, ctx: "_HarnessContext") -> None:  # pragma: no cover
        pass


class _StallInjector(_Injector):
    def handle(self, event: str, **kwargs) -> None:
        if event == self.recipe.site:
            self._record()
            self._m["stall_seconds"].labels(stage=self.recipe.site).inc(
                self.recipe.intensity
            )
            time.sleep(self.recipe.intensity)


class _DispatchFailInjector(_Injector):
    def handle(self, event: str, **kwargs) -> None:
        if event != "dispatch" or kwargs.get("backend") != self.recipe.site:
            return
        if self.rng.random() < self.recipe.intensity:
            self._record()
            raise InjectedFault(
                f"chaos: injected dispatch failure on backend "
                f"{self.recipe.site!r}"
            )

    def fire(self, ctx: "_HarnessContext") -> None:
        # Background traffic negotiates its own backend (usually numpy),
        # so pin a few probes to the target to guarantee the window
        # actually crosses the fallback path.
        ctx.submit_extra(
            count=4,
            label=f"probe-{self.recipe.name}",
            backend=self.recipe.site,
        )


class _BitflipInjector(_Injector):
    #: High mantissa bits of binary64 — flips here are always critical,
    #: so a clean checksum pass-through would be a genuine silent wrong
    #: answer rather than a sub-tolerance rounding artefact.
    _BITS = (44, 45, 46, 47, 48, 49, 50, 51)

    def handle(self, event: str, **kwargs) -> None:
        c_fc = kwargs.get("c_fc")
        if event != "result" or c_fc is None or c_fc.dtype != np.float64:
            return
        if self.rng.random() >= self.recipe.intensity:
            return
        self._record()
        flat = c_fc.reshape(-1)
        idx = int(self.rng.integers(flat.size))
        bit = int(self.rng.choice(self._BITS))
        flat[idx] = flip_bit(flat[idx], bit)


class _QueueBurstInjector(_Injector):
    def fire(self, ctx: "_HarnessContext") -> None:
        burst = int(self.recipe.intensity)
        for _ in range(burst):
            self._record()
        ctx.submit_extra(count=burst, label=f"burst-{self.recipe.name}")


class _ClockSkewInjector(_Injector):
    def fire(self, ctx: "_HarnessContext") -> None:
        self._record()
        self._m["skew_seconds"].inc(self.recipe.intensity)
        ctx.clock.skew(self.recipe.intensity)


class _WorkerKillInjector(_Injector):
    def fire(self, ctx: "_HarnessContext") -> None:
        # Only meaningful against a ClusterFrontend (the harness routes
        # worker_kill recipes to the cluster phase, so this holds).
        kill = getattr(ctx.server, "kill_worker", None)
        for _ in range(int(self.recipe.intensity)):
            if kill is None or kill() is None:
                break  # nothing left alive to kill
            self._record()


_INJECTORS = {
    "stage_stall": _StallInjector,
    "backend_failure": _DispatchFailInjector,
    "bitflip": _BitflipInjector,
    "queue_burst": _QueueBurstInjector,
    "clock_skew": _ClockSkewInjector,
    "worker_kill": _WorkerKillInjector,
}


class _HarnessContext:
    """Shared state the injectors act on (server, clock, extra futures)."""

    def __init__(
        self,
        server: MatmulServer,
        clock: _SkewClock,
        *,
        m: int,
        n: int,
        q: int,
        deadline_s: float | None,
        seed: int,
    ) -> None:
        self.server = server
        self.clock = clock
        self._shape = (m, n, q)
        self._deadline_s = deadline_s
        self._rng = np.random.default_rng(seed ^ 0x5EED)
        self._lock = threading.Lock()
        self.submitted = 0
        self.futures: list = []
        # (response | exception, completion latency, wrong flag | None)
        self.records: list[tuple] = []

    def _on_done(self, fut, t0: float, ref) -> None:
        latency = time.perf_counter() - t0
        try:
            response = fut.result()
        except BaseException as exc:  # noqa: BLE001 - tallied as dropped
            with self._lock:
                self.records.append((exc, latency, None))
            return
        wrong = None
        if getattr(response, "c", None) is not None:
            wrong = not np.allclose(response.c, ref)
        with self._lock:
            self.records.append((response, latency, wrong))

    def submit_extra(
        self, *, count: int, label: str, backend: str | None = None
    ) -> None:
        m, n, q = self._shape
        for _ in range(count):
            with self._lock:
                self.submitted += 1
                seq = self.submitted
            a = uniform_matrix(m, n, self._rng)
            b = uniform_matrix(n, q, self._rng)
            ref = a @ b
            t0 = time.perf_counter()
            fut = self.server.submit(
                a,
                b,
                deadline_s=self._deadline_s,
                request_id=f"chaos-{label}-{seq}",
                backend=backend,
            )
            fut.add_done_callback(
                lambda f, t0=t0, ref=ref: self._on_done(f, t0, ref)
            )
            with self._lock:
                self.futures.append(fut)

    def settle(self, timeout_s: float = 30.0) -> list[tuple]:
        """Wait for every extra submission to resolve *and* be recorded."""
        for fut in list(self.futures):
            try:
                fut.result(timeout=timeout_s)
            except Exception:
                pass  # tallied via the done callback
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with self._lock:
                if len(self.records) >= self.submitted:
                    break
            time.sleep(0.0005)
        with self._lock:
            return list(self.records)


def _chaos_metrics(registry: MetricsRegistry) -> dict:
    return {
        "injections": registry.counter(
            "abft_chaos_injections_total",
            "Fault injections performed, by recipe kind and target site",
            ("kind", "site"),
        ),
        "stall_seconds": registry.counter(
            "abft_chaos_stall_seconds_total",
            "Injected stage-stall seconds, by pipeline stage",
            ("stage",),
        ),
        "skew_seconds": registry.counter(
            "abft_chaos_skew_seconds_total",
            "Injected deadline-clock skew seconds",
        ),
        "active": registry.gauge(
            "abft_chaos_active_recipes",
            "Recipes whose schedule window is currently armed",
        ),
        "burn": registry.gauge(
            "abft_chaos_burn_rate",
            "Worst multi-window error-budget burn rate of the last run",
            ("window",),
        ),
        "silent_wrong": registry.counter(
            "abft_chaos_silent_wrong_total",
            "Wrong results that claimed clean verification (must stay 0)",
        ),
        "breaches": registry.counter(
            "abft_chaos_slo_breaches_total",
            "SLO breaches observed, by objective",
            ("slo",),
        ),
    }


def _merge_results(
    results: list[LoadgenResult], wall_s: float
) -> LoadgenResult:
    statuses: _TallyCounter = _TallyCounter()
    reasons: _TallyCounter = _TallyCounter()
    merged = LoadgenResult(submitted=0, wall_s=wall_s)
    latencies: list[float] = []
    for r in results:
        merged.submitted += r.submitted
        statuses.update(r.status_counts)
        reasons.update(r.rejection_reasons)
        merged.detected += r.detected
        merged.corrected += r.corrected
        merged.recomputed += r.recomputed
        merged.retry_attempts += r.retry_attempts
        merged.requeued += r.requeued
        merged.dropped += r.dropped
        merged.silent_wrong += r.silent_wrong
        merged.honest_wrong += r.honest_wrong
        merged.max_batch_size = max(merged.max_batch_size, r.max_batch_size)
        latencies.extend(r.latencies_s)
        merged.violations.extend(r.violations)
    merged.status_counts = dict(statuses)
    merged.rejection_reasons = dict(reasons)
    merged.latencies_s = sorted(latencies)
    return merged


def _run_phase(
    recipes: list[ChaosRecipe],
    metrics: dict,
    registry: MetricsRegistry,
    *,
    server,
    engine,
    clock: _SkewClock,
    requests_per_wave: int,
    concurrency: int,
    m: int,
    n: int,
    q: int,
    deadline_s: float | None,
    seed: int,
    sample_interval_s: float,
    drain_margin_s: float,
    samples: list[BurnSample],
    t_offset_s: float,
) -> tuple[list[RecipeOutcome], LoadgenResult, float]:
    """Drive one serving target through one set of recipe windows.

    The target must already be started and warm; it is stopped (drained)
    before returning.  Recipe windows are relative to *this phase's*
    start.  ``engine`` is the hook seam for in-process injectors, or
    ``None`` for a multi-process target (hooks cannot cross a process
    boundary).  Burn samples append to ``samples`` shifted by
    ``t_offset_s``, so a multi-phase run reads as one continuous
    timeline.  Returns (per-recipe outcomes, phase tally, phase wall).
    """
    ctx = _HarnessContext(
        server, clock, m=m, n=n, q=q, deadline_s=deadline_s, seed=seed
    )
    injectors = [_INJECTORS[r.kind](r, metrics) for r in recipes]
    hook_injectors = [
        inj
        for inj in injectors
        if isinstance(inj, (_StallInjector, _DispatchFailInjector, _BitflipInjector))
    ]
    horizon_s = max(r.end_s for r in recipes)
    t0 = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - t0

    def chaos_hook(event: str, **kwargs) -> None:
        now = elapsed()
        for inj in hook_injectors:
            if inj.recipe.active_at(now):
                inj.handle(event, **kwargs)

    stop = threading.Event()

    def _cumulative() -> BurnSample:
        snap = serve_counter_snapshot(registry)
        good = snap.get(
            ("abft_serve_requests_total", ("outcome", "completed")), 0
        )
        bad = snap.get(
            ("abft_serve_requests_total", ("outcome", "rejected")), 0
        ) + snap.get(("abft_serve_dropped_total",), 0)
        return BurnSample(
            t_s=t_offset_s + elapsed(), good=int(good), bad=int(bad)
        )

    def _sampler() -> None:
        while not stop.wait(sample_interval_s):
            samples.append(_cumulative())

    wave_results: list[LoadgenResult] = []

    def _traffic() -> None:
        wave = 0
        while not stop.is_set():
            wave += 1
            wave_results.append(
                run_loadgen(
                    server=server,
                    requests=requests_per_wave,
                    concurrency=concurrency,
                    m=m,
                    n=n,
                    q=q,
                    deadline_s=deadline_s,
                    seed=seed + wave,
                    verify_results=True,
                    reconcile=False,
                )
            )
            if elapsed() >= horizon_s + drain_margin_s:
                stop.set()

    def _scheduler() -> None:
        pending = sorted(injectors, key=lambda i: i.recipe.start_s)
        for inj in pending:
            delay = inj.recipe.start_s - elapsed()
            if delay > 0 and stop.wait(delay):
                return
            metrics["active"].inc()
            try:
                inj.fire(ctx)
            finally:
                # Window-end bookkeeping runs on this thread too: wait
                # out the duration before disarming the gauge, unless a
                # later recipe is due first — then just move on and let
                # the final sweep settle the gauge.
                remaining = inj.recipe.end_s - elapsed()
                nxt = pending.index(inj) + 1
                budget = (
                    min(remaining, pending[nxt].recipe.start_s - elapsed())
                    if nxt < len(pending)
                    else remaining
                )
                if budget > 0:
                    stop.wait(budget)
                metrics["active"].dec()

    if engine is not None:
        engine.set_chaos_hook(chaos_hook)
    sampler = threading.Thread(target=_sampler, name="chaos-sampler")
    scheduler = threading.Thread(target=_scheduler, name="chaos-scheduler")
    traffic = threading.Thread(target=_traffic, name="chaos-traffic")
    wall_t0 = time.perf_counter()
    sampler.start()
    scheduler.start()
    traffic.start()
    try:
        traffic.join()
        stop.set()
        scheduler.join()
        sampler.join()
    finally:
        stop.set()
        if engine is not None:
            engine.set_chaos_hook(None)
        server.stop(drain=True)
    metrics["active"].set(0)

    # Settle the extra (burst/probe) futures and fold them into the tally.
    extra_records = ctx.settle()
    extra_tally = _tally(
        extra_records, ctx.submitted, wall=0.0, deadline_s=deadline_s
    )
    wall_s = time.perf_counter() - wall_t0
    result = _merge_results(wave_results + [extra_tally], wall_s)
    samples.append(_cumulative())
    outcomes = [
        RecipeOutcome(recipe=inj.recipe, injections=inj.injections)
        for inj in injectors
    ]
    return outcomes, result, wall_s


def run_chaos(
    recipes: list[ChaosRecipe],
    slo: SLOSpec | None = None,
    *,
    requests_per_wave: int = 24,
    concurrency: int = 8,
    m: int = 96,
    n: int = 96,
    q: int = 12,
    deadline_s: float | None = 0.5,
    seed: int = 0,
    serve_config: ServeConfig | None = None,
    registry: MetricsRegistry | None = None,
    sample_interval_s: float = 0.05,
    drain_margin_s: float = 0.3,
    cluster_workers: int = 2,
) -> ChaosReport:
    """Run a recipe suite against live serving stacks under load; returns
    the full :class:`~repro.chaos.report.ChaosReport` (it does not raise
    on breach — gating is the caller's job, see ``chaos_slo_gate``).

    ``worker_kill`` recipes run in a separate **cluster phase** against a
    :class:`~repro.cluster.frontend.ClusterFrontend` of
    ``cluster_workers`` worker processes, after the single-process phase
    runs every other kind; each phase's recipe windows are relative to
    its own start.  Both phases share the registry, and the tally,
    reconciliation and SLO verdict cover their combined traffic.

    Parameters
    ----------
    recipes:
        The suite; windows are relative to their phase's start and may
        overlap.
    slo:
        Objectives to assert; defaults to ``SLOSpec()``.
    requests_per_wave / concurrency / m / n / q / deadline_s:
        Background-traffic shape per phase: closed-loop loadgen waves
        repeat until the phase's last recipe window closes (plus
        ``drain_margin_s``).
    registry:
        Metrics registry; defaults to a **private** one so counter
        reconciliation sees only this run's traffic.  Pass the process
        registry to surface ``abft_chaos_*`` in ``--telemetry-out``.
    cluster_workers:
        Worker-process count of the cluster phase's frontend.
    """
    if not recipes:
        raise ConfigurationError("run_chaos needs at least one recipe")
    slo = slo if slo is not None else SLOSpec()
    serve_config = serve_config if serve_config is not None else ServeConfig()
    registry = registry if registry is not None else MetricsRegistry()
    metrics = _chaos_metrics(registry)

    server_recipes = [r for r in recipes if r.kind != "worker_kill"]
    cluster_recipes = [r for r in recipes if r.kind == "worker_kill"]

    counters_before = serve_counter_snapshot(registry)
    samples: list[BurnSample] = []
    outcomes: list[RecipeOutcome] = []
    phase_results: list[LoadgenResult] = []
    wall_s = 0.0
    traffic_shape = dict(
        requests_per_wave=requests_per_wave,
        concurrency=concurrency,
        m=m,
        n=n,
        q=q,
        deadline_s=deadline_s,
        seed=seed,
        sample_interval_s=sample_interval_s,
        drain_margin_s=drain_margin_s,
        samples=samples,
    )

    if server_recipes:
        clock = _SkewClock()
        engine = MatmulEngine(
            serve_config.abft, registry=registry, backends=_harness_backends()
        )
        server = MatmulServer(
            serve_config, engine=engine, registry=registry, clock=clock
        )
        server.start()
        phase_outcomes, result, phase_wall = _run_phase(
            server_recipes,
            metrics,
            registry,
            server=server,
            engine=server.engine,
            clock=clock,
            t_offset_s=wall_s,
            **traffic_shape,
        )
        outcomes.extend(phase_outcomes)
        phase_results.append(result)
        wall_s += phase_wall

    if cluster_recipes:
        # Imported here: the cluster package spawns processes and is only
        # needed when a suite actually exercises process loss.
        from ..cluster import ClusterConfig, ClusterFrontend

        cluster_config = ClusterConfig(
            serve=serve_config,
            num_workers=cluster_workers,
            # Tight supervision: requeued requests stall for one death
            # detection, which must stay well inside the latency SLO.
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.5,
        )
        frontend = ClusterFrontend(cluster_config, registry=registry)
        # Interpreter spawn must not bill against the phase's SLO clock.
        frontend.wait_ready(timeout=60.0)
        phase_outcomes, result, phase_wall = _run_phase(
            cluster_recipes,
            metrics,
            registry,
            server=frontend,
            engine=None,
            clock=_SkewClock(),
            t_offset_s=wall_s,
            **traffic_shape,
        )
        outcomes.extend(phase_outcomes)
        phase_results.append(result)
        wall_s += phase_wall

    combined = _merge_results(phase_results, wall_s)
    diffs = reconcile_counters(
        combined,
        counter_delta(counters_before, serve_counter_snapshot(registry)),
    )
    breaches = evaluate_slo(
        slo,
        p99_s=combined.p99_s,
        served=combined.served,
        silent_wrong=combined.silent_wrong,
        dropped=combined.dropped,
        reconciliation_diffs=diffs,
        samples=samples,
    )

    rows = burn_rates(samples, slo)
    worst_short = max((r["short"] for r in rows), default=0.0)
    worst_long = max((r["long"] for r in rows), default=0.0)
    worst_burn = max((r["burn"] for r in rows), default=0.0)
    metrics["burn"].labels(window="short").set(worst_short)
    metrics["burn"].labels(window="long").set(worst_long)
    if combined.silent_wrong:
        metrics["silent_wrong"].inc(combined.silent_wrong)
    for breach in breaches:
        metrics["breaches"].labels(slo=breach.slo).inc()

    return ChaosReport(
        recipes=outcomes,
        slo=slo,
        result=combined,
        breaches=breaches,
        reconciliation_diffs=diffs,
        burn={
            "worst_short": worst_short,
            "worst_long": worst_long,
            "worst_multi_window": worst_burn,
        },
        wall_s=wall_s,
    )
