"""The plan-caching batched execution engine for protected multiplications.

:class:`MatmulEngine` is a session object that amortises everything a
single :func:`~repro.abft.multiply.aabft_matmul` call would rebuild from
scratch:

* **execution plans** — per-``(shape, dtype, config)`` layouts, padding
  workspaces and bound-scheme objects, LRU-cached (see
  :mod:`repro.engine.plan`);
* **call resolution** — each request (config, shape, operand dtypes,
  environment pins, backend-registry generation) has its dtypes, backend
  and fusion negotiated once; later calls with it make one index lookup;
* **operand encodings** — :meth:`MatmulEngine.encode` returns a reusable
  :class:`EncodedOperand` handle, so one encoding of ``A`` serves many
  ``A @ B_i`` products (the iterative-solver pattern);
* **checking** — tolerances are evaluated on dense grids through the
  vectorised provider paths (bitwise equal to the scalar per-comparison
  loop, an order of magnitude faster);
* **batching** — :meth:`MatmulEngine.execute_batch` runs a list of operand
  pairs under one :class:`~repro.engine.policy.ExecutionPolicy`: ``serial``
  fans pairs across a thread pool, ``pipelined`` runs the chunked
  stage-slot executor (:mod:`repro.engine.pipeline`), and ``auto`` (the
  default) picks pipelined whenever the batch supports it.

All of the above is metered through a :class:`~repro.telemetry.
MetricsRegistry` (``abft_engine_*`` counters, gauges and stage histograms);
:meth:`MatmulEngine.stats` stays as the backward-compatible
:class:`~repro.engine.stats.EngineStats` snapshot derived from it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..abft.checking import (
    CheckReport,
    check_grids,
    check_partitioned,
    column_discrepancies,
    decide_checks,
    row_discrepancies,
)
from ..abft.encoding import PartitionedLayout, strip_encoding
from ..kernels.encode_fused import fused_encode
from ..kernels.online_fused import OnlineFusedOutcome, online_fused_matmul
from ..abft.providers import (
    AABFTEpsilonProvider,
    AdaptiveEpsilonProvider,
    ConstantEpsilonProvider,
    SEAEpsilonProvider,
)
from ..abft.result import AbftResult
from ..backends.autotune import Autotuner, AutotuneCache
from ..backends.registry import (
    ENV_BACKEND,
    ENV_FUSION,
    BackendRegistry,
    default_registry,
    negotiate,
)
from ..bounds.upper_bound import TopP
from ..errors import ConfigurationError, ShapeError
from ..fp.constants import LOW_PRECISION_NAMES, dtype_name, format_for_name
from ..telemetry import BoundChildren, MetricsRegistry
from .config import AbftConfig
from .plan import CallResolution, ExecutionPlan, PlanCache
from .policy import ExecutionPolicy
from .stats import EngineStats

__all__ = ["EncodedOperand", "MatmulEngine", "default_engine"]


@dataclass(frozen=True, eq=False)
class EncodedOperand:
    """A reusable encoded operand (checksums + bound-scheme preprocessing).

    Produced by :meth:`MatmulEngine.encode`; pass it to
    :meth:`MatmulEngine.matmul` / :meth:`MatmulEngine.execute_batch` in
    place of the raw matrix.  The handle is immutable and safe to share
    across threads.

    Attributes
    ----------
    side:
        ``"a"`` (left operand, column checksums) or ``"b"`` (right operand,
        row checksums).
    array:
        The encoded matrix (``A_cc`` or ``B_rc``).
    layout:
        Partitioned layout of the encoded axis.
    shape:
        The original (unpadded) operand shape.
    padding:
        Rows (side ``"a"``) or columns (side ``"b"``) of zero padding.
    config:
        The config the operand was encoded under (block size, scheme, p).
    top_values / top_indices:
        Stacked top-p data of every encoded vector (``"aabft"`` scheme).
    norms:
        Euclidean norms of every encoded vector (``"sea"`` scheme).
    """

    side: str
    array: np.ndarray
    layout: PartitionedLayout
    shape: tuple[int, int]
    padding: int
    config: AbftConfig
    top_values: np.ndarray | None = None
    top_indices: np.ndarray | None = None
    norms: np.ndarray | None = None
    _tops_cache: list = field(default_factory=list, repr=False, compare=False)

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def inner_dim(self) -> int:
        """Length of the non-encoded (inner) axis."""
        return self.array.shape[1] if self.side == "a" else self.array.shape[0]

    def tops(self) -> list[TopP]:
        """The top-p data as per-vector :class:`TopP` objects (cached)."""
        if self.top_values is None:
            raise ConfigurationError(
                f"operand was encoded for scheme {self.config.scheme!r} "
                "without top-p data"
            )
        if not self._tops_cache:
            self._tops_cache.extend(
                TopP(values=v, indices=i)
                for v, i in zip(self.top_values, self.top_indices)
            )
        return list(self._tops_cache)


def _as_matrix(operand) -> np.ndarray:
    arr = np.asarray(operand)
    if arr.ndim != 2:
        raise ShapeError("operands must be 2-D matrices")
    return arr


def _resolve_dtype(*dtypes: np.dtype) -> np.dtype:
    """The computation dtype: float32 only when every operand is float32."""
    if all(np.dtype(d) == np.float32 for d in dtypes):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _is_low_precision(dtype: np.dtype) -> bool:
    """Whether ``dtype`` is a sub-float32 storage format (fp16/bf16)."""
    return dtype_name(dtype) in LOW_PRECISION_NAMES


def _resolve_storage_compute(
    cfg: AbftConfig, *dtypes: np.dtype
) -> tuple[np.dtype, np.dtype]:
    """Resolve one call's ``(storage, compute)`` dtype pair.

    With ``cfg.dtype`` set it is authoritative: low-precision storage
    computes (GEMM + checksum accumulation) in float32, everything else
    computes in the storage dtype itself.  Without it the historical
    promotion rule applies — float32 only when every operand is float32,
    float64 otherwise — **except** that low-precision operands are
    refused with a :class:`~repro.errors.ConfigurationError` naming the
    fix, rather than silently upcast.  The answer depends only on
    ``cfg.dtype`` and the operand dtypes, so it is memoized on them (a
    refusal is not: it raises on every call).
    """
    return _storage_compute(cfg.dtype, dtypes)


@lru_cache(maxsize=256)
def _storage_compute(
    storage_name: str | None, dtypes: tuple
) -> tuple[np.dtype, np.dtype]:
    """:func:`_resolve_storage_compute` on its memo key."""
    if storage_name is not None:
        storage = format_for_name(storage_name).dtype
        for d in dtypes:
            if _is_low_precision(d) and np.dtype(d) != storage:
                raise ConfigurationError(
                    f"operand dtype {dtype_name(d)} conflicts with the "
                    f"config's storage dtype {storage_name!r}; cast the "
                    "operand explicitly or change AbftConfig.dtype"
                )
        if _is_low_precision(storage):
            return storage, np.dtype(np.float32)
        return storage, storage
    for d in dtypes:
        if _is_low_precision(d):
            name = dtype_name(d)
            raise ConfigurationError(
                f"operands of dtype {name} require an explicit "
                f"AbftConfig(dtype={name!r}, scheme='adaptive') so the "
                "check models low-precision quantisation noise; refusing "
                "to silently upcast"
            )
    compute = _resolve_dtype(*dtypes)
    return compute, compute


#: No autotune decision read yet (``None`` is a decision: "none cached").
_UNREAD = object()


class _TunerRead:
    """The autotuner as one negotiation sees it.

    Records the cache key negotiation looks up (``None`` when it did not
    consult the tuner) and the decision it read.  Given a decision the
    caller already read, it answers with that one, so a call that
    re-resolves on a changed decision still makes one lookup.
    """

    def __init__(self, tuner: Autotuner, decided=_UNREAD) -> None:
        self._tuner = tuner
        self.key: str | None = None
        self.decided = decided

    def lookup(self, m: int, n: int, q: int, dtype, config):
        self.key = self._tuner.key(m, n, q, dtype, config)
        if self.decided is _UNREAD:
            self.decided = self._tuner.lookup_key(self.key)
        return self.decided


class MatmulEngine:
    """A session object executing ABFT-protected matrix multiplications.

    Parameters
    ----------
    config:
        Default :class:`~repro.engine.config.AbftConfig` for calls that do
        not pass their own.
    plan_cache_size:
        Maximum number of cached execution plans (LRU eviction beyond it).
    max_workers:
        Thread-pool width for :meth:`execute_batch`; defaults to the
        host's CPU count.  ``1`` forces sequential batched execution.
    registry:
        The :class:`~repro.telemetry.MetricsRegistry` the engine publishes
        its metrics to.  Defaults to a private registry per engine, which
        keeps :meth:`stats` engine-local; pass a shared registry (e.g.
        :func:`repro.telemetry.get_registry`) to fold the engine into a
        process-wide scrape — engines sharing a registry then share
        counters.
    backends:
        The :class:`~repro.backends.registry.BackendRegistry` the GEMM
        stage dispatches through; defaults to the process-wide registry
        with the ``numpy`` and ``cupy`` backends.
    autotuner:
        The :class:`~repro.backends.autotune.Autotuner` consulted when a
        config's fusion is ``"auto"``, neither a config nor an
        ``AABFT_FUSION`` pin applies and the call runs on ``numpy``.
        Defaults to one reading the on-disk decision cache (lookups only
        — timing trials never run inline; use :meth:`autotune` or
        ``aabft autotune``).

    Each request — the requested config, ``m``, ``n``, ``q``, both operand
    dtypes, the ``AABFT_BACKEND`` and ``AABFT_FUSION`` values and the
    backend registry's generation — is resolved once into a
    :class:`~repro.engine.plan.CallResolution` (storage and compute
    dtypes, negotiated backend and fusion, plan, fallback texts) that
    later calls reuse.  Env pins, in-process :meth:`autotune` decisions
    and newly registered backends therefore apply from the next call, and
    fallbacks stay counted per call.

    The engine is thread-safe: the plan cache, its request index,
    workspace pools and metrics are lock-protected, and result objects
    are independent.
    """

    #: The three instrumented pipeline stages.
    STAGES = ("encode", "multiply", "check")

    def __init__(
        self,
        config: AbftConfig | None = None,
        *,
        plan_cache_size: int = 128,
        max_workers: int | None = None,
        registry: MetricsRegistry | None = None,
        backends: BackendRegistry | None = None,
        autotuner: Autotuner | None = None,
    ) -> None:
        self.config = config if config is not None else AbftConfig()
        if not isinstance(self.config, AbftConfig):
            raise ConfigurationError(
                f"config must be an AbftConfig, got {type(self.config).__name__}"
            )
        self._plans = PlanCache(plan_cache_size)
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._m_calls = reg.counter(
            "abft_engine_calls_total", "Completed protected multiplications"
        )
        self._m_batched = reg.counter(
            "abft_engine_batched_calls_total",
            "Batched submissions through execute_batch",
        )
        self._m_exec_mode = reg.counter(
            "abft_engine_execute_batch_total",
            "execute_batch submissions per resolved execution mode",
            ("mode",),
        )
        self._exec_modes = BoundChildren(self._m_exec_mode, "mode")
        self._m_reuses = reg.counter(
            "abft_engine_encode_reuses_total",
            "Operands served from a pre-encoded handle",
        )
        self._m_detections = reg.counter(
            "abft_engine_detections_total",
            "Multiplications whose check flagged at least one comparison",
        )
        self._m_decisions = reg.counter(
            "abft_check_decisions_total",
            "Checked products by the tolerance grids that decided them "
            "(lower_bound: certified lower grids, exact: exact grids)",
            ("by",),
        )
        self._m_decided = {
            by: self._m_decisions.labels(by=by)
            for by in ("lower_bound", "exact")
        }
        stage_seconds = reg.counter(
            "abft_engine_stage_seconds_total",
            "Accumulated wall seconds per pipeline stage",
            ("stage",),
        )
        stage_hist = reg.histogram(
            "abft_engine_stage_seconds",
            "Per-call wall seconds of each pipeline stage",
            ("stage",),
        )
        self._m_stage = {s: stage_seconds.labels(stage=s) for s in self.STAGES}
        self._h_stage = {s: stage_hist.labels(stage=s) for s in self.STAGES}
        self._g_plans = reg.gauge(
            "abft_engine_plan_cache",
            "Plan-cache accounting, refreshed on stats()",
            ("event",),
        )
        self._backends = backends if backends is not None else default_registry()
        self._autotuner = (
            autotuner
            if autotuner is not None
            else Autotuner(AutotuneCache(), metrics_registry=reg)
        )
        self._m_backend_dispatch = reg.counter(
            "abft_backend_dispatch_total",
            "GEMM-stage dispatches per compute backend",
            ("backend",),
        )
        self._dispatches = BoundChildren(self._m_backend_dispatch, "backend")
        self._m_backend_fallbacks = reg.counter(
            "abft_backend_fallbacks_total",
            "Never-silent fallbacks to the numpy backend",
            ("backend", "reason"),
        )
        self._m_pipe_batches = reg.counter(
            "abft_pipeline_batches_total",
            "Batches executed by the stage-pipelined executor",
        )
        self._m_pipe_chunks = reg.counter(
            "abft_pipeline_chunks_total",
            "Chunks executed by the stage-pipelined executor",
        )
        self._m_pipe_fallbacks = reg.counter(
            "abft_pipeline_fallbacks_total",
            "Batched execution-mode fallbacks by reason (never silent)",
            ("reason",),
        )
        self._m_fused_calls = reg.counter(
            "abft_fused_calls_total",
            "Protected multiplications executed through the fused "
            "online-ABFT tile loop",
        )
        self._m_fused_tiles = reg.counter(
            "abft_fused_tiles_checked_total",
            "Result tiles checked in-loop by the fused online path",
        )
        self._m_fused_aborts = reg.counter(
            "abft_fused_early_aborts_total",
            "Fused online runs aborted early on a persistently failing tile",
        )
        self._m_fused_recomputes = reg.counter(
            "abft_fused_tile_recomputes_total",
            "Tile-granular recomputes performed by the fused online path",
        )
        self._m_fused_fallbacks = reg.counter(
            "abft_fused_fallbacks_total",
            "Never-silent fused-online fallbacks to the separate path",
            ("reason",),
        )
        pipe_busy = reg.counter(
            "abft_pipeline_stage_busy_seconds_total",
            "Busy wall seconds accumulated per pipeline stage lane",
            ("stage",),
        )
        self._m_pipe_busy = {
            s: pipe_busy.labels(stage=s) for s in self.STAGES
        }
        self._g_pipe_bubble = reg.gauge(
            "abft_pipeline_bubble_fraction",
            "Bubble fraction of the last pipelined batch "
            "(1 - busy / (3 * wall))",
        )
        pipe_occupancy = reg.gauge(
            "abft_pipeline_stage_occupancy",
            "Stage busy fraction of the wall time of the last pipelined batch",
            ("stage",),
        )
        self._g_pipe_occupancy = {
            s: pipe_occupancy.labels(stage=s) for s in self.STAGES
        }
        # Chaos/test seam (see set_chaos_hook); None == no instrumentation.
        self._chaos_hook = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def backends(self) -> BackendRegistry:
        """The compute-backend registry this engine negotiates against."""
        return self._backends

    @property
    def autotuner(self) -> Autotuner:
        """The autotuner consulted for ``fusion="auto"`` configs."""
        return self._autotuner

    def matmul(self, a, b, *, config: AbftConfig | None = None) -> AbftResult:
        """One protected multiplication ``a @ b``.

        Either operand may be a raw matrix or an :class:`EncodedOperand`
        handle from :meth:`encode` (side ``"a"`` for the left, ``"b"`` for
        the right operand).
        """
        return self._run(a, b, self._resolve_config(config))

    def encode(
        self,
        operand,
        *,
        side: str = "a",
        config: AbftConfig | None = None,
        dtype: np.dtype | None = None,
    ) -> EncodedOperand:
        """Encode an operand once for reuse across many products.

        Parameters
        ----------
        operand:
            The raw matrix.
        side:
            ``"a"`` for a left operand (column checksums), ``"b"`` for a
            right operand (row checksums).
        config:
            Overrides the engine's default config.
        dtype:
            Forces the computation dtype.  By default a float32 operand is
            encoded in float32; pass ``np.float64`` when it will be paired
            with float64 operands (the mixed-precision promotion rule).
        """
        cfg = self._resolve_config(config)
        if side not in ("a", "b"):
            raise ConfigurationError(f"side must be 'a' or 'b', got {side!r}")
        arr = _as_matrix(operand)
        if dtype is None:
            _storage, dtype = _resolve_storage_compute(cfg, arr.dtype)
        arr = arr.astype(np.dtype(dtype), copy=False)
        t0 = time.perf_counter()
        encoded = self._encode(arr, side, cfg)
        self._add_seconds("encode", time.perf_counter() - t0)
        return encoded

    def execute_batch(
        self,
        requests,
        *,
        policy: ExecutionPolicy | None = None,
        config: AbftConfig | None = None,
    ) -> list[AbftResult]:
        """Protected multiplications of many operand pairs under one policy.

        Parameters
        ----------
        requests:
            A sequence of ``(a, b)`` operand pairs.  Each operand may be a
            raw matrix or an :class:`EncodedOperand` handle.
        policy:
            The :class:`~repro.engine.policy.ExecutionPolicy` selecting the
            execution mode (``auto`` | ``serial`` | ``pipelined``).
            Defaults to ``ExecutionPolicy()`` (mode ``auto``: pipelined
            when the batch meets its preconditions, serial otherwise).
        config:
            Overrides the engine's default :class:`AbftConfig` for the
            whole batch — including its backend pin and fusion strategy.

        Results come back in request order and are **bitwise identical**
        to sequential :meth:`matmul` calls regardless of the mode chosen —
        modes only trade scheduling overhead against amortisation.  An
        explicit ``pipelined`` request the batch does not support runs
        serial, counted in ``abft_pipeline_fallbacks_total`` — never
        silent.
        """
        from .pipeline import pipeline_supported, run_pipelined

        cfg = self._resolve_config(config)
        if policy is None:
            policy = ExecutionPolicy()
        elif not isinstance(policy, ExecutionPolicy):
            raise ConfigurationError(
                f"policy must be an ExecutionPolicy, got "
                f"{type(policy).__name__}"
            )
        pairs = []
        for request in requests:
            pair = tuple(request) if not isinstance(request, tuple) else request
            if len(pair) != 2:
                raise ShapeError(
                    f"each request must be an (a, b) pair, got "
                    f"{len(pair)} operands"
                )
            pairs.append(pair)
        self._m_batched.inc()
        if not pairs:
            self._exec_modes["serial"].inc()
            return []
        a_items = [a for a, _b in pairs]
        b_items = [b for _a, b in pairs]

        mode = "serial"
        if policy.mode != "serial":
            if pipeline_supported(a_items, b_items, cfg):
                mode = "pipelined"
            elif policy.mode == "pipelined":
                self._m_pipe_fallbacks.labels(reason="unsupported").inc()
        self._exec_modes[mode].inc()
        if mode == "pipelined":
            return run_pipelined(self, a_items, b_items, cfg)
        return self._run_serial_batch(pairs, cfg)

    def autotune(
        self,
        m: int,
        n: int,
        q: int,
        *,
        dtype=np.float64,
        config: AbftConfig | None = None,
        force: bool = False,
    ):
        """Run fusion timing trials for one call signature.

        Times the fused online-ABFT loop against the separate GEMM +
        check on operands of the *encoded* GEMM shapes, persists the
        decision to the autotune cache, and returns the
        :class:`~repro.backends.autotune.TunedChoice`.  Subsequent
        ``fusion="auto"`` calls with this signature on ``numpy`` pick the
        decision up through negotiation.
        """
        cfg = self._resolve_config(config)
        return self._autotuner.tune(
            m, n, q, dtype=dtype, config=cfg, force=force
        )

    def set_chaos_hook(self, hook) -> None:
        """Install (or clear, with ``None``) the chaos/test-injection seam.

        The hook is invoked from whichever thread executes the work, as
        ``hook(event, *, backend=None, c_fc=None)``:

        * ``event in ("encode", "multiply", "check")`` — fired when a
          pipeline stage completes, on every execution path (serial,
          pipelined and fused online).  Sleeping here injects a stage
          stall; the stall is *not* charged to the stage timers, which
          report real work only.  Stage hooks must not raise.
        * ``event == "dispatch"`` (``backend=<name>``) — fired just
          before the GEMM stage executes on a compute backend.  An
          exception raised here flows through the engine's never-silent
          numpy fallback exactly like a real backend failure (the numpy
          retry does not re-fire the hook).
        * ``event == "result"`` (``backend=<name>``, ``c_fc=<array>``) —
          fired with the GEMM result; mutating ``c_fc`` in place emulates
          a kernel-level fault that the check stage must catch.  It is
          the full-checksum result, except for a pipelined chunk under
          the ``compact`` verdict: there it is the chunk's compact
          product, every item's data and checksum columns side by side
          with no padding columns (``full``: every encoded column of
          every item); a hook that derives the encoded layouts from the
          array's shape holds only for the full-checksum result.  (On
          the fused online path the in-loop per-tile checks
          have already run by then, so whenever a chaos hook is
          installed the fused path re-derives the full discrepancy
          grids after this hook fires — bitwise identical in clean
          runs — keeping ``result``-site injections detectable.)
        * ``event == "tile_result"`` (``tile_index=<int>``,
          ``attempt=<int>``, ``c_tile=<array view>``) — fired by the
          fused online path after each tile's GEMM (and after each
          tile recompute, with ``attempt`` incremented); mutating
          ``c_tile`` in place emulates a fault inside the tile loop that
          the *in-loop* check must catch — the early-abort /
          tile-recompute injection site.

        This is the seam :mod:`repro.chaos` drives; it exists so system-
        level fault campaigns never need to monkeypatch engine internals.
        """
        if hook is not None and not callable(hook):
            raise ConfigurationError(
                f"chaos hook must be callable or None, got "
                f"{type(hook).__name__}"
            )
        self._chaos_hook = hook

    def stats(self) -> EngineStats:
        """An immutable snapshot derived from the engine's registry metrics.

        Counts come straight from the registry counters (so the snapshot
        and a Prometheus scrape of :attr:`registry` always agree); the
        plan-cache gauges are refreshed as a side effect.
        """
        hits, misses, evictions = (
            self._plans.hits, self._plans.misses, self._plans.evictions,
        )
        self._g_plans.labels(event="hit").set(hits)
        self._g_plans.labels(event="miss").set(misses)
        self._g_plans.labels(event="eviction").set(evictions)
        self._g_plans.labels(event="cached").set(len(self._plans))
        return EngineStats(
            plan_hits=hits,
            plan_misses=misses,
            plan_evictions=evictions,
            calls=int(self._m_calls.get()),
            batched_calls=int(self._m_batched.get()),
            encode_reuses=int(self._m_reuses.get()),
            detections=int(self._m_detections.get()),
            encode_seconds=self._m_stage["encode"].get(),
            multiply_seconds=self._m_stage["multiply"].get(),
            check_seconds=self._m_stage["check"].get(),
        )

    def reset_stats(self) -> None:
        """Zero the engine's metrics (cached plans are kept)."""
        for metric in (self._m_calls, self._m_batched, self._m_reuses,
                       self._m_detections, self._m_decisions,
                       self._m_exec_mode,
                       self._m_pipe_batches, self._m_pipe_chunks,
                       self._m_pipe_fallbacks, self._g_pipe_bubble,
                       self._m_fused_calls, self._m_fused_tiles,
                       self._m_fused_aborts, self._m_fused_recomputes,
                       self._m_fused_fallbacks):
            metric.reset()
        for stage in self.STAGES:
            self._m_stage[stage].reset()
            self._h_stage[stage].reset()
            self._m_pipe_busy[stage].reset()
            self._g_pipe_occupancy[stage].reset()
        self._plans.hits = 0
        self._plans.misses = 0
        self._plans.evictions = 0

    def clear_plans(self) -> None:
        """Drop every cached execution plan."""
        self._plans.clear()

    @property
    def plan_cache_size(self) -> int:
        """Number of currently cached plans."""
        return len(self._plans)

    def close(self) -> None:
        """Shut the batching thread pool down (the engine stays usable)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def __enter__(self) -> "MatmulEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_config(self, config: AbftConfig | None) -> AbftConfig:
        if config is None:
            return self.config
        if not isinstance(config, AbftConfig):
            raise ConfigurationError(
                f"config must be an AbftConfig, got {type(config).__name__}"
            )
        return config

    def _get_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="abft-engine",
                )
            return self._executor

    def _add_seconds(self, stage: str, elapsed: float) -> None:
        self._m_stage[stage].inc(elapsed)
        self._h_stage[stage].observe(elapsed)
        hook = self._chaos_hook
        if hook is not None:
            # After the timers, so the stage timers report real work
            # only, never an injected stall.
            hook(stage)

    def _run_serial_batch(self, pairs, cfg: AbftConfig) -> list[AbftResult]:
        """The ``serial`` execution mode: per-pair runs, thread-fanned.

        A raw operand appearing in several pairs is encoded once up front
        — but only when every pairing it participates in resolves to the
        same computation dtype, so results stay bitwise identical to
        sequential :meth:`matmul` calls.
        """
        a_items = [a for a, _b in pairs]
        b_items = [b for _a, b in pairs]
        # The id-dedup below predicts each pair's computation dtype, which
        # refuses low-precision operands as matmul does; configs carrying
        # an explicit storage dtype encode their operands inside _run
        # instead (still once per call).
        sides = (
            ()
            if cfg.dtype is not None
            else (("a", a_items, b_items), ("b", b_items, a_items))
        )
        for side, items, others in sides:
            by_id: dict[int, list[int]] = {}
            for i, item in enumerate(items):
                if not isinstance(item, EncodedOperand):
                    by_id.setdefault(id(item), []).append(i)
            for indices in by_id.values():
                if len(indices) < 2:
                    continue
                pair_dtypes = {
                    _resolve_storage_compute(
                        cfg, _operand_dtype(items[i]), _operand_dtype(others[i])
                    )[1]
                    for i in indices
                }
                if len(pair_dtypes) != 1:
                    continue
                handle = self.encode(
                    items[indices[0]],
                    side=side,
                    config=cfg,
                    dtype=next(iter(pair_dtypes)),
                )
                for i in indices:
                    items[i] = handle
        pairs = list(zip(a_items, b_items))
        if self._max_workers > 1 and len(pairs) > 1:
            executor = self._get_executor()
            return list(
                executor.map(
                    lambda pair: self._run(pair[0], pair[1], cfg), pairs
                )
            )
        return [self._run(x, y, cfg) for x, y in pairs]

    def _encode(
        self,
        arr: np.ndarray,
        side: str,
        cfg: AbftConfig,
        plan: ExecutionPlan | None = None,
    ) -> EncodedOperand:
        """Encode a dtype-resolved matrix (checksums + scheme preprocessing).

        Without a ``plan`` this is the *unpooled* path behind the public
        :meth:`encode`: the returned handle escapes to user code, so its
        encoded buffer must never come from (or return to) a workspace
        pool.  With a ``plan`` it is allocation-free when warm: padding,
        the encoded buffer and the top-p search workspace all cycle
        through ``plan.pool``, and the caller gives ``handle.array`` back
        once the multiply has consumed it (it must never escape into
        results).
        """
        shape = arr.shape
        axis = 0 if side == "a" else 1
        padding = (-shape[axis]) % cfg.block_size
        pool = workspace = None
        if plan is not None:
            pool = plan.pool
            arr, workspace = plan.pad_a(arr) if side == "a" else plan.pad_b(arr)
        elif padding:
            widths = [(0, 0), (0, 0)]
            widths[axis] = (0, padding)
            arr = np.pad(arr, widths, mode="constant")
        fused = fused_encode(
            arr,
            side,
            cfg.block_size,
            p=cfg.p if cfg.scheme == "aabft" else None,
            norms=cfg.scheme in ("sea", "adaptive"),
            pool=pool,
        )
        if workspace is not None:
            pool.give(workspace)
        return EncodedOperand(
            side=side,
            array=fused.encoded,
            layout=fused.layout,
            shape=shape,
            padding=padding,
            config=cfg,
            top_values=fused.top_values,
            top_indices=fused.top_indices,
            norms=fused.norms,
        )

    def _check_handle(
        self, handle: EncodedOperand, side: str, cfg: AbftConfig, dtype: np.dtype
    ) -> None:
        if handle.side != side:
            raise ConfigurationError(
                f"operand encoded for side {handle.side!r} passed as "
                f"side {side!r}"
            )
        if handle.config.block_size != cfg.block_size:
            raise ConfigurationError(
                f"encoded operand uses block_size {handle.config.block_size}, "
                f"call requests {cfg.block_size}"
            )
        if handle.config.scheme != cfg.scheme:
            raise ConfigurationError(
                f"operand encoded for scheme {handle.config.scheme!r}, "
                f"call requests {cfg.scheme!r}"
            )
        if cfg.scheme == "aabft" and handle.config.p != cfg.p:
            raise ConfigurationError(
                f"operand encoded with p={handle.config.p}, call requests "
                f"p={cfg.p}"
            )
        if handle.dtype != dtype:
            raise ConfigurationError(
                f"operand encoded as {handle.dtype}, but the multiplication "
                f"resolves to {dtype}; re-encode with dtype={np.dtype(dtype).name}"
            )

    def _encode_or_reuse(
        self, operand, side: str, cfg: AbftConfig, dtype: np.dtype, plan
    ) -> tuple[EncodedOperand, bool]:
        """One operand's encoding for a call, and whether it is fresh.

        A handle is validated against the call and counted as a reuse; a
        raw matrix is encoded through the plan's pool, and the caller
        gives the fresh handle's buffer back once the multiply has
        consumed it.
        """
        if isinstance(operand, EncodedOperand):
            self._check_handle(operand, side, cfg, dtype)
            self._m_reuses.inc()
            return operand, False
        arr = np.asarray(operand).astype(dtype, copy=False)
        return self._encode(arr, side, cfg, plan), True

    def _run(self, a, b, cfg: AbftConfig) -> AbftResult:
        # --- resolve operands, then the request --------------------------
        a_raw = a if isinstance(a, EncodedOperand) else _as_matrix(a)
        b_raw = b if isinstance(b, EncodedOperand) else _as_matrix(b)
        m, n = a_raw.shape
        q = b_raw.shape[1]
        a_dtype, b_dtype = _operand_dtype(a_raw), _operand_dtype(b_raw)
        request = self._request(cfg, m, n, q, a_dtype, b_dtype)
        call = self._plans.resolved(request)
        if call is None:
            # Refuses low-precision operands before the shape check.
            _resolve_storage_compute(cfg, a_dtype, b_dtype)
        if n != b_raw.shape[0]:
            raise ShapeError(
                f"inner dimensions disagree: A is {a_raw.shape}, "
                f"B is {b_raw.shape}"
            )
        call = self._resolve(request, call)
        plan = call.plan
        cfg = plan.config
        dtype = plan.dtype
        fused_fallback = call.fused_fallback

        # --- encode (or reuse) ------------------------------------------
        t0 = time.perf_counter()
        enc_a, fresh_a = self._encode_or_reuse(a_raw, "a", cfg, dtype, plan)
        enc_b, fresh_b = self._encode_or_reuse(b_raw, "b", cfg, dtype, plan)
        self._add_seconds("encode", time.perf_counter() - t0)

        # --- tolerances: the fused path needs its grids before the tiles
        # run (the in-loop checks consume them); check-stage work --------
        t0 = time.perf_counter()
        provider = self._make_provider(cfg, plan, enc_a, enc_b)
        grids = None
        if cfg.fusion == "fused":
            grids = self._provider_grids(provider, plan)
            if grids is None:
                self._m_fused_fallbacks.labels(reason="no_epsilon_grids").inc()
                fused_fallback = (
                    "fused online fell back to separate: provider has no "
                    "epsilon grids (tolerances must exist before the tiles "
                    "run)"
                )
        check_seconds = time.perf_counter() - t0

        # --- multiply (fused: with the in-loop checks) -------------------
        t0 = time.perf_counter()
        if grids is not None:
            col_eps, row_eps = grids
            c_fc, report, used_backend, dispatch_fallback, mul_s, chk_s = (
                self._fused_multiply_check(
                    plan, cfg, enc_a.array, enc_b.array, col_eps, row_eps
                )
            )
            plan.pool.give(col_eps)
            plan.pool.give(row_eps)
            check_seconds += chk_s
        else:
            c_fc, used_backend, dispatch_fallback = self._dispatch_gemm(
                plan, enc_a.array, enc_b.array
            )
            if call.quantize:
                # Simulate low-precision result storage: the data region
                # round-trips through the storage dtype (checksum rows and
                # columns stay in the compute dtype — they accumulate in
                # float32, per the mixed-precision discipline), so the
                # check below sees genuine storage quantisation noise.
                _quantize_data_region(c_fc, plan, call.storage)
            mul_s = time.perf_counter() - t0
        self._add_seconds("multiply", mul_s)
        # Internally encoded buffers are fully consumed by the multiply
        # and never referenced by the result (the provider keeps only
        # top-p / norm arrays), so they recycle.  User-supplied handles
        # are not touched.
        for enc, fresh in ((enc_a, fresh_a), (enc_b, fresh_b)):
            if fresh:
                plan.pool.give(enc.array)

        # --- check (the fused path already reported) ---------------------
        if grids is None:
            t0 = time.perf_counter()
            report = self._check(c_fc, plan, provider)
            check_seconds += time.perf_counter() - t0
        self._add_seconds("check", check_seconds)

        c = strip_encoding(
            c_fc, plan.row_layout, plan.col_layout, enc_a.padding, enc_b.padding
        )
        if call.quantize:
            # Lossless: the data region already round-tripped through the
            # storage dtype, so this cast only changes the container.
            c = c.astype(call.storage)
        self._m_calls.inc()
        if report.error_detected:
            self._m_detections.inc()
        return AbftResult(
            c=c,
            c_fc=c_fc,
            report=report,
            row_layout=plan.row_layout,
            col_layout=plan.col_layout,
            provider=provider,
            backend=used_backend,
            backend_fallback=call.backend_fallback or dispatch_fallback,
            fused=grids is not None,
            fused_fallback=fused_fallback,
        )

    def _request(
        self,
        cfg: AbftConfig,
        m: int,
        n: int,
        q: int,
        a_dtype: np.dtype,
        b_dtype: np.dtype,
    ) -> tuple:
        """One call's request key: the requested config, shape and operand
        dtypes, and what else negotiation reads — the two environment pins
        and the backend registry's generation — as they are now."""
        env = os.environ
        return (
            cfg, m, n, q, a_dtype, b_dtype,
            env.get(ENV_BACKEND, ""), env.get(ENV_FUSION, ""),
            self._backends.generation,
        )

    def _resolve(
        self, request: tuple, call: CallResolution | None
    ) -> CallResolution:
        """Settle a request on its indexed resolution, or negotiate it.

        ``call`` is what the request index held (``None`` on a miss).  A
        resolution that read the autotuner reads its decision again — one
        lookup per call, as negotiation makes — and is negotiated afresh
        when the decision changed.  Every call increments the
        resolution's fallback counters: fallbacks stay counted per call.
        """
        decided = _UNREAD
        if call is not None and call.tune_key is not None:
            tuned = self._autotuner.lookup_key(call.tune_key)
            if tuned is not call.tuned and tuned != call.tuned:
                call, decided = None, tuned
        if call is None:
            call = self._negotiate(request, decided)
        else:
            self._plans.hit(request, call)
        for counter in call.counters:
            counter.inc()
        return call

    def _negotiate(self, request: tuple, decided=_UNREAD) -> CallResolution:
        """Negotiate a request and index its :class:`CallResolution`.

        Resolves the storage and compute dtypes, then ``backend="auto"``
        / ``fusion="auto"``, into the *effective* config — a concrete
        backend and fusion strategy (``"fused"`` or ``"separate"``, never
        ``"auto"``) that keys the plan cache — plus two never-silent
        fallback texts: the backend-selection fallback (``None`` when the
        requested backend was selected) and the fusion fallback (``None``
        when the requested fusion strategy ran).  A rejected backend
        candidate falls back to ``numpy`` and is counted in
        ``abft_backend_fallbacks_total``; a rejected fused request falls
        back to separate and is counted in ``abft_fused_fallbacks_total``;
        :meth:`_resolve` counts both on every call.  ``decided`` is an
        autotune decision the caller already read for this request.
        """
        cfg, m, n, q, a_dtype, b_dtype, env_backend, env_fusion, _gen = request
        storage, compute = _resolve_storage_compute(cfg, a_dtype, b_dtype)
        tuner = _TunerRead(self._autotuner, decided)
        selection = negotiate(
            cfg, m, n, q, compute,
            registry=self._backends,
            autotuner=tuner,
            environ={ENV_BACKEND: env_backend, ENV_FUSION: env_fusion},
        )
        counters = []
        fallback_text = None
        if selection.fallback_from is not None:
            counters.append(
                self._m_backend_fallbacks.labels(
                    backend=selection.fallback_from, reason="selection"
                )
            )
            fallback_text = (
                f"selection fell back from {selection.fallback_from!r} "
                f"to 'numpy': {selection.fallback_reason}"
            )
        fused_fallback_text = None
        if selection.fusion_fallback_reason is not None:
            counters.append(self._m_fused_fallbacks.labels(reason="negotiation"))
            fused_fallback_text = (
                "fused online fell back to separate: "
                f"{selection.fusion_fallback_reason}"
            )
        fusion = selection.fusion
        fused_tb = selection.fused_tile_blocks if fusion == "fused" else None
        quantize = storage != compute
        if quantize and fusion == "fused":
            # The low-precision path quantises the stored result between
            # multiply and check, which the in-loop tile checks would miss.
            counters.append(self._m_fused_fallbacks.labels(reason="low_precision"))
            fused_fallback_text = (
                "fused online fell back to separate: low-precision storage "
                "quantises the result after the multiply, so checks must "
                "run on the stored bytes"
            )
            fusion, fused_tb = "separate", None
        if (
            cfg.backend != selection.backend
            or cfg.fusion != fusion
            or cfg.fused_tile_blocks != fused_tb
        ):
            cfg = cfg.replace(
                backend=selection.backend,
                fusion=fusion,
                fused_tile_blocks=fused_tb,
            )
        plan, _hit = self._plans.get(m, n, q, compute, cfg)
        call = CallResolution(
            plan=plan,
            storage=storage,
            quantize=quantize,
            backend_fallback=fallback_text,
            fused_fallback=fused_fallback_text,
            counters=tuple(counters),
            tune_key=tuner.key,
            tuned=tuner.decided if tuner.key is not None else None,
        )
        self._plans.index(request, call)
        return call

    def _dispatch(self, plan: ExecutionPlan, compute):
        """Run one GEMM-stage call on the plan's backend, never silently.

        ``compute(backend_name)`` executes the stage on the named backend
        and returns its full-checksum result.  Returns ``(result,
        backend_used, fallback_text)``.  A dispatch-time backend failure
        (import error, OOM, lost device) retries on ``numpy`` — result
        bytes are then the reference bytes — and is counted in
        ``abft_backend_fallbacks_total``, never swallowed.  Backends
        resolve through the engine's registry, so custom registries
        dispatch too.
        """
        name = plan.backend_name
        self._dispatches[name].inc()
        hook = self._chaos_hook
        fallback_text = None
        try:
            if hook is not None:
                # Chaos seam: a raising hook emulates a backend failure
                # and rides the real never-silent fallback below.
                hook("dispatch", backend=name)
            c_fc = compute(name)
        except Exception as exc:
            if name == "numpy":
                raise
            self._m_backend_fallbacks.labels(
                backend=name, reason="dispatch"
            ).inc()
            c_fc = compute("numpy")
            fallback_text = (
                f"dispatch on {name!r} failed "
                f"({type(exc).__name__}: {exc}); recomputed on 'numpy'"
            )
            name = "numpy"
        if hook is not None:
            hook("result", backend=name, c_fc=c_fc)
        return c_fc, name, fallback_text

    def _dispatch_gemm(
        self, plan: ExecutionPlan, a_arr: np.ndarray, b_arr: np.ndarray
    ) -> tuple[np.ndarray, str, str | None]:
        """The plain (separate-path) GEMM stage through :meth:`_dispatch`."""
        return self._dispatch(
            plan,
            lambda name: self._backends.get(name).matmul(a_arr, b_arr),
        )

    def _make_provider(
        self,
        cfg: AbftConfig,
        plan: ExecutionPlan,
        enc_a: EncodedOperand,
        enc_b: EncodedOperand,
    ):
        if cfg.scheme == "aabft":
            return _aabft_provider(
                cfg, plan,
                (enc_a.top_values, enc_a.top_indices),
                (enc_b.top_values, enc_b.top_indices),
            )
        if cfg.scheme in ("sea", "adaptive"):
            provider_cls = (
                SEAEpsilonProvider
                if cfg.scheme == "sea"
                else AdaptiveEpsilonProvider
            )
            return provider_cls(
                scheme=plan.scheme,
                a_row_norms=enc_a.norms,
                b_col_norms=enc_b.norms,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                inner_dim=plan.n,
            )
        return ConstantEpsilonProvider(float(cfg.fixed_epsilon))

    def _check(
        self, c_fc: np.ndarray, plan: ExecutionPlan, provider
    ) -> CheckReport:
        """Vectorised full check through :func:`decide_checks`.

        An A-ABFT product is tested against its certified lower grids
        first; its exact grids are built only when a discrepancy fails
        that test.  Other providers decide on their exact grids, and one
        without an array form falls back to the scalar path.
        """
        staged = grids = None
        if isinstance(provider, AABFTEpsilonProvider):
            staged = provider.tolerance_grids(pool=plan.pool)
        if staged is not None:
            lower, exact = staged.lower(), staged.exact
        else:
            grids = self._provider_grids(provider, plan)
            if grids is None:
                self._m_decided["exact"].inc()
                return check_partitioned(
                    c_fc, plan.row_layout, plan.col_layout, provider
                )
            lower, exact = None, lambda: grids
        (report,), by_lower = decide_checks(
            lambda: (
                column_discrepancies(c_fc, plan.row_layout),
                row_discrepancies(c_fc, plan.col_layout),
            ),
            lower,
            exact,
            plan.row_layout,
            plan.col_layout,
        )
        self._m_decided["lower_bound" if by_lower else "exact"].inc()
        # Reports keep only the discrepancy arrays (and scalar epsilons on
        # findings), so the scratch and tolerance grids recycle.
        if staged is not None:
            staged.release()
        else:
            plan.pool.give(grids[0])
            plan.pool.give(grids[1])
        return report

    def _provider_grids(self, provider, plan: ExecutionPlan):
        """The provider's dense tolerance grids, or ``None`` without them.

        Shared by :meth:`_check` and the fused online path, which needs
        the grids *before* the multiply runs (the per-tile checks consume
        them in-loop).  Every provider :meth:`_make_provider` builds takes
        the plan's pool for its scratch grids.
        """
        return provider.epsilon_grids(
            plan.row_layout, plan.col_layout, pool=plan.pool
        )

    def _fused_multiply_check(
        self,
        plan: ExecutionPlan,
        cfg: AbftConfig,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        col_eps: np.ndarray,
        row_eps: np.ndarray,
    ) -> tuple[np.ndarray, CheckReport, str, str | None, float, float]:
        """One fused online multiply+check against its tolerance grids.

        Runs the tile loop on the plan's backend through :meth:`_dispatch`
        and builds the canonical report.  Returns ``(c_fc, report,
        backend_used, fallback_text, multiply_seconds, check_seconds)``:
        the kernel self-times its in-loop checks, so what is left of the
        loop's wall time is the multiply.  Shared by :meth:`_run` and the
        pipelined executor's fused chunks.
        """
        hook = self._chaos_hook
        inject_hook = None
        if hook is not None:
            def inject_hook(tile_index, attempt, tile_view):
                hook(
                    "tile_result",
                    tile_index=tile_index,
                    attempt=attempt,
                    c_tile=tile_view,
                )

        # _dispatch sees only the result array (the ``result`` hook's
        # argument); the run it kept is the last outcome recorded here.
        # Every tile GEMM runs on the backend _dispatch names, so a
        # backend that raises mid-loop reruns the whole loop on numpy.
        outcomes: list[OnlineFusedOutcome] = []

        def compute(backend_name: str) -> np.ndarray:
            outcomes.append(
                online_fused_matmul(
                    a_arr,
                    b_arr,
                    row_layout=plan.row_layout,
                    col_layout=plan.col_layout,
                    col_eps=col_eps,
                    row_eps=row_eps,
                    tile_blocks=cfg.fused_tile_blocks,
                    pool=plan.pool,
                    inject_hook=inject_hook,
                    matmul=self._backends.get(backend_name).matmul,
                )
            )
            return outcomes[-1].out

        t0 = time.perf_counter()
        c_fc, used, fallback_text = self._dispatch(plan, compute)
        t1 = time.perf_counter()
        outcome = outcomes[-1]
        self._m_fused_calls.inc()
        self._m_decided["exact"].inc()
        self._m_fused_tiles.inc(outcome.tiles_checked)
        if outcome.recomputed_tiles:
            self._m_fused_recomputes.inc(len(outcome.recomputed_tiles))
        if outcome.early_abort:
            self._m_fused_aborts.inc()
        report = self._fused_report(outcome, col_eps, row_eps, plan)
        check_s = outcome.check_seconds + (time.perf_counter() - t1)
        mul_s = max(0.0, t1 - t0 - outcome.check_seconds)
        return c_fc, report, used, fallback_text, mul_s, check_s

    def _fused_report(
        self,
        outcome: OnlineFusedOutcome,
        col_eps: np.ndarray,
        row_eps: np.ndarray,
        plan: ExecutionPlan,
    ) -> CheckReport:
        """Build the canonical check report from a fused online outcome.

        The clean fast path reuses the kernel's per-tile discrepancy
        accumulators directly — they are bitwise equal to
        :func:`~repro.abft.checking.column_discrepancies` /
        :func:`~repro.abft.checking.row_discrepancies` of the full result.
        After an early abort (tiles past the failure were never checked)
        or whenever a chaos hook is installed (the ``result`` hook may
        have mutated ``c_fc`` after the in-loop checks ran), the full
        grids are recomputed from the final bytes so the report stays the
        separate path's canonical oracle.
        """
        if outcome.early_abort or self._chaos_hook is not None:
            col_disc = column_discrepancies(outcome.out, plan.row_layout)
            row_disc = row_discrepancies(outcome.out, plan.col_layout)
        else:
            col_disc = outcome.col_disc
            row_disc = outcome.row_disc
        return check_grids(
            col_disc, col_eps, row_disc, row_eps,
            plan.row_layout, plan.col_layout,
        )


def _quantize_data_region(
    c_fc: np.ndarray, plan: ExecutionPlan, storage_dtype: np.dtype
) -> None:
    """Round-trip the result's data region through the storage dtype.

    Only elements at (data row, data column) positions quantise — they are
    what low-precision hardware would write back; checksum rows/columns
    are the float32-accumulated ABFT side values and keep full compute
    precision.  Mutates ``c_fc`` in place.
    """
    rows = plan.row_layout.all_data_indices()
    cols = plan.col_layout.all_data_indices()
    region = c_fc[np.ix_(rows, cols)]
    c_fc[np.ix_(rows, cols)] = region.astype(storage_dtype).astype(c_fc.dtype)


def _aabft_provider(
    cfg: AbftConfig, plan: ExecutionPlan, row_tops, col_tops
) -> AABFTEpsilonProvider:
    """The A-ABFT provider of one product from stacked top-p data.

    ``row_tops`` / ``col_tops`` are the ``(values, indices)`` top-p arrays
    of the encoded left rows and right columns.  Array-native: they feed
    the vectorised grids directly, and per-vector ``TopP`` objects are
    only materialised if a scalar re-check asks.  Shared by
    :meth:`MatmulEngine._make_provider` and the pipelined executor.
    """
    return AABFTEpsilonProvider.from_arrays(
        scheme=plan.scheme,
        row_values=row_tops[0],
        row_indices=row_tops[1],
        col_values=col_tops[0],
        col_indices=col_tops[1],
        row_layout=plan.row_layout,
        col_layout=plan.col_layout,
        inner_dim=plan.n,
        epsilon_floor=cfg.epsilon_floor,
    )


def _operand_dtype(operand) -> np.dtype:
    if isinstance(operand, EncodedOperand):
        return operand.dtype
    return np.asarray(operand).dtype


_default_engine: MatmulEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> MatmulEngine:
    """The module-level engine the classic matmul functions route through.

    Created lazily on first use; shared by every
    :func:`~repro.abft.multiply.aabft_matmul` /
    :func:`~repro.abft.multiply.sea_abft_matmul` /
    :func:`~repro.abft.multiply.fixed_abft_matmul` call, so repeated
    same-shape calls amortise their plans even through the classic API.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = MatmulEngine()
        return _default_engine
