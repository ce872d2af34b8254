"""The micro-batching request scheduler for protected multiplications.

:class:`MatmulServer` is the serving layer in front of
:class:`~repro.engine.engine.MatmulEngine`: it accepts protected-matmul
requests concurrently, coalesces same-shape/same-config requests into
micro-batches and executes each batch through the engine's batched path,
returning responses via futures.

Scheduling behaviour (all knobs on :class:`~repro.serve.config.ServeConfig`):

* **bounded admission queue** — submissions beyond ``max_queue_depth``
  are rejected *immediately* with an explicit reason instead of growing
  the queue without bound (backpressure the caller can see and count);
* **micro-batch coalescing** — the dispatcher groups compatible requests
  arriving within ``batch_window_s`` (up to ``max_batch_size``) and runs
  them as one :meth:`~repro.engine.engine.MatmulEngine.execute_batch`
  call under the config's :class:`~repro.engine.policy.ExecutionPolicy`
  (mode ``auto`` by default, so batches ride the stage-pipelined executor
  when its preconditions hold), amortising encode/check overhead across
  the batch;
* **deadline degradation ladder** — requests under deadline pressure are
  served at progressively cheaper protection levels (full → SEA →
  unchecked), walking the ladder strictly in order; the delivered level
  is always recorded on the response (verification is never silently
  dropped);
* **retry-on-detect** — a detected error triggers ABFT single-error
  correction when locatable, else recomputation, before the response is
  released;
* **failure isolation** — a micro-batch the engine raises for is re-run
  one request at a time, so only the offending request fails.

Every decision is metered through ``abft_serve_*`` metrics (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..abft.correction import correct_single_error
from ..abft.encoding import strip_data_columns, strip_data_rows, strip_encoding
from ..engine.config import AbftConfig
from ..engine.engine import EncodedOperand, MatmulEngine, _operand_dtype
from ..errors import ConfigurationError, CorrectionError
from ..telemetry import MetricsRegistry, get_registry, span
from .config import ServeConfig, rung_for_fraction
from .request import (
    MatmulRequest,
    MatmulResponse,
    ModelRequest,
    ModelResponse,
    VerificationStatus,
)

__all__ = ["MatmulServer"]

#: Batch-size histogram buckets (requests per micro-batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass
class _Pending:
    """One admitted request waiting for (or undergoing) execution."""

    request: MatmulRequest
    future: Future
    config: AbftConfig
    key: tuple
    enqueue_t: float
    deadline_total: float | None
    deadline_at: float | None


def _operand_shape(operand) -> tuple[int, int]:
    if isinstance(operand, EncodedOperand):
        return operand.shape
    return np.asarray(operand).shape


def _raw_operand(operand) -> np.ndarray:
    """The un-encoded data of an operand (for the unchecked rung).

    Uses the block-view strips instead of fancy-index gathers — under
    deadline pressure this path runs once per degraded request, so it
    should not cost more than the multiply it feeds.
    """
    if not isinstance(operand, EncodedOperand):
        return np.asarray(operand)
    if operand.side == "a":
        data = strip_data_rows(operand.array, operand.layout)
        return data[: operand.shape[0], :]
    data = strip_data_columns(operand.array, operand.layout)
    return data[:, : operand.shape[1]]


class MatmulServer:
    """Accepts concurrent protected-matmul requests, serves micro-batches.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.config.ServeConfig`; defaults apply.
    engine:
        The :class:`~repro.engine.engine.MatmulEngine` to execute on.  By
        default the server builds one from ``config.abft`` sharing the
        server's registry, so engine and serve metrics land in one scrape.
    registry:
        Target :class:`~repro.telemetry.MetricsRegistry`; defaults to the
        process-wide :func:`~repro.telemetry.get_registry`.
    auto_start:
        Start the dispatcher thread on the first submission (default).
        Pass ``False`` to queue submissions first and start explicitly —
        deterministic full-batch coalescing, useful in tests.
    clock:
        Monotonic time source (injectable for deterministic deadline
        tests).

    Thread safety: :meth:`submit` may be called from any number of
    threads; responses resolve on the dispatcher thread.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        engine: MatmulEngine | None = None,
        registry: MetricsRegistry | None = None,
        auto_start: bool = True,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if not isinstance(self.config, ServeConfig):
            raise TypeError(
                f"config must be a ServeConfig, got {type(self.config).__name__}"
            )
        self.registry = registry if registry is not None else get_registry()
        self.engine = (
            engine
            if engine is not None
            else MatmulEngine(self.config.abft, registry=self.registry)
        )
        self._auto_start = auto_start
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: deque[_Pending] = deque()
        self._inflight = 0
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._accepting = True
        self._stopped = False

        reg = self.registry
        self._m_requests = reg.counter(
            "abft_serve_requests_total",
            "Requests by final outcome (completed / rejected)",
            ("outcome",),
        )
        self._m_rejections = reg.counter(
            "abft_serve_rejections_total",
            "Explicitly rejected requests by reason",
            ("reason",),
        )
        self._m_degradations = reg.counter(
            "abft_serve_degradations_total",
            "Responses served below full protection, by ladder rung",
            ("rung",),
        )
        self._m_retries = reg.counter(
            "abft_serve_retries_total",
            "Detected-error recoveries by kind (corrected / recomputed)",
            ("kind",),
        )
        self._m_detections = reg.counter(
            "abft_serve_detections_total",
            "Served batches' results whose initial check flagged an error",
        )
        self._m_dropped = reg.counter(
            "abft_serve_dropped_total",
            "Requests that died without a response (must stay 0)",
        )
        self._m_batches = reg.counter(
            "abft_serve_batches_total", "Micro-batches dispatched"
        )
        self._g_depth = reg.gauge(
            "abft_serve_queue_depth", "Current admission-queue depth"
        )
        self._h_batch = reg.histogram(
            "abft_serve_batch_size",
            "Requests coalesced per micro-batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._h_wait = reg.histogram(
            "abft_serve_queue_wait_seconds",
            "Seconds between admission and dispatch",
        )
        self._h_latency = reg.histogram(
            "abft_serve_latency_seconds",
            "End-to-end seconds from admission to response",
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(
        self,
        a,
        b,
        *,
        config: AbftConfig | None = None,
        deadline_s: float | None = None,
        request_id: str | None = None,
        backend: str | None = None,
    ) -> Future:
        """Submit one multiplication; returns a future of the response.

        Never blocks and never raises for capacity: over-capacity and
        post-shutdown submissions resolve immediately to a ``REJECTED``
        response with an explicit reason — including an unknown
        ``backend`` pin (``"invalid_backend"``).
        """
        return self.submit_request(
            MatmulRequest(
                a=a,
                b=b,
                config=config,
                deadline_s=deadline_s,
                request_id=request_id,
                backend=backend,
            )
        )

    def submit_request(self, request: MatmulRequest) -> Future:
        """Admit a :class:`~repro.serve.request.MatmulRequest`."""
        fut: Future = Future()
        cfg = self.config
        abft_cfg = request.config if request.config is not None else cfg.abft
        try:
            abft_cfg = self._merge_backend_choice(request, abft_cfg)
        except ConfigurationError:
            with self._cond:
                self._seq += 1
                if request.request_id is None:
                    request.request_id = f"r{self._seq}"
            self._resolve_rejection(fut, request.request_id, "invalid_backend")
            return fut
        now = self._clock()
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else cfg.default_deadline_s
        )
        reject_reason = None
        with self._cond:
            self._seq += 1
            if request.request_id is None:
                request.request_id = f"r{self._seq}"
            request_id = request.request_id
            if not self._accepting:
                reject_reason = "shutdown"
            elif len(self._queue) >= cfg.max_queue_depth:
                reject_reason = "queue_full"
            else:
                pending = _Pending(
                    request=request,
                    future=fut,
                    config=abft_cfg,
                    key=self._group_key(request, abft_cfg),
                    enqueue_t=now,
                    deadline_total=deadline_s,
                    deadline_at=None if deadline_s is None else now + deadline_s,
                )
                self._queue.append(pending)
                self._g_depth.set(len(self._queue))
                if self._auto_start and self._thread is None:
                    self._start_locked()
                self._cond.notify_all()
        if reject_reason is not None:
            self._resolve_rejection(fut, request_id, reject_reason)
        return fut

    def submit_model(self, request: ModelRequest) -> Future:
        """Submit a model-inference request; returns a future of the response.

        The pass executes on a dedicated thread (model runs are multi-layer
        and would head-of-line-block the matmul micro-batcher), through a
        :class:`~repro.models.runner.ModelRunner` sharing this server's
        engine and registry — so ``abft_model_*`` metrics land in the same
        scrape as ``abft_serve_*``.

        Deadline handling is **per layer**: before each layer dispatches,
        the remaining-deadline fraction walks the server's degradation
        ladder, capping that layer's planned protection rung.  A pass that
        outlives its deadline finishes at the ``unchecked`` rung rather
        than dying mid-model; every below-plan layer is named on
        :attr:`~repro.serve.request.ModelResponse.degraded_layers` and the
        response status reflects it — never silent.
        """
        if not isinstance(request, ModelRequest):
            raise TypeError(
                f"request must be a ModelRequest, got "
                f"{type(request).__name__}"
            )
        fut: Future = Future()
        with self._cond:
            self._seq += 1
            if request.request_id is None:
                request.request_id = f"m{self._seq}"
            accepting = self._accepting
        if not accepting:
            self._resolve_model_rejection(fut, request.request_id, "shutdown")
            return fut
        enqueue_t = self._clock()
        thread = threading.Thread(
            target=self._run_model,
            args=(request, fut, enqueue_t),
            name=f"abft-serve-model-{request.request_id}",
            daemon=True,
        )
        thread.start()
        return fut

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._cond:
            self._start_locked()

    @property
    def started(self) -> bool:
        return self._thread is not None

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the server.

        New submissions are rejected (reason ``"shutdown"``) immediately.
        With ``drain=True`` (default) queued and in-flight work is served
        first, waiting up to ``timeout`` (default
        ``config.drain_timeout_s``); anything still queued afterwards — or
        everything, with ``drain=False`` — resolves as rejected with
        reason ``"shutdown"``.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        with self._cond:
            self._accepting = False
            self._cond.notify_all()
            if drain and self._thread is not None:
                self._cond.wait_for(
                    lambda: not self._queue and self._inflight == 0,
                    timeout=timeout,
                )
            self._stopped = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._g_depth.set(0)
            self._cond.notify_all()
            thread = self._thread
        for pending in leftovers:
            self._resolve_rejection(
                pending.future,
                pending.request.request_id or "r?",
                "shutdown",
                queue_wait_s=self._clock() - pending.enqueue_t,
            )
        if thread is not None:
            thread.join(timeout=timeout)

    def __enter__(self) -> "MatmulServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _start_locked(self) -> None:
        if self._thread is not None or self._stopped:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="abft-serve-dispatch", daemon=True
        )
        self._thread.start()

    def _merge_backend_choice(
        self, request: MatmulRequest, abft_cfg: AbftConfig
    ) -> AbftConfig:
        """Apply a request's backend pin to its effective config.

        Raises :class:`~repro.errors.ConfigurationError` for an unknown
        pinned backend name — the caller turns that into an
        ``"invalid_backend"`` rejection.  A known-but-unavailable pin is
        *not* rejected here: the engine's negotiation falls back to numpy
        and records why on the result.
        """
        if request.backend is None:
            return abft_cfg
        if request.backend not in self.engine.backends:
            raise ConfigurationError(
                f"unknown backend {request.backend!r}; registered: "
                f"{', '.join(self.engine.backends.names())}"
            )
        return abft_cfg.replace(backend=request.backend)

    def _group_key(self, request: MatmulRequest, abft_cfg: AbftConfig) -> tuple:
        return (
            _operand_shape(request.a),
            _operand_shape(request.b),
            str(_operand_dtype(request.a)),
            str(_operand_dtype(request.b)),
            abft_cfg,
        )

    def _dispatch_loop(self) -> None:
        cfg = self.config
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                head = self._queue[0]
                window_end = head.enqueue_t + cfg.batch_window_s
                # Coalesce: wait out the window for same-key followers.
                while not self._stopped:
                    same = sum(1 for p in self._queue if p.key == head.key)
                    if same >= cfg.max_batch_size:
                        break
                    remaining = window_end - self._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = []
                rest: deque[_Pending] = deque()
                for p in self._queue:
                    if p.key == head.key and len(batch) < cfg.max_batch_size:
                        batch.append(p)
                    else:
                        rest.append(p)
                self._queue = rest
                self._inflight += len(batch)
                self._g_depth.set(len(self._queue))
            try:
                self._execute_batch(batch)
            finally:
                with self._cond:
                    self._inflight -= len(batch)
                    self._cond.notify_all()

    def _execute_batch(self, batch: list[_Pending]) -> None:
        cfg = self.config
        now = self._clock()
        self._m_batches.inc()
        self._h_batch.observe(len(batch))
        waits = {}
        for p in batch:
            waits[id(p)] = wait = now - p.enqueue_t
            self._h_wait.observe(wait)

        groups: dict[int, list[_Pending]] = {}
        for p in batch:
            rung, expired = self._rung_at(p, now)
            if expired and cfg.reject_expired:
                self._resolve_rejection(
                    p.future,
                    p.request.request_id or "r?",
                    "deadline",
                    queue_wait_s=waits[id(p)],
                )
                continue
            groups.setdefault(rung, []).append(p)

        for rung in sorted(groups):
            self._serve_group(groups[rung], rung, waits)

    def _serve_group(
        self, pendings: list[_Pending], rung: int, waits: dict
    ) -> None:
        """Run one rung group; a raising group never fails its bystanders.

        One request the engine rejects (an Inf operand has no finite
        tolerance bound) raises for its whole micro-batch.  A raising
        group of several requests is therefore re-run one request at a
        time, so only the offender fails.  A failure is never stranded:
        the future raises and the drop is counted so CI can gate on it.
        """
        try:
            self._run_group(pendings, rung, waits)
        except Exception as exc:
            unresolved = [p for p in pendings if not p.future.done()]
            if len(pendings) > 1:
                for p in unresolved:
                    self._serve_group([p], rung, waits)
                return
            for p in unresolved:
                self._m_dropped.inc()
                p.future.set_exception(exc)

    def _rung_at(self, pending: _Pending, now: float) -> tuple[int, bool]:
        """Ladder rung for a pending request at dispatch time."""
        if pending.deadline_at is None:
            return 0, False
        remaining = pending.deadline_at - now
        last = len(self.config.degradation_ladder) - 1
        if remaining <= 0:
            return last, True
        fraction = remaining / pending.deadline_total
        rung = rung_for_fraction(fraction, self.config.degrade_fractions)
        return min(rung, last), False

    def _run_group(
        self, pendings: list[_Pending], rung: int, waits: dict
    ) -> None:
        cfg = self.config
        rung_name = cfg.rung_name(rung)
        t0 = self._clock()
        with span("serve.batch", self.registry, rung=rung_name):
            if rung_name == "unchecked":
                outcomes = [
                    self._run_unchecked(p) for p in pendings
                ]
            else:
                outcomes = self._run_checked(pendings, rung_name)
        service_s = self._clock() - t0

        for p, response in zip(pendings, outcomes):
            wait = waits[id(p)]
            response.request_id = p.request.request_id or response.request_id
            response.queue_wait_s = wait
            response.service_s = service_s
            response.batch_size = len(pendings)
            if response.status is not VerificationStatus.FULL:
                self._m_degradations.labels(rung=rung_name).inc()
            self._m_requests.labels(outcome="completed").inc()
            self._h_latency.observe(wait + service_s)
            p.future.set_result(response)

    def _run_unchecked(self, pending: _Pending) -> MatmulResponse:
        c = _raw_operand(pending.request.a) @ _raw_operand(pending.request.b)
        return MatmulResponse(
            request_id=pending.request.request_id or "r?",
            status=VerificationStatus.UNCHECKED,
            c=c,
            report=None,
            scheme=None,
            backend="numpy",
        )

    def _run_checked(
        self, pendings: list[_Pending], rung_name: str
    ) -> list[MatmulResponse]:
        cfg = self.config
        eff = pendings[0].config
        status = VerificationStatus.FULL
        a_ops = [p.request.a for p in pendings]
        b_ops = [p.request.b for p in pendings]
        if rung_name != "full":
            eff = eff.replace(scheme=rung_name)
            status = VerificationStatus.DEGRADED
            # Handles were encoded for the requested scheme; the degraded
            # scheme needs its own preprocessing, so fall back to raw data.
            a_ops = [_raw_operand(a) for a in a_ops]
            b_ops = [_raw_operand(b) for b in b_ops]
        results = self.engine.execute_batch(
            list(zip(a_ops, b_ops)), policy=cfg.execution, config=eff
        )
        responses = []
        for p, a_op, b_op, result in zip(pendings, a_ops, b_ops, results):
            corrected = recomputed = False
            retries = 0
            if result.detected:
                self._m_detections.inc()
                with span("serve.retry", self.registry):
                    result, corrected, recomputed, retries = self._recover(
                        a_op, b_op, result, eff
                    )
            responses.append(
                MatmulResponse(
                    request_id=p.request.request_id or "r?",
                    status=status,
                    c=result.c,
                    report=result.report,
                    scheme=eff.scheme,
                    detected=result.detected and not corrected,
                    corrected=corrected,
                    recomputed=recomputed,
                    retries=retries,
                    backend=result.backend,
                    backend_fallback=result.backend_fallback,
                )
            )
        return responses

    def _recover(self, a_op, b_op, result, eff: AbftConfig):
        """Correct or recompute a detected-error result.

        Returns ``(final_result, corrected, recomputed, retries)``.  A
        successful ABFT correction returns a patched result carrying the
        corrected data together with the *original* detection report (kept
        for diagnosis); a successful recomputation returns the fresh,
        clean result.  If every attempt still detects, the last dirty
        result comes back so the response carries ``detected=True``.
        """
        cfg = self.config
        if cfg.correct_detected and len(result.report.located_errors) == 1:
            try:
                correction = correct_single_error(
                    result.c_fc,
                    result.report,
                    result.row_layout,
                    result.col_layout,
                    result.provider,
                    verify=True,
                )
            except CorrectionError:
                pass
            else:
                rows_added = result.row_layout.data_rows - result.c.shape[0]
                cols_added = result.col_layout.data_rows - result.c.shape[1]
                c = strip_encoding(
                    correction.corrected,
                    result.row_layout,
                    result.col_layout,
                    rows_added,
                    cols_added,
                ).astype(result.c.dtype, copy=False)
                patched = type(result)(
                    c=c,
                    c_fc=correction.corrected,
                    report=result.report,
                    row_layout=result.row_layout,
                    col_layout=result.col_layout,
                    provider=result.provider,
                    backend=result.backend,
                    backend_fallback=result.backend_fallback,
                )
                self._m_retries.labels(kind="corrected").inc()
                return patched, True, False, 0
        retries = 0
        final = result
        while retries < cfg.max_retries:
            retries += 1
            self._m_retries.labels(kind="recomputed").inc()
            final = self.engine.matmul(a_op, b_op, config=eff)
            if not final.detected:
                return final, False, True, retries
        return final, False, False, retries

    def _model_runner(self):
        """The lazily-built model runner sharing engine and registry."""
        from ..models.runner import ModelRunner

        with self._cond:
            runner = getattr(self, "_model_runner_obj", None)
            if runner is None:
                runner = ModelRunner(self.engine, registry=self.registry)
                self._model_runner_obj = runner
        return runner

    def _run_model(self, request: ModelRequest, fut: Future, enqueue_t: float):
        from ..models.planner import ProtectionPlanner

        cfg = self.config
        try:
            plan = request.plan
            if plan is None:
                plan = ProtectionPlanner(cfg.abft).plan(request.model)
            deadline_total = request.deadline_s
            deadline_at = (
                None
                if deadline_total is None
                else enqueue_t + deadline_total
            )

            def rung_cap(index, assignment):
                """Per-layer ladder walk from remaining deadline budget."""
                if deadline_at is None:
                    return "full"
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    return "unchecked"
                rung = rung_for_fraction(
                    remaining / deadline_total, cfg.degrade_fractions
                )
                return cfg.rung_name(rung)

            t0 = self._clock()
            result = self._model_runner().run(
                request.model,
                plan,
                request.inputs,
                seed=request.seed,
                rung_cap=rung_cap,
            )
            service_s = self._clock() - t0
            degraded = tuple(
                layer.layer for layer in result.layers if layer.degraded
            )
            for layer in result.layers:
                if layer.degraded:
                    self._m_degradations.labels(rung=layer.rung).inc()
            if any(layer.protected for layer in result.layers):
                status = (
                    VerificationStatus.DEGRADED
                    if degraded
                    else VerificationStatus.FULL
                )
            else:
                status = VerificationStatus.UNCHECKED
            self._m_requests.labels(outcome="completed").inc()
            self._h_latency.observe((t0 - enqueue_t) + service_s)
            fut.set_result(
                ModelResponse(
                    request_id=request.request_id or "m?",
                    status=status,
                    output=result.output,
                    result=result,
                    detected=result.detected,
                    degraded_layers=degraded,
                    queue_wait_s=t0 - enqueue_t,
                    service_s=service_s,
                )
            )
        except Exception as exc:
            # A runner bug must never strand the caller.
            if not fut.done():
                self._m_dropped.inc()
                fut.set_exception(exc)

    def _resolve_model_rejection(
        self, fut: Future, request_id: str, reason: str
    ) -> None:
        self._m_rejections.labels(reason=reason).inc()
        self._m_requests.labels(outcome="rejected").inc()
        fut.set_result(
            ModelResponse(
                request_id=request_id,
                status=VerificationStatus.REJECTED,
                rejected_reason=reason,
            )
        )

    def _resolve_rejection(
        self,
        fut: Future,
        request_id: str,
        reason: str,
        queue_wait_s: float = 0.0,
    ) -> None:
        self._m_rejections.labels(reason=reason).inc()
        self._m_requests.labels(outcome="rejected").inc()
        fut.set_result(
            MatmulResponse(
                request_id=request_id,
                status=VerificationStatus.REJECTED,
                rejected_reason=reason,
                queue_wait_s=queue_wait_s,
            )
        )
