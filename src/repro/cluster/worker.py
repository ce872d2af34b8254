"""The cluster worker process: one serving shard behind a queue pair.

Each worker runs a full single-process serving stack — its own
:class:`~repro.engine.engine.MatmulEngine` (plan cache, workspace pools,
backend negotiation) inside its own
:class:`~repro.serve.server.MatmulServer` (admission queue,
micro-batching, degradation ladder) — and speaks a tiny envelope
protocol with the frontend over a pair of ``multiprocessing`` queues:

* inbound ``("req", seq, request_id, payload_a, payload_b, config,
  deadline_s, backend)`` envelopes, or ``None`` to drain and exit;
* outbound ``("res", seq, MatmulResponse)`` results, ``("err", seq,
  message)`` for requests that died inside the worker, periodic
  ``("hb", shard, incarnation, info)`` heartbeats, and a final
  ``("bye", shard, incarnation)`` on graceful shutdown.

Operand payloads are decoded through
:class:`~repro.cluster.transport.OperandReceiver`, so shared-memory
operands become zero-copy read-only views.  The worker's metrics live in
a private registry that dies with the process — the frontend mirrors the
``abft_serve_*`` counter movement from delivered responses, which is what
keeps cluster-level reconciliation loss-proof under worker death.

``worker_main`` must stay importable at module top level: the ``spawn``
start method pickles the entry point by qualified name.
"""

from __future__ import annotations

import threading

from ..backends.autotune import AutotuneCache, Autotuner
from ..engine.engine import MatmulEngine
from ..serve.server import MatmulServer
from ..telemetry import MetricsRegistry
from .config import ClusterConfig
from .transport import OperandReceiver

__all__ = ["worker_main"]


def _deliver(response_q, seq: int, fut) -> None:
    """Ship one resolved future back to the frontend (never strand it)."""
    try:
        response = fut.result()
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        response_q.put(("err", seq, repr(exc)))
        return
    try:
        response_q.put(("res", seq, response))
    except Exception as exc:  # unpicklable response, broken pipe, ...
        try:
            response_q.put(("err", seq, f"response transport failed: {exc!r}"))
        except Exception:
            pass


def worker_main(
    shard_id: int,
    incarnation: int,
    config: ClusterConfig,
    request_q,
    response_q,
) -> None:
    """Serve one shard until the ``None`` sentinel arrives.

    Runs as the target of a worker :class:`multiprocessing.Process`.
    """
    registry = MetricsRegistry()
    autotuner = None
    if config.autotune_cache is not None:
        # Every shard shares the frontend-designated on-disk cache, so a
        # winner tuned by any worker is inherited by all of them.
        autotuner = Autotuner(
            AutotuneCache(config.autotune_cache), metrics_registry=registry
        )
    engine = MatmulEngine(
        config.serve.abft, registry=registry, autotuner=autotuner
    )
    server = MatmulServer(config.serve, engine=engine, registry=registry)
    receiver = OperandReceiver()
    stop = threading.Event()

    def _heartbeat() -> None:
        while not stop.wait(config.heartbeat_interval_s):
            try:
                response_q.put(
                    (
                        "hb",
                        shard_id,
                        incarnation,
                        {"queue_depth": server.queue_depth},
                    )
                )
            except Exception:
                return

    beat = threading.Thread(
        target=_heartbeat, name=f"cluster-hb-{shard_id}", daemon=True
    )
    beat.start()

    try:
        while True:
            envelope = request_q.get()
            if envelope is None:
                break
            (
                _kind,
                seq,
                request_id,
                payload_a,
                payload_b,
                abft_config,
                deadline_s,
                backend,
            ) = envelope
            try:
                a = receiver.fetch(payload_a)
                b = receiver.fetch(payload_b)
            except Exception as exc:
                response_q.put(("err", seq, f"operand fetch failed: {exc!r}"))
                continue
            fut = server.submit(
                a,
                b,
                config=abft_config,
                deadline_s=deadline_s,
                request_id=request_id,
                backend=backend,
            )
            fut.add_done_callback(
                lambda f, seq=seq: _deliver(response_q, seq, f)
            )
    finally:
        stop.set()
        # Drain: every admitted request resolves (served, or rejected with
        # reason "shutdown") and its response ships before the process exits.
        server.stop(drain=True)
        receiver.close()
        try:
            response_q.put(("bye", shard_id, incarnation))
        except Exception:
            pass
