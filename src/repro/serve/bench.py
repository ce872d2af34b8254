"""The serving layer's throughput benchmark (shared by CLI and script).

Measures the micro-batching server against a serial one-request-at-a-time
loop over the **same** workload — the shared-weight serving pattern (one
``m x n`` weight matrix against many ``n x q`` activations) where the
serial path re-encodes the weight on every request while the batched
dispatch encodes it once and amortises the tolerance grids.

The served measurement runs once per execution policy (by default only
the stage-pipelined ``pipelined`` mode, dispatched through
``MatmulEngine.execute_batch`` under the server's
:class:`~repro.engine.policy.ExecutionPolicy`).  The payload reports each
policy row plus the pipelined executor's bubble fraction read from
``abft_pipeline_bubble_fraction``.

With ``cluster_workers`` set, the payload additionally carries a
``cluster`` section: the same workload pushed at ``cluster_concurrency``
(default 256) through a sharded multi-process
:class:`~repro.cluster.frontend.ClusterFrontend` next to a
single-process pipelined server at the *same* concurrency, with the
throughput ratio recorded.  The ratio is hardware-sensitive — the
cluster's win comes from true process parallelism, so single-CPU hosts
land near parity (``host_cpus`` is recorded alongside for context).

:func:`run_serve_benchmark` returns a JSON-friendly payload (what
``BENCH_serve.json`` holds); :func:`compare_to_baseline` implements the
CI smoke check against the committed baseline.  Both
``benchmarks/bench_serve_throughput.py`` and ``aabft bench`` are thin
wrappers over this module.

Every served result is verified bitwise against its serial counterpart —
the speedup never comes at the cost of a different answer.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from ..engine import AbftConfig, ExecutionPolicy, MatmulEngine
from ..telemetry import MetricsRegistry
from .config import ServeConfig
from .loadgen import percentile
from .request import VerificationStatus
from .server import MatmulServer

__all__ = ["run_serve_benchmark", "compare_to_baseline", "default_baseline_path"]


def default_baseline_path() -> Path:
    """``BENCH_serve.json`` from the cwd, else next to the package."""
    cwd_candidate = Path.cwd() / "BENCH_serve.json"
    if cwd_candidate.exists():
        return cwd_candidate
    return Path(__file__).resolve().parents[3] / "BENCH_serve.json"

#: Default workload: one shared 256x256 weight against 256x16 activations —
#: the shape regime where per-request overhead dominates BLAS time.
M, N, Q = 256, 256, 16
REQUESTS = 256
QUICK_REQUESTS = 64
CONCURRENCY = 32
SPEEDUP_FLOOR = 2.0
#: Policy rows measured by default; the last is primary.
DEFAULT_POLICIES = ("pipelined",)
#: Cluster section defaults: the high-concurrency regime where one
#: process saturates and sharding should take over.
CLUSTER_CONCURRENCY = 256
CLUSTER_WORKERS = 2


def _run_served(
    a: np.ndarray,
    bs: list[np.ndarray],
    config: AbftConfig,
    concurrency: int,
    mode: str,
    serial_results: list,
    registry: MetricsRegistry | None,
) -> dict:
    """One served measurement under one execution mode."""
    serve_cfg = ServeConfig(
        abft=config,
        execution=ExecutionPolicy(mode=mode),
        max_batch_size=concurrency,
        max_queue_depth=max(256, 2 * concurrency),
    )
    kwargs = {} if registry is None else {"registry": registry}
    requests = len(bs)
    latencies: list[float] = []

    def _on_done(fut: Future, t0: float) -> None:
        latencies.append(time.perf_counter() - t0)

    with MatmulServer(serve_cfg, **kwargs) as server:
        server.engine.matmul(a, bs[0])  # warm the plan
        responses: list[Future] = []
        outstanding: deque = deque()
        start = time.perf_counter()
        submitted = 0
        while submitted < requests or outstanding:
            while submitted < requests and len(outstanding) < concurrency:
                t0 = time.perf_counter()
                fut = server.submit(a, bs[submitted], request_id=f"b{submitted}")
                fut.add_done_callback(lambda f, t0=t0: _on_done(f, t0))
                outstanding.append(fut)
                responses.append(fut)
                submitted += 1
            outstanding.popleft().result(timeout=120.0)
        serve_seconds = time.perf_counter() - start
        bubble = server.engine.registry.gauge(
            "abft_pipeline_bubble_fraction"
        ).get()

    # --- correctness: served bitwise equal to serial, fully verified ----
    max_batch = 0
    for i, (fut, ref) in enumerate(zip(responses, serial_results)):
        response = fut.result()
        assert response.status is VerificationStatus.FULL, (
            f"[{mode}] request {i} served {response.status.value}, "
            f"expected full"
        )
        assert np.array_equal(response.c, ref.c), (
            f"[{mode}] request {i} diverged"
        )
        max_batch = max(max_batch, response.batch_size)
    assert max_batch > 1, f"[{mode}] no micro-batch formed under load"

    latencies.sort()
    return {
        "mode": mode,
        "serve_seconds": serve_seconds,
        "serve_throughput_rps": requests / serve_seconds,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "max_batch_size": max_batch,
        "bubble_fraction": bubble,
    }


def _run_cluster(
    a: np.ndarray,
    bs: list[np.ndarray],
    config: AbftConfig,
    concurrency: int,
    workers: int,
    serial_results: list,
) -> dict:
    """One served measurement through a sharded multi-process cluster."""
    from ..cluster import ClusterConfig, ClusterFrontend

    worker_cfg = ServeConfig(
        abft=config,
        execution=ExecutionPolicy(mode="pipelined"),
        # Smaller per-worker batches keep every shard's pipeline busy
        # instead of one shard barriering on a giant batch.
        max_batch_size=max(8, concurrency // (4 * workers)),
        max_queue_depth=max(256, 2 * concurrency),
    )
    cluster_cfg = ClusterConfig(
        serve=worker_cfg,
        num_workers=workers,
        # The whole workload shares one plan key; a spill bound of a
        # 1/workers share of the window spreads it across every shard.
        spill_queue_depth=max(1, concurrency // (2 * workers)),
        max_shard_inflight=max(512, 2 * concurrency),
    )
    requests = len(bs)
    latencies: list[float] = []

    def _on_done(fut: Future, t0: float) -> None:
        latencies.append(time.perf_counter() - t0)

    frontend = ClusterFrontend(cluster_cfg, registry=MetricsRegistry())
    try:
        frontend.wait_ready(timeout=120.0)
        # Warm every shard's plan cache: one untimed full-concurrency
        # wave (the load-bounded ring walk spreads the single hot plan
        # key across all shards).
        warm = [
            frontend.submit(a, bs[i % requests], request_id=f"warm{i}")
            for i in range(min(requests, concurrency))
        ]
        for fut in warm:
            fut.result(timeout=120.0)
        responses: list[Future] = []
        outstanding: deque = deque()
        start = time.perf_counter()
        submitted = 0
        while submitted < requests or outstanding:
            while submitted < requests and len(outstanding) < concurrency:
                t0 = time.perf_counter()
                fut = frontend.submit(a, bs[submitted], request_id=f"c{submitted}")
                fut.add_done_callback(lambda f, t0=t0: _on_done(f, t0))
                outstanding.append(fut)
                responses.append(fut)
                submitted += 1
            outstanding.popleft().result(timeout=120.0)
        cluster_seconds = time.perf_counter() - start
    finally:
        frontend.stop(drain=True)

    max_batch = 0
    requeued = 0
    for i, (fut, ref) in enumerate(zip(responses, serial_results)):
        response = fut.result()
        assert response.status is VerificationStatus.FULL, (
            f"[cluster] request {i} served {response.status.value}, "
            f"expected full"
        )
        assert np.array_equal(response.c, ref.c), (
            f"[cluster] request {i} diverged"
        )
        max_batch = max(max_batch, response.batch_size)
        requeued += response.requeues

    latencies.sort()
    return {
        "workers": workers,
        "concurrency": concurrency,
        "requests": requests,
        "cluster_seconds": cluster_seconds,
        "cluster_throughput_rps": requests / cluster_seconds,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "max_batch_size": max_batch,
        "requeued": requeued,
        "host_cpus": os.cpu_count(),
        "bitwise_identical": True,
    }


def run_serve_benchmark(
    *,
    requests: int = REQUESTS,
    concurrency: int = CONCURRENCY,
    m: int = M,
    n: int = N,
    q: int = Q,
    seed: int = 20140623,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    registry: MetricsRegistry | None = None,
    cluster_workers: int | None = None,
    cluster_concurrency: int = CLUSTER_CONCURRENCY,
) -> dict:
    """Benchmark serve-layer micro-batching against the serial loop.

    Runs one served measurement per entry of ``policies``; the *last*
    entry is the primary row reported in the payload's top-level keys
    (kept flat for the CI baseline comparison).  With ``cluster_workers``
    set, additionally measures a ``cluster_workers``-shard
    :class:`~repro.cluster.frontend.ClusterFrontend` against a
    single-process pipelined server at ``cluster_concurrency`` and
    records both rows (plus their throughput ratio) under ``cluster``.
    Returns the ``BENCH_serve.json`` payload.  Raises ``AssertionError``
    if any served result differs bitwise from the serial reference or an
    accounting invariant breaks.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (m, n))
    bs = [rng.uniform(-1.0, 1.0, (n, q)) for _ in range(requests)]
    config = AbftConfig()

    # --- serial reference: one request at a time, warm plan cache -------
    with MatmulEngine(config) as engine:
        engine.matmul(a, bs[0])  # warm the plan
        start = time.perf_counter()
        serial_results = [engine.matmul(a, b) for b in bs]
        serial_seconds = time.perf_counter() - start

    rows = {
        mode: _run_served(
            a, bs, config, concurrency, mode, serial_results, registry
        )
        for mode in policies
    }
    primary = rows[policies[-1]]

    payload = {
        "m": m,
        "n": n,
        "q": q,
        "requests": requests,
        "concurrency": concurrency,
        "serial_seconds": serial_seconds,
        "serial_throughput_rps": requests / serial_seconds,
        "serve_seconds": primary["serve_seconds"],
        "speedup": serial_seconds / primary["serve_seconds"],
        "serve_throughput_rps": primary["serve_throughput_rps"],
        "latency_p50_ms": primary["latency_p50_ms"],
        "latency_p99_ms": primary["latency_p99_ms"],
        "max_batch_size": primary["max_batch_size"],
        "primary_policy": policies[-1],
        "policies": rows,
        "bitwise_identical": True,
        "host_cpus": os.cpu_count(),
    }
    if "pipelined" in rows:
        payload["bubble_fraction"] = rows["pipelined"]["bubble_fraction"]

    if cluster_workers:
        single_row = _run_served(
            a, bs, config, cluster_concurrency, "pipelined",
            serial_results, registry,
        )
        cluster_row = _run_cluster(
            a, bs, config, cluster_concurrency, cluster_workers,
            serial_results,
        )
        cluster_row["pipelined_seconds"] = single_row["serve_seconds"]
        cluster_row["pipelined_throughput_rps"] = (
            single_row["serve_throughput_rps"]
        )
        cluster_row["speedup_vs_pipelined"] = (
            single_row["serve_seconds"] / cluster_row["cluster_seconds"]
        )
        payload["cluster"] = cluster_row
    return payload


def compare_to_baseline(
    payload: dict, baseline: dict, tolerance: float
) -> tuple[bool, str]:
    """CI smoke comparison: measured per-request serve time vs baseline.

    Returns ``(passed, detail)``.  The baseline is never rewritten here.
    """
    baseline_per_req = baseline["serve_seconds"] / baseline["requests"]
    measured_per_req = payload["serve_seconds"] / payload["requests"]
    limit = baseline_per_req * (1.0 + tolerance)
    detail = (
        f"served {measured_per_req * 1e3:.2f} ms/req vs baseline "
        f"{baseline_per_req * 1e3:.2f} ms/req "
        f"(limit {limit * 1e3:.2f} ms/req = +{tolerance:.0%})"
    )
    return measured_per_req <= limit, detail
