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
) -> dict:
    """Benchmark serve-layer micro-batching against the serial loop.

    Runs one served measurement per entry of ``policies``; the *last*
    entry is the primary row reported in the payload's top-level keys
    (kept flat for the CI baseline comparison).  Returns the
    ``BENCH_serve.json`` payload.  Raises ``AssertionError`` if any
    served result differs bitwise from the serial reference or an
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
