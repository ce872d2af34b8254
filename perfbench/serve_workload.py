"""``serve_burst``: closed-loop bursts of requests against one ``MatmulServer``.

One generator (the main thread) submits ``BURST`` requests back to back,
waits until every one has resolved, and repeats.  The burst fills one
micro-batch, so each round is one ``execute_batch`` of ``BURST`` under the
default ``ServeConfig`` (mode ``auto``).  Most requests multiply the one shared 256x256 float64 weight
``A`` with a 256x16 activation; every ``FRESH_EVERY``-th request carries a
weight of its own, so both the operand-dedup path and the non-shared path
run.  A request's latency runs from its submission to the resolution of
its future.  One calibration kernel (``harness.HostSpeed``) runs after
each round, and every time is scaled to the reference host.

The loop is closed so that a slow spell of the host delays the next burst
instead of building a queue: an open Poisson loop on a 2-vCPU host with
10-20 % CPU steal spread its p90 latency by 68 % (interquartile range over
median, ten seeds), beyond any bound a benchmark can hold.

``overhead_x`` here is the mean amortised service time of a request (its
batch's service time over the batch size, i.e. total service time over
requests served) over the median bare ``a @ b`` of the same operand pairs,
timed by the generator after each round.  The mean, because amortised
times cluster by batch size and a median would jump between clusters.
"""

from __future__ import annotations

import concurrent.futures
import functools
import threading
import time

import numpy as np

from repro.engine import MatmulEngine
from repro.serve import MatmulServer, ServeConfig
from repro.telemetry import MetricsRegistry

import harness as H
from gemm_workload import ResultBitFlip

M = N = 256
Q = 16
DTYPE = "float64"
#: Requests per round: one micro-batch of the default ``max_batch_size``,
#: which the dispatcher runs as soon as it is full.  Rounds of 16 spent
#: half their latency in the coalescing window and let a few-millisecond
#: CPU-steal spike stretch a round by a third, which spread p90 latency
#: up to 27 % between runs.
BURST = 32
FRESH_EVERY = 8
ACTIVATIONS = 256
FRESH_WEIGHTS = 32
WARMUP_REQUESTS = 8
SETUPS = 5
PROBES = 3
DRAIN_S = 30.0
UNTRACED_SHARE = 1.0 / 3.0
#: Reconciliation: client latency from submission minus (queue wait +
#: service) must lie in [-RESIDUAL_MS, RESIDUAL_MS + 10 %] for at least
#: RESIDUAL_SHARE of the requests.
RESIDUAL_MS = 2.0
RESIDUAL_SHARE = 0.99


class Traffic:
    """Seeded operands of every request; the server sees only these arrays.

    Request ``k`` multiplies activation ``(k * 7919) % ACTIVATIONS`` by the
    shared weight, or, every ``FRESH_EVERY``-th request, by a weight of
    its own chosen by the activation index.  There are therefore at most
    ``2 * ACTIVATIONS`` distinct products, and :meth:`reference` holds each
    one's bare product, computed once before any timing.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0x5E12])
        self.shared = rng.uniform(-1.0, 1.0, (M, N))
        self.fresh = [rng.uniform(-1.0, 1.0, (M, N)) for _ in range(FRESH_WEIGHTS)]
        self.acts = [rng.uniform(-1.0, 1.0, (N, Q)) for _ in range(ACTIVATIONS)]
        self._refs: dict = {}

    def _key(self, k: int) -> tuple[int, bool]:
        return (k * 7919) % ACTIVATIONS, k % FRESH_EVERY == FRESH_EVERY - 1

    def pair(self, k: int):
        """Operands of request ``k`` (deterministic in the seed and ``k``)."""
        act, fresh = self._key(k)
        a = self.fresh[act % FRESH_WEIGHTS] if fresh else self.shared
        return a, self.acts[act]

    def reference(self, k: int) -> np.ndarray:
        key = self._key(k)
        if key not in self._refs:
            a, b = self.pair(k)
            self._refs[key] = a @ b
        return self._refs[key]

    def precompute(self) -> None:
        for k in range(FRESH_EVERY * ACTIVATIONS):
            self.reference(k)

    @property
    def working_set_bytes(self) -> int:
        itemsize = np.dtype(DTYPE).itemsize
        return itemsize * (M * N * (1 + FRESH_WEIGHTS) + N * Q * ACTIVATIONS)


def _setup(traffic: Traffic):
    config = ServeConfig()
    server = MatmulServer(config, registry=MetricsRegistry())
    # One round's batch through the engine under the server's policy, so
    # its plans and the pipelined executor's per-width probe exist before
    # timing.
    server.engine.execute_batch(
        [traffic.pair(k) for k in range(BURST)], policy=config.execution
    )
    futures = [server.submit(*traffic.pair(k)) for k in range(WARMUP_REQUESTS)]
    concurrent.futures.wait(futures, timeout=DRAIN_S)
    return server


def timed_setup(seed: int, speed: H.HostSpeed):
    """Set up ``SETUPS`` times; returns the last setup and the median time.

    Each set-up's time is scaled to the reference host by calibration
    samples taken just before and after it.  The bare reference products
    are computed once, after the timed setups: they are the benchmark's
    own work, not the program's.
    """
    times, server = [], None
    for _ in range(SETUPS):
        if server is not None:
            _close(server)
        cal = speed.samples_of(H.CAL_SETUP_SAMPLES)
        t0 = time.perf_counter()
        traffic = Traffic(seed)
        server = _setup(traffic)
        seconds = time.perf_counter() - t0
        cal += speed.samples_of(H.CAL_SETUP_SAMPLES)
        times.append(H.to_reference(seconds, cal))
    traffic.precompute()
    return traffic, server, H.median(times)


def _close(server) -> None:
    """Stop the server, then the thread pool of the engine it built."""
    server.stop()
    server.engine.close()


def burst_loop(
    server, traffic, seconds: float, ledger: H.Ledger, speed: H.HostSpeed, first_k: int = 0
):
    """Submit bursts until ``seconds`` pass; settle each round before the next.

    Returns ``(served, bare, cal)``: one slim record per correctly served
    request (``round`` indexes ``cal``), the bare ``a @ b`` time of each
    request's pair, timed after its round, and one calibration sample per
    round, timed once the round has settled.  Responses are classified and
    released round by round, so results never pile up in memory.
    """
    finished: list = []
    landed = threading.Condition()
    served: list[dict] = []
    bare: list[float] = []
    cal: list[float] = []

    def on_done(fut, rec):
        rec["done"] = time.monotonic()
        with landed:
            finished.append((rec, fut))
            landed.notify()

    start = first_k
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for k in range(start, start + BURST):
            rec = {"k": k, "round": len(cal), "submit": time.monotonic()}
            server.submit(*traffic.pair(k), request_id=f"q{k}").add_done_callback(
                functools.partial(on_done, rec=rec)
            )
        with landed:
            landed.wait_for(lambda: len(finished) >= BURST, timeout=DRAIN_S)
            round_done = finished[:]
            finished.clear()
        for rec, fut in round_done:
            _settle(rec, fut, traffic, ledger, served)
        cal.append(speed.sample())
        if len(round_done) < BURST:
            for _ in range(BURST - len(round_done)):
                ledger.record("dropped", "unresolved at the drain deadline")
            break
        for k in range(start, start + BURST):
            a, b = traffic.pair(k)
            t0 = time.perf_counter()
            a @ b
            bare.append(time.perf_counter() - t0)
        start += BURST
    return served, bare, cal


def _settle(rec, fut, traffic, ledger: H.Ledger, served: list) -> None:
    if fut.exception() is not None:
        ledger.record("dropped", repr(fut.exception()))
        return
    response = fut.result()
    kind = H.classify_response(response, traffic.reference(rec["k"]), N, DTYPE)
    ledger.record(kind, f"request {response.request_id}: {response.status}")
    if kind is None:
        rec.update(
            request_id=response.request_id,
            wait=response.queue_wait_s,
            service=response.service_s,
            batch=response.batch_size,
        )
        served.append(rec)


def fault_probe(traffic, seed: int, ledger: H.Ledger) -> None:
    """Single-bit flips on a separate server: each must be caught.

    The server corrects (or recomputes) a detected fault before
    responding, so a caught fault shows as ``corrected``/``recomputed``
    with a result equal to the bare product.
    """
    rng = np.random.default_rng([seed, 0xFA17])
    engine = MatmulEngine(ServeConfig().abft)
    server = MatmulServer(ServeConfig(), engine=engine, registry=MetricsRegistry())
    try:
        for k in range(PROBES):
            a, b = traffic.pair(k)
            hook = ResultBitFlip(ServeConfig().abft.block_size, int(rng.integers(M)))
            engine.set_chaos_hook(hook)
            try:
                response = server.submit(a, b).result(timeout=DRAIN_S)
            except Exception as exc:
                ledger.record("raised", repr(exc))
                continue
            caught = hook.fired and (response.corrected or response.recomputed or response.detected)
            correct = H.within_tolerance(response.c, a @ b, N, DTYPE) or response.detected
            ledger.record(H.classify_probe(caught and correct))
    finally:
        server.stop()
        engine.close()


def run(workload: str, seed: int, seconds: float, trace: bool) -> H.WorkloadRun:
    speed = H.HostSpeed(seed)
    traffic, server, setup_s = timed_setup(seed, speed)
    ledger = H.Ledger()
    detail = {
        "burst": BURST,
        "shape": [M, N, Q],
        "dtype": DTYPE,
        "fresh_weight_share": 1.0 / FRESH_EVERY,
        "working_set_bytes": traffic.working_set_bytes,
    }
    try:
        if trace:
            return _traced(server, traffic, seconds, seed, ledger, detail, speed)
        served, bare, cal = burst_loop(server, traffic, seconds, ledger, speed)
        server.stop()
        fault_probe(traffic, seed, ledger)
        latency = [r["done"] - r["submit"] for r in served]
        local = H.local_calibration(cal)
        ref = [t * H.CAL_REFERENCE_S / local[r["round"]] for t, r in zip(latency, served)]
        amortised = [
            r["service"] / r["batch"] * H.CAL_REFERENCE_S / local[r["round"]] for r in served
        ]
        bare = [t * H.CAL_REFERENCE_S / local[j // BURST] for j, t in enumerate(bare)]
        detail.update(
            requests=len(served),
            batch_size_mean=sum(r["batch"] for r in served) / len(served),
            wall_p50_ms=H.percentile(latency, 50) * 1e3,
            wall_p90_ms=H.percentile(latency, 90) * 1e3,
            host_slowdown=speed.factor(),
        )
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": H.percentile(ref, 50) * 1e3,
            "latency_p90_ms": H.percentile(ref, 90) * 1e3,
            "overhead_x": sum(amortised) / len(amortised) / H.median(bare),
        }
        return H.WorkloadRun(metrics, ledger, detail)
    finally:
        _close(server)


def _traced(server, traffic, seconds, seed, ledger, detail, speed) -> H.WorkloadRun:
    untraced, _, _ = burst_loop(server, traffic, seconds * UNTRACED_SHARE, ledger, speed)

    stats0 = server.engine.stats()
    before = H.registry_counters(server.registry)
    served, _, _ = burst_loop(
        server, traffic, seconds * (1 - UNTRACED_SHARE), ledger, speed, first_k=len(untraced)
    )
    server.stop()
    stats1 = server.engine.stats()
    after = H.registry_counters(server.registry)
    fault_probe(traffic, seed, ledger)

    tracer = H.Tracer()
    residual_ok = 0
    for rec in served:
        op = rec["request_id"]
        root = tracer.record("serve.request", op, rec["submit"], rec["done"])
        wait_end = rec["submit"] + rec["wait"]
        tracer.record("serve.queue_wait", op, rec["submit"], wait_end, root)
        tracer.record("serve.service", op, wait_end, wait_end + rec["service"], root)
        client = rec["done"] - rec["submit"]
        residual = client - (rec["wait"] + rec["service"])
        if -RESIDUAL_MS / 1e3 <= residual <= RESIDUAL_MS / 1e3 + 0.1 * client:
            residual_ok += 1

    batches = after["batches"] - before["batches"]
    waits = [r["wait"] for r in served]
    traced_p50 = H.percentile([r["done"] - r["submit"] for r in served], 50)
    untraced_p50 = H.percentile([r["done"] - r["submit"] for r in untraced], 50)
    # Summing each request's share of its batch's service time gives the
    # batches' total service time.
    service_total = sum(r["service"] / r["batch"] for r in served)
    metrics = H.engine_metrics(stats0, stats1, before, after, batches, service_total)
    metrics.update(
        {
            "serve.queue_wait_p50_ms": H.percentile(waits, 50) * 1e3,
            "serve.queue_wait_p90_ms": H.percentile(waits, 90) * 1e3,
            "serve.service_p50_ms": H.percentile([r["service"] for r in served], 50) * 1e3,
            "serve.batch_size_mean": len(served) / batches if batches else 0.0,
            "serve.batches": batches,
            "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
        }
    )
    share = residual_ok / len(served) if served else 0.0
    checks = [
        H.check(
            "queue wait + service match client latency per request id",
            share >= RESIDUAL_SHARE,
            matched_share=share,
            required_share=RESIDUAL_SHARE,
            tolerance_ms=RESIDUAL_MS,
        ),
    ]
    detail.update(requests=len(untraced) + len(served), traced_requests=len(served))
    return H.WorkloadRun(metrics, ledger, detail, checks, tracer)
