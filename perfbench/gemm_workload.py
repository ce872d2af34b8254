"""``gemm_small`` and ``gemm_large``: one caller, protected vs bare products.

Each iteration draws a pair from a seeded operand pool and times one
``MatmulEngine.matmul`` call and one bare ``a @ b`` on the same pair, in
alternating order, then one calibration kernel (``harness.HostSpeed``).
Latencies are scaled to the reference host.  ``overhead_x`` is the ratio
of the two scaled medians, the paper's Table I quantity.

The traced run replays every protected call's stages through the public
functions of ``kernels``, ``bounds``, ``backends`` and ``abft`` on the same
operands, with the layouts, provider and grids of that call's
``AbftResult``, alternated with the engine call itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.abft.checking import build_report, column_discrepancies, row_discrepancies
from repro.abft.encoding import (
    PartitionedLayout,
    encode_partitioned_columns,
    encode_partitioned_rows,
    strip_encoding,
)
from repro.backends import get_backend
from repro.bounds.upper_bound import top_p_arrays
from repro.engine import AbftConfig, MatmulEngine
from repro.fp.bits import flip_bit
from repro.kernels import online_fused_matmul

import harness as H


@dataclass(frozen=True)
class GemmSpec:
    n: int
    dtype: str
    fusion: str
    #: Operand pairs in the seeded pool.
    pool: int
    #: ``True``/``False`` when every call must (not) take the fused online
    #: path; ``None`` leaves the choice to negotiation.
    require_fused: bool | None

    def config(self) -> AbftConfig:
        return AbftConfig(fusion=self.fusion)

    @property
    def working_set_bytes(self) -> int:
        return self.pool * 2 * self.n * self.n * np.dtype(self.dtype).itemsize


SPECS = {
    # Two float64 pairs (2 MiB) fit the 2 MiB L2 this benchmark was sized on.
    "gemm_small": GemmSpec(n=256, dtype="float64", fusion="auto", pool=2, require_fused=None),
    # Two float32 pairs (16 MiB) exceed any per-core L2.
    "gemm_large": GemmSpec(n=1024, dtype="float32", fusion="fused", pool=2, require_fused=True),
}

SETUPS = 5
PROBES = 3
#: Share of a traced run spent untraced, to measure tracing overhead.
UNTRACED_SHARE = 1.0 / 3.0
#: Reconciliation tolerance: replayed stages vs the engine's own timing,
#: as a share of the median engine call.
RECONCILE_TOL = 0.35

SEPARATE_STAGES = (
    "kernels.checksum",
    "kernels.top_p",
    "bounds.tolerance_grid",
    "backends.gemm",
    "kernels.discrepancy",
    "abft.report",
    "abft.strip",
)
FUSED_STAGES = (
    "kernels.checksum",
    "kernels.top_p",
    "bounds.tolerance_grid",
    "kernels.fused_loop",
    "abft.report",
    "abft.strip",
)


class ResultBitFlip:
    """Chaos hook: flip one exponent bit of a result element, once.

    Fires on the engine's ``result`` event, in a seeded data row of the
    full-checksum result, at that row's largest-magnitude data element,
    so the fault is always critical.
    """

    def __init__(self, block_size: int, row: int) -> None:
        self.block_size = block_size
        self.row = row
        self.fired = False

    def __call__(self, event, **kwargs) -> None:
        c_fc = kwargs.get("c_fc")
        if event != "result" or c_fc is None or self.fired:
            return
        bs = self.block_size
        rows = PartitionedLayout(c_fc.shape[0] // (bs + 1) * bs, bs)
        cols = PartitionedLayout(c_fc.shape[1] // (bs + 1) * bs, bs)
        r = rows.to_encoded_index(self.row % rows.data_rows)
        data_cols = cols.all_data_indices()
        c = int(data_cols[np.argmax(np.abs(c_fc[r, data_cols]))])
        bit = np.finfo(c_fc.dtype).nmant + 2
        c_fc[r, c] = flip_bit(c_fc[r, c], bit)
        self.fired = True


def _setup(spec: GemmSpec, seed: int):
    pairs = H.operand_pool(seed, spec.pool, spec.n, spec.n, spec.n, spec.dtype)
    engine = MatmulEngine(spec.config())
    for a, b in pairs:  # fill the plan cache and the workspace pool
        engine.matmul(a, b)
        a @ b
    return pairs, engine


def timed_setup(spec: GemmSpec, seed: int, speed: H.HostSpeed):
    """Set up ``SETUPS`` times; returns the last setup and the median time.

    Each set-up's time is scaled to the reference host by calibration
    samples taken just before and after it.
    """
    times, engine = [], None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
        cal = speed.samples_of(H.CAL_SETUP_SAMPLES)
        t0 = time.perf_counter()
        pairs, engine = _setup(spec, seed)
        seconds = time.perf_counter() - t0
        cal += speed.samples_of(H.CAL_SETUP_SAMPLES)
        times.append(H.to_reference(seconds, cal))
    return pairs, engine, H.median(times)


def protected_op(engine, a, b, spec: GemmSpec, ledger: H.Ledger, ref=None):
    """One timed protected call, classified against ``ref`` (bare product).

    Returns ``(seconds, result)``; ``result`` is ``None`` when it raised.
    """
    t0 = time.perf_counter()
    try:
        result = engine.matmul(a, b)
    except Exception as exc:
        ledger.record("raised", repr(exc))
        return time.perf_counter() - t0, None
    seconds = time.perf_counter() - t0
    if ref is None:
        ref = a @ b
    ledger.record(
        H.classify_gemm(result, ref, spec.n, spec.dtype, spec.require_fused),
        f"backend_fallback={result.backend_fallback!r} fused={result.fused}",
    )
    return seconds, result


def bare_op(a, b):
    t0 = time.perf_counter()
    c = a @ b
    return time.perf_counter() - t0, c


def closed_loop(engine, pairs, spec, seconds, rng, ledger, speed: H.HostSpeed):
    """Interleaved protected/bare loop.

    Returns the protected and bare latency lists and, at the same
    positions, the calibration sample timed after each pair of calls.
    """
    prot, bare, cal = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        a, b = pairs[int(rng.integers(len(pairs)))]
        if i % 2 == 0:
            t_p, result = protected_op(engine, a, b, spec, ledger, ref=None)
            t_b, _ = bare_op(a, b)
        else:
            t_b, ref = bare_op(a, b)
            t_p, result = protected_op(engine, a, b, spec, ledger, ref=ref)
        t_cal = speed.sample()
        if result is not None:
            prot.append(t_p)
            bare.append(t_b)
            cal.append(t_cal)
        i += 1
    return prot, bare, cal


def fault_probe(spec: GemmSpec, pairs, seed: int, ledger: H.Ledger) -> None:
    """Untimed single-bit-flip probes on a separate engine instance.

    Installing a chaos hook changes the fused path (it re-derives its
    grids), so the hook never sits on the timed engine.
    """
    rng = np.random.default_rng([seed, 0xFA17])
    with MatmulEngine(spec.config()) as engine:
        for k in range(PROBES):
            a, b = pairs[k % len(pairs)]
            hook = ResultBitFlip(spec.config().block_size, int(rng.integers(spec.n)))
            engine.set_chaos_hook(hook)
            try:
                result = engine.matmul(a, b)
            except Exception as exc:
                ledger.record("raised", repr(exc))
                continue
            ledger.record(H.classify_probe(hook.fired and result.detected))


def _replay(tracer: H.Tracer, op: str, a, b, result, cfg: AbftConfig, fused: bool) -> None:
    """Re-run one protected call's stages through the public functions."""
    bs, p = cfg.block_size, cfg.p
    rl, cl = result.row_layout, result.col_layout
    numpy_backend = get_backend("numpy")
    with tracer.span("replay", op) as root:
        t = lambda name, fn, *args, **kw: tracer.timed(name, op, root, fn, *args, **kw)  # noqa: E731
        a_cc, _ = t("kernels.checksum", encode_partitioned_columns, a, bs)
        b_rc, _ = t("kernels.checksum", encode_partitioned_rows, b, bs)
        t("kernels.top_p", top_p_arrays, a_cc, p, 1)
        t("kernels.top_p", top_p_arrays, b_rc, p, 0)
        col_eps, row_eps = t("bounds.tolerance_grid", result.provider.epsilon_grids, rl, cl)
        t("backends.gemm", numpy_backend.matmul, a_cc, b_rc)
        if fused:
            t(
                "kernels.fused_loop", online_fused_matmul, a_cc, b_rc,
                row_layout=rl, col_layout=cl, col_eps=col_eps, row_eps=row_eps,
            )
        col_disc = t("kernels.discrepancy", column_discrepancies, result.c_fc, rl)
        row_disc = t("kernels.discrepancy", row_discrepancies, result.c_fc, cl)
        t("abft.report", build_report, col_disc, col_eps, row_disc, row_eps, rl, cl)
        t("abft.strip", strip_encoding, result.c_fc, rl, cl)


def _stage_seconds(stats) -> tuple[float, float, float]:
    return stats.encode_seconds, stats.multiply_seconds, stats.check_seconds


def _traced_loop(engine, pairs, spec, seconds, rng, ledger, tracer):
    """Alternate replays with engine calls; returns per-op records."""
    cfg = spec.config()
    fused = spec.require_fused is True
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        a, b = pairs[int(rng.integers(len(pairs)))]
        op = f"op{i}"
        before = engine.stats()
        with tracer.span("engine.matmul", op):
            t_p, result = protected_op(engine, a, b, spec, ledger, ref=None)
        after = engine.stats()
        if result is not None:
            _replay(tracer, op, a, b, result, cfg, fused)
            with tracer.span("bare.matmul", op):
                a @ b
            deltas = [y - x for x, y in zip(_stage_seconds(before), _stage_seconds(after))]
            records.append(
                {
                    "op": op,
                    "call": t_p,
                    "encode": deltas[0],
                    "multiply": deltas[1],
                    "check": deltas[2],
                    "fused": bool(result.fused),
                }
            )
        i += 1
    return records


def run(workload: str, seed: int, seconds: float, trace: bool) -> H.WorkloadRun:
    spec = SPECS[workload]
    speed = H.HostSpeed(seed)
    pairs, engine, setup_s = timed_setup(spec, seed, speed)
    ledger = H.Ledger()
    rng = np.random.default_rng([seed, 1])
    detail = {
        "n": spec.n,
        "dtype": spec.dtype,
        "fusion": spec.fusion,
        "pool_pairs": spec.pool,
        "working_set_bytes": spec.working_set_bytes,
    }
    try:
        if not trace:
            prot, bare, cal = closed_loop(engine, pairs, spec, seconds, rng, ledger, speed)
            fault_probe(spec, pairs, seed, ledger)
            ref = H.to_reference_series(prot, cal)
            metrics = {
                "setup_s": setup_s,
                "latency_p50_ms": H.percentile(ref, 50) * 1e3,
                "latency_p90_ms": H.percentile(ref, 90) * 1e3,
                "overhead_x": H.median(ref) / H.median(H.to_reference_series(bare, cal)),
            }
            detail.update(
                samples=len(prot),
                wall_p50_ms=H.median(prot) * 1e3,
                wall_p90_ms=H.percentile(prot, 90) * 1e3,
                bare_wall_p50_ms=H.median(bare) * 1e3,
                host_slowdown=speed.factor(),
            )
            return H.WorkloadRun(metrics, ledger, detail)
        return _traced(engine, pairs, spec, seconds, seed, rng, ledger, detail, speed)
    finally:
        engine.close()


def _traced(engine, pairs, spec, seconds, seed, rng, ledger, detail, speed) -> H.WorkloadRun:
    untraced, _, _ = closed_loop(
        engine, pairs, spec, seconds * UNTRACED_SHARE, rng, ledger, speed
    )
    tracer = H.Tracer()
    stats0 = engine.stats()
    records = _traced_loop(
        engine, pairs, spec, seconds * (1 - UNTRACED_SHARE), rng, ledger, tracer
    )
    stats1 = engine.stats()
    fault_probe(spec, pairs, seed, ledger)
    counters = H.registry_counters(engine.registry)

    fused = spec.require_fused is True
    path = FUSED_STAGES if fused else SEPARATE_STAGES
    names = set(SEPARATE_STAGES) | set(FUSED_STAGES)
    per_op = tracer.seconds_by_op(names)
    med = lambda key: H.median(  # noqa: E731
        [per_op.get(r["op"], {}).get(key, 0.0) for r in records]
    )
    stage_ms = {name: med(name) * 1e3 for name in names}
    replay_sum = [sum(per_op[r["op"]].get(s, 0.0) for s in path) for r in records]
    overhead = [r["call"] - s for r, s in zip(records, replay_sum)]
    call_ms = H.median([r["call"] for r in records]) * 1e3
    enc_ms = H.median([r["encode"] for r in records]) * 1e3
    mul_ms = H.median([r["multiply"] for r in records]) * 1e3
    chk_ms = H.median([r["check"] for r in records]) * 1e3
    traced_p50 = H.percentile([r["call"] for r in records], 50)

    cfg = spec.config()
    counts = H.stage_counts(
        spec.n, spec.n, spec.n, cfg.block_size, cfg.p, np.dtype(spec.dtype).itemsize
    )
    kernel_stages = ("checksum", "top_p", "discrepancy")
    k_flops = sum(counts[s]["flops"] for s in kernel_stages)
    k_bytes = sum(counts[s]["bytes"] for s in kernel_stages)
    hits = stats1.plan_hits - stats0.plan_hits
    misses = stats1.plan_misses - stats0.plan_misses
    metrics = {
        "kernels.checksum_ms": stage_ms["kernels.checksum"],
        "kernels.top_p_ms": stage_ms["kernels.top_p"],
        "kernels.discrepancy_ms": stage_ms["kernels.discrepancy"],
        "kernels.fused_loop_ms": stage_ms["kernels.fused_loop"],
        "kernels.flops": k_flops,
        "kernels.bytes_computed": k_bytes,
        "kernels.flops_per_byte": k_flops / k_bytes,
        "bounds.tolerance_grid_ms": stage_ms["bounds.tolerance_grid"],
        "backends.gemm_ms": stage_ms["backends.gemm"],
        "backends.gemm_gflops": counts["gemm"]["flops"] / (stage_ms["backends.gemm"] * 1e6),
        "abft.report_ms": stage_ms["abft.report"],
        "abft.strip_ms": stage_ms["abft.strip"],
        "engine.call_ms": call_ms,
        "engine.overhead_ms": H.median(overhead) * 1e3,
        "engine.encode_ms": enc_ms,
        "engine.multiply_ms": mul_ms,
        "engine.check_ms": chk_ms,
        "engine.plan_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "engine.fused_frac": sum(r["fused"] for r in records) / len(records),
        "trace.overhead_frac": traced_p50 / H.percentile(untraced, 50) - 1.0,
    }
    for mode in ("serial", "fused", "pipelined"):
        metrics[f"engine.batch_mode.{mode}"] = float(counters["batch_mode"].get(mode, 0.0))

    replay_ms = H.median(replay_sum) * 1e3
    tol_ms = RECONCILE_TOL * call_ms
    counter_sum = enc_ms + mul_ms + chk_ms
    replay_encode = stage_ms["kernels.checksum"] + stage_ms["kernels.top_p"]
    checks = [
        H.check(
            "engine stage counters fit inside the call (+5 %)",
            counter_sum <= call_ms * 1.05,
            counters_ms=counter_sum, call_ms=call_ms,
        ),
        H.check(
            "replayed stages leave at most the tolerance of engine.call_ms unexplained",
            abs(H.median(overhead) * 1e3) <= tol_ms,
            replay_ms=replay_ms, call_ms=call_ms, tolerance_ms=tol_ms,
        ),
        H.check(
            "replayed stages match the engine's stage-counter deltas",
            abs(replay_ms - counter_sum) <= tol_ms,
            replay_ms=replay_ms, counters_ms=counter_sum, tolerance_ms=tol_ms,
        ),
        H.check(
            "replayed checksum + top-p match the encode counter",
            abs(replay_encode - enc_ms) <= tol_ms,
            replay_ms=replay_encode, counter_ms=enc_ms, tolerance_ms=tol_ms,
        ),
        H.check(
            "no backend fallback on any call",
            counters["fallbacks"] == 0,
            fallbacks=counters["fallbacks"],
        ),
    ]
    detail.update(
        traced_ops=len(records),
        untraced_samples=len(untraced),
        stage_counts_computed=counts,
        path=list(path),
    )
    return H.WorkloadRun(metrics, ledger, detail, checks, tracer)
