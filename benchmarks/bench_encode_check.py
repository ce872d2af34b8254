"""Encode/check stage cost: fused vectorised kernels vs the loop references.

The perf PR's acceptance benchmark.  The committed ``BENCH_engine.json``
baseline spent ``encode_seconds = 2.47`` and ``check_seconds = 0.81``
against ``multiply_seconds = 0.30`` — the ABFT bookkeeping cost 10x the
BLAS work it protects.  This benchmark replays the exact engine workload
of ``bench_engine_throughput.py`` (warm per-call loop, serial
``execute_batch``, encoded-handle loop) and reads the stage seconds off
the engine's own ``abft_engine_stage_seconds_total`` counters, then
verifies the fast kernels bitwise against the reference implementations:

* ``fused_encode`` output == ``encode_partitioned_*_reference`` (the old
  per-block loop / transpose kernels, kept as oracles);
* the grid-based check == ``check_partitioned(..., use_grids=False)``
  (the scalar per-comparison tolerance loop) — discrepancies, findings
  and located errors;
* an injected fault is still detected and located.

Acceptance: warm per-call encode+check time at most ~1/3 of the
``BENCH_engine.json`` stage baseline.

The fused-online row (PR 9) times the same warm encoded-handle loop at
``FUSED_SIZE``² in float32 with ``fusion="separate"`` vs ``fusion="fused"``
(degenerate single-tile mode — identical GEMM bytes), after verifying the
fused result and discrepancy grids bitwise against the separate path.  The
fused in-loop check reduces the float32 result with a float64 accumulator
instead of materialising two full float64 casts, so the per-call
encode+check cost must beat the separate path by ``FUSED_FLOOR``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_encode_check.py

Results are written to ``BENCH_encode.json`` at the repository root.

CI runs the smoke variant, which never rewrites the committed baseline —
it loads it and fails when the per-call encode+check time regresses past
the tolerance (generous by default so shared-runner noise doesn't flap)::

    PYTHONPATH=src python benchmarks/bench_encode_check.py \
        --quick --compare --tolerance 0.50
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.abft.checking import check_partitioned
from repro.abft.encoding import (
    encode_partitioned_columns_reference,
    encode_partitioned_rows_reference,
)
from repro.abft.providers import AABFTEpsilonProvider
from repro.bounds.probabilistic import ProbabilisticBound
from repro.bounds.upper_bound import top_p_of_columns, top_p_of_rows
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.fp.constants import format_for_dtype
from repro.kernels import fused_encode

SIZE = 256
REPEATS = 100
QUICK_REPEATS = 20
BLOCK_SIZE = 64
P = 2
REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_encode.json"
ENGINE_BASELINE = REPO_ROOT / "BENCH_engine.json"
TARGET_RATIO = 1.0 / 3.0
FUSED_SIZE = 1024
FUSED_REPEATS = 30
FUSED_QUICK_REPEATS = 8
FUSED_FLOOR = 1.25


def reference_stage_times(a, bs) -> tuple[float, float]:
    """Stage seconds of the pre-PR kernels on the same workload.

    Encode: the per-block loop / transpose reference kernels plus the
    per-vector top-p objects.  Check: the scalar per-comparison tolerance
    loop.  Multiplications run untimed in between — only the two ABFT
    stages are measured.
    """
    encode_seconds = 0.0
    check_seconds = 0.0
    for b in bs:
        t0 = time.perf_counter()
        a_cc, row_layout = encode_partitioned_columns_reference(a, BLOCK_SIZE)
        b_rc, col_layout = encode_partitioned_rows_reference(b, BLOCK_SIZE)
        row_tops = top_p_of_rows(a_cc, P)
        col_tops = top_p_of_columns(b_rc, P)
        encode_seconds += time.perf_counter() - t0
        c_fc = a_cc @ b_rc
        provider = AABFTEpsilonProvider(
            scheme=ProbabilisticBound(
                omega=3.0, fma=False, fmt=format_for_dtype(c_fc.dtype)
            ),
            row_tops=row_tops,
            col_tops=col_tops,
            row_layout=row_layout,
            col_layout=col_layout,
            inner_dim=a.shape[1],
        )
        t0 = time.perf_counter()
        report = check_partitioned(
            c_fc, row_layout, col_layout, provider, use_grids=False
        )
        check_seconds += time.perf_counter() - t0
        assert not report.error_detected
    return encode_seconds, check_seconds


def verify_bitwise(engine, a, b) -> None:
    """Fast kernels must reproduce the reference kernels bit for bit."""
    # Fused encode vs the loop/transpose reference kernels.
    fa = fused_encode(a, "a", BLOCK_SIZE, p=P)
    ra, _ = encode_partitioned_columns_reference(a, BLOCK_SIZE)
    assert np.array_equal(fa.encoded, ra), "fused A encode diverged"
    fb = fused_encode(b, "b", BLOCK_SIZE, p=P)
    rb, _ = encode_partitioned_rows_reference(b, BLOCK_SIZE)
    assert np.array_equal(fb.encoded, rb), "fused B encode diverged"

    # Engine (grid) check vs the scalar per-comparison reference loop.
    res = engine.matmul(a, b)
    ref = check_partitioned(
        res.c_fc, res.row_layout, res.col_layout, res.provider, use_grids=False
    )
    eng = res.report
    assert np.array_equal(eng.column_disc, ref.column_disc)
    assert np.array_equal(eng.row_disc, ref.row_disc)
    assert eng.findings == ref.findings
    assert eng.located_errors == ref.located_errors
    assert eng.num_checks == ref.num_checks

    # The grid path of check_partitioned itself agrees with the scalar loop.
    grid = check_partitioned(
        res.c_fc, res.row_layout, res.col_layout, res.provider, use_grids=True
    )
    assert grid.findings == ref.findings

    # An injected single fault is still detected and located.
    faulty = res.c_fc.copy()
    faulty[17, 23] += 2.0 ** -10
    report = check_partitioned(
        faulty, res.row_layout, res.col_layout, res.provider
    )
    assert report.error_detected, "injected fault went undetected"
    assert (17, 23) in report.located_errors


def stage_delta(engine, before: dict) -> dict:
    after = engine.stats().as_dict()
    return {
        key: after[key] - before.get(key, 0.0)
        for key in ("encode_seconds", "check_seconds", "multiply_seconds", "calls")
    }


def fused_stage_times(repeats: int) -> dict:
    """Warm encoded-handle loop at ``FUSED_SIZE``² float32: separate vs fused.

    Operands are encoded once per engine, so the per-call ABFT cost is the
    check stage the fused path targets.  Both engines run the identical
    workload interleaved (drift cancels), after the fused result bytes and
    discrepancy grids are verified bitwise against the separate path.
    """
    rng = np.random.default_rng(20140623)
    a = rng.uniform(-1, 1, (FUSED_SIZE, FUSED_SIZE)).astype(np.float32)
    b = rng.uniform(-1, 1, (FUSED_SIZE, FUSED_SIZE)).astype(np.float32)
    engines = {}
    for fusion in ("separate", "fused"):
        engine = MatmulEngine(
            AbftConfig(
                block_size=BLOCK_SIZE, p=P,
                fusion=fusion, fused_tile_blocks=None,
            )
        )
        ha = engine.encode(a, side="a")
        hb = engine.encode(b, side="b")
        res = engine.matmul(ha, hb)  # warm + reconciliation sample
        engine.matmul(ha, hb)
        engines[fusion] = (engine, ha, hb, res)

    sep_res = engines["separate"][3]
    fus_res = engines["fused"][3]
    assert fus_res.fused, "fused engine fell back to the separate path"
    assert np.array_equal(sep_res.c_fc, fus_res.c_fc), "fused bytes diverged"
    assert np.array_equal(
        sep_res.report.column_disc, fus_res.report.column_disc
    ), "fused column grid diverged"
    assert np.array_equal(
        sep_res.report.row_disc, fus_res.report.row_disc
    ), "fused row grid diverged"

    for engine, *_ in engines.values():
        engine.reset_stats()
    for _ in range(repeats):
        for engine, ha, hb, _ in engines.values():
            engine.matmul(ha, hb)
    per_call = {}
    for fusion, (engine, *_) in engines.items():
        stats = engine.stats().as_dict()
        per_call[fusion] = (
            stats["encode_seconds"] + stats["check_seconds"]
        ) / repeats
    return {
        "separate_per_call": per_call["separate"],
        "fused_per_call": per_call["fused"],
        "speedup": per_call["separate"] / per_call["fused"],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Encode/check stage benchmark (fused kernels vs references)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"reduced scale: {QUICK_REPEATS} repeats instead of {REPEATS}",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: compare against the committed baseline instead of "
        "rewriting it; exits 1 on an encode+check regression past --tolerance",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON for --compare (default: repo BENCH_encode.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.50,
        help="allowed per-call encode+check slowdown vs the baseline "
        "(default 0.50)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    repeats = QUICK_REPEATS if args.quick else REPEATS

    rng = np.random.default_rng(20140623)  # DSN 2014
    a = rng.uniform(-1, 1, (SIZE, SIZE))
    bs = [rng.uniform(-1, 1, (SIZE, SIZE)) for _ in range(repeats)]

    config = AbftConfig(block_size=BLOCK_SIZE, p=P)
    engine = MatmulEngine(config)
    engine.matmul(a, bs[0])  # warm the plan cache

    print(f"{repeats} x A-ABFT matmul, {SIZE}x{SIZE}, BS={BLOCK_SIZE}, p={P}")

    verify_bitwise(engine, a, bs[0])
    print("  fast kernels bitwise identical to the reference kernels")

    # The same engine workload bench_engine_throughput.py times, so the
    # stage counters are comparable to the BENCH_engine.json baseline:
    # warm per-call loop, serial execute_batch, encoded-handle loop.
    before = engine.stats().as_dict()
    for b in bs:
        engine.matmul(a, b)
    engine.execute_batch(
        [(a, b) for b in bs], policy=ExecutionPolicy(mode="serial")
    )
    handle = engine.encode(a, side="a")
    for b in bs:
        engine.matmul(handle, b)
    delta = stage_delta(engine, before)

    calls = delta["calls"]
    encode_seconds = delta["encode_seconds"]
    check_seconds = delta["check_seconds"]
    per_call = (encode_seconds + check_seconds) / calls
    print(f"  engine encode stage: {encode_seconds:8.2f} s over {calls} calls")
    print(f"  engine check stage : {check_seconds:8.2f} s")
    print(f"  engine multiply    : {delta['multiply_seconds']:8.2f} s")
    print(f"  encode+check       : {per_call * 1e3:8.2f} ms/call")

    ref_encode, ref_check = reference_stage_times(a, bs)
    ref_per_call = (ref_encode + ref_check) / repeats
    print(f"  reference encode   : {ref_encode:8.2f} s over {repeats} calls")
    print(f"  reference check    : {ref_check:8.2f} s")
    speedup = ref_per_call / per_call
    print(f"  speedup vs reference kernels: {speedup:.1f}x per call")

    if args.compare:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        committed = json.loads(args.baseline.read_text())
        committed_per_call = (
            committed["engine_encode_seconds"] + committed["engine_check_seconds"]
        ) / committed["engine_calls"]
        limit = committed_per_call * (1.0 + args.tolerance)
        print(
            f"  encode+check vs baseline: {per_call * 1e3:.2f} ms/call "
            f"vs {committed_per_call * 1e3:.2f} ms/call "
            f"(limit {limit * 1e3:.2f} ms/call = +{args.tolerance:.0%})"
        )
        if per_call > limit:
            print(
                "FAIL: encode+check stage time regressed past the tolerance",
                file=sys.stderr,
            )
            return 1
        print("  encode+check stage time within tolerance")

        if "fused_speedup_vs_separate" not in committed:
            print(
                "FAIL: committed baseline has no fused-online row "
                "(regenerate BENCH_encode.json)",
                file=sys.stderr,
            )
            return 1
        fused = fused_stage_times(
            FUSED_QUICK_REPEATS if args.quick else FUSED_REPEATS
        )
        print(
            f"  fused-online ({FUSED_SIZE}² float32 handles): "
            f"{fused['fused_per_call'] * 1e3:.2f} ms/call vs separate "
            f"{fused['separate_per_call'] * 1e3:.2f} ms/call "
            f"({fused['speedup']:.2f}x, floor {FUSED_FLOOR:.2f}x, "
            f"baseline {committed['fused_speedup_vs_separate']:.2f}x)"
        )
        if fused["speedup"] < FUSED_FLOOR:
            print(
                "FAIL: fused-online encode+check speedup fell below the "
                f"{FUSED_FLOOR:.2f}x floor",
                file=sys.stderr,
            )
            return 1
        print("  fused-online speedup above the floor")
        return 0

    # Fused-online row: the in-loop check must beat the separate
    # encode+check path on the warm large-shape workload.
    fused = fused_stage_times(FUSED_QUICK_REPEATS if args.quick else FUSED_REPEATS)
    print(
        f"  fused-online ({FUSED_SIZE}² float32 handles): "
        f"{fused['fused_per_call'] * 1e3:.2f} ms/call vs separate "
        f"{fused['separate_per_call'] * 1e3:.2f} ms/call "
        f"({fused['speedup']:.2f}x, floor {FUSED_FLOOR:.2f}x)"
    )

    # Acceptance: at most ~1/3 of the committed pre-PR stage baseline.
    payload = {
        "size": SIZE,
        "repeats": repeats,
        "block_size": BLOCK_SIZE,
        "p": P,
        "engine_calls": calls,
        "engine_encode_seconds": encode_seconds,
        "engine_check_seconds": check_seconds,
        "engine_multiply_seconds": delta["multiply_seconds"],
        "reference_encode_seconds": ref_encode,
        "reference_check_seconds": ref_check,
        "speedup_vs_reference": speedup,
        "bitwise_identical": True,
        "fault_detected": True,
        "fused_size": FUSED_SIZE,
        "fused_dtype": "float32",
        "fused_repeats": FUSED_QUICK_REPEATS if args.quick else FUSED_REPEATS,
        "fused_separate_per_call_seconds": fused["separate_per_call"],
        "fused_per_call_seconds": fused["fused_per_call"],
        "fused_speedup_vs_separate": fused["speedup"],
        "fused_floor": FUSED_FLOOR,
        "fused_bitwise_identical": True,
    }
    if ENGINE_BASELINE.exists():
        base = json.loads(ENGINE_BASELINE.read_text())["engine_stats"]
        base_per_call = (
            base["encode_seconds"] + base["check_seconds"]
        ) / base["calls"]
        ratio = per_call / base_per_call
        payload["baseline_encode_seconds"] = base["encode_seconds"]
        payload["baseline_check_seconds"] = base["check_seconds"]
        payload["ratio_vs_engine_baseline"] = ratio
        print(
            f"  vs BENCH_engine.json stage baseline: "
            f"{per_call * 1e3:.2f} ms/call vs {base_per_call * 1e3:.2f} ms/call "
            f"({ratio:.2f}x, target <= {TARGET_RATIO:.2f}x)"
        )

    out = REPO_ROOT / "BENCH_encode.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  -> {out.name}")

    if ENGINE_BASELINE.exists() and ratio > TARGET_RATIO:
        print(
            "FAIL: encode+check stage time above 1/3 of the pre-PR baseline",
            file=sys.stderr,
        )
        return 1
    if fused["speedup"] < FUSED_FLOOR:
        print(
            f"FAIL: fused-online encode+check speedup below the "
            f"{FUSED_FLOOR:.2f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
