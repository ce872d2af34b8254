"""Throughput of the micro-batching serving layer vs a serial loop.

The serving layer's acceptance benchmark: 256 shared-weight requests
(one 256 x 256 ``A`` against 256 x 16 activations) pushed through a
:class:`repro.serve.MatmulServer` at concurrency 32 must run at least 2x
the throughput of a serial one-request-at-a-time
:meth:`~repro.engine.MatmulEngine.matmul` loop over the same workload.
The served measurement runs under the stage-pipelined policy (``--policy``
picks another).  Every served result is verified bitwise against its
serial counterpart, and the run must coalesce real micro-batches (max
batch > 1).

Full baseline runs additionally measure the **cluster row**: the same
workload at concurrency 256 through a sharded multi-process
``ClusterFrontend`` next to a single-process pipelined server, with the
throughput ratio recorded in the baseline.  On multi-CPU hosts the
cluster must win (ratio >= 1); a single-CPU host cannot materialise
process parallelism, so parity there is recorded, not failed.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py

Results are written to ``BENCH_serve.json`` at the repository root.

CI runs the smoke variant, which never rewrites the committed baseline —
it loads it and fails when the served per-request time regresses past
the tolerance (wide, because the quick smoke amortises warmup over 4x
fewer requests than the committed full-run baseline)::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        --quick --compare --tolerance 1.50
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.serve.bench import (
    CLUSTER_CONCURRENCY,
    CLUSTER_WORKERS,
    QUICK_REQUESTS,
    REQUESTS,
    SPEEDUP_FLOOR,
    compare_to_baseline,
    run_serve_benchmark,
)

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Serving-layer throughput benchmark (micro-batching vs serial)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"reduced scale: {QUICK_REQUESTS} requests instead of {REQUESTS}",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: compare against the committed baseline instead of "
        "rewriting it; exits 1 on a regression past --tolerance",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON for --compare (default: repo BENCH_serve.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.50,
        help="allowed served per-request slowdown vs the baseline (default 0.50)",
    )
    parser.add_argument(
        "--policy",
        choices=("pipelined", "serial", "auto"),
        default=None,
        help="measure this execution policy instead of the default "
        "pipelined one",
    )
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=None,
        metavar="N",
        help="also measure an N-worker multi-process cluster against a "
        f"single-process pipelined server at concurrency "
        f"{CLUSTER_CONCURRENCY} (default: {CLUSTER_WORKERS} on full "
        "baseline runs, skipped in --compare smoke mode; 0 disables)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    requests = QUICK_REQUESTS if args.quick else REQUESTS

    kwargs = {} if args.policy is None else {"policies": (args.policy,)}
    cluster_workers = args.cluster_workers
    if cluster_workers is None:
        # Full baseline runs measure the cluster row by default; the CI
        # smoke (--compare) skips the process spawns unless asked.
        cluster_workers = 0 if args.compare else CLUSTER_WORKERS
    if cluster_workers:
        kwargs["cluster_workers"] = cluster_workers
    payload = run_serve_benchmark(requests=requests, **kwargs)
    per_serial = payload["serial_seconds"] / requests * 1e3
    print(
        f"{requests} x shared-weight A-ABFT requests, "
        f"{payload['m']}x{payload['n']}x{payload['q']}, "
        f"concurrency {payload['concurrency']}"
    )
    print(f"  serial loop : {payload['serial_seconds']:8.2f} s "
          f"({per_serial:7.2f} ms/req)")
    for mode, row in payload["policies"].items():
        per_served = row["serve_seconds"] / requests * 1e3
        print(f"  served [{mode:>9s}]: {row['serve_seconds']:8.2f} s "
              f"({per_served:7.2f} ms/req, max batch "
              f"{row['max_batch_size']}, p50 {row['latency_p50_ms']:.1f} ms, "
              f"p99 {row['latency_p99_ms']:.1f} ms)")
    if "bubble_fraction" in payload:
        print(f"  pipeline bubble fraction: {payload['bubble_fraction']:.3f}")
    if "cluster" in payload:
        row = payload["cluster"]
        print(
            f"  cluster x{row['workers']} @ concurrency {row['concurrency']}: "
            f"{row['cluster_throughput_rps']:.0f} req/s vs single-process "
            f"pipelined {row['pipelined_throughput_rps']:.0f} req/s "
            f"({row['speedup_vs_pipelined']:.2f}x, p99 "
            f"{row['latency_p99_ms']:.1f} ms, {row['requeued']} requeued, "
            f"{row['host_cpus']} host cpu(s))"
        )
    print("  all served results bitwise identical to the serial loop")

    if args.compare:
        if not args.baseline.exists():
            print(f"FAIL: baseline {args.baseline} not found", file=sys.stderr)
            return 1
        passed, detail = compare_to_baseline(
            payload, json.loads(args.baseline.read_text()), args.tolerance
        )
        print(f"  {detail}")
        if not passed:
            print(
                "FAIL: served throughput regressed past the tolerance",
                file=sys.stderr,
            )
            return 1
        print("  served throughput within tolerance")
        return 0

    out = DEFAULT_BASELINE
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  speedup (served vs serial): {payload['speedup']:.2f}x -> {out.name}")

    if payload["speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: speedup below the {SPEEDUP_FLOOR}x acceptance threshold",
            file=sys.stderr,
        )
        return 1
    if "cluster" in payload:
        ratio = payload["cluster"]["speedup_vs_pipelined"]
        print(f"  speedup (cluster vs single-process pipelined): {ratio:.2f}x")
        if ratio < 1.0:
            msg = (
                f"cluster throughput ratio {ratio:.2f}x below 1.0 vs the "
                "single-process pipelined server at the same concurrency"
            )
            if (payload["cluster"]["host_cpus"] or 1) > 1:
                print(f"FAIL: {msg}", file=sys.stderr)
                return 1
            # One CPU = no process parallelism to win with; record the
            # honest parity instead of failing the whole baseline run.
            print(f"  note: {msg} — expected on a single-CPU host")
    return 0


if __name__ == "__main__":
    sys.exit(main())
