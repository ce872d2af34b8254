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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    requests = QUICK_REQUESTS if args.quick else REQUESTS

    kwargs = {} if args.policy is None else {"policies": (args.policy,)}
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
