#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gemm_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around each call into a
layer and reports the per-layer metrics, after checking that the layers
reconcile with the end-to-end timings.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero on any wrong output, undetected probe fault or
failed reconciliation check.

The program under test is imported from the checkout's ``src``; nothing
is installed.  Before importing it, the run pins its execution path: the
backend and fusion environment pins are cleared, the autotune cache
points at a fresh file, and BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gemm_small", "gemm_large", "serve_burst", "model_mlp")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def isolate_environment(scratch: str) -> None:
    """Pin the execution path before numpy or the program is imported."""
    os.environ.pop("AABFT_BACKEND", None)
    os.environ.pop("AABFT_FUSION", None)
    os.environ["AABFT_AUTOTUNE_CACHE"] = os.path.join(scratch, "autotune.json")
    # One BLAS thread, well under the cap of one per CPU: BLAS threads
    # then never compete with the engine's pool or the serve generator, and
    # a neighbour stealing a CPU slows the bare and protected products alike.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {src}/repro")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def load_metric_names() -> tuple[dict, dict]:
    """``({name: unit}, {name: unit})`` of end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, per_layer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    e2e, per_layer = load_metric_names()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        isolate_environment(scratch)
        import_program()
        import harness as H

        if args.workload in ("gemm_small", "gemm_large"):
            import gemm_workload as workload
        elif args.workload == "serve_burst":
            import serve_workload as workload
        else:
            import model_workload as workload
        outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = per_layer if args.trace else e2e
    values = dict(outcome.metrics)
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()
    unknown = sorted(set(values) - set(expected))
    if unknown:
        raise SystemExit(f"perfbench: workload reported unlisted metrics {unknown}")
    # A layer the workload never enters did no work on it: it reads 0.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in expected.items()
    }
    checks_ok = all(c["ok"] for c in outcome.checks)
    correct = outcome.ledger.failed == 0 and checks_ok
    if outcome.tracer is not None:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        outcome.tracer.write(path)
        outcome.detail["trace_file"] = os.path.relpath(path, ROOT)

    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<36} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for c in outcome.checks:
        print(f"{args.workload:<11} {'ok' if c['ok'] else 'FAILED':<6} {c['check']}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": H.host_info(),
        "failures": outcome.ledger.to_dict(),
        "checks": outcome.checks,
        **outcome.detail,
    }
    print(json.dumps({"detail": detail}, default=float))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.ledger.attempted,
                "failed": outcome.ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
