"""Command-line interface: ``aabft <command>``.

Commands
--------
``aabft table1``          — modelled Table I (performance comparison)
``aabft bounds``          — Tables II-IV (bound quality vs. exact errors)
``aabft detect``          — Figure 4 (fault-injection detection rates)
``aabft coverage``        — confidence-interval coverage validation
``aabft all``             — everything, at quick or full scale
``aabft demo``            — a protected multiplication with a live fault
``aabft ci-gate``         — detection-coverage + throughput + chaos-SLO gates
``aabft serve``           — micro-batching serving worker (JSONL requests)
``aabft cluster serve``   — sharded multi-process serving cluster (JSONL)
``aabft loadgen``         — closed-loop load generator + invariant checks
                            (``--cluster`` drives a worker-process cluster)
``aabft chaos run``       — chaos recipes against a live server, SLO verdict
``aabft bench``           — serve/engine throughput benchmarks
``aabft model plan``      — per-layer protection plan for a model workload
``aabft model run``       — execute a model through the protected engine
``aabft model bench``     — mixed-vs-full-vs-unchecked model benchmark
``aabft backends``        — registered compute backends + availability
``aabft autotune``        — time fused vs separate checks, cache the decisions

The ``--full`` flag switches to the paper's complete 512..8192 sweeps
(slow: exact arithmetic and functional simulation on a CPU).

The global ``--telemetry-out PATH`` flag (before the subcommand) streams
telemetry events — spans, campaign counters, engine metrics — to a
JSON-lines file, ending with a full metrics snapshot; this is the build
artifact the ``fault-coverage`` CI job uploads.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aabft",
        description=(
            "A-ABFT (DSN'14) reproduction: autonomous ABFT matrix "
            "multiplication experiments"
        ),
    )
    parser.add_argument("--seed", type=int, default=2014, help="global RNG seed")
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="stream telemetry (spans, metrics snapshot) to a JSON-lines file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="modelled performance table (Table I)")

    bounds = sub.add_parser("bounds", help="bound-quality tables (Tables II-IV)")
    bounds.add_argument("--full", action="store_true", help="paper-size sweep")
    bounds.add_argument("--samples", type=int, default=64)

    detect = sub.add_parser("detect", help="detection experiment (Figure 4)")
    detect.add_argument("--full", action="store_true", help="paper-size sweep")
    detect.add_argument("--injections", type=int, default=120, help="per cell")
    detect.add_argument(
        "--flips", type=int, default=1, help="bits flipped per fault (1/3/5)"
    )
    detect.add_argument(
        "--field",
        choices=("mantissa", "exponent", "sign"),
        default="mantissa",
    )

    cov = sub.add_parser(
        "coverage", help="confidence-interval coverage validation"
    )
    cov.add_argument("--full", action="store_true", help="paper-size sweep")
    cov.add_argument("--samples", type=int, default=64)

    allcmd = sub.add_parser("all", help="regenerate every table and figure")
    allcmd.add_argument("--full", action="store_true", help="paper-size sweeps")

    demo = sub.add_parser("demo", help="protected multiplication with a live fault")
    demo.add_argument("--n", type=int, default=256)

    gate = sub.add_parser(
        "ci-gate",
        help="CI gates: fault-detection coverage + warm-engine throughput",
    )
    gate.add_argument(
        "--quick", action="store_true", help="reduced campaign/benchmark scale"
    )
    gate.add_argument(
        "--coverage-floor",
        type=float,
        default=None,
        help="minimum A-ABFT detection rate over critical errors (default 0.85)",
    )
    gate.add_argument(
        "--throughput-tolerance",
        type=float,
        default=None,
        help="allowed warm per-call slowdown vs the baseline (default 0.30)",
    )
    gate.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="throughput baseline JSON (default: BENCH_engine.json)",
    )
    gate.add_argument(
        "--backends",
        metavar="NAMES",
        default=None,
        help="comma-separated backends the coverage gate must hold on "
        "(default: numpy plus every available deterministic backend)",
    )
    gate.add_argument(
        "--chaos-recipes",
        metavar="PATH",
        default=None,
        help="chaos recipe suite JSON for the chaos-SLO gate "
        "(default: the built-in quick suite)",
    )
    gate.add_argument(
        "--chaos-report",
        metavar="DIR",
        default=None,
        help="also write the dated chaos VALIDATION_REPORT pair here",
    )
    gate.add_argument(
        "--skip-chaos",
        action="store_true",
        help="skip the chaos-SLO gate (coverage/throughput gates only)",
    )

    serve = sub.add_parser(
        "serve",
        help="micro-batching serving worker driven by JSONL request specs",
    )
    serve.add_argument(
        "--requests",
        metavar="PATH",
        default="-",
        help="JSONL request-spec file ('-' = stdin); each line may set "
        "m, n, q, seed, count, deadline_s, id",
    )
    serve.add_argument("--m", type=int, default=256, help="default rows of A")
    serve.add_argument("--n", type=int, default=256, help="default inner dim")
    serve.add_argument("--q", type=int, default=16, help="default cols of B")
    serve.add_argument(
        "--deadline-s", type=float, default=None, help="default per-request deadline"
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, help="micro-batch size limit"
    )
    serve.add_argument(
        "--window-s", type=float, default=0.002, help="batch coalescing window"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256, help="admission-queue bound"
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="closed-loop load generator; exits 1 on accounting violations",
    )
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--concurrency", type=int, default=16)
    loadgen.add_argument("--m", type=int, default=128, help="rows of A")
    loadgen.add_argument("--n", type=int, default=128, help="inner dimension")
    loadgen.add_argument("--q", type=int, default=16, help="cols of each B")
    loadgen.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-request deadline (drives the degradation ladder)",
    )
    loadgen.add_argument(
        "--fresh-a",
        action="store_true",
        help="fresh A per request instead of one shared weight matrix",
    )
    loadgen.add_argument(
        "--verify-results",
        action="store_true",
        help="compare every served result against the reference product "
        "(a silent wrong answer becomes an accounting violation)",
    )
    loadgen.add_argument(
        "--cluster",
        action="store_true",
        help="drive a sharded multi-process cluster frontend instead of an "
        "in-process server (same accounting invariants, including the "
        "re-queue tally)",
    )
    loadgen.add_argument(
        "--workers",
        type=int,
        default=2,
        help="cluster worker processes (with --cluster; default 2)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="sharded multi-process serving cluster",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cserve = cluster_sub.add_parser(
        "serve",
        help="cluster serving front-end driven by JSONL request specs",
    )
    cserve.add_argument(
        "--requests",
        metavar="PATH",
        default="-",
        help="JSONL request-spec file ('-' = stdin); each line may set "
        "m, n, q, seed, count, deadline_s, id",
    )
    cserve.add_argument(
        "--workers", type=int, default=2, help="worker processes (shards)"
    )
    cserve.add_argument("--m", type=int, default=256, help="default rows of A")
    cserve.add_argument("--n", type=int, default=256, help="default inner dim")
    cserve.add_argument("--q", type=int, default=16, help="default cols of B")
    cserve.add_argument(
        "--deadline-s", type=float, default=None, help="default per-request deadline"
    )
    cserve.add_argument(
        "--max-batch", type=int, default=32, help="per-worker micro-batch limit"
    )
    cserve.add_argument(
        "--window-s", type=float, default=0.002, help="batch coalescing window"
    )
    cserve.add_argument(
        "--queue-depth", type=int, default=256, help="per-worker queue bound"
    )
    cserve.add_argument(
        "--seed", type=int, default=0, help="default RNG seed for operands"
    )
    cserve.add_argument(
        "--autotune-cache",
        metavar="PATH",
        default=None,
        help="shared on-disk autotune cache every worker consults",
    )

    chaos = sub.add_parser(
        "chaos",
        help="chaos harness: fault recipes against a live server under load",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="run a recipe suite and assert the SLOs; exits 1 on any breach",
    )
    chaos_run.add_argument(
        "--recipes",
        metavar="PATH",
        default=None,
        help="recipe suite JSON (default: the built-in quick suite, one "
        "recipe per fault kind)",
    )
    chaos_run.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="write the dated VALIDATION_REPORT_<date>.{json,md} pair here",
    )
    chaos_run.add_argument(
        "--p99-ms",
        type=float,
        default=None,
        help="p99 latency ceiling in milliseconds (default 500)",
    )
    chaos_run.add_argument(
        "--error-budget",
        type=float,
        default=None,
        help="tolerated bad-request fraction (default 0.35)",
    )
    chaos_run.add_argument(
        "--burn-limit",
        type=float,
        default=None,
        help="multi-window error-budget burn-rate limit (default 2.0)",
    )
    chaos_run.add_argument(
        "--requests-per-wave", type=int, default=24,
        help="background-traffic wave size (default 24)",
    )
    chaos_run.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop concurrency of the background traffic (default 8)",
    )
    chaos_run.add_argument("--m", type=int, default=96, help="rows of A")
    chaos_run.add_argument("--n", type=int, default=96, help="inner dimension")
    chaos_run.add_argument("--q", type=int, default=12, help="cols of each B")
    chaos_run.add_argument(
        "--deadline-s",
        type=float,
        default=0.5,
        help="per-request deadline of the background traffic (default 0.5)",
    )

    bench = sub.add_parser(
        "bench", help="serve/engine throughput benchmarks"
    )
    bench.add_argument(
        "--which",
        choices=("serve", "engine", "all"),
        default="serve",
        help="which benchmark to run (default: serve)",
    )
    bench.add_argument(
        "--quick", action="store_true", help="reduced request count"
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: compare against the committed baseline instead of "
        "rewriting it; exits 1 on a regression past --tolerance",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline JSON for --compare (default: repo BENCH_serve.json / "
        "BENCH_engine.json)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed per-request slowdown vs the baseline (default 0.30)",
    )
    bench.add_argument(
        "--policy",
        choices=("pipelined", "serial", "auto"),
        default=None,
        help="serve bench: measure only this execution policy (default: "
        "pipelined)",
    )

    model = sub.add_parser(
        "model",
        help="chained-GEMM model workloads with adaptive per-layer ABFT",
    )
    model_sub = model.add_subparsers(dest="model_command", required=True)

    def _add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec",
            metavar="PATH",
            default=None,
            help="ModelSpec JSON file; overrides the builder flags below",
        )
        p.add_argument(
            "--model",
            choices=("mlp", "attention"),
            default="mlp",
            help="built-in model shape (default: mlp)",
        )
        p.add_argument("--batch", type=int, default=64, help="batch size")
        p.add_argument(
            "--d-in", type=int, default=256, help="mlp: input feature width"
        )
        p.add_argument(
            "--hidden", type=int, default=512, help="mlp: hidden width"
        )
        p.add_argument(
            "--depth", type=int, default=4, help="mlp: number of layers"
        )
        p.add_argument(
            "--d-out",
            type=int,
            default=None,
            help="mlp: output width (default: hidden)",
        )
        p.add_argument(
            "--d-model", type=int, default=256, help="attention: model width"
        )
        p.add_argument(
            "--d-ff",
            type=int,
            default=None,
            help="attention: feed-forward width (default: 4*d_model)",
        )
        p.add_argument(
            "--dtype",
            choices=("float64", "float32", "float16", "bfloat16"),
            default="float32",
            help="per-layer storage dtype (fp16/bf16 use the adaptive bound)",
        )
        p.add_argument(
            "--activation",
            choices=("none", "relu", "gelu"),
            default="relu",
            help="mlp: hidden-layer activation stub (default: relu)",
        )
        p.add_argument(
            "--block-size", type=int, default=32, help="checksum block size"
        )
        p.add_argument("--p", type=int, default=2, help="top-p parameter")
        p.add_argument(
            "--coverage-target",
            type=float,
            default=0.85,
            help="minimum protected-flops fraction the plan must reach",
        )
        p.add_argument(
            "--full-intensity",
            type=float,
            default=48.0,
            help="flops/byte at or above which a layer gets full A-ABFT",
        )
        p.add_argument(
            "--sea-intensity",
            type=float,
            default=16.0,
            help="flops/byte at or above which a layer gets the SEA check",
        )

    mplan = model_sub.add_parser(
        "plan", help="print the planner's per-layer protection decisions"
    )
    _add_model_args(mplan)
    mplan.add_argument(
        "--json", action="store_true", help="emit the plan as JSON"
    )

    mrun = model_sub.add_parser(
        "run", help="execute the model through the protected engine"
    )
    _add_model_args(mrun)
    mrun.add_argument(
        "--verify-results",
        action="store_true",
        help="compare the output against an unprotected reference pass; "
        "exits 1 on mismatch",
    )
    mrun.add_argument(
        "--inject-layer",
        metavar="NAME",
        default=None,
        help="flip one bit in the named layer's result (fault campaign); "
        "exits 1 when the fault lands on a protected layer undetected",
    )
    mrun.add_argument(
        "--inject-row", type=int, default=0, help="injected element row"
    )
    mrun.add_argument(
        "--inject-col", type=int, default=0, help="injected element column"
    )
    mrun.add_argument(
        "--inject-field",
        choices=("mantissa", "exponent", "sign"),
        default="exponent",
        help="bit field to flip (default: exponent)",
    )

    mbench = model_sub.add_parser(
        "bench",
        help="mixed-vs-full-vs-unchecked benchmark (BENCH_models.json)",
    )
    mbench.add_argument(
        "--quick", action="store_true", help="reduced repeat count"
    )
    mbench.add_argument(
        "--compare",
        action="store_true",
        help="smoke mode: compare against the committed baseline instead of "
        "rewriting it; exits 1 on a regression past --tolerance",
    )
    mbench.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline JSON for --compare (default: repo BENCH_models.json)",
    )
    mbench.add_argument(
        "--tolerance",
        type=float,
        default=0.50,
        help="allowed mixed-plan slowdown vs the baseline (default 0.50)",
    )

    backends = sub.add_parser(
        "backends",
        help="list registered compute backends, capabilities, availability",
    )
    backends.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any registered backend is unavailable",
    )

    autotune = sub.add_parser(
        "autotune",
        help="time fused vs separate checks per shape and cache the decisions",
    )
    autotune.add_argument(
        "--shapes",
        metavar="MxNxQ[,MxNxQ...]",
        default="256x256x256",
        help="comma-separated problem shapes to tune (default 256x256x256)",
    )
    autotune.add_argument(
        "--block-size", type=int, default=64, help="checksum block size"
    )
    autotune.add_argument("--p", type=int, default=2, help="top-p parameter")
    autotune.add_argument(
        "--scheme",
        choices=("aabft", "sea", "fixed"),
        default="aabft",
        help="bound scheme of the tuned config",
    )
    autotune.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per candidate"
    )
    autotune.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="autotune cache file (default: $AABFT_AUTOTUNE_CACHE or "
        "~/.cache/aabft/autotune.json)",
    )
    autotune.add_argument(
        "--force",
        action="store_true",
        help="re-time even when the cache already holds a decision",
    )
    autotune.add_argument(
        "--expect-cached",
        action="store_true",
        help="assert every shape is served from the cache (no timing); "
        "exits 1 otherwise — the CI smoke check for cache reuse",
    )
    return parser


def _cmd_table1() -> int:
    from .experiments import overhead_summary, render_table1, run_table1

    rows = run_table1()
    print(render_table1(rows))
    print(overhead_summary(rows))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .experiments import (
        TABLE2_UNIT,
        TABLE3_HUNDRED,
        TABLE4_DYNAMIC,
        measure_bound_quality,
        render_bound_table,
    )
    from .workloads import SUITE_DYNAMIC_K2, SUITE_HUNDRED, SUITE_UNIT

    sizes = (512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192) if args.full else (
        512,
        1024,
    )
    rng = np.random.default_rng(args.seed)
    for suite, paper, label in (
        (SUITE_UNIT, TABLE2_UNIT, "Table II — inputs U(-1, 1)"),
        (SUITE_HUNDRED, TABLE3_HUNDRED, "Table III — inputs U(-100, 100)"),
        (SUITE_DYNAMIC_K2, TABLE4_DYNAMIC, "Table IV — Eq. 47 (alpha=0, kappa=2)"),
    ):
        rows = [
            measure_bound_quality(suite, n, rng, num_samples=args.samples)
            for n in sizes
        ]
        print(render_bound_table(rows, paper, title=label))
        print()
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from .experiments import render_figure4, run_figure4
    from .workloads import DETECTION_SUITES

    sizes = (512, 1024, 2048, 4096, 8192) if args.full else (512, 1024)
    cells = run_figure4(
        suites=DETECTION_SUITES,
        sizes=sizes,
        injections_per_cell=args.injections,
        fields=(args.field,),
        num_flips=args.flips,
        seed=args.seed,
    )
    print(render_figure4(cells))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from .experiments import measure_coverage, render_coverage
    from .workloads import PAPER_SUITES

    sizes = (512, 1024, 2048, 4096, 8192) if args.full else (512, 1024)
    rng = np.random.default_rng(args.seed)
    rows = [
        measure_coverage(suite, n, rng, num_samples=args.samples)
        for suite in PAPER_SUITES
        for n in sizes
    ]
    print(render_coverage(rows))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import FULL, QUICK, run_all

    print(run_all(FULL if args.full else QUICK, seed=args.seed))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .abft.pipeline import AABFTPipeline
    from .faults.injector import FaultInjector
    from .faults.model import FaultSite, FaultSpec
    from .gpusim.simulator import GpuSimulator

    rng = np.random.default_rng(args.seed)
    n = args.n - args.n % 64 or 64
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))

    sim = GpuSimulator()
    pipeline = AABFTPipeline(sim, block_size=64, p=2)

    clean = pipeline.run(a, b)
    print(f"fault-free run: detected={clean.detected} (expect False)")

    num_blocks = (n // 64) ** 2
    from .fp.errorvec import ErrorVector

    bit = int(rng.integers(44, 52))  # a high mantissa bit: visibly critical
    spec = FaultSpec(
        sm_id=int(rng.integers(min(sim.device.num_sms, num_blocks))),
        site=FaultSite.INNER_ADD,
        module_row=3,
        module_col=5,
        error_vector=ErrorVector(mask=1 << bit, field="mantissa", bit_indices=(bit,)),
        k_injection=int(rng.integers(n)),
    )
    injector = FaultInjector(spec, rng)
    faulty = pipeline.run(a, b, injector=injector)
    print(f"injected: {spec.describe()}")
    print(
        f"faulty run: detected={faulty.detected}, "
        f"failed checks={faulty.report.num_failed}, "
        f"located={faulty.report.located_errors}"
    )
    print(sim.profiler.summary())
    return 0


def _cmd_ci_gate(args: argparse.Namespace) -> int:
    from .cigate import (
        DEFAULT_COVERAGE_FLOOR,
        DEFAULT_THROUGHPUT_TOLERANCE,
        run_ci_gate,
    )

    floor = (
        args.coverage_floor
        if args.coverage_floor is not None
        else DEFAULT_COVERAGE_FLOOR
    )
    tolerance = (
        args.throughput_tolerance
        if args.throughput_tolerance is not None
        else DEFAULT_THROUGHPUT_TOLERANCE
    )
    backends = (
        tuple(name.strip() for name in args.backends.split(",") if name.strip())
        if args.backends is not None
        else None
    )
    code, results = run_ci_gate(
        quick=args.quick,
        coverage_floor=floor,
        throughput_tolerance=tolerance,
        baseline_path=args.baseline,
        seed=args.seed,
        backends=backends,
        chaos=not args.skip_chaos,
        chaos_recipes_path=args.chaos_recipes,
        chaos_report_dir=args.chaos_report,
    )
    for result in results:
        print(result.describe())
    print("ci-gate:", "all gates passed" if code == 0 else "GATE FAILURE")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve import MatmulServer, ServeConfig
    from .workloads import uniform_matrix

    cfg = ServeConfig(
        max_queue_depth=args.queue_depth,
        max_batch_size=args.max_batch,
        batch_window_s=args.window_s,
        default_deadline_s=args.deadline_s,
    )
    stream = sys.stdin if args.requests == "-" else open(args.requests)
    futures = []
    try:
        with MatmulServer(cfg) as server:
            for line in stream:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                spec = json.loads(line)
                m = int(spec.get("m", args.m))
                n = int(spec.get("n", args.n))
                q = int(spec.get("q", args.q))
                count = int(spec.get("count", 1))
                rng = np.random.default_rng(int(spec.get("seed", args.seed)))
                a = uniform_matrix(m, n, rng)
                for i in range(count):
                    b = uniform_matrix(n, q, rng)
                    base = spec.get("id")
                    request_id = (
                        None if base is None
                        else (base if count == 1 else f"{base}.{i}")
                    )
                    futures.append(
                        server.submit(
                            a, b,
                            deadline_s=spec.get("deadline_s"),
                            request_id=request_id,
                        )
                    )
            responses = [f.result() for f in futures]
    finally:
        if stream is not sys.stdin:
            stream.close()
    served = rejected = 0
    for r in responses:
        print(json.dumps({
            "request_id": r.request_id,
            "status": r.status.value,
            "detected": r.detected,
            "corrected": r.corrected,
            "recomputed": r.recomputed,
            "rejected_reason": r.rejected_reason,
            "batch_size": r.batch_size,
            "queue_wait_s": round(r.queue_wait_s, 6),
            "service_s": round(r.service_s, 6),
        }))
        served += r.ok
        rejected += not r.ok
    print(json.dumps({
        "summary": {"submitted": len(responses), "served": served,
                    "rejected": rejected},
    }))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeConfig, run_loadgen

    kwargs = dict(
        requests=args.requests,
        concurrency=args.concurrency,
        m=args.m,
        n=args.n,
        q=args.q,
        shared_a=not args.fresh_a,
        deadline_s=args.deadline_s,
        seed=args.seed,
        verify_results=args.verify_results,
    )
    if args.cluster:
        from .cluster import ClusterConfig, ClusterFrontend

        cluster_cfg = ClusterConfig(
            serve=ServeConfig(
                max_queue_depth=max(256, 2 * args.concurrency),
            ),
            num_workers=args.workers,
        )

        def _factory():
            frontend = ClusterFrontend(cluster_cfg)
            frontend.wait_ready(timeout=120.0)
            return frontend

        result = run_loadgen(client_factory=_factory, **kwargs)
    else:
        result = run_loadgen(**kwargs)
    print(json.dumps(result.summary(), indent=2))
    if not result.ok:
        for violation in result.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json

    from .cluster import ClusterConfig, ClusterFrontend
    from .serve import ServeConfig
    from .workloads import uniform_matrix

    cfg = ClusterConfig(
        serve=ServeConfig(
            max_queue_depth=args.queue_depth,
            max_batch_size=args.max_batch,
            batch_window_s=args.window_s,
            default_deadline_s=args.deadline_s,
        ),
        num_workers=args.workers,
        autotune_cache=args.autotune_cache,
    )
    stream = sys.stdin if args.requests == "-" else open(args.requests)
    futures = []
    try:
        with ClusterFrontend(cfg) as frontend:
            frontend.wait_ready(timeout=120.0)
            for line in stream:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                spec = json.loads(line)
                m = int(spec.get("m", args.m))
                n = int(spec.get("n", args.n))
                q = int(spec.get("q", args.q))
                count = int(spec.get("count", 1))
                rng = np.random.default_rng(int(spec.get("seed", args.seed)))
                a = uniform_matrix(m, n, rng)
                for i in range(count):
                    b = uniform_matrix(n, q, rng)
                    base = spec.get("id")
                    request_id = (
                        None if base is None
                        else (base if count == 1 else f"{base}.{i}")
                    )
                    futures.append(
                        frontend.submit(
                            a, b,
                            deadline_s=spec.get("deadline_s"),
                            request_id=request_id,
                        )
                    )
            responses = [f.result() for f in futures]
    finally:
        if stream is not sys.stdin:
            stream.close()
    served = rejected = 0
    for r in responses:
        print(json.dumps({
            "request_id": r.request_id,
            "status": r.status.value,
            "detected": r.detected,
            "corrected": r.corrected,
            "recomputed": r.recomputed,
            "rejected_reason": r.rejected_reason,
            "batch_size": r.batch_size,
            "requeues": r.requeues,
            "queue_wait_s": round(r.queue_wait_s, 6),
            "service_s": round(r.service_s, 6),
        }))
        served += r.ok
        rejected += not r.ok
    print(json.dumps({
        "summary": {"submitted": len(responses), "served": served,
                    "rejected": rejected, "workers": args.workers},
    }))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos import SLOSpec, default_quick_suite, load_recipes, run_chaos
    from .telemetry import get_registry

    recipes = (
        load_recipes(args.recipes)
        if args.recipes is not None
        else default_quick_suite()
    )
    slo_kwargs = {}
    if args.p99_ms is not None:
        slo_kwargs["p99_latency_s"] = args.p99_ms / 1e3
    if args.error_budget is not None:
        slo_kwargs["error_budget"] = args.error_budget
    if args.burn_limit is not None:
        slo_kwargs["burn_rate_limit"] = args.burn_limit
    slo = SLOSpec(**slo_kwargs)

    report = run_chaos(
        recipes,
        slo,
        requests_per_wave=args.requests_per_wave,
        concurrency=args.concurrency,
        m=args.m,
        n=args.n,
        q=args.q,
        deadline_s=args.deadline_s,
        seed=args.seed,
        registry=get_registry(),
    )
    print(json.dumps(report.to_dict(), indent=2))
    if args.report is not None:
        paths = report.write(args.report)
        print(f"report written -> {paths['markdown']}", file=sys.stderr)
    if not report.ok:
        for breach in report.breaches:
            print(f"SLO BREACH [{breach.slo}]: {breach.detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    if args.which == "all" and args.baseline is not None:
        # One --baseline path cannot serve two different baselines; the old
        # behaviour silently ignored it, defeating the comparison.
        print(
            "error: --baseline cannot be combined with --which all (the "
            "serve and engine benchmarks use different baseline files); "
            "run them separately or rely on the repo defaults",
            file=sys.stderr,
        )
        return 2
    code = 0
    if args.which in ("serve", "all"):
        from .serve.bench import (
            QUICK_REQUESTS,
            REQUESTS,
            SPEEDUP_FLOOR,
            compare_to_baseline,
            default_baseline_path,
            run_serve_benchmark,
        )

        bench_kwargs = {}
        if getattr(args, "policy", None) is not None:
            bench_kwargs["policies"] = (args.policy,)
        payload = run_serve_benchmark(
            requests=QUICK_REQUESTS if args.quick else REQUESTS,
            seed=args.seed,
            **bench_kwargs,
        )
        print(
            f"serve bench: {payload['requests']} requests "
            f"{payload['m']}x{payload['n']}x{payload['q']} at "
            f"concurrency {payload['concurrency']}"
        )
        print(
            f"  serial loop : {payload['serial_seconds']:.2f} s "
            f"({payload['serial_throughput_rps']:.0f} req/s)"
        )
        for mode, row in payload["policies"].items():
            print(
                f"  served [{mode:>9s}]: {row['serve_seconds']:.2f} s "
                f"({row['serve_throughput_rps']:.0f} req/s, "
                f"p50 {row['latency_p50_ms']:.1f} ms, "
                f"p99 {row['latency_p99_ms']:.1f} ms, "
                f"max batch {row['max_batch_size']})"
            )
        print(f"  speedup     : {payload['speedup']:.2f}x "
              f"({payload['primary_policy']} vs serial)")
        if "bubble_fraction" in payload:
            print(
                f"  pipeline bubble fraction: "
                f"{payload['bubble_fraction']:.3f}"
            )
        if args.compare:
            path = (
                Path(args.baseline)
                if args.baseline is not None
                else default_baseline_path()
            )
            if not path.exists():
                print(f"FAIL: baseline {path} not found", file=sys.stderr)
                return 1
            passed, detail = compare_to_baseline(
                payload, json.loads(path.read_text()), args.tolerance
            )
            print(f"  {detail}")
            if not passed:
                print("FAIL: serve throughput regressed", file=sys.stderr)
                code = 1
        else:
            out = Path.cwd() / "BENCH_serve.json"
            out.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"  baseline written -> {out}")
            if not args.quick and payload["speedup"] < SPEEDUP_FLOOR:
                print(
                    f"FAIL: speedup below the {SPEEDUP_FLOOR}x acceptance "
                    "threshold",
                    file=sys.stderr,
                )
                code = 1
    if args.which in ("engine", "all"):
        from .cigate import throughput_gate

        result = throughput_gate(
            tolerance=args.tolerance,
            quick=args.quick,
            baseline_path=args.baseline,
        )
        print(result.describe())
        if not result.passed:
            code = 1
    return code


def _model_from_args(args: argparse.Namespace):
    from pathlib import Path

    from .models import ModelSpec, attention, mlp

    if args.spec is not None:
        return ModelSpec.from_json(Path(args.spec).read_text())
    if args.model == "attention":
        return attention(
            batch=args.batch,
            d_model=args.d_model,
            d_ff=args.d_ff,
            dtype=args.dtype,
        )
    return mlp(
        batch=args.batch,
        d_in=args.d_in,
        hidden=args.hidden,
        depth=args.depth,
        d_out=args.d_out,
        dtype=args.dtype,
        activation=args.activation,
    )


def _model_planner_from_args(args: argparse.Namespace):
    from .engine import AbftConfig
    from .models import ProtectionPlanner

    config = AbftConfig(block_size=args.block_size, p=args.p)
    planner = ProtectionPlanner(
        config,
        coverage_target=args.coverage_target,
        full_intensity=args.full_intensity,
        sea_intensity=args.sea_intensity,
    )
    return config, planner


def _cmd_model(args: argparse.Namespace) -> int:
    import json

    if args.model_command == "bench":
        from pathlib import Path

        from .models.bench import (
            QUICK_REPEATS,
            REPEATS,
            compare_to_baseline,
            default_baseline_path,
            run_model_benchmark,
        )

        payload = run_model_benchmark(
            repeats=QUICK_REPEATS if args.quick else REPEATS, seed=args.seed
        )
        print(
            f"model bench: {payload['model']['name']} "
            f"({len(payload['model']['layers'])} layers, "
            f"batch={payload['model']['batch']}, "
            f"{payload['repeats']} repeats)"
        )
        print(f"  mixed plan    : {payload['mixed_seconds'] * 1e3:8.2f} ms/pass "
              f"(coverage {payload['coverage']['mixed']:.2%})")
        print(f"  all-full plan : {payload['full_seconds'] * 1e3:8.2f} ms/pass")
        print(f"  unchecked     : "
              f"{payload['unchecked_seconds'] * 1e3:8.2f} ms/pass")
        print(f"  mixed/full latency ratio: "
              f"{payload['mixed_vs_full_ratio']:.2f}")
        if args.compare:
            path = (
                Path(args.baseline)
                if args.baseline is not None
                else default_baseline_path()
            )
            if not path.exists():
                print(f"FAIL: baseline {path} not found", file=sys.stderr)
                return 1
            passed, detail = compare_to_baseline(
                payload, json.loads(path.read_text()), args.tolerance
            )
            print(f"  {detail}")
            if not passed:
                print("FAIL: model benchmark regressed", file=sys.stderr)
                return 1
            return 0
        out = Path.cwd() / "BENCH_models.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  baseline written -> {out}")
        return 0

    model = _model_from_args(args)
    config, planner = _model_planner_from_args(args)
    plan = planner.plan(model)

    if args.model_command == "plan":
        if args.json:
            print(json.dumps(plan.to_dict(), indent=2))
        else:
            print(plan.describe())
        if not plan.meets_target:
            print(
                f"FAIL: coverage {plan.coverage:.2%} below the "
                f"{plan.coverage_target:.2%} target",
                file=sys.stderr,
            )
            return 1
        return 0

    # model run
    from .engine import MatmulEngine
    from .models import ModelInjection, ModelRunner
    from .telemetry import get_registry

    inject = None
    if args.inject_layer is not None:
        inject = ModelInjection(
            layer=args.inject_layer,
            row=args.inject_row,
            col=args.inject_col,
            fault_field=args.inject_field,
        )
    registry = get_registry()
    with MatmulEngine(config, registry=registry) as engine:
        runner = ModelRunner(engine, registry=registry)
        result = runner.run(
            model,
            plan,
            seed=args.seed,
            inject=inject,
            verify=args.verify_results,
        )

    code = 0
    summary = result.to_dict()
    summary["plan_coverage"] = round(plan.coverage, 6)
    print(json.dumps(summary, indent=2))
    if args.verify_results and not result.verified:
        print(
            f"FAIL: output diverged from the reference pass "
            f"(max |diff| = {result.max_abs_diff:.3e})",
            file=sys.stderr,
        )
        code = 1
    if inject is not None:
        run = result.layer_run(inject.layer)
        if run.protected and not run.detected:
            print(
                f"FAIL: injected fault in protected layer "
                f"{inject.layer!r} went undetected",
                file=sys.stderr,
            )
            code = 1
    return code


def _cmd_backends(args: argparse.Namespace) -> int:
    from .backends import default_registry

    registry = default_registry()
    rows = registry.describe()
    name_w = max(len(row["name"]) for row in rows)
    unavailable = 0
    for row in rows:
        if row["available"]:
            status = "available"
        else:
            status = f"unavailable: {row['reason']}"
            unavailable += 1
        flags = []
        if not row["deterministic"]:
            flags.append("non-deterministic")
        if not row["fused_encode"]:
            flags.append("no-fused-encode")
        if not row["fused_online"]:
            flags.append("no-fused-online")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        print(
            f"{row['name']:<{name_w}}  {status:<40} "
            f"dtypes={','.join(row['dtypes'])}{flag_text}"
        )
        print(f"{'':<{name_w}}  {row['description']}")
    if args.strict and unavailable:
        print(f"FAIL: {unavailable} backend(s) unavailable", file=sys.stderr)
        return 1
    return 0


def _parse_shapes(text: str) -> list[tuple[int, int, int]]:
    shapes = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.lower().split("x")
        if len(parts) != 3:
            raise ValueError(f"shape {item!r} is not of the form MxNxQ")
        shapes.append(tuple(int(p) for p in parts))
    if not shapes:
        raise ValueError("no shapes given")
    return shapes


def _ms(seconds: float | None) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.3f} ms"


def _cmd_autotune(args: argparse.Namespace) -> int:
    from .backends import Autotuner, AutotuneCache
    from .engine import AbftConfig

    try:
        shapes = _parse_shapes(args.shapes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = AbftConfig(
        block_size=args.block_size, p=args.p, scheme=args.scheme
    )
    cache = AutotuneCache(args.cache)
    tuner = Autotuner(cache, repeats=args.repeats)
    code = 0
    for m, n, q in shapes:
        cached = tuner.lookup(
            m, n, q, dtype=np.dtype(np.float64), config=config
        )
        if args.expect_cached:
            if cached is None:
                print(
                    f"FAIL: {m}x{n}x{q} has no cached winner in {cache.path}",
                    file=sys.stderr,
                )
                code = 1
                continue
            choice, served_from_cache = cached, True
        else:
            served_from_cache = cached is not None and not args.force
            choice = (
                cached
                if served_from_cache
                else tuner.tune(
                    m, n, q, config=config, force=args.force, seed=args.seed
                )
            )
        fused = choice.fusion
        if fused == "fused":
            tb = choice.fused_tile_blocks
            fused += f" (tile_blocks={'full' if tb is None else tb})"
        source = "cached" if served_from_cache else "tuned"
        print(
            f"{m}x{n}x{q}: fusion={fused} "
            f"numpy gemm {choice.per_call_s * 1e3:.3f} ms + separate check "
            f"{_ms(choice.separate_check_s)} vs fused "
            f"{_ms(choice.fused_per_call_s)} ({source})"
        )
    print(f"cache: {cache.path} ({len(cache)} entries)")
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "coverage":
        return _cmd_coverage(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "ci-gate":
        return _cmd_ci_gate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "backends":
        return _cmd_backends(args)
    if args.command == "autotune":
        return _cmd_autotune(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``aabft`` console script)."""
    args = build_parser().parse_args(argv)
    if not args.telemetry_out:
        return _dispatch(args)
    from .telemetry import JsonLinesSink, get_registry

    registry = get_registry()
    sink = JsonLinesSink(args.telemetry_out)
    registry.attach(sink)
    try:
        return _dispatch(args)
    finally:
        registry.write_snapshot()
        registry.detach(sink)
        sink.close()


if __name__ == "__main__":
    sys.exit(main())
