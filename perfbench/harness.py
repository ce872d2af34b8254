"""Shared pieces of the benchmark: seeded inputs, percentiles, failure
accounting, spans, computed operation counts and host facts.

Nothing here imports ``repro``: the workload modules do, after ``run.py``
has isolated the environment and put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Every way one operation can fail, in the order a classifier checks them.
#: An operation counts against ``failed`` once, under its first kind.
FAILURE_KINDS = (
    "raised",
    "rejected",
    "dropped",
    "invalid_path",
    "degraded",
    "false_detection",
    "wrong_result",
    "missed_fault",
)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def operand_pool(seed: int, count: int, m: int, n: int, q: int, dtype) -> list:
    """``count`` seeded ``(a, b)`` pairs of uniform(-1, 1) operands."""
    rng = np.random.default_rng([seed, m, n, q, count])
    dtype = np.dtype(dtype)
    return [
        (
            rng.uniform(-1.0, 1.0, (m, n)).astype(dtype),
            rng.uniform(-1.0, 1.0, (n, q)).astype(dtype),
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float, *, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    The value is a measured sample (rank ``ceil(q/100 * n)``).  At least
    ``min_beyond`` samples must lie beyond that rank; otherwise the
    percentile is not supported by the data and :class:`InsufficientSamples`
    is raised.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return float(xs[rank - 1])


def median(samples) -> float:
    """Median (upper-middle for even counts) that is always a measured value."""
    xs = sorted(samples)
    if not xs:
        raise InsufficientSamples("median of no samples")
    return float(xs[len(xs) // 2])


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Calibration kernel: one float64 ``CAL_N x CAL_N`` product on one BLAS
#: thread, with no code of the program in it.
CAL_N = 256
#: The calibration kernel's time on the reference host.  Every reported
#: time is scaled to a host that runs the kernel this fast.
CAL_REFERENCE_S = 0.5e-3
#: Calibration samples on each side of an operation that give the host's
#: speed at that moment.
CAL_HALF_WINDOW = 10
#: Calibration samples on each side of one timed set-up.
CAL_SETUP_SAMPLES = 5


class HostSpeed:
    """Measures the host's speed right next to the timed operations.

    A shared host's speed drifts: on the 2-vCPU VM this benchmark was
    sized on, one single-threaded numpy GEMM took 1.8 ms for half a minute
    and 3.0 ms for the next, with no other process of ours running, and
    the program's calls slowed by the same factor.  Raw wall times then
    measure the neighbours.  So each workload runs the fixed calibration
    kernel next to every timed operation, and reports the operation's wall
    time scaled by ``CAL_REFERENCE_S`` over the median calibration time
    around it: the operation's time on a host of the reference speed.  The
    raw wall times stay in the run's details.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0xCA1])
        self._a = rng.uniform(-1.0, 1.0, (CAL_N, CAL_N))
        self._b = rng.uniform(-1.0, 1.0, (CAL_N, CAL_N))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Seconds of one calibration kernel, also kept in ``samples``."""
        t0 = time.perf_counter()
        self._a @ self._b
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def samples_of(self, count: int) -> list[float]:
        return [self.sample() for _ in range(count)]

    def factor(self) -> float:
        """How much slower than the reference this run's host ran overall."""
        return median(self.samples) / CAL_REFERENCE_S


def to_reference(seconds: float, calibration) -> float:
    """``seconds`` of wall time on a host whose kernel took ``calibration``."""
    return seconds * CAL_REFERENCE_S / median(calibration)


def local_calibration(calibration, half_window: int = CAL_HALF_WINDOW) -> list:
    """The host's speed at each position of a calibration series.

    Position ``i`` reads the median of the samples within ``half_window``
    positions of it, so one disturbed sample moves nothing.
    """
    n = len(calibration)
    return [
        median(calibration[max(0, i - half_window) : min(n, i + half_window + 1)])
        for i in range(n)
    ]


def to_reference_series(seconds, calibration, half_window: int = CAL_HALF_WINDOW) -> list:
    """Scale ``seconds[i]``, timed just before ``calibration[i]``, to the reference host."""
    if len(seconds) != len(calibration):
        raise ValueError(
            f"{len(seconds)} timings but {len(calibration)} calibration samples"
        )
    local = local_calibration(calibration, half_window)
    return [t * CAL_REFERENCE_S / c for t, c in zip(seconds, local)]


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Attempted operations and failures by kind.

    Every operation, timed or probe, is recorded exactly once, with the
    single failure kind its classifier returned (or ``None`` on success).
    """

    attempted: int = 0
    kinds: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)

    def record(self, kind: str | None, detail: str = "") -> None:
        if kind is not None and kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        if kind is not None:
            self.kinds[kind] += 1
            self.examples.setdefault(kind, detail)

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed_frac,
            "kinds": dict(self.kinds),
            "examples": self.examples,
        }


def result_tolerance(ref: np.ndarray, inner_dim: int, dtype) -> float:
    """Absolute tolerance between two evaluations of one product.

    Two BLAS evaluations of the same product may block the sums
    differently; each element then differs by at most a few rounding
    errors per accumulated term, scaled by the result's magnitude.
    """
    eps = float(np.finfo(np.dtype(dtype)).eps)
    scale = max(float(np.max(np.abs(ref))) if ref.size else 1.0, 1.0)
    return 4.0 * inner_dim * eps * scale


def within_tolerance(c, ref: np.ndarray, inner_dim: int, dtype) -> bool:
    if c is None or np.shape(c) != ref.shape:
        return False
    diff = np.abs(np.asarray(c, dtype=np.float64) - ref.astype(np.float64))
    return bool(np.all(np.isfinite(diff))) and float(diff.max()) <= result_tolerance(
        ref, inner_dim, dtype
    )


def classify_gemm(result, ref, inner_dim: int, dtype, require_fused) -> str | None:
    """Failure kind of one protected GEMM result (``None`` when good)."""
    if result.backend_fallback is not None:
        return "invalid_path"
    if require_fused is not None and bool(result.fused) != require_fused:
        return "invalid_path"
    if result.detected:
        return "false_detection"
    if not within_tolerance(result.c, ref, inner_dim, dtype):
        return "wrong_result"
    return None


def classify_response(response, ref, inner_dim: int, dtype) -> str | None:
    """Failure kind of one served matmul response (``None`` when good)."""
    status = getattr(response.status, "value", response.status)
    if status == "rejected":
        return "rejected"
    if response.backend_fallback is not None:
        return "invalid_path"
    if status != "full":
        return "degraded"
    if response.detected or response.corrected or response.recomputed:
        return "false_detection"
    if not within_tolerance(response.c, ref, inner_dim, dtype):
        return "wrong_result"
    return None


def classify_model(result, ref, inner_dim: int, dtype) -> str | None:
    """Failure kind of one full-plan model pass (``None`` when good)."""
    if any(layer.rung != "full" or layer.degraded for layer in result.layers):
        return "degraded"
    if any(layer.detected or layer.recomputed for layer in result.layers):
        return "false_detection"
    if not within_tolerance(result.output, ref, inner_dim, dtype):
        return "wrong_result"
    return None


def classify_probe(detected: bool) -> str | None:
    """Failure kind of one injected-fault probe."""
    return None if detected else "missed_fault"


@dataclass
class WorkloadRun:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end metrics (untraced run) or the
    per-layer metrics (traced run) by name; ``checks`` the traced run's
    reconciliation checks.
    """

    metrics: dict
    ledger: Ledger
    detail: dict
    checks: list = field(default_factory=list)
    tracer: "Tracer | None" = None


def check(name: str, ok: bool, **values) -> dict:
    """One reconciliation check with the figures it compared."""
    return {"check": name, "ok": bool(ok), **values}


def registry_counters(registry) -> dict:
    """The engine and serve counter totals the traced runs difference."""
    snap = registry.snapshot()

    def values(name):
        return snap.get(name, {}).get("values", [])

    return {
        "batch_mode": {
            v["labels"].get("mode"): v["value"]
            for v in values("abft_engine_execute_batch_total")
        },
        "fallbacks": sum(v["value"] for v in values("abft_backend_fallbacks_total")),
        "batches": sum(v["value"] for v in values("abft_serve_batches_total")),
        "fused_calls": sum(v["value"] for v in values("abft_fused_calls_total")),
    }


def engine_metrics(stats0, stats1, before: dict, after: dict, entries: int, wall_s: float) -> dict:
    """``engine.*`` per-layer metrics between two snapshots.

    ``stats0``/``stats1`` are ``MatmulEngine.stats()`` and ``before``/
    ``after`` :func:`registry_counters` at the two ends of the traced
    phase.  Times are per engine entry (a micro-batch or a protected layer
    call): ``entries`` of them took ``wall_s`` in total.  A pipelined batch
    overlaps its stages on the engine's pool, so the stage counters can
    exceed the wall time and ``engine.overhead_ms`` can be negative.
    """
    per = lambda seconds: seconds / entries * 1e3 if entries else 0.0  # noqa: E731
    enc = per(stats1.encode_seconds - stats0.encode_seconds)
    mul = per(stats1.multiply_seconds - stats0.multiply_seconds)
    chk = per(stats1.check_seconds - stats0.check_seconds)
    call = per(wall_s)
    hits = stats1.plan_hits - stats0.plan_hits
    misses = stats1.plan_misses - stats0.plan_misses
    calls = stats1.calls - stats0.calls
    out = {
        "engine.call_ms": call,
        "engine.encode_ms": enc,
        "engine.multiply_ms": mul,
        "engine.check_ms": chk,
        "engine.overhead_ms": call - (enc + mul + chk),
        "engine.plan_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "engine.fused_frac": (after["fused_calls"] - before["fused_calls"]) / calls
        if calls
        else 0.0,
    }
    for mode in ("serial", "fused", "pipelined"):
        out[f"engine.batch_mode.{mode}"] = after["batch_mode"].get(mode, 0.0) - before[
            "batch_mode"
        ].get(mode, 0.0)
    return out


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder, written out once when the run ends.

    Spans come from the benchmark's own files, around calls into each
    layer; spans of one operation share ``op_id``.  Thread-safe, because
    serve responses resolve on the server's dispatch thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, name, op_id, start, end, parent=None) -> int:
        span_id = self._new_id()
        span = Span(span_id, name, start, end, parent, str(op_id))
        with self._lock:
            self.spans.append(span)
        return span_id

    @contextmanager
    def span(self, name: str, op_id, parent: int | None = None):
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, str(op_id))
                )

    def timed(self, name: str, op_id, parent, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        with self.span(name, op_id, parent):
            return fn(*args, **kwargs)

    def seconds_by_op(self, names) -> dict[str, dict[str, float]]:
        """``{op_id: {name: summed seconds}}`` over spans named in ``names``."""
        names = set(names)
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for s in spans:
            if s.name in names:
                per_op = out.setdefault(s.op_id, {})
                per_op[s.name] = per_op.get(s.name, 0.0) + s.seconds
        return out

    def write(self, path: str) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        with self._lock:
            spans = list(self.spans)
        t0 = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": s.span_id, "parent": s.parent, "op": s.op_id},
            }
            for s in spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


# ----------------------------------------------------------------------
# computed operation counts (from array shapes; no cache effects)
# ----------------------------------------------------------------------
def encoded_dims(m: int, n: int, q: int, block_size: int) -> tuple[int, int]:
    """Encoded rows of ``A_cc`` and encoded columns of ``B_rc``."""
    return m + m // block_size, q + q // block_size


def stage_counts(m: int, n: int, q: int, block_size: int, p: int, itemsize: int) -> dict:
    """Computed flops and bytes of each stage of one protected ``m x n x q`` call.

    * checksum: one add per operand element; read the operand, write
      its encoding.
    * top_p: an absolute-value pass plus ``p`` max-search passes over
      each encoding, on a float64 work copy.
    * gemm: ``2 * M * n * Q`` on the encoded shapes; read both encodings,
      write the full-checksum result.
    * discrepancy: one add per result element along each axis, reading
      the result as float64.
    * tolerance_grid: ``p * p`` candidate products per compared element.
    """
    me, qe = encoded_dims(m, n, q, block_size)
    enc = me * n + n * qe
    result = me * qe
    grid = (me // (block_size + 1)) * qe + me * (qe // (block_size + 1))
    return {
        "checksum": {
            "flops": float(m * n + n * q),
            "bytes": float(itemsize * (m * n + n * q + enc)),
        },
        "top_p": {
            "flops": float((p + 1) * enc),
            "bytes": float(itemsize * enc + 8 * (p + 2) * enc),
        },
        "gemm": {
            "flops": float(2 * me * n * qe),
            "bytes": float(itemsize * (enc + result)),
        },
        "discrepancy": {
            "flops": float(2 * result),
            "bytes": float(2 * 8 * result + 8 * grid),
        },
        "tolerance_grid": {
            "flops": float(p * p * grid),
            "bytes": float(8 * 2 * p * (me + qe) + 8 * grid),
        },
    }


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cache_bytes(name: int) -> int | None:
    """glibc ``sysconf`` cache size (``_SC_LEVEL{2,3}_CACHE_SIZE``)."""
    try:
        value = int(ctypes.CDLL(None).sysconf(name))
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def host_info() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # show_config's dict layout varies across numpy builds
        blas = {}
    return {
        "host_cpus": host_cpus(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l2_bytes": _cache_bytes(191),
        "l3_bytes": _cache_bytes(194),
    }
