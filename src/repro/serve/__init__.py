"""Fault-tolerant serving layer: micro-batching with adaptive degradation.

The serving layer turns the plan-caching engine into a request-driven
worker: concurrent protected-matmul requests are admitted through a
bounded queue (explicit backpressure), coalesced into same-shape
micro-batches executed through the engine's batched path, degraded in
protection level — never silently — under deadline pressure, and
corrected or recomputed on detected errors before the response resolves.

Entry points: :class:`MatmulServer` (in-process API, also behind
``aabft serve``), :func:`run_loadgen` (closed-loop driver behind
``aabft loadgen``) and :func:`run_serve_benchmark` (the
``BENCH_serve.json`` benchmark behind ``aabft bench``).
"""

from .bench import run_serve_benchmark
from .config import DEGRADATION_RUNGS, ServeConfig, rung_for_fraction
from .loadgen import LoadgenResult, percentile, run_loadgen
from .request import (
    MatmulRequest,
    MatmulResponse,
    ModelRequest,
    ModelResponse,
    VerificationStatus,
)
from .server import MatmulServer

__all__ = [
    "DEGRADATION_RUNGS",
    "LoadgenResult",
    "MatmulRequest",
    "MatmulResponse",
    "MatmulServer",
    "ModelRequest",
    "ModelResponse",
    "ServeConfig",
    "VerificationStatus",
    "percentile",
    "rung_for_fraction",
    "run_loadgen",
    "run_serve_benchmark",
]
