"""A-ABFT: Autonomous Algorithm-Based Fault Tolerance for matrix
multiplications on GPUs — a from-scratch Python reproduction of
Braun, Halder & Wunderlich, DSN 2014 (doi:10.1109/DSN.2014.48).

Quick start::

    import numpy as np
    from repro import aabft_matmul

    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (512, 512))
    b = rng.uniform(-1, 1, (512, 512))
    result = aabft_matmul(a, b)          # autonomous error bounds
    assert not result.detected           # fault-free: no false positives
    c = result.c                         # the protected product

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.abft` — encoding/checking/correction + high-level API
- :mod:`repro.bounds` — A-ABFT probabilistic bounds, SEA, fixed, analytical
- :mod:`repro.fp` / :mod:`repro.exact` — floating-point substrate + exact
  (GMP-substitute) reference arithmetic
- :mod:`repro.gpusim` / :mod:`repro.kernels` — functional GPU simulator and
  the paper's kernels (Algorithms 1-3)
- :mod:`repro.faults` — bit-flip fault injection campaigns
- :mod:`repro.workloads` — the paper's input-matrix distributions
- :mod:`repro.perfmodel` / :mod:`repro.experiments` — Table I timing model
  and the per-table/figure experiment drivers
- :mod:`repro.telemetry` — metrics registry, timing spans and sinks
  (see docs/OBSERVABILITY.md)
- :mod:`repro.serve` — micro-batching request scheduler with backpressure
  and adaptive degradation (``aabft serve`` / ``aabft loadgen``)
- :mod:`repro.backends` — pluggable compute backends (numpy / cupy) with
  capability negotiation (``aabft backends``)
- :mod:`repro.chaos` — declarative chaos recipes + SLO harness over the
  serving layer (``aabft chaos run``, the ``chaos-slo`` CI gate)
- :mod:`repro.models` — chained-GEMM model-inference workloads with
  arithmetic-intensity-planned per-layer protection and mixed-precision
  (fp16/bf16) adaptive bounds (``aabft model plan|run|bench``)
"""

from .abft import (
    AABFTPipeline,
    AbftResult,
    CheckReport,
    ErrorClass,
    ErrorClassifier,
    PipelineResult,
    ProtectedResult,
    aabft_matmul,
    correct_single_error,
    fixed_abft_matmul,
    sea_abft_matmul,
)
from .backends import (
    Backend,
    BackendCapabilities,
    BackendRegistry,
    default_registry,
    get_backend,
)
from .engine import (
    EXECUTION_MODES,
    AbftConfig,
    EncodedOperand,
    EngineStats,
    ExecutionPolicy,
    MatmulEngine,
    default_engine,
)
from .bounds import (
    AnalyticalBound,
    BoundContext,
    BoundScheme,
    ErrorMap,
    FixedBound,
    ProbabilisticBound,
    SEABound,
    rounding_error_map,
)
from .chaos import (
    ChaosRecipe,
    ChaosReport,
    SLOSpec,
    default_quick_suite,
    run_chaos,
)
from .errors import (
    BoundSchemeError,
    ConfigurationError,
    CorrectionError,
    DeviceError,
    EncodingError,
    FaultSpecError,
    KernelLaunchError,
    ReproError,
    ShapeError,
)
from .faults import (
    CampaignConfig,
    CampaignResult,
    FaultCampaign,
    FaultInjector,
    FaultSite,
    FaultSpec,
)
from .gpusim import K20C, DeviceSpec, GpuSimulator
from .models import (
    LayerSpec,
    ModelCampaign,
    ModelPlan,
    ModelRunner,
    ModelSpec,
    ProtectionPlanner,
    attention,
    mlp,
)
from .serve import (
    MatmulRequest,
    MatmulResponse,
    MatmulServer,
    ModelRequest,
    ModelResponse,
    ServeConfig,
    VerificationStatus,
    run_loadgen,
)
from .telemetry import (
    NULL_REGISTRY,
    InMemorySink,
    JsonLinesSink,
    MetricsRegistry,
    PrometheusTextSink,
    get_registry,
    span,
)

__version__ = "0.1.0"

__all__ = [
    "AABFTPipeline",
    "AbftConfig",
    "AbftResult",
    "AnalyticalBound",
    "Backend",
    "BackendCapabilities",
    "BackendRegistry",
    "BoundContext",
    "BoundScheme",
    "BoundSchemeError",
    "CampaignConfig",
    "CampaignResult",
    "ChaosRecipe",
    "ChaosReport",
    "CheckReport",
    "ConfigurationError",
    "CorrectionError",
    "DeviceError",
    "DeviceSpec",
    "EncodedOperand",
    "EncodingError",
    "EngineStats",
    "ErrorClass",
    "ErrorClassifier",
    "ExecutionPolicy",
    "EXECUTION_MODES",
    "FaultCampaign",
    "FaultInjector",
    "FaultSite",
    "FaultSpec",
    "FaultSpecError",
    "FixedBound",
    "GpuSimulator",
    "InMemorySink",
    "JsonLinesSink",
    "K20C",
    "KernelLaunchError",
    "LayerSpec",
    "MatmulEngine",
    "MatmulRequest",
    "MatmulResponse",
    "MatmulServer",
    "MetricsRegistry",
    "ModelCampaign",
    "ModelPlan",
    "ModelRequest",
    "ModelResponse",
    "ModelRunner",
    "ModelSpec",
    "ProtectionPlanner",
    "NULL_REGISTRY",
    "PrometheusTextSink",
    "PipelineResult",
    "ProbabilisticBound",
    "ProtectedResult",
    "ReproError",
    "SEABound",
    "SLOSpec",
    "ServeConfig",
    "ShapeError",
    "VerificationStatus",
    "ErrorMap",
    "aabft_matmul",
    "attention",
    "mlp",
    "correct_single_error",
    "default_engine",
    "default_quick_suite",
    "default_registry",
    "get_backend",
    "fixed_abft_matmul",
    "get_registry",
    "rounding_error_map",
    "run_chaos",
    "run_loadgen",
    "sea_abft_matmul",
    "span",
    "__version__",
]
