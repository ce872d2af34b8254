"""Plan-caching batched execution engine for protected multiplications.

The classic one-shot functions (:func:`repro.abft.aabft_matmul` and
friends) rebuild every piece of shape-dependent state — partitioned
layouts, padding buffers, bound-scheme objects — on each call, and check
tolerances one scalar comparison at a time.  This package amortises all of
that behind a session object:

* :class:`AbftConfig` — every tuning knob (block size, top-p depth, omega,
  FMA modelling, tolerance floor, bound scheme) in one frozen, hashable
  value object;
* :class:`MatmulEngine` — caches execution plans per ``(shape, dtype,
  config)`` with LRU eviction, encodes operands once for reuse
  (:meth:`MatmulEngine.encode`), runs batches of pairs under one
  declarative :class:`ExecutionPolicy`
  (:meth:`MatmulEngine.execute_batch`: serial thread fan-out or the
  stage-pipelined chunk executor) and
  publishes counters (:meth:`MatmulEngine.stats`);
* :func:`default_engine` — the lazily created module-level engine the
  classic matmul functions route through, so even legacy call sites
  benefit from plan caching.

Example
-------
>>> import numpy as np
>>> from repro.engine import AbftConfig, MatmulEngine
>>> rng = np.random.default_rng(0)
>>> engine = MatmulEngine(AbftConfig(block_size=32))
>>> a = rng.uniform(-1, 1, (64, 64)); b = rng.uniform(-1, 1, (64, 64))
>>> results = engine.execute_batch([(a, b), (a, b + 1.0)])
>>> [r.detected for r in results]
[False, False]
>>> engine.stats().calls
2
"""

from .config import SCHEMES, AbftConfig
from .engine import EncodedOperand, MatmulEngine, default_engine
from .pipeline import pipeline_supported
from .plan import ExecutionPlan, PlanCache, build_plan
from .policy import EXECUTION_MODES, ExecutionPolicy
from .stats import EngineStats

__all__ = [
    "AbftConfig",
    "SCHEMES",
    "MatmulEngine",
    "EncodedOperand",
    "EngineStats",
    "ExecutionPlan",
    "ExecutionPolicy",
    "EXECUTION_MODES",
    "PlanCache",
    "build_plan",
    "default_engine",
    "pipeline_supported",
]
