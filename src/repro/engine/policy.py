"""Execution policies for the unified batch-submission API.

:meth:`repro.engine.MatmulEngine.execute_batch` accepts a list of
``(a, b)`` operand pairs plus one :class:`ExecutionPolicy` describing
*how* the batch should run:

* ``mode="serial"`` — per-pair execution, fanned across the engine's
  thread pool when it has more than one worker;
* ``mode="pipelined"`` — the stage-pipelined executor
  (:mod:`repro.engine.pipeline`): chunked execution with
  encode/multiply/check stage slots scheduled by a cost model,
  overlapping the encode of chunk ``i+1`` with the multiply of chunk
  ``i`` and deferring checks into pipeline bubbles;
* ``mode="auto"`` (default) — pipelined whenever the batch meets its
  preconditions, serial otherwise.

Every mode is **bitwise identical** to sequential
:meth:`~repro.engine.MatmulEngine.matmul` calls; modes only trade
scheduling overhead against amortisation, never the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

from ..errors import ConfigurationError

__all__ = ["ExecutionPolicy", "EXECUTION_MODES"]

#: Valid execution modes.
EXECUTION_MODES = ("auto", "serial", "pipelined")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How :meth:`~repro.engine.MatmulEngine.execute_batch` runs a batch.

    Attributes
    ----------
    mode:
        ``"auto"``, ``"serial"`` or ``"pipelined"``.  An explicit
        ``"pipelined"`` request whose preconditions the batch does not
        meet (heterogeneous shapes, non-``aabft`` scheme, …) runs serial —
        the fallback is counted in ``abft_pipeline_fallbacks_total``,
        never silent.
    backend:
        Pin the GEMM stage to a named compute backend for this batch;
        ``None`` keeps the config's choice (``"auto"`` negotiation by
        default).
    exclude_backends:
        Backends negotiation must not consider for this batch (merged
        with the config's own exclusions).
    fusion:
        Online-ABFT fusion strategy for this batch: ``"fused"``,
        ``"separate"`` or ``"auto"`` (negotiated).  ``None`` keeps the
        config's own ``fusion`` knob.
    """

    mode: str = "auto"
    backend: str | None = None
    exclude_backends: tuple[str, ...] = ()
    fusion: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"mode must be one of {EXECUTION_MODES}, got {self.mode!r}"
            )
        if self.backend is not None and not isinstance(self.backend, str):
            raise ConfigurationError(
                f"backend must be a backend name or None, got "
                f"{type(self.backend).__name__}"
            )
        object.__setattr__(
            self, "exclude_backends", tuple(self.exclude_backends)
        )
        if self.fusion not in (None, "auto", "fused", "separate"):
            raise ConfigurationError(
                f"fusion must be None, 'auto', 'fused' or 'separate', got "
                f"{self.fusion!r}"
            )

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with the given fields replaced (validated again)."""
        return _dc_replace(self, **changes)
