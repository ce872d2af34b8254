"""Execution policies for the unified batch-submission API.

:meth:`repro.engine.MatmulEngine.execute_batch` accepts a list of
``(a, b)`` operand pairs plus one :class:`ExecutionPolicy` describing
*how* the batch should run:

* ``mode="serial"`` — per-pair execution, fanned across the engine's
  thread pool when it has more than one worker;
* ``mode="pipelined"`` — the stage-pipelined executor
  (:mod:`repro.engine.pipeline`): chunked execution that, when the
  engine has two or more workers and the batch's items are large enough,
  overlaps each chunk's multiply with the encodes of the chunks after it
  and the check of the chunk before it;
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

    Backend pins and the fusion strategy are
    :class:`~repro.engine.config.AbftConfig` fields; pass
    ``execute_batch(config=...)`` to set them for one batch.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"mode must be one of {EXECUTION_MODES}, got {self.mode!r}"
            )

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with the given fields replaced (validated again)."""
        return _dc_replace(self, **changes)
