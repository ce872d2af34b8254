"""Result objects of protected multiplications and their shared surface.

Every protected-multiplication path in the library — the host path
(:mod:`repro.abft.multiply` / :class:`repro.engine.MatmulEngine`) and the
simulated GPU pipeline (:mod:`repro.abft.pipeline`) — returns an object with
the same read-only core: ``.c`` (the data result), ``.detected`` (whether
any checksum comparison failed) and ``.report`` (the full
:class:`~repro.abft.checking.CheckReport`).  :class:`ProtectedResult` names
that contract as a structural protocol, so callers can swap the host path
and the simulated pipeline without branching::

    def run_protected(mult) -> np.ndarray:
        result: ProtectedResult = mult()      # host or pipeline, same code
        if result.detected:
            raise RuntimeError(result.report.findings)
        return result.c
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .checking import CheckReport, EpsilonProvider
from .encoding import PartitionedLayout

__all__ = ["ProtectedResult", "AbftResult"]


@runtime_checkable
class ProtectedResult(Protocol):
    """Read-only surface shared by every protected-multiplication result.

    Both :class:`AbftResult` (host path) and
    :class:`~repro.abft.pipeline.PipelineResult` (simulated GPU pipeline)
    satisfy this protocol structurally; ``isinstance`` checks work because
    the protocol is runtime-checkable.
    """

    @property
    def c(self) -> np.ndarray:
        """The data result matrix (checksums and padding stripped)."""
        ...

    @property
    def detected(self) -> bool:
        """Whether the check flagged any comparison."""
        ...

    @property
    def report(self) -> CheckReport:
        """The checksum check report."""
        ...


@dataclass
class AbftResult:
    """Everything an ABFT-protected multiplication produced.

    Attributes
    ----------
    c:
        The data result matrix (checksums and padding stripped) — what an
        unprotected ``a @ b`` would have returned.  The items of one
        pipelined chunk product share one buffer: each item's ``c`` is a
        C-contiguous view of it, so keeping one keeps the chunk's data
        alive (``c.copy()`` keeps the item's alone).
    c_fc:
        The raw full-checksum result (encoded coordinates).  A result
        made by :meth:`deferred` builds it on first read and keeps it;
        every later read returns the same array.
    report:
        The checksum check report.
    row_layout / col_layout:
        Layouts of the encoded result (for error location / correction).
    provider:
        The epsilon provider used for the check (reusable for re-checks and
        correction verification).
    backend:
        The compute backend that executed the GEMM stage (``None`` for
        paths predating backend dispatch, e.g. fabricated results).
    backend_fallback:
        ``None`` when the selected backend served the call; otherwise the
        never-silent record of why execution fell back to ``numpy``
        (selection-time rejection or dispatch-time failure).
    fused:
        Whether the multiply+check ran through the fused online-ABFT tile
        loop (per-tile checks, early abort, tile-granular recompute)
        instead of the separate passes.
    fused_fallback:
        ``None`` when the requested fusion strategy ran; otherwise the
        never-silent record of why a fused request executed separately.
    """

    c: np.ndarray
    c_fc: np.ndarray
    report: CheckReport
    row_layout: PartitionedLayout
    col_layout: PartitionedLayout
    provider: EpsilonProvider
    backend: str | None = None
    backend_fallback: str | None = None
    fused: bool = False
    fused_fallback: str | None = None

    @property
    def detected(self) -> bool:
        """Whether the check flagged any comparison."""
        return self.report.error_detected

    @classmethod
    def deferred(
        cls, build_c_fc: Callable[[], np.ndarray], **fields
    ) -> AbftResult:
        """A result whose ``c_fc`` is ``build_c_fc()``, called on the
        first read of ``c_fc`` (the pipelined executor's compact chunk
        items, whose product holds no padding columns)."""
        result = cls(c_fc=None, **fields)
        del result.c_fc
        result._build_c_fc = build_c_fc
        return result

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a deferred
        # ``c_fc`` before its first read.  Racing first reads may both
        # build; ``setdefault`` keeps one array for every reader.
        build = self.__dict__.get("_build_c_fc")
        if name != "c_fc" or build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return self.__dict__.setdefault("c_fc", build())
