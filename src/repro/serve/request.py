"""Request/response types of the serving layer.

A :class:`MatmulRequest` describes one protected multiplication a client
wants executed; a :class:`MatmulResponse` is the server's answer.  The
response is :class:`~repro.abft.result.ProtectedResult`-compatible
(``.c`` / ``.detected`` / ``.report``) so downstream code written against
the engine's results consumes served results unchanged — with one
addition that the serving layer is built around: an explicit
:class:`VerificationStatus`.

The status field means verification coverage is **never silent**: a
response either carries full A-ABFT checking (``FULL``), a cheaper
degraded check (``DEGRADED``), an explicit no-verification flag
(``UNCHECKED``) or an explicit rejection with a reason (``REJECTED``).
There is no state in which a caller can mistake an unverified result for
a verified one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..abft.checking import CheckReport
from ..engine.config import AbftConfig

__all__ = [
    "VerificationStatus",
    "MatmulRequest",
    "MatmulResponse",
    "ModelRequest",
    "ModelResponse",
]


class VerificationStatus(str, enum.Enum):
    """How much fault-tolerance checking a response actually received.

    ``str``-valued so statuses serialise naturally into JSON summaries and
    telemetry labels.
    """

    #: Checked with the scheme the request asked for (no degradation).
    FULL = "full"
    #: Checked, but with a cheaper scheme than requested (deadline ladder).
    DEGRADED = "degraded"
    #: Executed without any checksum verification — explicitly flagged.
    UNCHECKED = "unchecked"
    #: Not executed; ``rejected_reason`` says why (backpressure, deadline,
    #: shutdown).
    REJECTED = "rejected"


@dataclass
class MatmulRequest:
    """One protected-multiplication request.

    Attributes
    ----------
    a / b:
        The operands (raw matrices or
        :class:`~repro.engine.engine.EncodedOperand` handles).
    config:
        Per-request :class:`~repro.engine.config.AbftConfig`; defaults to
        the server's configured default.
    deadline_s:
        Relative deadline in seconds from submission.  Drives the
        degradation ladder; ``None`` means no deadline (always served at
        the requested protection level).
    request_id:
        Client-chosen identifier; the server assigns ``r<seq>`` when left
        ``None``.
    backend:
        Pin the GEMM stage to a named compute backend (see
        :mod:`repro.backends`); ``None`` keeps the config's choice
        (``"auto"`` by default).  An unknown pin is a request
        **rejection** (``"invalid_backend"``); a known-but-unavailable pin
        walks the engine's never-silent fallback, recorded on
        :attr:`MatmulResponse.backend_fallback`.
    """

    a: object
    b: object
    config: AbftConfig | None = None
    deadline_s: float | None = None
    request_id: str | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


@dataclass
class MatmulResponse:
    """The server's answer to one :class:`MatmulRequest`.

    Satisfies the :class:`~repro.abft.result.ProtectedResult` protocol for
    completed requests.  For ``REJECTED`` responses ``c`` is ``None`` and
    ``rejected_reason`` is set; the request was *not* executed.

    Attributes
    ----------
    request_id:
        Identifier of the request this answers.
    status:
        The verification coverage actually delivered (never silent).
    c:
        The result matrix, or ``None`` for rejected requests.  Requests
        served by one pipelined chunk share one buffer (see
        :attr:`~repro.abft.result.AbftResult.c`): holding this view keeps
        every one of their results in memory.
    report:
        The checksum report of the *final* (served) result; ``None`` for
        unchecked and rejected responses.
    scheme:
        The bound scheme that actually checked the result (``"aabft"``,
        ``"sea"``, ``"fixed"``), or ``None`` when unchecked/rejected.
    detected:
        Whether any checksum comparison of the served result failed.
    corrected:
        The initial result contained a located error that was corrected via
        the ABFT single-error rule (and re-verified).
    recomputed:
        The initial result was discarded and recomputed after a detection.
    retries:
        Number of recomputation attempts performed.
    rejected_reason:
        Why the request was rejected (``"queue_full"``, ``"deadline"``,
        ``"shutdown"``) — ``None`` for served responses.
    queue_wait_s / service_s:
        Seconds spent waiting in the admission queue / executing.
    batch_size:
        Size of the micro-batch this request rode in (0 when rejected).
    backend:
        The compute backend that executed the GEMM stage (``None`` for
        rejected responses).
    backend_fallback:
        ``None`` when the selected backend served the call; otherwise the
        never-silent record of why execution fell back to ``numpy``.
    """

    request_id: str
    status: VerificationStatus
    c: np.ndarray | None = None
    report: CheckReport | None = None
    scheme: str | None = None
    detected: bool = False
    corrected: bool = False
    recomputed: bool = False
    retries: int = 0
    rejected_reason: str | None = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    batch_size: int = 0
    backend: str | None = None
    backend_fallback: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the request was served (its result may still be degraded
        or unchecked — consult :attr:`status`)."""
        return self.status is not VerificationStatus.REJECTED

    @property
    def verified(self) -> bool:
        """Whether the result went through checksum verification at all."""
        return self.status in (
            VerificationStatus.FULL,
            VerificationStatus.DEGRADED,
        )


@dataclass
class ModelRequest:
    """One model-inference request: a chained-GEMM forward pass.

    Attributes
    ----------
    model:
        The :class:`~repro.models.spec.ModelSpec` to execute.
    plan:
        Per-layer protection plan; the server plans with its default
        :class:`~repro.models.planner.ProtectionPlanner` when ``None``.
    inputs:
        :class:`~repro.models.runner.ModelInputs` (input activation +
        weights); generated deterministically from ``seed`` when ``None``.
    seed:
        Input/weight generation seed used when ``inputs`` is ``None``.
    deadline_s:
        Relative deadline from submission.  The server re-evaluates the
        degradation ladder *per layer*: layers dispatched with plenty of
        budget keep their planned rung, layers dispatched under pressure
        walk down (full → SEA → unchecked), and every downgrade is
        recorded on the response — never silent.
    request_id:
        Client-chosen identifier; server-assigned ``m<seq>`` when ``None``.
    """

    model: object
    plan: object = None
    inputs: object = None
    seed: int = 0
    deadline_s: float | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )


@dataclass
class ModelResponse:
    """The server's answer to one :class:`ModelRequest`.

    Attributes
    ----------
    request_id:
        Identifier of the request this answers.
    status:
        Aggregate verification coverage over the whole forward pass:
        ``FULL`` when every layer ran at its planned rung, ``DEGRADED``
        when any layer was served below plan (the per-layer record is in
        ``result.layers``), ``UNCHECKED`` when *no* layer received any
        verification, ``REJECTED`` when the request was not executed.
    output:
        The model output activation, or ``None`` for rejected requests.
    result:
        The full :class:`~repro.models.runner.ModelRunResult` (per-layer
        rungs, schemes, detections, reuse and timing records).
    detected:
        Whether any layer's check flagged a fault during the final pass.
    degraded_layers:
        Names of layers served below their planned protection rung.
    rejected_reason:
        Why the request was rejected — ``None`` for served responses.
    queue_wait_s / service_s:
        Seconds spent waiting for admission / executing the pass.
    """

    request_id: str
    status: VerificationStatus
    output: np.ndarray | None = None
    result: object = None
    detected: bool = False
    degraded_layers: tuple[str, ...] = ()
    rejected_reason: str | None = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is not VerificationStatus.REJECTED

    @property
    def verified(self) -> bool:
        """Whether any layer of the pass received checksum verification."""
        return self.status in (
            VerificationStatus.FULL,
            VerificationStatus.DEGRADED,
        )
