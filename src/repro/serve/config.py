"""Configuration of the serving layer.

:class:`ServeConfig` bundles every scheduling knob — admission-queue
bound, micro-batch coalescing window, deadline/degradation policy and
retry behaviour — into one frozen, hashable object, mirroring how
:class:`~repro.engine.config.AbftConfig` captures the numerical knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace

from ..engine.config import AbftConfig
from ..engine.policy import ExecutionPolicy
from ..errors import ConfigurationError

__all__ = ["ServeConfig", "DEGRADATION_RUNGS", "rung_for_fraction"]

#: Valid degradation-ladder rungs, strongest protection first.
DEGRADATION_RUNGS = ("full", "sea", "unchecked")


def rung_for_fraction(
    remaining_fraction: float, degrade_fractions: tuple[float, ...]
) -> int:
    """Ladder rung index for a request's remaining-deadline fraction.

    ``remaining_fraction`` is ``remaining / total`` of the request's
    deadline budget at dispatch time.  ``degrade_fractions`` are strictly
    decreasing thresholds: a fraction at or above ``degrade_fractions[0]``
    keeps full protection (rung 0); below it, every further threshold
    crossed walks one rung down the ladder.  The result is monotone in
    deadline pressure — the ladder is always walked *in order*, never
    skipped upward.
    """
    rung = 0
    for threshold in degrade_fractions:
        if remaining_fraction < threshold:
            rung += 1
    return rung


@dataclass(frozen=True)
class ServeConfig:
    """Every scheduling knob of :class:`~repro.serve.server.MatmulServer`.

    Attributes
    ----------
    abft:
        Default :class:`~repro.engine.config.AbftConfig` for requests that
        do not carry their own.
    execution:
        The :class:`~repro.engine.policy.ExecutionPolicy` coalesced batches
        are dispatched under (default: mode ``"auto"``, which runs every
        eligible batch pipelined).
    max_queue_depth:
        Bound of the admission queue.  Submissions beyond it are rejected
        immediately with reason ``"queue_full"`` (explicit backpressure —
        the queue never grows without bound).
    max_batch_size:
        Largest micro-batch the dispatcher coalesces.
    batch_window_s:
        How long the dispatcher waits after the first request of a batch
        for same-shape/same-config followers.  ``0`` disables time-window
        coalescing (whatever is queued still batches).
    default_deadline_s:
        Deadline applied to requests that do not set one; ``None`` means
        no deadline.
    degradation_ladder:
        Protection levels walked under deadline pressure, strongest first.
        Rungs: ``"full"`` (the request's own config), ``"sea"`` (the
        cheaper norm-based SEA bound), ``"unchecked"`` (no verification,
        explicitly flagged).  Verification status is **never** silently
        dropped — every response reports the rung it was served at.
    degrade_fractions:
        Strictly decreasing remaining-deadline fractions (one per ladder
        step) that trigger each downward rung; see
        :func:`rung_for_fraction`.
    reject_expired:
        Reject requests whose deadline has already passed at dispatch time
        (reason ``"deadline"``) instead of serving them at the last rung.
    max_retries:
        Recomputation attempts after a detected (and uncorrectable) error.
    correct_detected:
        Attempt ABFT single-error correction before recomputing.
    drain_timeout_s:
        How long :meth:`~repro.serve.server.MatmulServer.stop` waits for
        queued work when draining.
    """

    abft: AbftConfig = field(default_factory=AbftConfig)
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    max_queue_depth: int = 256
    max_batch_size: int = 32
    batch_window_s: float = 0.002
    default_deadline_s: float | None = None
    degradation_ladder: tuple[str, ...] = DEGRADATION_RUNGS
    degrade_fractions: tuple[float, ...] = (0.5, 0.2)
    reject_expired: bool = True
    max_retries: int = 1
    correct_detected: bool = True
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.abft, AbftConfig):
            raise ConfigurationError(
                f"abft must be an AbftConfig, got {type(self.abft).__name__}"
            )
        if not isinstance(self.execution, ExecutionPolicy):
            raise ConfigurationError(
                f"execution must be an ExecutionPolicy, got "
                f"{type(self.execution).__name__}"
            )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_window_s < 0:
            raise ConfigurationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive, got "
                f"{self.default_deadline_s}"
            )
        ladder = tuple(self.degradation_ladder)
        object.__setattr__(self, "degradation_ladder", ladder)
        if not ladder:
            raise ConfigurationError("degradation_ladder must not be empty")
        for rung in ladder:
            if rung not in DEGRADATION_RUNGS:
                raise ConfigurationError(
                    f"unknown degradation rung {rung!r}; "
                    f"valid rungs: {DEGRADATION_RUNGS}"
                )
        if list(ladder) != sorted(
            ladder, key=DEGRADATION_RUNGS.index
        ) or len(set(ladder)) != len(ladder):
            raise ConfigurationError(
                "degradation_ladder must be unique rungs ordered strongest "
                f"to weakest, got {ladder}"
            )
        fractions = tuple(float(f) for f in self.degrade_fractions)
        object.__setattr__(self, "degrade_fractions", fractions)
        if len(fractions) != len(ladder) - 1:
            raise ConfigurationError(
                f"degrade_fractions needs one threshold per ladder step "
                f"({len(ladder) - 1}), got {len(fractions)}"
            )
        if any(not 0.0 < f < 1.0 for f in fractions):
            raise ConfigurationError(
                f"degrade_fractions must lie in (0, 1), got {fractions}"
            )
        if any(a <= b for a, b in zip(fractions, fractions[1:])):
            raise ConfigurationError(
                f"degrade_fractions must be strictly decreasing, "
                f"got {fractions}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )

    def replace(self, **changes) -> "ServeConfig":
        """A copy with the given fields replaced (validated again)."""
        return _dc_replace(self, **changes)

    def rung_name(self, rung: int) -> str:
        """Ladder name of ``rung``, clamped to the last configured rung."""
        return self.degradation_ladder[
            min(rung, len(self.degradation_ladder) - 1)
        ]
