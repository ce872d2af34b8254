"""Per-engine execution counters.

A :class:`~repro.engine.engine.MatmulEngine` accumulates its counters and
stage wall times in a :class:`~repro.telemetry.MetricsRegistry`;
:meth:`MatmulEngine.stats` derives an immutable :class:`EngineStats`
snapshot from those metrics, so monitoring a long-running engine is one
cheap call with no synchronisation burden on the caller — and the snapshot
always agrees with a Prometheus scrape of the same registry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["EngineStats"]


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of one engine's counters.

    Attributes
    ----------
    plan_hits / plan_misses / plan_evictions:
        Execution-plan cache accounting: a *hit* means all shape-dependent
        setup (layouts, padding workspaces, bound scheme) was reused.
    calls:
        Completed protected multiplications (batched items count once each).
    batched_calls:
        Batched submissions through
        :meth:`~repro.engine.engine.MatmulEngine.execute_batch`.
    encode_reuses:
        Operands served from a pre-encoded handle instead of re-encoding.
    detections:
        Multiplications whose check flagged at least one comparison.
    encode_seconds / multiply_seconds / check_seconds:
        Accumulated wall time of the three pipeline stages.  Each second
        is charged to exactly one stage, so the stage times of work done
        on one thread add up to no more than that thread's wall time.
    """

    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    calls: int = 0
    batched_calls: int = 0
    encode_reuses: int = 0
    detections: int = 0
    encode_seconds: float = 0.0
    multiply_seconds: float = 0.0
    check_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Accumulated wall time across all stages."""
        return self.encode_seconds + self.multiply_seconds + self.check_seconds

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of plan lookups served from cache (0 when no lookups)."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-friendly) including derived rates."""
        out = asdict(self)
        out["total_seconds"] = self.total_seconds
        out["plan_hit_rate"] = self.plan_hit_rate
        return out
