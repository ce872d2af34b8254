"""Per-engine execution counters.

A :class:`~repro.engine.engine.MatmulEngine` accumulates its counters and
stage wall times in a :class:`~repro.telemetry.MetricsRegistry`;
:meth:`MatmulEngine.stats` derives an immutable :class:`EngineStats`
snapshot from those metrics, so monitoring a long-running engine is one
cheap call with no synchronisation burden on the caller — and the snapshot
always agrees with a Prometheus scrape of the same registry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["EngineStats", "StageCost", "StageCosts"]


@dataclass(frozen=True)
class StageCost:
    """Accumulated cost of one pipeline stage.

    ``seconds`` is total wall time, ``observations`` the number of timed
    stage executions; :attr:`mean` is what the pipeline cost model
    consumes when planning stage slots.
    """

    seconds: float = 0.0
    observations: int = 0

    @property
    def mean(self) -> float:
        """Mean seconds per observed stage execution (0 when unobserved)."""
        return self.seconds / self.observations if self.observations else 0.0


@dataclass(frozen=True)
class StageCosts:
    """Per-stage encode/multiply/check costs in one stable structured field.

    Exposed on :attr:`EngineStats.stage_costs` so consumers (the pipeline
    scheduler's cost model, dashboards) no longer re-derive stage means
    from raw span histograms.
    """

    encode: StageCost = field(default_factory=StageCost)
    multiply: StageCost = field(default_factory=StageCost)
    check: StageCost = field(default_factory=StageCost)

    def mean_total(self) -> float:
        """Mean seconds of one full encode+multiply+check pass."""
        return self.encode.mean + self.multiply.mean + self.check.mean


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
        Accumulated wall time of the three pipeline stages.
    stage_costs:
        The same stage wall times paired with their observation counts as
        a structured :class:`StageCosts` (per-stage means for the pipeline
        cost model).
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
    stage_costs: StageCosts = field(default_factory=StageCosts)

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
