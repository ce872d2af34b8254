"""Declarative chaos recipes: what to break, where, how hard, and when.

A :class:`ChaosRecipe` names one fault to inject into a live serving
stack while load flows through it.  Recipes are frozen dataclasses with
a JSON round-trip (:func:`load_recipes` / :func:`dump_recipes`) so a
suite can live next to the benchmarks and be replayed bit-for-bit in CI.

The supported kinds map onto the system fault model — component
slowdown and loss, not just silent data corruption:

``stage_stall``
    Inject latency into one engine pipeline stage (``encode`` /
    ``multiply`` / ``check``) via the engine's chaos seam.  ``site`` is
    the stage name; ``intensity`` is the stall in seconds per stage
    completion.
``backend_failure``
    Force GEMM dispatch on a non-numpy backend to raise, exercising the
    engine's never-silent numpy fallback.  ``site`` is the backend name,
    normally the harness's stand-in ``"chaos"`` (``"numpy"`` is refused
    — it is the terminal fallback and a failure there would strand
    requests); ``intensity`` is the failure probability per dispatch in
    ``[0, 1]``.
``queue_burst``
    Saturate the admission queue with a burst of extra requests at the
    window start.  ``site`` is ``"admission"``; ``intensity`` is the
    number of burst requests.
``bitflip``
    Flip a high mantissa bit of one element of the GEMM result in
    flight, reusing the fault-campaign injector arithmetic — the check
    stage must detect it.  ``site`` is ``"gemm"``; ``intensity`` is the
    flip probability per result in ``[0, 1]``.
``clock_skew``
    Jump the server's deadline clock forward by ``intensity`` seconds at
    the window start, expiring in-flight deadlines early.  ``site`` is
    ``"server"``.
``worker_kill``
    SIGKILL ``intensity`` live worker processes of a sharded
    :class:`~repro.cluster.frontend.ClusterFrontend` at the window start
    — the process-loss fault model.  The supervisor must detect each
    death, re-queue the shard's in-flight requests to survivors and
    restart the worker; the harness runs these recipes in a dedicated
    cluster phase (an engine hook cannot cross a process boundary).
    ``site`` is ``"worker"``; ``intensity`` is a whole kill count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError

__all__ = [
    "CHAOS_KINDS",
    "ChaosRecipe",
    "load_recipes",
    "dump_recipes",
    "default_quick_suite",
]

#: Supported fault kinds, in documentation order.
CHAOS_KINDS = (
    "stage_stall",
    "backend_failure",
    "queue_burst",
    "bitflip",
    "clock_skew",
    "worker_kill",
)

_STAGES = ("encode", "multiply", "check")

#: Expected ``site`` values per kind (``None`` = any non-empty string).
_SITE_RULES = {
    "stage_stall": _STAGES,
    "backend_failure": None,
    "queue_burst": ("admission",),
    "bitflip": ("gemm",),
    "clock_skew": ("server",),
    "worker_kill": ("worker",),
}


@dataclass(frozen=True)
class ChaosRecipe:
    """One scheduled fault injection.

    Attributes
    ----------
    kind:
        One of :data:`CHAOS_KINDS`.
    site:
        Where the fault lands — stage name for ``stage_stall``, backend
        name for ``backend_failure``, fixed tokens otherwise (see the
        module docstring).
    intensity:
        Kind-specific magnitude: seconds (``stage_stall``,
        ``clock_skew``), probability (``backend_failure``, ``bitflip``)
        or request count (``queue_burst``).
    start_s / duration_s:
        The schedule window, in seconds relative to harness start.  The
        fault is armed for ``[start_s, start_s + duration_s)``.
    seed:
        Seed of the recipe's private RNG (probabilistic kinds).
    name:
        Display label; synthesised from the fields when empty.
    """

    kind: str
    site: str
    intensity: float
    start_s: float = 0.0
    duration_s: float = 1.0
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}"
            )
        allowed = _SITE_RULES[self.kind]
        if allowed is not None and self.site not in allowed:
            raise ConfigurationError(
                f"chaos kind {self.kind!r} targets sites {allowed}, "
                f"got {self.site!r}"
            )
        if not self.site:
            raise ConfigurationError("chaos recipe needs a non-empty site")
        if self.kind == "backend_failure" and self.site == "numpy":
            raise ConfigurationError(
                "backend_failure cannot target 'numpy': it is the terminal "
                "never-silent fallback, so an injected failure there would "
                "strand requests instead of exercising recovery"
            )
        if self.kind in ("backend_failure", "bitflip"):
            if not 0.0 <= self.intensity <= 1.0:
                raise ConfigurationError(
                    f"{self.kind} intensity is a probability in [0, 1], "
                    f"got {self.intensity}"
                )
        elif self.kind in ("queue_burst", "worker_kill"):
            if self.intensity < 1 or self.intensity != int(self.intensity):
                what = (
                    "request" if self.kind == "queue_burst" else "kill"
                )
                raise ConfigurationError(
                    f"{self.kind} intensity is a whole {what} count >= 1, "
                    f"got {self.intensity}"
                )
        elif self.intensity <= 0:
            raise ConfigurationError(
                f"{self.kind} intensity must be positive seconds, "
                f"got {self.intensity}"
            )
        if self.start_s < 0:
            raise ConfigurationError(
                f"start_s must be >= 0, got {self.start_s}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.default_name())

    def default_name(self) -> str:
        return f"{self.kind}:{self.site}@{self.intensity:g}"

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active_at(self, t_s: float) -> bool:
        """Whether the recipe window is armed ``t_s`` seconds into a run."""
        return self.start_s <= t_s < self.end_s

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "intensity": self.intensity,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosRecipe":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown chaos recipe fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


def load_recipes(path: str | Path) -> list[ChaosRecipe]:
    """Load a recipe suite from a JSON file.

    Accepts either a bare list of recipe objects or a
    ``{"recipes": [...]}`` wrapper (the :func:`dump_recipes` format).
    """
    raw = json.loads(Path(path).read_text())
    if isinstance(raw, dict):
        raw = raw.get("recipes")
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(
            f"{path}: expected a non-empty JSON list of chaos recipes "
            "(or a {'recipes': [...]} object)"
        )
    return [ChaosRecipe.from_dict(entry) for entry in raw]


def dump_recipes(recipes: list[ChaosRecipe], path: str | Path) -> None:
    """Write a recipe suite as replayable JSON."""
    payload = {"recipes": [r.to_dict() for r in recipes]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def default_quick_suite() -> list[ChaosRecipe]:
    """The CI quick suite: one recipe per fault kind, staggered windows.

    Sized so the whole run (including drain) finishes in a few seconds —
    this is what ``chaos_slo_gate`` and the ``chaos-soak`` CI job replay.
    """
    return [
        ChaosRecipe(
            kind="stage_stall", site="multiply", intensity=0.002,
            start_s=0.0, duration_s=0.8, seed=1,
        ),
        ChaosRecipe(
            kind="backend_failure", site="chaos", intensity=1.0,
            start_s=0.8, duration_s=0.8, seed=2,
        ),
        ChaosRecipe(
            kind="queue_burst", site="admission", intensity=64,
            start_s=1.6, duration_s=0.8, seed=3,
        ),
        ChaosRecipe(
            kind="bitflip", site="gemm", intensity=0.25,
            start_s=2.4, duration_s=0.8, seed=4,
        ),
        ChaosRecipe(
            kind="clock_skew", site="server", intensity=0.05,
            start_s=3.2, duration_s=0.8, seed=5,
        ),
        # Runs in the harness's separate cluster phase (its window is
        # relative to that phase's start, not the server phase's).
        ChaosRecipe(
            kind="worker_kill", site="worker", intensity=1,
            start_s=0.2, duration_s=1.0, seed=6,
        ),
    ]
