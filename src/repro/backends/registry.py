"""Backend registry and capability negotiation.

The registry maps backend names to lazily constructed
:class:`~repro.backends.base.Backend` instances; :func:`negotiate` is the
selection policy the engine runs once per request (see
:class:`~repro.engine.plan.CallResolution`):

1. a config pin (``AbftConfig(backend="...")``) wins outright;
2. else an ``AABFT_BACKEND`` environment pin;
3. else the ``numpy`` reference.

A pinned backend that is unknown, unavailable or capability-mismatched
falls back to ``numpy`` — **never silently**: the returned
:class:`BackendSelection` carries the fallback reason, the engine copies
it onto the result and counts it in ``abft_backend_fallbacks_total``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from .base import Backend

__all__ = [
    "BackendRegistry",
    "BackendSelection",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "ENV_FUSION",
    "default_registry",
    "get_backend",
    "negotiate",
]

#: Environment variable pinning the backend for ``"auto"`` configs.
ENV_BACKEND = "AABFT_BACKEND"

#: Environment variable pinning the fusion strategy (``fused``/``separate``)
#: for configs whose ``fusion`` is ``"auto"``.
ENV_FUSION = "AABFT_FUSION"

#: The terminal-fallback backend; always registered, always available.
DEFAULT_BACKEND = "numpy"


class BackendRegistry:
    """Thread-safe name -> backend map with lazy instantiation.

    Factories are registered up front (cheap); instances are built on
    first :meth:`get` and shared from then on, so expensive probes
    (imports, thread pools, self-checks) run at most once per registry.
    :attr:`generation` counts registrations: engines resolve each request
    once per generation, so a backend registered (or replaced) here is
    negotiated from the next call on.
    """

    def __init__(self) -> None:
        self._factories: dict[str, object] = {}
        self._instances: dict[str, Backend] = {}
        self._lock = threading.RLock()
        self.generation = 0

    def register(self, name: str, factory, *, replace: bool = False) -> None:
        """Register a backend factory (a zero-arg callable)."""
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"backend name must be a non-empty str, got {name!r}")
        with self._lock:
            if name in self._factories and not replace:
                raise ConfigurationError(
                    f"backend {name!r} already registered (pass replace=True)"
                )
            self._factories[name] = factory
            self._instances.pop(name, None)
            self.generation += 1

    def names(self) -> list[str]:
        """Registered backend names in registration order."""
        with self._lock:
            return list(self._factories)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._factories

    def get(self, name: str) -> Backend:
        """The shared instance for ``name`` (built on first use)."""
        with self._lock:
            instance = self._instances.get(name)
            if instance is not None:
                return instance
            factory = self._factories.get(name)
            if factory is None:
                raise ConfigurationError(
                    f"unknown backend {name!r}; registered: {self.names()}"
                )
            instance = factory()
            if not isinstance(instance, Backend):
                raise ConfigurationError(
                    f"factory for {name!r} returned "
                    f"{type(instance).__name__}, not a Backend"
                )
            self._instances[name] = instance
            return instance

    def describe(self) -> list[dict]:
        """Capability/availability rows for ``aabft backends``."""
        rows = []
        for name in self.names():
            backend = self.get(name)
            caps = backend.capabilities()
            available, reason = backend.availability()
            rows.append(
                {
                    "name": name,
                    "available": available,
                    "reason": reason,
                    "dtypes": list(caps.dtypes),
                    "max_elements": caps.max_elements,
                    "fused_encode": caps.fused_encode,
                    "deterministic": caps.deterministic,
                    "fused_online": caps.fused_online,
                    "description": caps.description,
                }
            )
        return rows

    def close(self) -> None:
        """Close every built instance (registrations are kept)."""
        with self._lock:
            instances = list(self._instances.values())
        for backend in instances:
            backend.close()


@dataclass(frozen=True)
class BackendSelection:
    """Outcome of one capability negotiation.

    Attributes
    ----------
    backend:
        The concrete backend the call will dispatch through.
    source:
        Where the requested backend came from: ``"pinned"`` (config),
        ``"env"`` (``AABFT_BACKEND``) or ``"default"``.
    fallback_from / fallback_reason:
        Set when the requested backend was rejected and the selection
        fell back to ``numpy`` — the never-silent record.
    fusion:
        The resolved fusion strategy: ``"fused"`` runs the online-ABFT
        tile loop (checks interleaved with the GEMM), ``"separate"`` the
        classic encode/multiply/check passes.
    fused_tile_blocks:
        Fused tile edge in whole encoded blocks (``None`` = the single
        full-result tile, the degenerate bitwise-identical mode).
    fusion_source:
        Where the fusion strategy came from: ``"pinned"``, ``"env"`` or
        ``"default"``.
    fusion_fallback_reason:
        Set when a requested ``"fused"`` strategy was rejected (backend
        lacks the ``fused_online`` capability) and the selection fell
        back to ``"separate"`` — the never-silent record.
    """

    backend: str
    source: str
    fallback_from: str | None = None
    fallback_reason: str | None = None
    fusion: str = "separate"
    fused_tile_blocks: int | None = None
    fusion_source: str = "default"
    fusion_fallback_reason: str | None = None


def _viability(
    registry: BackendRegistry, name: str, dtype, m: int, n: int, q: int
) -> str | None:
    """``None`` when the backend can serve the call, else the reason not."""
    if name not in registry:
        return f"unknown backend {name!r}"
    backend = registry.get(name)
    available, reason = backend.availability()
    if not available:
        return reason or "unavailable"
    ok, reason = backend.supports(dtype, m, n, q)
    if not ok:
        return reason
    return None


def negotiate(
    config,
    m: int,
    n: int,
    q: int,
    dtype,
    *,
    registry: BackendRegistry | None = None,
    environ=None,
) -> BackendSelection:
    """Select the backend and fusion strategy for one multiplication.

    ``config`` is an :class:`~repro.engine.config.AbftConfig`; see the
    module docstring for the backend policy and :func:`_resolve_fusion`
    for the fusion policy.
    """
    reg = registry if registry is not None else default_registry()
    env = os.environ if environ is None else environ

    requested, source = None, "default"
    if config.backend != "auto":
        requested, source = config.backend, "pinned"
    else:
        env_pin = env.get(ENV_BACKEND, "").strip()
        if env_pin and env_pin != "auto":
            requested, source = env_pin, "env"

    if requested is None or requested == DEFAULT_BACKEND:
        selection = BackendSelection(backend=DEFAULT_BACKEND, source=source)
    else:
        reason = _viability(reg, requested, dtype, m, n, q)
        if reason is None:
            selection = BackendSelection(backend=requested, source=source)
        else:
            selection = BackendSelection(
                backend=DEFAULT_BACKEND,
                source=source,
                fallback_from=requested,
                fallback_reason=reason,
            )
    return _resolve_fusion(selection, config, reg, env)


def _resolve_fusion(
    selection: BackendSelection, config, reg: BackendRegistry, env
) -> BackendSelection:
    """Resolve the fusion strategy for an already-selected backend.

    Pin ladder mirrors the backend's: config pin > ``AABFT_FUSION`` env
    pin > ``"separate"``.  A requested ``"fused"`` strategy against a
    backend without the ``fused_online`` capability falls back to
    ``"separate"`` with a recorded reason — never silently.
    """
    fusion: str | None = None
    fusion_source = "default"
    tile_blocks = getattr(config, "fused_tile_blocks", None)

    cfg_fusion = getattr(config, "fusion", "auto")
    if cfg_fusion != "auto":
        fusion, fusion_source = cfg_fusion, "pinned"
    else:
        env_pin = env.get(ENV_FUSION, "").strip()
        if env_pin and env_pin != "auto":
            fusion, fusion_source = env_pin, "env"

    if fusion is None or fusion == "separate":
        return replace(
            selection,
            fusion="separate",
            fusion_source=fusion_source if fusion is not None else "default",
        )
    if fusion != "fused":
        return replace(
            selection,
            fusion="separate",
            fusion_source=fusion_source,
            fusion_fallback_reason=f"unknown fusion strategy {fusion!r}",
        )
    if selection.backend in reg:
        caps = reg.get(selection.backend).capabilities()
        if caps.fused_online:
            return replace(
                selection,
                fusion="fused",
                fused_tile_blocks=tile_blocks,
                fusion_source=fusion_source,
            )
        reason = f"backend {selection.backend!r} lacks fused_online capability"
    else:
        reason = f"unknown backend {selection.backend!r}"
    return replace(
        selection,
        fusion="separate",
        fusion_source=fusion_source,
        fusion_fallback_reason=reason,
    )


_default_registry: BackendRegistry | None = None
_default_registry_lock = threading.Lock()


def default_registry() -> BackendRegistry:
    """The process-wide registry with the two shipped backends."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            from .cupy_backend import CupyBackend
            from .numpy_backend import NumpyBackend

            registry = BackendRegistry()
            registry.register("numpy", NumpyBackend)
            registry.register("cupy", CupyBackend)
            _default_registry = registry
        return _default_registry


def get_backend(name: str) -> Backend:
    """Shorthand for ``default_registry().get(name)``."""
    return default_registry().get(name)
