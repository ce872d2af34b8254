"""Backend abstraction: capabilities and the execution contract.

A compute backend executes the heavy GEMM stage of a protected
multiplication: one full-result product of the encoded operands.  The
host backend (``numpy``) makes one BLAS call and lets BLAS own the
cores; a device backend runs the product on its own hardware.

Each backend publishes a :class:`BackendCapabilities` descriptor the
negotiation layer (:func:`repro.backends.registry.negotiate`) consults
before dispatching: supported dtypes, a result-size ceiling, whether the
pooled fused-encode path may feed it, and whether its results are
bitwise identical to the ``numpy`` backend's.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["Backend", "BackendCapabilities", "BackendUnavailable"]


class BackendUnavailable(RuntimeError):
    """A backend was asked to execute but cannot (missing dependency,
    no device, failed self-check).  The engine catches this — like any
    dispatch-time backend failure — and walks the never-silent fallback
    to ``numpy``."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can do; consulted during capability negotiation.

    Attributes
    ----------
    name:
        The backend's registry name.
    dtypes:
        Numpy dtype names the backend computes in.
    max_elements:
        Ceiling on result elements (``m * q``); ``None`` = unlimited.
    fused_encode:
        Whether operands encoded through the pooled fused-encode path may
        be handed to this backend directly (host-memory backends) — a
        device backend would need its own transfer staging.
    deterministic:
        Whether results are bitwise identical to the ``numpy`` backend's.
        ``aabft ci-gate`` holds its default coverage gate on every
        available deterministic backend.
    fused_online:
        Whether the backend can execute the fused online-ABFT tile loop
        (:func:`repro.kernels.online_fused.online_fused_matmul`): per-tile
        checksum checks interleaved with the GEMM, early abort and
        tile-granular recompute.  Host-memory backends whose tiles the
        kernel can check in place qualify; a device backend would need a
        device-side check kernel.
    description:
        One line for ``aabft backends``.
    """

    name: str
    dtypes: tuple[str, ...] = ("float64", "float32")
    max_elements: int | None = None
    fused_encode: bool = True
    deterministic: bool = True
    fused_online: bool = False
    description: str = ""

    def supports_dtype(self, dtype) -> bool:
        """Whether the backend computes in the given dtype."""
        return np.dtype(dtype).name in self.dtypes


class Backend(abc.ABC):
    """The execution contract every compute backend implements.

    Subclasses implement :meth:`capabilities` and :meth:`matmul`;
    :meth:`availability` and :meth:`supports` have sensible defaults.
    Instances are shared and must be thread-safe.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """The backend's static capability descriptor."""

    def availability(self) -> tuple[bool, str | None]:
        """``(available, reason)`` — reason explains unavailability.

        Called at negotiation time; expensive probes (imports, device
        discovery, determinism self-checks) should run once and cache.
        """
        return True, None

    def supports(
        self, dtype, m: int, n: int, q: int
    ) -> tuple[bool, str | None]:
        """Capability check for one ``(m, n) @ (n, q)`` multiplication."""
        caps = self.capabilities()
        if not caps.supports_dtype(dtype):
            return False, (
                f"dtype {np.dtype(dtype).name} unsupported "
                f"(accepts {', '.join(caps.dtypes)})"
            )
        if caps.max_elements is not None and m * q > caps.max_elements:
            return False, (
                f"result {m}x{q} exceeds max_elements {caps.max_elements}"
            )
        return True, None

    @abc.abstractmethod
    def matmul(
        self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Execute ``a @ b``, into ``out`` when given.

        A backend that cannot run raises :class:`BackendUnavailable` (the
        engine falls back to ``numpy`` and records it).
        """

    def close(self) -> None:
        """Release backend resources (device handles)."""

    def describe(self) -> str:
        """One-line summary for listings."""
        caps = self.capabilities()
        avail, reason = self.availability()
        bits = [
            f"dtypes={','.join(caps.dtypes)}",
            "deterministic" if caps.deterministic else "NON-deterministic",
        ]
        if not avail:
            bits.append(f"unavailable: {reason}")
        return f"{self.name}: {caps.description} ({'; '.join(bits)})"
