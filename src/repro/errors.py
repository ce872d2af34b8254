"""Exception hierarchy for the A-ABFT reproduction library.

Every exception raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library-specific failures with a single ``except`` clause
while still letting genuine programming errors (``TypeError`` etc.) surface.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "EncodingError",
    "CorrectionError",
    "FaultSpecError",
    "KernelLaunchError",
    "DeviceError",
    "BoundSchemeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class ShapeError(ReproError, ValueError):
    """Matrix/vector operands have incompatible or unsupported shapes."""


class EncodingError(ReproError):
    """Checksum encoding failed or an encoded matrix is malformed."""


class CorrectionError(ReproError):
    """An error pattern could not be corrected (e.g. multiple errors)."""


class FaultSpecError(ReproError, ValueError):
    """A fault-injection specification is invalid."""


class KernelLaunchError(ReproError):
    """A simulated GPU kernel was launched with an invalid configuration."""


class DeviceError(ReproError):
    """The simulated device rejected an operation (allocation, copy, ...)."""


class BoundSchemeError(ReproError):
    """An error-bound scheme received inputs it cannot produce a bound for."""
