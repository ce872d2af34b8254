"""IEEE-754 binary format descriptions used throughout the library.

The probabilistic rounding-error model of the paper (Section IV) is stated in
terms of the number of mantissa digits ``t`` of the floating-point format and
the machine unit rounding error ``eps_M = 2**-t``.  This module centralises
those constants for the two formats GPUs implement (binary32 / binary64) so
that every bound scheme and every bit-manipulation helper agrees on them.

Note on the convention for ``t``: the paper (following Barlow/Bareiss) counts
*mantissa digits* of a normalised base-2 number ``x in [1/2, 1)``, i.e. the
full significand length **including** the bit that IEEE-754 stores implicitly.
For binary64 this gives ``t = 53`` and ``eps_M = 2**-53 ~= 1.11e-16``, which
is the unit roundoff ``u`` of round-to-nearest double arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FloatFormat",
    "BINARY16",
    "BFLOAT16",
    "BINARY32",
    "BINARY64",
    "LOW_PRECISION_NAMES",
    "bfloat16_dtype",
    "dtype_name",
    "format_for_dtype",
    "format_for_name",
    "supported_storage_dtypes",
]


@dataclass(frozen=True)
class FloatFormat:
    """Static description of an IEEE-754 binary interchange format.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"binary64"``.
    total_bits:
        Storage width in bits (32 or 64).
    mantissa_bits:
        Number of *stored* fraction bits (23 or 52).  The effective precision
        ``t`` is one larger because of the implicit leading bit.
    exponent_bits:
        Width of the biased exponent field.
    dtype:
        The matching numpy dtype.
    uint_dtype:
        Unsigned integer dtype of the same width, used for bit manipulation.
    """

    name: str
    total_bits: int
    mantissa_bits: int
    exponent_bits: int
    dtype: np.dtype
    uint_dtype: np.dtype

    @property
    def t(self) -> int:
        """Effective significand precision in bits (incl. the implicit bit)."""
        return self.mantissa_bits + 1

    @property
    def unit_roundoff(self) -> float:
        """Unit roundoff ``u = 2**-t`` for round-to-nearest."""
        return 2.0 ** (-self.t)

    @property
    def machine_epsilon(self) -> float:
        """Distance from 1.0 to the next larger representable number."""
        return 2.0 ** (1 - self.t)

    @property
    def exponent_bias(self) -> int:
        """Bias of the stored exponent field."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def sign_bit_index(self) -> int:
        """Bit index (LSB = 0) of the sign bit."""
        return self.total_bits - 1

    @property
    def exponent_bit_range(self) -> range:
        """Bit indices (LSB = 0) occupied by the exponent field."""
        return range(self.mantissa_bits, self.mantissa_bits + self.exponent_bits)

    @property
    def mantissa_bit_range(self) -> range:
        """Bit indices (LSB = 0) occupied by the stored mantissa field."""
        return range(0, self.mantissa_bits)

    @property
    def max_finite(self) -> float:
        """Largest finite representable magnitude."""
        return float(np.finfo(self.dtype).max)


BINARY16 = FloatFormat(
    name="binary16",
    total_bits=16,
    mantissa_bits=10,
    exponent_bits=5,
    dtype=np.dtype(np.float16),
    uint_dtype=np.dtype(np.uint16),
)

BINARY32 = FloatFormat(
    name="binary32",
    total_bits=32,
    mantissa_bits=23,
    exponent_bits=8,
    dtype=np.dtype(np.float32),
    uint_dtype=np.dtype(np.uint32),
)

BINARY64 = FloatFormat(
    name="binary64",
    total_bits=64,
    mantissa_bits=52,
    exponent_bits=11,
    dtype=np.dtype(np.float64),
    uint_dtype=np.dtype(np.uint64),
)

_BY_DTYPE = {
    np.dtype(np.float16): BINARY16,
    np.dtype(np.float32): BINARY32,
    np.dtype(np.float64): BINARY64,
}


def bfloat16_dtype() -> np.dtype | None:
    """The bfloat16 numpy dtype, or ``None`` when unavailable.

    numpy has no native bfloat16; the ``ml_dtypes`` extension registers
    one.  Everything bfloat16-specific in the library gates on this
    returning a dtype, with explicit errors (never a silent upcast) when
    it does not.
    """
    try:
        import ml_dtypes  # noqa: PLC0415 — optional dependency probe
    except ImportError:
        return None
    return np.dtype(ml_dtypes.bfloat16)


def _make_bfloat16_format() -> FloatFormat | None:
    dtype = bfloat16_dtype()
    if dtype is None:
        return None
    return FloatFormat(
        name="bfloat16",
        total_bits=16,
        mantissa_bits=7,
        exponent_bits=8,
        dtype=dtype,
        uint_dtype=np.dtype(np.uint16),
    )


#: ``None`` when the optional ``ml_dtypes`` package is absent — callers
#: must treat bfloat16 as an unsupported storage dtype then.
BFLOAT16 = _make_bfloat16_format()

if BFLOAT16 is not None:
    _BY_DTYPE[BFLOAT16.dtype] = BFLOAT16

#: Storage dtypes narrower than any compute dtype the GEMM stage uses;
#: their results carry extra quantisation noise the adaptive bound models.
LOW_PRECISION_NAMES = ("float16", "bfloat16")

_BY_NAME = {
    "float16": BINARY16,
    "binary16": BINARY16,
    "float32": BINARY32,
    "binary32": BINARY32,
    "float64": BINARY64,
    "binary64": BINARY64,
}
if BFLOAT16 is not None:
    _BY_NAME["bfloat16"] = BFLOAT16


def supported_storage_dtypes() -> tuple[str, ...]:
    """Names of every operand storage dtype this build supports."""
    names = ["float16", "float32", "float64"]
    if BFLOAT16 is not None:
        names.insert(1, "bfloat16")
    return tuple(names)


@lru_cache(maxsize=256)
def dtype_name(dtype) -> str:
    """``np.dtype(dtype).name``, read once per dtype.

    numpy builds ``dtype.name`` in Python on every read (several
    microseconds), so per-call paths read it through this cache.
    """
    return np.dtype(dtype).name


def format_for_dtype(dtype: np.dtype | type) -> FloatFormat:
    """Return the :class:`FloatFormat` describing ``dtype``.

    Raises
    ------
    KeyError
        If ``dtype`` is not a registered binary format (float16, float32,
        float64, plus bfloat16 when ``ml_dtypes`` is installed).
    """
    key = np.dtype(dtype)
    try:
        return _BY_DTYPE[key]
    except KeyError:
        raise KeyError(
            f"no IEEE-754 format registered for dtype {key!r}; "
            f"supported: {', '.join(supported_storage_dtypes())}"
        ) from None


def format_for_name(name: str) -> FloatFormat:
    """Return the :class:`FloatFormat` for a dtype *name* (``"float16"``…).

    Raises
    ------
    KeyError
        For unknown names, and for ``"bfloat16"`` when the optional
        ``ml_dtypes`` package is not installed — the message says which.
    """
    fmt = _BY_NAME.get(name)
    if fmt is None:
        if name == "bfloat16":
            raise KeyError(
                "bfloat16 storage requires the optional 'ml_dtypes' "
                "package (numpy has no native bfloat16 dtype); install it "
                "or use float16"
            )
        raise KeyError(
            f"unknown float format name {name!r}; "
            f"supported: {', '.join(supported_storage_dtypes())}"
        )
    return fmt
