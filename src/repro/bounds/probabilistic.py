"""The A-ABFT probabilistic rounding-error model (paper Section IV).

Implements the Barlow/Bareiss moments of floating-point rounding errors and
their propagation through summations and inner products, culminating in the
confidence-interval tolerance

    epsilon = |EV(Delta s_n)| + omega * sigma(Delta s_n)          (Eq. 7)

with the closed forms

    sigma_sum(n)    <= sqrt(n(n+1)(2n+1)/48)           * 2**-t * y   (Eq. 28)
    sigma_inprod(n) <= sqrt((n(n+1)(n+1/2) + 2n) / 24) * 2**-t * y   (Eq. 45)
    EV_prod(n)      <= (n/3) * 2**-2t * y                            (Eq. 43)

where ``t`` is the significand precision, ``y`` the runtime-determined upper
bound on intermediate products (Section IV-E, :mod:`repro.bounds.upper_bound`)
and ``omega`` the confidence scale (the paper evaluates with the conservative
``omega = 3``).

For fused multiply-add pipelines (Section IV-D) the multiplication
contributes no rounding error, so only the summation terms remain.

Both closed forms are linear in ``y``, so ``epsilon = K(n, t, omega, fma)
* y``; :func:`safe_epsilon_coefficient` gives a ``K`` that provably stays
below the floating-point evaluation of :meth:`ProbabilisticBound.
epsilon_array`, which lets a check decide clean comparisons without
building the exact tolerance grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BoundSchemeError
from ..fp.constants import BINARY64, FloatFormat
from .base import BoundContext, BoundScheme

__all__ = [
    "mantissa_error_moments",
    "sum_variance_bound",
    "sum_sigma_bound",
    "prod_variance_bound",
    "prod_mean_bound",
    "inner_product_variance_bound",
    "inner_product_sigma_bound",
    "inner_product_mean_bound",
    "confidence_interval",
    "epsilon_coefficient",
    "safe_epsilon_coefficient",
    "LINEAR_BOUND_MIN_Y",
    "ProbabilisticBound",
]

#: Smallest ``y`` at which :func:`safe_epsilon_coefficient` bounds the
#: float tolerance from below.  Under it the ``y * y`` terms of
#: :meth:`ProbabilisticBound.epsilon_array` lose precision to underflow
#: (from about ``2**-469`` at binary64 on), so a lower bound must be 0.
LINEAR_BOUND_MIN_Y = 2.0**-400
#: Relative margin taken off the closed-form coefficient: it covers the
#: roughly 20 roundings (each at most ``2**-53`` relative) of evaluating
#: ``K`` and the tolerance formula in float64, with room to spare.
_LINEAR_BOUND_MARGIN = 2.0**-30


def mantissa_error_moments(op: str, t: int) -> tuple[float, float]:
    """Mean and variance of the mantissa error ``beta`` for one operation.

    Per Barlow/Bareiss (paper Eqs. 20/21 and 34/35), for symmetric rounding:

    * addition/subtraction: ``EV = 0``, ``Var <= (1/8) 2**-2t``
    * multiplication/division: ``EV = (1/3) 2**-2t``, ``Var = (1/12) 2**-2t``

    Parameters
    ----------
    op:
        One of ``"add"``, ``"sub"``, ``"mul"``, ``"div"``.
    t:
        Significand precision in bits (53 for binary64).
    """
    if t <= 0:
        raise ValueError(f"precision t must be positive, got {t}")
    scale = math.ldexp(1.0, -2 * t)
    if op in ("add", "sub"):
        return 0.0, scale / 8.0
    if op in ("mul", "div"):
        return scale / 3.0, scale / 12.0
    raise ValueError(f"unknown operation {op!r}; expected add/sub/mul/div")


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"summation length must be >= 1, got {n}")


def sum_variance_bound(n: int, y: float, t: int) -> float:
    """Variance bound of the summation rounding error (pre-Eq. 28).

    ``Var_Sum(Delta s_n) <= (1/8) 2**-2t (n(n+1)(2n+1)/6) y**2`` where ``y``
    bounds the summands so that partial sums obey ``|s_k| <= k*y``.
    """
    _require_positive_n(n)
    poly = n * (n + 1) * (2 * n + 1) / 6.0
    return math.ldexp(poly * y * y / 8.0, -2 * t)


def sum_sigma_bound(n: int, y: float, t: int) -> float:
    """Standard-deviation bound for an ``n``-term summation (Eq. 28)."""
    _require_positive_n(n)
    return math.sqrt(n * (n + 1) * (2 * n + 1) / 48.0) * math.ldexp(abs(y), -t)


def prod_variance_bound(n: int, y: float, t: int) -> float:
    """Variance bound of ``n`` multiplication rounding errors (Eq. 41).

    ``Var_Prod(Delta s_n) <= (n/12) 2**-2t y**2`` with ``y`` bounding the
    largest product magnitude.
    """
    _require_positive_n(n)
    return math.ldexp(n * y * y / 12.0, -2 * t)


def prod_mean_bound(n: int, y: float, t: int) -> float:
    """Mean bound of ``n`` multiplication rounding errors (Eq. 43).

    ``EV_Prod(Delta s_n) <= (n/3) 2**-2t y``.
    """
    _require_positive_n(n)
    return math.ldexp(n * abs(y) / 3.0, -2 * t)


def inner_product_variance_bound(n: int, y: float, t: int, fma: bool = False) -> float:
    """Variance bound for an ``n``-term inner product (Eq. 33).

    The sum of the summation and multiplication variance contributions; with
    ``fma`` the multiplication term vanishes (Section IV-D).
    """
    var = sum_variance_bound(n, y, t)
    if not fma:
        var += prod_variance_bound(n, y, t)
    return var


def inner_product_sigma_bound(n: int, y: float, t: int, fma: bool = False) -> float:
    """Standard-deviation bound for an ``n``-term inner product (Eq. 45).

    Without FMA this is the paper's closed form
    ``sqrt((n(n+1)(n+1/2) + 2n)/24) * 2**-t * y``.
    """
    return math.sqrt(inner_product_variance_bound(n, abs(y), t, fma))


def inner_product_mean_bound(n: int, y: float, t: int, fma: bool = False) -> float:
    """Mean (bias) bound for an ``n``-term inner product (Eqs. 31/43)."""
    if fma:
        return 0.0  # addition errors are zero-mean, multiplication exact
    return prod_mean_bound(n, y, t)


def confidence_interval(
    n: int, y: float, t: int, omega: float = 3.0, fma: bool = False
) -> tuple[float, float]:
    """Confidence interval ``[EV - omega*sigma, EV + omega*sigma]`` (Eq. 7)."""
    ev = inner_product_mean_bound(n, y, t, fma)
    sigma = inner_product_sigma_bound(n, y, t, fma)
    return ev - omega * sigma, ev + omega * sigma


def epsilon_coefficient(n: int, t: int, omega: float = 3.0, fma: bool = False) -> float:
    """The ``K`` with ``|EV| + omega * sigma = K * y`` (Eqs. 7, 43 and 45).

    ``K = (n/3) 2**-2t + omega * sqrt(n(n+1)(2n+1)/48 + n/12) * 2**-t``;
    with ``fma`` the mean and the ``n/12`` multiplication variance vanish.
    """
    _require_positive_n(n)
    variance = n * (n + 1) * (2 * n + 1) / 48.0
    if fma:
        return omega * math.ldexp(math.sqrt(variance), -t)
    variance += n / 12.0
    return math.ldexp(n / 3.0, -2 * t) + omega * math.ldexp(math.sqrt(variance), -t)


def safe_epsilon_coefficient(
    n: int, t: int, omega: float = 3.0, fma: bool = False
) -> float:
    """A ``K_safe`` with ``K_safe * y <= epsilon_array(n, y)`` in floats.

    Holds for every ``y >= LINEAR_BOUND_MIN_Y`` and ``t <= 53``: the
    coefficient is :func:`epsilon_coefficient` times ``1 - 2**-30``, far
    more than the rounding of ``K``, of the product ``K_safe * y`` and of
    the float tolerance formula can take back, and that formula is
    monotone in ``y``, so ``K_safe * y_lb`` also bounds the tolerance of
    any ``y >= y_lb``.
    """
    return epsilon_coefficient(n, t, omega, fma) * (1.0 - _LINEAR_BOUND_MARGIN)


@dataclass
class ProbabilisticBound(BoundScheme):
    """The autonomous A-ABFT bound scheme.

    Consumes ``ctx.n`` and the runtime-determined ``ctx.upper_bound`` ``y``
    and returns ``epsilon = |EV| + omega * sigma`` for the inner products
    forming the checked checksum elements.

    Parameters
    ----------
    omega:
        Confidence scale; the paper's evaluation uses the conservative 3.
    fma:
        Whether the target pipeline fuses multiply-add (Section IV-D).
    fmt:
        Floating-point format (binary64 by default, as in the paper).
    """

    omega: float = 3.0
    fma: bool = False
    fmt: FloatFormat = BINARY64
    name: str = "a-abft"

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise BoundSchemeError(f"omega must be positive, got {self.omega}")

    def epsilon(self, ctx: BoundContext) -> float:
        if ctx.upper_bound is None:
            raise BoundSchemeError(
                "ProbabilisticBound requires the runtime upper bound y "
                "(BoundContext.upper_bound)"
            )
        if ctx.upper_bound < 0.0 or not math.isfinite(ctx.upper_bound):
            raise BoundSchemeError(
                f"upper bound y must be finite and non-negative, got {ctx.upper_bound}"
            )
        t = self.fmt.t
        ev = inner_product_mean_bound(ctx.n, ctx.upper_bound, t, self.fma)
        sigma = inner_product_sigma_bound(ctx.n, ctx.upper_bound, t, self.fma)
        return abs(ev) + self.omega * sigma

    def epsilon_array(self, n: int, y: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`epsilon` over a grid of upper bounds ``y``.

        Evaluates the same closed forms elementwise (identical operation
        order, so results are bitwise equal to scalar calls); used by the
        engine's plan-cached fast checking path.
        """
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0.0) or not np.all(np.isfinite(y)):
            raise BoundSchemeError(
                "upper bound y must be finite and non-negative everywhere"
            )
        _require_positive_n(n)
        t = self.fmt.t
        poly = n * (n + 1) * (2 * n + 1) / 6.0
        variance = np.ldexp(poly * y * y / 8.0, -2 * t)
        if self.fma:
            return self.omega * np.sqrt(variance)
        variance = variance + np.ldexp(n * y * y / 12.0, -2 * t)
        ev = np.ldexp(n * y / 3.0, -2 * t)
        return ev + self.omega * np.sqrt(variance)

    def describe(self) -> str:
        fma = ", fma" if self.fma else ""
        return f"A-ABFT probabilistic bound (omega={self.omega:g}{fma}, t={self.fmt.t})"
