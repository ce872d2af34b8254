"""The A-ABFT probabilistic model: closed forms, moments, scheme behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bounds.base import BoundContext
from repro.bounds.probabilistic import (
    LINEAR_BOUND_MIN_Y,
    ProbabilisticBound,
    confidence_interval,
    epsilon_coefficient,
    inner_product_mean_bound,
    inner_product_sigma_bound,
    inner_product_variance_bound,
    mantissa_error_moments,
    prod_mean_bound,
    prod_variance_bound,
    safe_epsilon_coefficient,
    sum_sigma_bound,
    sum_variance_bound,
)
from repro.errors import BoundSchemeError
from repro.fp.constants import BINARY32

T = 53  # binary64


class TestMantissaMoments:
    def test_addition_moments(self):
        ev, var = mantissa_error_moments("add", T)
        assert ev == 0.0
        assert var == pytest.approx(2.0 ** (-2 * T) / 8.0)

    def test_subtraction_same_as_addition(self):
        assert mantissa_error_moments("sub", T) == mantissa_error_moments("add", T)

    def test_multiplication_moments(self):
        ev, var = mantissa_error_moments("mul", T)
        assert ev == pytest.approx(2.0 ** (-2 * T) / 3.0)
        assert var == pytest.approx(2.0 ** (-2 * T) / 12.0)

    def test_division_same_as_multiplication(self):
        assert mantissa_error_moments("div", T) == mantissa_error_moments("mul", T)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown operation"):
            mantissa_error_moments("sqrt", T)

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            mantissa_error_moments("add", 0)


class TestClosedForms:
    def test_sum_variance_formula(self):
        # Var_Sum <= (1/8) 2^-2t (n(n+1)(2n+1)/6) y^2  — hand evaluation.
        n, y = 10, 2.0
        expected = (1 / 8) * 2.0 ** (-2 * T) * (10 * 11 * 21 / 6) * 4.0
        assert sum_variance_bound(n, y, T) == pytest.approx(expected)

    def test_sum_sigma_is_sqrt_of_variance(self):
        n, y = 100, 3.0
        assert sum_sigma_bound(n, y, T) == pytest.approx(
            math.sqrt(sum_variance_bound(n, y, T))
        )

    def test_prod_variance_formula(self):
        n, y = 7, 1.5
        expected = (7 / 12) * 2.0 ** (-2 * T) * 2.25
        assert prod_variance_bound(n, y, T) == pytest.approx(expected)

    def test_prod_mean_formula(self):
        n, y = 7, 1.5
        assert prod_mean_bound(n, y, T) == pytest.approx(
            (7 / 3) * 2.0 ** (-2 * T) * 1.5
        )

    def test_inner_product_variance_is_sum_of_parts(self):
        n, y = 64, 2.0
        assert inner_product_variance_bound(n, y, T) == pytest.approx(
            sum_variance_bound(n, y, T) + prod_variance_bound(n, y, T)
        )

    def test_paper_closed_form_eq45(self):
        # sigma <= sqrt((n(n+1)(n+1/2) + 2n)/24) * 2^-t * y
        n, y = 512, 1.0
        expected = math.sqrt((n * (n + 1) * (n + 0.5) + 2 * n) / 24.0) * 2.0**-T * y
        assert inner_product_sigma_bound(n, y, T) == pytest.approx(expected, rel=1e-12)

    def test_fma_drops_multiplication_terms(self):
        n, y = 64, 2.0
        assert inner_product_variance_bound(n, y, T, fma=True) == pytest.approx(
            sum_variance_bound(n, y, T)
        )
        assert inner_product_mean_bound(n, y, T, fma=True) == 0.0
        assert inner_product_sigma_bound(n, y, T, fma=True) < (
            inner_product_sigma_bound(n, y, T, fma=False)
        )

    @given(st.integers(1, 10_000), st.floats(min_value=1e-6, max_value=1e6))
    def test_sigma_scales_linearly_in_y(self, n, y):
        base = inner_product_sigma_bound(n, 1.0, T)
        assert inner_product_sigma_bound(n, y, T) == pytest.approx(base * y, rel=1e-9)

    @given(st.integers(1, 5_000))
    def test_sigma_monotone_in_n(self, n):
        assert inner_product_sigma_bound(n + 1, 1.0, T) > (
            inner_product_sigma_bound(n, 1.0, T)
        )

    def test_sigma_growth_rate_is_n_to_three_halves(self):
        # Doubling n should scale sigma by ~2^1.5 for large n.
        r = inner_product_sigma_bound(8192, 1.0, T) / inner_product_sigma_bound(
            4096, 1.0, T
        )
        assert r == pytest.approx(2**1.5, rel=0.01)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sum_variance_bound(0, 1.0, T)


class TestConfidenceInterval:
    def test_interval_is_centred_on_mean(self):
        lo, hi = confidence_interval(100, 1.0, T, omega=3.0)
        ev = inner_product_mean_bound(100, 1.0, T)
        sigma = inner_product_sigma_bound(100, 1.0, T)
        assert lo == pytest.approx(ev - 3 * sigma)
        assert hi == pytest.approx(ev + 3 * sigma)

    def test_wider_omega_wider_interval(self):
        lo1, hi1 = confidence_interval(100, 1.0, T, omega=1.0)
        lo3, hi3 = confidence_interval(100, 1.0, T, omega=3.0)
        assert hi3 > hi1
        assert lo3 < lo1


class TestProbabilisticBoundScheme:
    def test_epsilon_formula(self):
        scheme = ProbabilisticBound(omega=3.0)
        ctx = BoundContext(n=256, m=64, upper_bound=2.0)
        expected = abs(inner_product_mean_bound(256, 2.0, T)) + (
            3.0 * inner_product_sigma_bound(256, 2.0, T)
        )
        assert scheme.epsilon(ctx) == pytest.approx(expected)

    def test_requires_upper_bound(self):
        scheme = ProbabilisticBound()
        with pytest.raises(BoundSchemeError, match="upper bound"):
            scheme.epsilon(BoundContext(n=10, m=2))

    def test_rejects_negative_y(self):
        scheme = ProbabilisticBound()
        with pytest.raises(BoundSchemeError):
            scheme.epsilon(BoundContext(n=10, m=2, upper_bound=-1.0))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(BoundSchemeError):
            ProbabilisticBound(omega=0.0)

    def test_omega_ordering(self):
        ctx = BoundContext(n=512, m=64, upper_bound=1.0)
        eps = [ProbabilisticBound(omega=w).epsilon(ctx) for w in (1.0, 2.0, 3.0)]
        assert eps[0] < eps[1] < eps[2]
        # Paper Section VI-B: all three stay within one order of magnitude.
        assert eps[2] / eps[0] < 10.0

    def test_describe_mentions_parameters(self):
        text = ProbabilisticBound(omega=2.0, fma=True).describe()
        assert "omega=2" in text
        assert "fma" in text


class TestLinearCoefficient:
    """epsilon = K * y: the closed forms are linear in the upper bound."""

    @pytest.mark.parametrize("fma", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 64, 1000])
    def test_coefficient_times_y_is_the_scalar_tolerance(self, n, fma):
        scheme = ProbabilisticBound(fma=fma)
        for y in (1e-30, 0.5, 3.0, 1e30):
            expected = scheme.epsilon(BoundContext(n=n, m=1, upper_bound=y))
            assert epsilon_coefficient(n, T, 3.0, fma) * y == pytest.approx(
                expected, rel=1e-14
            )

    def test_paper_closed_form_without_fma(self):
        n = 37
        sigma = math.sqrt((n * (n + 1) * (n + 0.5) + 2 * n) / 24) * 2.0**-T
        expected = n / 3 * 2.0 ** (-2 * T) + 3.0 * sigma
        assert epsilon_coefficient(n, T) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("fma", [False, True])
    @pytest.mark.parametrize("fmt", [None, BINARY32])
    def test_safe_coefficient_stays_below_the_float_tolerance(self, fma, fmt):
        scheme = ProbabilisticBound(fma=fma) if fmt is None else (
            ProbabilisticBound(fma=fma, fmt=fmt)
        )
        rng = np.random.default_rng(11)
        y = rng.uniform(1, 2, 5000) * 2.0 ** rng.integers(-400, 400, 5000)
        y = np.append(y, LINEAR_BOUND_MIN_Y)
        for n in (1, 3, 256, 8192):
            k_safe = safe_epsilon_coefficient(
                n, scheme.fmt.t, scheme.omega, scheme.fma
            )
            assert np.all(k_safe * y <= scheme.epsilon_array(n, y))


class TestEmpiricalCoverage:
    """The 3-sigma bound must actually contain observed rounding errors."""

    def test_bound_covers_observed_dot_product_errors(self, rng):
        from repro.exact.compensated import exact_dot_errors

        n, trials = 256, 200
        a = rng.uniform(-1.0, 1.0, (trials, n))
        b = rng.uniform(-1.0, 1.0, (trials, n))
        computed = np.einsum("ij,ij->i", a, b)
        errors = np.abs(exact_dot_errors(a, b, computed))
        y = float(np.max(np.abs(a * b)))
        eps = ProbabilisticBound(omega=3.0).epsilon(
            BoundContext(n=n, m=1, upper_bound=y)
        )
        assert np.all(errors < eps)
        # ... while not being absurdly loose (within ~5 orders of magnitude).
        assert eps < 1e5 * max(errors.max(), 1e-300)
