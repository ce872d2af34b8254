"""Property-based cross-module invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.abft.multiply import aabft_matmul
from repro.abft.pipeline import AABFTPipeline
from repro.faults.campaign import CampaignConfig, FaultCampaign
from repro.gpusim.simulator import GpuSimulator
from repro.workloads import SUITE_UNIT

slow_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def within_gemm_error(c, a, b):
    """Whether ``c`` agrees with ``a @ b`` to within two GEMM rounding errors.

    Each of ``c`` and ``a @ b`` is some float64 summation order of the same
    products, so each lies within ``n * u * (|a| @ |b|)`` of the exact
    product (u = eps / 2); their difference is at most ``n * eps`` times
    that, and ``2 * n * eps`` leaves a factor of two of slack.  Unlike a
    relative tolerance on ``c`` itself, the bound does not collapse on
    entries that cancel to nearly zero.
    """
    n = a.shape[1]
    bound = 2 * n * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
    return bool(np.all(np.abs(c - a @ b) <= bound))


class TestHostApiProperties:
    @slow_settings
    @given(
        m_blocks=st.integers(1, 3),
        n_extra=st.integers(0, 60),
        q_blocks=st.integers(1, 3),
        bs=st.sampled_from([8, 16, 32]),
        scale=st.sampled_from([1.0, 100.0, 1e-3]),
        seed=st.integers(0, 2**31 - 1),
    )
    # A near-zero entry of this draw differs from numpy's by 2.7e-15, which
    # a fixed rtol=1e-12 rejected although both are correctly rounded sums.
    @example(m_blocks=2, n_extra=21, q_blocks=2, bs=32, scale=1.0, seed=447085)
    def test_protected_product_always_correct_and_clean(
        self, m_blocks, n_extra, q_blocks, bs, scale, seed
    ):
        """For any shape, block size and scale *within the model's
        validity domain* (inner dimension >= block size; see
        docs/THEORY.md on the reference-summation term): the protected
        product equals numpy's up to GEMM rounding and fault-free checks
        pass."""
        n = bs + n_extra
        rng = np.random.default_rng(seed)
        a = rng.uniform(-scale, scale, (m_blocks * bs, n))
        b = rng.uniform(-scale, scale, (n, q_blocks * bs))
        result = aabft_matmul(a, b, block_size=bs)
        assert within_gemm_error(result.c, a, b)
        assert not result.detected

    def test_gemm_error_oracle_rejects_a_small_corruption(self, rng):
        """The oracle is tight enough to catch a 1e-9 relative error on
        the largest entry of an otherwise correct product."""
        a = rng.uniform(-1.0, 1.0, (64, 53))
        b = rng.uniform(-1.0, 1.0, (53, 64))
        c = aabft_matmul(a, b, block_size=32).c
        assert within_gemm_error(c, a, b)
        c[np.unravel_index(np.argmax(np.abs(c)), c.shape)] *= 1 + 1e-9
        assert not within_gemm_error(c, a, b)

    @slow_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        delta_exp=st.integers(-8, 4),
        row=st.integers(0, 65),
        col=st.integers(0, 65),
    )
    def test_detection_threshold_consistency(self, seed, delta_exp, row, col):
        """Any corruption strictly above the element's column *and* row
        tolerances is detected; anything below both passes."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 64))
        result = aabft_matmul(a, b, block_size=32)
        from repro.abft.checking import check_partitioned

        delta = 10.0**delta_exp
        col_eps = result.provider.column_epsilon(
            row // 33, col
        )
        row_eps = result.provider.row_epsilon(row, col // 33)
        corrupted = result.c_fc.copy()
        corrupted[row, col] += delta
        report = check_partitioned(
            corrupted, result.row_layout, result.col_layout, result.provider
        )
        # Fault-free discrepancies are far below eps, so the corruption
        # dominates: detection iff delta clearly exceeds a tolerance.
        if delta > 4 * max(col_eps, row_eps):
            assert report.error_detected
        if delta < 0.25 * min(col_eps, row_eps):
            assert not report.error_detected


class TestPipelineEquivalenceProperty:
    @slow_settings
    @given(
        blocks=st.integers(1, 3),
        bs=st.sampled_from([16, 32]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_simulated_pipeline_matches_host(self, blocks, bs, seed):
        """The kernel-by-kernel simulated pipeline and the direct host
        implementation agree on results and on every tolerance."""
        rng = np.random.default_rng(seed)
        n = blocks * bs
        a = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, (n, n))
        sim = GpuSimulator()
        piped = AABFTPipeline(sim, block_size=bs, p=2).run(a, b)
        host = aabft_matmul(a, b, block_size=bs, p=2)
        assert np.allclose(piped.c, host.c, rtol=1e-13)
        assert piped.detected == host.detected
        for blk in range(piped.row_layout.num_blocks):
            assert piped.provider.column_epsilon(blk, 0) == pytest.approx(
                host.provider.column_epsilon(blk, 0), rel=1e-12
            )


class TestCampaignProperties:
    def test_detection_monotone_in_omega(self):
        """Loosening omega can only reduce detections (same faults)."""
        rates = []
        for omega in (1.0, 3.0, 6.0):
            config = CampaignConfig(
                n=128,
                suite=SUITE_UNIT,
                num_injections=100,
                block_size=64,
                omega=omega,
                seed=99,
            )
            result = FaultCampaign(config).run()
            # Use raw detections (not per-critical rates) since the
            # critical ground truth also depends on omega.
            detected = sum(1 for r in result.records if r.detected["aabft"])
            rates.append(detected)
        assert rates[0] >= rates[1] >= rates[2]

    def test_campaign_reproducible(self):
        config = CampaignConfig(
            n=128, suite=SUITE_UNIT, num_injections=50, block_size=64, seed=123
        )
        r1 = FaultCampaign(config).run()
        r2 = FaultCampaign(config).run()
        assert [x.delta for x in r1.records] == [x.delta for x in r2.records]
        assert [x.detected for x in r1.records] == [x.detected for x in r2.records]
