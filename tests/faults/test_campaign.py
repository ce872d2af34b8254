"""Fault-injection campaigns: setup, locality optimisation, rates."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignConfig, FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSite, FaultSpec
from repro.fp.errorvec import ErrorVector
from repro.workloads import SUITE_UNIT


@pytest.fixture(scope="module")
def prepared_campaign():
    config = CampaignConfig(
        n=128, suite=SUITE_UNIT, num_injections=10, block_size=64, seed=11
    )
    campaign = FaultCampaign(config)
    campaign.prepare()
    return campaign


class TestConfig:
    def test_size_must_be_block_multiple(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(n=100, suite=SUITE_UNIT, num_injections=1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown schemes"):
            CampaignConfig(
                n=128, suite=SUITE_UNIT, num_injections=1, schemes=("tmr",)
            )

    def test_positive_injections(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(n=128, suite=SUITE_UNIT, num_injections=0)


class TestPreparation:
    def test_fault_free_passes_all_schemes(self, prepared_campaign):
        """No false positives on the prepared workload — precondition for
        meaningful detection rates."""
        assert prepared_campaign.fault_free_pass == {"aabft": True, "sea": True}

    def test_epsilon_arrays_have_check_shapes(self, prepared_campaign):
        c = prepared_campaign
        assert c.col_eps["aabft"].shape == (2, 130)
        assert c.row_eps["aabft"].shape == (130, 2)

    def test_sea_bounds_looser_everywhere(self, prepared_campaign):
        c = prepared_campaign
        assert np.all(c.col_eps["sea"] > c.col_eps["aabft"])
        assert np.all(c.row_eps["sea"] > c.row_eps["aabft"])


class TestSingleInjection:
    def _spec(self, site, bit, k=0):
        return FaultSpec(
            sm_id=0,
            site=site,
            module_row=5,
            module_col=6,
            error_vector=ErrorVector(
                mask=1 << bit, field="mantissa", bit_indices=(bit,)
            ),
            k_injection=k,
        )

    def test_high_bit_merge_fault_is_critical_and_detected(self, prepared_campaign):
        record = prepared_campaign.inject_one(self._spec(FaultSite.MERGE_ADD, 51))
        assert record.is_critical
        assert record.detected["aabft"]
        assert abs(record.delta) > 1e-6

    def test_low_bit_fault_is_benign(self, prepared_campaign):
        record = prepared_campaign.inject_one(
            self._spec(FaultSite.INNER_ADD, 0, k=127)
        )
        assert not record.is_critical
        assert not record.detected["aabft"]  # below tolerance by design

    def test_delta_matches_local_replay(self, prepared_campaign):
        """The campaign's locality optimisation must agree with a full
        sequential replay of the affected element."""
        from repro.kernels.matmul import sequential_inner_product

        spec = self._spec(FaultSite.INNER_MUL, 40, k=64)
        record = prepared_campaign.inject_one(spec)
        c = prepared_campaign
        r, q = record.encoded_row, record.encoded_col
        injector = FaultInjector(spec, np.random.default_rng(1))
        injector.resolve_direct()
        clean = sequential_inner_product(c.a_cc[r], c.b_rc[:, q])
        faulty = sequential_inner_product(c.a_cc[r], c.b_rc[:, q], injector)
        assert record.delta == faulty - clean

    def test_injection_before_prepare_raises(self):
        campaign = FaultCampaign(
            CampaignConfig(n=128, suite=SUITE_UNIT, num_injections=1)
        )
        with pytest.raises(RuntimeError, match="prepare"):
            campaign.inject_one(self._spec(FaultSite.MERGE_ADD, 51))


class TestFullRun:
    def test_run_produces_records_and_rates(self):
        config = CampaignConfig(
            n=128, suite=SUITE_UNIT, num_injections=90, block_size=64, seed=7
        )
        result = FaultCampaign(config).run()
        assert len(result.records) == 90
        assert result.num_critical() > 20
        rate_aabft = result.detection_rate("aabft")
        rate_sea = result.detection_rate("sea")
        assert 0.0 <= rate_sea <= rate_aabft <= 1.0
        assert rate_aabft > 0.7

    def test_summary_renders(self):
        config = CampaignConfig(
            n=128, suite=SUITE_UNIT, num_injections=30, block_size=64, seed=8
        )
        result = FaultCampaign(config).run()
        text = result.summary()
        assert "inner_mul" in text
        assert "aabft" in text

    def test_exponent_faults_always_detected(self):
        """Paper Section VI-C: all sign/exponent injections were detected."""
        config = CampaignConfig(
            n=128,
            suite=SUITE_UNIT,
            num_injections=60,
            block_size=64,
            fields=("exponent", "sign"),
            seed=9,
        )
        result = FaultCampaign(config).run()
        assert result.detection_rate("aabft") == 1.0
        assert result.detection_rate("sea") == 1.0

    def test_site_filter(self):
        config = CampaignConfig(
            n=128,
            suite=SUITE_UNIT,
            num_injections=40,
            block_size=64,
            sites=(FaultSite.MERGE_ADD,),
            seed=10,
        )
        result = FaultCampaign(config).run()
        assert all(r.spec.site is FaultSite.MERGE_ADD for r in result.records)
        assert result.num_critical(FaultSite.INNER_MUL) == 0


class TestBackendDispatch:
    """Campaigns can run the reference product on any registered backend."""

    def base_kwargs(self, **extra):
        kwargs = dict(
            n=128, suite=SUITE_UNIT, num_injections=8, block_size=64, seed=11
        )
        kwargs.update(extra)
        return kwargs

    def test_unavailable_backend_records_fallback(self):
        campaign = FaultCampaign(
            CampaignConfig(**self.base_kwargs(backend="cupy"))
        )
        campaign.prepare()
        if campaign.backend_fallback is None:  # pragma: no cover - CUDA host
            pytest.skip("cupy is available here")
        assert campaign.backend_used == "numpy"
        assert "cupy" in campaign.backend_fallback

    def test_backend_config_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(**self.base_kwargs(backend=""))
