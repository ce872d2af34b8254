"""Device-side correction kernel and the pipeline's auto-correct path."""

import numpy as np
import pytest

from repro.abft.checking import check_partitioned
from repro.abft.correction import correct_single_error
from repro.abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_rows,
)
from repro.abft.pipeline import AABFTPipeline
from repro.abft.providers import ConstantEpsilonProvider
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSite, FaultSpec
from repro.fp.errorvec import ErrorVector
from repro.gpusim.simulator import GpuSimulator
from repro.kernels.correct import CorrectionKernel

EPS = ConstantEpsilonProvider(1e-9)


@pytest.fixture
def corrupted(rng):
    a = rng.uniform(-1, 1, (64, 48))
    b = rng.uniform(-1, 1, (48, 64))
    a_cc, rows = encode_partitioned_columns(a, 32)
    b_rc, cols = encode_partitioned_rows(b, 32)
    c = a_cc @ b_rc
    clean = c.copy()
    c[10, 40] += 1e-3
    report = check_partitioned(c, rows, cols, EPS)
    return c, clean, rows, cols, report


class TestCorrectionKernel:
    def _launch(self, simulator, c, rows, cols, locations):
        d_c = simulator.upload(c)
        d_status = simulator.alloc((rows.num_blocks, cols.num_blocks))
        simulator.launch(
            CorrectionKernel(d_c, locations, rows, cols, d_status)
        )
        return simulator.download(d_c), simulator.download(d_status)

    def test_single_error_corrected(self, simulator, corrupted):
        c, clean, rows, cols, report = corrupted
        fixed, status = self._launch(
            simulator, c, rows, cols, report.located_errors
        )
        assert status[0, 1] == 1.0  # the block holding (10, 40)
        assert np.count_nonzero(status == 1.0) == 1
        assert fixed[10, 40] == pytest.approx(clean[10, 40], rel=1e-12)
        recheck = check_partitioned(fixed, rows, cols, EPS)
        assert not recheck.error_detected

    def test_checksum_element_corrected(self, simulator, rng):
        a = rng.uniform(-1, 1, (64, 48))
        b = rng.uniform(-1, 1, (48, 64))
        a_cc, rows = encode_partitioned_columns(a, 32)
        b_rc, cols = encode_partitioned_rows(b, 32)
        c = a_cc @ b_rc
        cs = rows.checksum_index(1)
        c[cs, 5] += 1e-3
        report = check_partitioned(c, rows, cols, EPS)
        fixed, status = self._launch(
            simulator, c, rows, cols, report.located_errors
        )
        assert np.count_nonzero(status == 1.0) == 1
        assert not check_partitioned(fixed, rows, cols, EPS).error_detected

    def test_ambiguous_block_left_untouched(self, simulator, corrupted):
        c, clean, rows, cols, _ = corrupted
        c = clean.copy()
        c[1, 2] += 1e-3
        c[3, 4] += 1e-3  # same block: four candidate intersections
        report = check_partitioned(c, rows, cols, EPS)
        before = c.copy()
        fixed, status = self._launch(
            simulator, c, rows, cols, report.located_errors
        )
        assert status[0, 0] == 2.0
        assert np.array_equal(fixed, before)

    def test_clean_blocks_report_zero(self, simulator, corrupted):
        c, _, rows, cols, report = corrupted
        _, status = self._launch(simulator, c, rows, cols, report.located_errors)
        assert np.count_nonzero(status == 0.0) == status.size - 1

    def test_shape_validation(self, simulator, corrupted):
        c, _, rows, cols, _ = corrupted
        d_c = simulator.upload(c)
        bad = simulator.alloc((1, 1))
        with pytest.raises(ValueError, match="status buffer"):
            CorrectionKernel(d_c, [], rows, cols, bad)


class TestHostParity:
    """The kernel returns the host corrector's bytes, in the result's dtype."""

    @pytest.mark.parametrize(
        "dtype, eps", [(np.float64, 1e-9), (np.float32, 1e-3)], ids=["f64", "f32"]
    )
    @pytest.mark.parametrize("part", ["data", "checksum_row", "checksum_col"])
    def test_kernel_matches_correct_single_error(
        self, simulator, rng, dtype, eps, part
    ):
        a = rng.uniform(-1, 1, (64, 48)).astype(dtype)
        b = rng.uniform(-1, 1, (48, 96)).astype(dtype)
        a_cc, rows = encode_partitioned_columns(a, 32)
        b_rc, cols = encode_partitioned_rows(b, 32)
        clean = a_cc @ b_rc
        epsilons = ConstantEpsilonProvider(eps)
        for blk, fault in ((0, 0.375), (1, -7.25), (1, 1e-2)):
            row = int(rng.integers(0, 32)) + blk * rows.stride
            col = int(rng.integers(0, 32)) + blk * cols.stride
            if part == "checksum_row":
                row = rows.checksum_index(blk)
            elif part == "checksum_col":
                col = cols.checksum_index(blk)
            c = clean.copy()
            c[row, col] += dtype(fault)
            report = check_partitioned(c, rows, cols, epsilons)
            assert report.located_errors == [(row, col)]

            host = correct_single_error(
                c, report, rows, cols, epsilons, verify=False
            ).corrected
            d_c = simulator.upload(c)
            d_status = simulator.alloc((rows.num_blocks, cols.num_blocks))
            simulator.launch(
                CorrectionKernel(d_c, report.located_errors, rows, cols, d_status)
            )
            device = simulator.download(d_c)
            assert device.dtype == host.dtype == dtype
            assert device.tobytes() == host.tobytes()


class TestPipelineAutoCorrect:
    def _spec(self, bit=50):
        return FaultSpec(
            sm_id=1,
            site=FaultSite.MERGE_ADD,
            module_row=4,
            module_col=5,
            error_vector=ErrorVector(
                mask=1 << bit, field="mantissa", bit_indices=(bit,)
            ),
        )

    def test_fault_corrected_in_flight(self, rng):
        a = rng.uniform(-1, 1, (128, 128))
        b = rng.uniform(-1, 1, (128, 128))
        sim = GpuSimulator()
        result = AABFTPipeline(sim, block_size=64).run(
            a, b, injector=FaultInjector(self._spec(), rng), auto_correct=True
        )
        assert not result.detected  # the re-check after correction passes
        assert len(result.corrected_blocks) == 1
        assert np.allclose(result.c, a @ b, rtol=1e-10)
        assert "abft_correct" in {r.kernel_name for r in sim.profiler.records}

    def test_clean_run_skips_correction_kernel(self, rng):
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 64))
        sim = GpuSimulator()
        result = AABFTPipeline(sim, block_size=32).run(a, b, auto_correct=True)
        assert result.corrected_blocks == ()
        assert "abft_correct" not in {r.kernel_name for r in sim.profiler.records}
