"""Public API surface: imports, __all__ hygiene, docstrings."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.abft",
    "repro.analysis",
    "repro.backends",
    "repro.bounds",
    "repro.chaos",
    "repro.engine",
    "repro.exact",
    "repro.experiments",
    "repro.faults",
    "repro.fp",
    "repro.gpusim",
    "repro.kernels",
    "repro.models",
    "repro.perfmodel",
    "repro.serve",
    "repro.telemetry",
    "repro.workloads",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_version(self):
        assert repro.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} in __all__ missing"

    def test_top_level_exports_core_api(self):
        for symbol in (
            "aabft_matmul",
            "sea_abft_matmul",
            "fixed_abft_matmul",
            "GpuSimulator",
            "AABFTPipeline",
            "FaultCampaign",
            "ProbabilisticBound",
            "MetricsRegistry",
            "get_registry",
            "span",
        ):
            assert symbol in repro.__all__

    def test_top_level_exports_serving_api(self):
        for symbol in (
            "MatmulServer",
            "ServeConfig",
            "MatmulRequest",
            "MatmulResponse",
            "VerificationStatus",
            "run_loadgen",
        ):
            assert symbol in repro.__all__

    def test_top_level_exports_batch_execution_api(self):
        for symbol in (
            "MatmulEngine",
            "ExecutionPolicy",
            "EXECUTION_MODES",
            "EngineStats",
        ):
            assert symbol in repro.__all__

    def test_engine_exports_locked(self):
        from repro import engine

        assert set(engine.__all__) == {
            "AbftConfig",
            "SCHEMES",
            "MatmulEngine",
            "EncodedOperand",
            "EngineStats",
            "ExecutionPlan",
            "ExecutionPolicy",
            "EXECUTION_MODES",
            "PlanCache",
            "build_plan",
            "default_engine",
            "pipeline_supported",
        }

    def test_execution_modes_locked(self):
        from repro import EXECUTION_MODES

        assert EXECUTION_MODES == ("auto", "serial", "pipelined")

    def test_serve_exports_locked(self):
        from repro import serve

        assert set(serve.__all__) == {
            "DEGRADATION_RUNGS",
            "LoadgenResult",
            "MatmulRequest",
            "MatmulResponse",
            "MatmulServer",
            "ModelRequest",
            "ModelResponse",
            "ServeConfig",
            "VerificationStatus",
            "percentile",
            "rung_for_fraction",
            "run_loadgen",
            "run_serve_benchmark",
        }

    def test_top_level_exports_model_api(self):
        for symbol in (
            "ModelSpec",
            "LayerSpec",
            "ProtectionPlanner",
            "ModelPlan",
            "ModelRunner",
            "ModelCampaign",
            "ModelRequest",
            "ModelResponse",
            "mlp",
            "attention",
        ):
            assert symbol in repro.__all__

    def test_models_exports_locked(self):
        from repro import models

        assert set(models.__all__) == {
            "ACTIVATIONS",
            "PROTECTION_RUNGS",
            "CampaignResult",
            "LayerAssignment",
            "LayerCoverage",
            "LayerRun",
            "LayerSpec",
            "ModelCampaign",
            "ModelInjection",
            "ModelInputs",
            "ModelPlan",
            "ModelRunResult",
            "ModelRunner",
            "ModelSpec",
            "ProtectionPlanner",
            "attention",
            "mlp",
            "compare_to_baseline",
            "default_baseline_path",
            "run_model_benchmark",
        }

    def test_cluster_exports_absent(self):
        import importlib.util

        for symbol in ("ClusterConfig", "ClusterFrontend"):
            assert symbol not in repro.__all__
            assert not hasattr(repro, symbol)
        assert importlib.util.find_spec("repro.cluster") is None

    def test_extension_exports_absent(self):
        import importlib.util

        from repro import abft, errors

        abft_removed = (
            "BlockWeightedFinding",
            "LuReport",
            "OnlineAbftResult",
            "PanelEvent",
            "PartitionedWeightedChecker",
            "PartitionedWeightedLayout",
            "PartitionedWeightedResult",
            "ProtectedLuResult",
            "ProtectedQrResult",
            "ProtectedSolveResult",
            "QrReport",
            "SingularPivotError",
            "SolveReport",
            "WeightedAbftResult",
            "WeightedCheckOutcome",
            "WeightedChecker",
            "encode_partitioned_weighted_columns",
            "encode_weighted_columns",
            "linear_weights",
            "online_abft_matmul",
            "partitioned_weighted_matmul",
            "plain_lu",
            "plain_qr",
            "protected_lu",
            "protected_qr",
            "protected_solve",
            "weighted_abft_matmul",
        )
        for symbol in abft_removed:
            assert symbol not in abft.__all__
            assert not hasattr(abft, symbol)
            assert symbol not in repro.__all__
            assert not hasattr(repro, symbol)
        for module in (repro, errors):
            assert "ChecksumMismatchError" not in module.__all__
            assert not hasattr(module, "ChecksumMismatchError")
        for name in ("weighted", "weighted_partitioned", "online", "lu", "qr", "solve"):
            assert importlib.util.find_spec(f"repro.abft.{name}") is None

    def test_response_satisfies_protected_result(self):
        import numpy as np

        from repro import MatmulResponse, ProtectedResult, VerificationStatus
        from repro.abft.checking import CheckReport

        response = MatmulResponse(
            request_id="r1",
            status=VerificationStatus.FULL,
            c=np.zeros((2, 2)),
            report=CheckReport(),
        )
        assert isinstance(response, ProtectedResult)


class TestDocstrings:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_classes_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"

    def test_quickstart_in_package_docstring(self):
        assert "aabft_matmul" in repro.__doc__


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for symbol in errors.__all__:
            exc = getattr(errors, symbol)
            assert issubclass(exc, errors.ReproError)
