"""ABFT core: checksum encoding, checking, correction, classification, and
the high-level protected multiplication API."""

from .checking import (
    CheckFinding,
    CheckReport,
    EpsilonProvider,
    build_report,
    check_partitioned,
    column_discrepancies,
    row_discrepancies,
)
from .classify import Classification, ErrorClass, ErrorClassifier
from .correction import CorrectionResult, correct_single_error
from .encoding import (
    PartitionedLayout,
    encode_column_checksums,
    encode_full,
    encode_partitioned_columns,
    encode_partitioned_rows,
    encode_row_checksums,
    pad_to_block_multiple,
    strip_encoding,
)
from .multiply import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_P,
    aabft_matmul,
    fixed_abft_matmul,
    sea_abft_matmul,
)
from .result import AbftResult, ProtectedResult
from .pipeline import AABFTPipeline, PipelineResult
from .providers import (
    AABFTEpsilonProvider,
    ConstantEpsilonProvider,
    SEAEpsilonProvider,
)

__all__ = [
    "AABFTEpsilonProvider",
    "AABFTPipeline",
    "AbftResult",
    "CheckFinding",
    "CheckReport",
    "Classification",
    "ConstantEpsilonProvider",
    "CorrectionResult",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_P",
    "EpsilonProvider",
    "ErrorClass",
    "ErrorClassifier",
    "PartitionedLayout",
    "PipelineResult",
    "ProtectedResult",
    "SEAEpsilonProvider",
    "aabft_matmul",
    "build_report",
    "check_partitioned",
    "column_discrepancies",
    "correct_single_error",
    "encode_column_checksums",
    "encode_full",
    "encode_partitioned_columns",
    "encode_partitioned_rows",
    "encode_row_checksums",
    "fixed_abft_matmul",
    "pad_to_block_multiple",
    "strip_encoding",
    "row_discrepancies",
    "sea_abft_matmul",
]
