"""Planted cellular maps: exact census, partition and bijection toolkit."""

from plantedmaps.core import (
    CellularMap,
    FaceStructure,
    MapError,
    ParseError,
    ValidationError,
    canonicalize,
    decode,
    from_np_pairs,
    validate,
)
from plantedmaps.census import (
    CountTable,
    bicellular_stream,
    count,
    count_range,
    tricellular_stream,
    unicellular_stream,
)
from plantedmaps.partition import PartitionClass, V1Profile, classify, histogram
from plantedmaps.oracle import bicellular, d_value, hz, theorem_rhs, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "CellularMap",
    "FaceStructure",
    "MapError",
    "ParseError",
    "ValidationError",
    "CountTable",
    "PartitionClass",
    "V1Profile",
    "canonicalize",
    "decode",
    "from_np_pairs",
    "validate",
    "bicellular_stream",
    "count",
    "count_range",
    "tricellular_stream",
    "unicellular_stream",
    "classify",
    "histogram",
    "bicellular",
    "d_value",
    "hz",
    "theorem_rhs",
    "verify_theorem",
]
