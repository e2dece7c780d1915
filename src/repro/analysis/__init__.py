"""Result analysis and reporting helpers shared by all experiments."""

from repro.analysis.tables import ascii_table, format_series
from repro.analysis.compare import ShapeCheck, CheckResult

__all__ = [
    "CheckResult",
    "ShapeCheck",
    "ascii_table",
    "format_series",
]
