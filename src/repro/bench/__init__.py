"""Benchmark harness: measurements, comparisons, figure-style reporting."""

from .harness import (
    Measurement,
    compare_algorithms,
    measure,
    scaling_exponent,
)
from .reporting import (
    format_bytes,
    format_seconds,
    render_ratio_table,
    render_series,
    render_table,
)

__all__ = [
    "Measurement",
    "compare_algorithms",
    "format_bytes",
    "format_seconds",
    "measure",
    "render_ratio_table",
    "render_series",
    "render_table",
    "scaling_exponent",
]
