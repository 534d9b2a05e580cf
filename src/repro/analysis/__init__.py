"""Statistics and terminal-visualisation helpers for experiment results.

Used by the reporting layer and available to downstream users analysing
their own runs: means with confidence intervals over small run counts
(Student-t), paired-difference intervals for A/B comparisons, and text
sparklines for time series.
"""

from repro.analysis.stats import (
    confidence_interval,
    mean,
    paired_difference_interval,
    sample_std,
)
from repro.analysis.textplot import series_table, sparkline

__all__ = [
    "confidence_interval",
    "mean",
    "paired_difference_interval",
    "sample_std",
    "series_table",
    "sparkline",
]
