"""One driver module per paper artefact (tables, figures, text studies).

Every artefact takes ``runs`` / ``duration`` / ``seed`` knobs so the same
code scales from a quick laptop check to the paper's full 100-run, 200 s
configuration, and returns a structured result whose ``format()`` output
matches the rows/series the paper reports.  A/B figures are
:class:`~repro.experiments.sweep.AbTarget`\\ s, mostly built by
:mod:`~repro.experiments.figures.panels`: calling one simulates its
settings serially in memory, and the campaign planner and assembler use
the same settings for store keys and store-backed rendering (parallel
execution is the lease service's, via ``repro-experiments``).
"""

from repro.experiments.figures import (  # noqa: F401
    fig7,
    fig8,
    fig9,
    fig10,
    fig12,
    fig13,
    fig14,
    tables,
)

__all__ = ["fig7", "fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "tables"]
