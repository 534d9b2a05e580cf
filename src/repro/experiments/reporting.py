"""Text reporting: paper-style tables and series for every figure, plus
performance snapshots (events/sec, transmits/sec, receivers-per-frame)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.experiments.runner import AbResult, RunResult
from repro.observability.ledger import OUTCOMES, reasons


def fmt_pct(value: Optional[float]) -> str:
    """Format a ratio as a percentage, n/a-safe."""
    return f"{value:6.1%}" if value is not None else "   n/a"


def coverage_note(stored: int, planned: int) -> str:
    """How much of a target's run set backs a partially-assembled figure.

    Appended as a ``note:`` line under artefacts rendered with
    ``--partial``, so a figure built from half a campaign can never be
    mistaken for the finished one.
    """
    if planned <= 0 or stored >= planned:
        return "complete"
    pct = 100.0 * stored / planned
    return f"partial: {stored}/{planned} runs stored ({pct:.0f}%)"


def detection_table(
    rows: Sequence[tuple],
) -> List[str]:
    """Precision/recall/detection-latency table for the ``detect`` sweep.

    ``rows`` is ``(label, metrics)`` with the metric dict produced by
    :func:`repro.experiments.detect.cell_metrics`; latency is shown
    in seconds (n/a when nothing was detected), the FP column quantifies
    the attack-free alert volume under the cell's impairments.
    """
    lines = [
        f"  {'cell':<28} {'recall':>7} {'prec':>7} {'latency':>8} "
        f"{'fp-win':>7} {'fp-alerts':>9} {'drop':>7} {'replays':>8}"
    ]
    for label, metrics in rows:
        latency = metrics.get("latency")
        latency_txt = f"{latency:7.1f}s" if latency is not None else "     n/a"
        fp_alerts = metrics.get("fp_alerts") or 0.0
        replays = metrics.get("replays") or 0.0
        lines.append(
            f"  {label:<28} {fmt_pct(metrics.get('recall')):>7} "
            f"{fmt_pct(metrics.get('precision')):>7} {latency_txt} "
            f"{fmt_pct(metrics.get('fp_window_rate')):>7} "
            f"{fp_alerts:9.0f} {fmt_pct(metrics.get('drop')):>7} "
            f"{replays:8.0f}"
        )
    return lines


def _breakdown_totals(runs: Sequence[RunResult]) -> Counter:
    totals: Counter = Counter()
    for run in runs:
        if run.drop_breakdown:
            totals.update(run.drop_breakdown)
    return totals


def drop_breakdown_table(
    af_runs: Sequence[RunResult],
    atk_runs: Sequence[RunResult],
    *,
    title: str = "packet drop breakdown",
) -> str:
    """Side-by-side terminal-outcome accounting of seed-paired A/B runs.

    Every originated application packet appears in exactly one row (the
    ledger's conservation invariant), so the columns each sum to the number
    of packets originated — the table answers *where* the attack's lost
    packets actually died, not just how many.
    """
    af = _breakdown_totals(af_runs)
    atk = _breakdown_totals(atk_runs)
    if not af and not atk:
        return f"{title}: no ledger data (runs executed without a ledger)"
    lines = [
        f"{title}",
        f"  {'outcome':<24} {'attack-free':>12} {'attacked':>12} {'delta':>8}",
    ]
    shown = [r for r in OUTCOMES if af.get(r, 0) or atk.get(r, 0)]
    for reason in shown:
        a, b = af.get(reason, 0), atk.get(reason, 0)
        lines.append(f"  {reason:<24} {a:>12} {b:>12} {b - a:>+8}")
    lines.append(
        f"  {'total originated':<24} "
        f"{sum(af.values()):>12} {sum(atk.values()):>12} "
        f"{sum(atk.values()) - sum(af.values()):>+8}"
    )
    return "\n".join(lines)


def dominant_loss(
    af_runs: Sequence[RunResult], atk_runs: Sequence[RunResult]
) -> Optional[tuple]:
    """``(reason, excess, share)`` of the drop reason that grew the most
    under attack — the attribution the ``explain`` CLI reports.  ``share``
    is that reason's fraction of the total attack-induced drop growth; None
    when the attack added no drops (or no ledger ran)."""
    af = _breakdown_totals(af_runs)
    atk = _breakdown_totals(atk_runs)
    excess: Dict[str, int] = {}
    for reason in OUTCOMES:
        if reason == reasons.DELIVERED:
            continue
        delta = atk.get(reason, 0) - af.get(reason, 0)
        if delta > 0:
            excess[reason] = delta
    total = sum(excess.values())
    if total == 0:
        return None
    reason = max(excess, key=lambda r: excess[r])
    return reason, excess[reason], excess[reason] / total


@dataclass(frozen=True)
class PerfSnapshot:
    """Hot-path performance counters of one run.

    Built from the :class:`~repro.sim.engine.Simulator` and
    :class:`~repro.radio.channel.ChannelStats` counters the run accumulated
    — no external profiler involved.  ``mean_candidates_per_frame`` is the
    average number of candidate receivers the channel examined per
    transmit: with the cell index it tracks the ~k in-range neighbors
    instead of the N registered interfaces.
    """

    events_fired: int
    wall_time_s: float
    frames_sent: int
    frames_delivered: int
    mean_receivers_per_frame: float
    mean_candidates_per_frame: float

    @classmethod
    def from_world(cls, world) -> "PerfSnapshot":
        """Snapshot a (finished) :class:`~repro.experiments.world.World`."""
        stats = world.channel.stats
        return cls(
            events_fired=world.sim.events_fired,
            wall_time_s=world.sim.wall_time_s,
            frames_sent=stats.frames_sent,
            frames_delivered=stats.frames_delivered,
            mean_receivers_per_frame=stats.mean_receivers_per_frame,
            mean_candidates_per_frame=stats.mean_candidates_per_frame,
        )

    @classmethod
    def from_run(cls, run: RunResult) -> "PerfSnapshot":
        """Rebuild a snapshot from a :class:`RunResult`'s extras."""
        extras = run.extras
        return cls(
            events_fired=int(extras.get("events_fired", 0)),
            wall_time_s=float(extras.get("wall_time_s", 0.0)),
            frames_sent=int(extras.get("frames_sent", 0)),
            frames_delivered=int(extras.get("frames_delivered", 0)),
            mean_receivers_per_frame=float(
                extras.get("mean_receivers_per_frame", 0.0)
            ),
            mean_candidates_per_frame=float(
                extras.get("mean_candidates_per_frame", 0.0)
            ),
        )

    @property
    def events_per_sec(self) -> float:
        """Fired events per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events_fired / self.wall_time_s

    @property
    def transmits_per_sec(self) -> float:
        """Channel transmits per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.frames_sent / self.wall_time_s

    def format(self) -> str:
        """One perf line, e.g. for appending under a figure table."""
        return (
            f"  perf: {self.events_fired} events in {self.wall_time_s:.2f}s "
            f"({self.events_per_sec:,.0f} ev/s, "
            f"{self.transmits_per_sec:,.0f} tx/s), "
            f"rx/frame={self.mean_receivers_per_frame:.1f}, "
            f"candidates/frame={self.mean_candidates_per_frame:.1f}"
        )


@dataclass
class FigureSeries:
    """One line of a figure: a labelled A/B comparison.

    The label is a series name, or the tuple of levels of a sweep cell.
    """

    label: Hashable
    result: AbResult

    @property
    def drop(self) -> Optional[float]:
        return self.result.drop_rate()

    @property
    def drop_abs(self) -> Optional[float]:
        return self.result.drop_rate(relative=False)

    def comparison(self) -> str:
        """The reception and drop columns shared by every A/B row."""
        r = self.result
        return (
            f"af={fmt_pct(r.af_overall)}  atk={fmt_pct(r.atk_overall)}  "
            f"drop={fmt_pct(self.drop)} (abs {fmt_pct(self.drop_abs)})"
        )

    def row(self) -> str:
        return f"  {self.label:<22} {self.comparison()}"


@dataclass
class FigureResult:
    """All series of one paper figure, plus context.

    ``legend`` is an optional line under the title; ``rows`` optionally
    renders the series' lines instead of :meth:`FigureSeries.row`.
    """

    figure_id: str
    title: str
    series: List[FigureSeries] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    legend: Optional[str] = None
    rows: Optional[Callable[[List[FigureSeries]], List[str]]] = None

    def add(self, label: Hashable, result: AbResult) -> FigureSeries:
        entry = FigureSeries(label=label, result=result)
        self.series.append(entry)
        return entry

    def get(self, *levels: Hashable) -> FigureSeries:
        """The series labelled ``levels`` (one name, or a sweep cell's levels)."""
        label = levels[0] if len(levels) == 1 else levels
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(f"no series labelled {label!r} in {self.figure_id}")

    def format(self) -> str:
        lines = [f"{self.figure_id}: {self.title}"]
        if self.legend is not None:
            lines.append(self.legend)
        if self.rows is not None:
            lines.extend(self.rows(self.series))
        else:
            lines.extend(entry.row() for entry in self.series)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)

    def sketch(self) -> str:
        """Sparkline rendering of every series' af/atk reception over time."""
        from repro.analysis.textplot import series_table

        rows = []
        bin_width = 5.0
        for entry in self.series:
            bin_width = entry.result.config.bin_width
            rows.append((f"{entry.label} af ", entry.result.af_bin_rates))
            rows.append((f"{entry.label} atk", entry.result.atk_bin_rates))
        return f"{self.figure_id}: {self.title}\n" + series_table(
            rows, bin_width=bin_width
        )

    def bin_table(self) -> str:
        """The per-bin reception-rate series (the actual figure lines)."""
        lines = [f"{self.figure_id} per-bin reception rates"]
        for entry in self.series:
            af = entry.result.af_bin_rates
            atk = entry.result.atk_bin_rates
            af_txt = " ".join("  ---" if v is None else f"{v:5.2f}" for v in af)
            atk_txt = " ".join("  ---" if v is None else f"{v:5.2f}" for v in atk)
            lines.append(f"  {entry.label} [af ]: {af_txt}")
            lines.append(f"  {entry.label} [atk]: {atk_txt}")
        return "\n".join(lines)


def cumulative_table(
    figure_id: str, series: Sequence[FigureSeries], *, bin_width: float
) -> str:
    """Fig 8 / Fig 10 style: accumulated drop rate over time per scenario."""
    lines = [f"{figure_id}: accumulated drop rate over time (bin={bin_width:.0f}s)"]
    for entry in series:
        drops = entry.result.cumulative_drops()
        txt = " ".join("  ---" if v is None else f"{v:5.2f}" for v in drops)
        lines.append(f"  {entry.label:<22} {txt}")
    return "\n".join(lines)
