"""``repro-experiments explain``: where do the attack's packets die?

The paper's figures report *how many* packets an attack drops; this module
answers *where*.  It runs seed-paired attack-free/attacked simulations with
a fresh :class:`~repro.observability.PacketLedger` each, renders the
terminal-outcome breakdown side by side, and attributes the attack-induced
loss to the drop reason that grew the most.

For the inter-area attack that attribution is the paper's core claim made
mechanical: GF picks the replayed (unreachable) neighbor as next hop, the
link-layer unicast has no acknowledgement, and the packet is silently
lost — the ledger files it under ``unreachable-next-hop``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.reporting import (
    dominant_loss,
    drop_breakdown_table,
    fmt_pct,
)
from repro.experiments.runner import RunResult, run_single
from repro.experiments.sweep import attack_base
from repro.observability.ledger import PacketLedger, reasons

#: The scenarios ``explain`` knows how to build.
EXPLAIN_TARGETS = ("inter-area", "intra-area")


@dataclass
class ExplainResult:
    """Seed-paired ledgered A/B runs plus their ledgers (for journeys)."""

    target: str
    af_runs: List[RunResult]
    atk_runs: List[RunResult]
    af_ledgers: List[PacketLedger]
    atk_ledgers: List[PacketLedger]

    def format(self, *, journeys: int = 0) -> str:
        lines = [
            drop_breakdown_table(
                self.af_runs,
                self.atk_runs,
                title=f"explain {self.target}: packet drop breakdown "
                f"({len(self.af_runs)} seed-paired run(s))",
            )
        ]
        af_rate = _mean_rate(self.af_runs)
        atk_rate = _mean_rate(self.atk_runs)
        lines.append(
            f"  reception: af={fmt_pct(af_rate)}  atk={fmt_pct(atk_rate)}"
        )
        attribution = dominant_loss(self.af_runs, self.atk_runs)
        if attribution is None:
            lines.append(
                "  the attack added no packet drops in these runs"
            )
        else:
            reason, excess, share = attribution
            lines.append(
                f"  dominant attack-induced loss: {reason} "
                f"(+{excess} packets, {share:.0%} of the added drops)"
            )
            if reason == reasons.UNREACHABLE_NEXT_HOP:
                lines.append(
                    "  -> GF handed packets to replayed neighbors that were "
                    "never in range; the unacknowledged link-layer unicast "
                    "died silently (paper vulnerability #3)."
                )
            elif reason == reasons.CBF_SUPPRESSED:
                lines.append(
                    "  -> replayed duplicates won CBF contention, so real "
                    "forwarders suppressed their own copies and the flood "
                    "starved (paper vulnerability #4)."
                )
        if journeys > 0:
            lines.append("")
            lines.extend(self._journey_lines(journeys))
        return "\n".join(lines)

    def _journey_lines(self, limit: int) -> List[str]:
        """Per-hop journeys of the first ``limit`` attacked packets that
        were NOT delivered (the interesting ones)."""
        lines = [f"journeys of up to {limit} undelivered attacked packets:"]
        shown = 0
        for ledger in self.atk_ledgers:
            for record in ledger.records():
                if shown >= limit:
                    return lines
                if record.deliveries:
                    continue
                pid = "/".join(str(p) for p in record.packet_id)
                lines.append(f"  [{record.kind}:{pid}] -> {record.outcome}")
                for event in ledger.journey(record.kind, record.packet_id):
                    lines.append(f"    {event.line()}")
                shown += 1
        if shown == 0:
            lines.append("  (none — every attacked packet was delivered)")
        return lines


def _mean_rate(runs: List[RunResult]) -> Optional[float]:
    if not runs:
        return None
    return sum(r.overall_rate for r in runs) / len(runs)


def explain(
    target: str,
    *,
    runs: int = 1,
    duration: float = 200.0,
    seed: int = 1,
    journeys: int = 0,
) -> ExplainResult:
    """Run ledgered seed-paired A/B simulations of ``target``.

    ``journeys > 0`` additionally records per-hop journey events (slightly
    more memory; still zero behaviour change) so that many undelivered
    packets can be printed hop by hop.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    af_runs: List[RunResult] = []
    atk_runs: List[RunResult] = []
    af_ledgers: List[PacketLedger] = []
    atk_ledgers: List[PacketLedger] = []
    want_journeys = journeys > 0
    for k in range(runs):
        run_seed = seed + k
        config = attack_base(target, duration=duration, seed=run_seed)
        for attacked, results, ledgers in (
            (False, af_runs, af_ledgers),
            (True, atk_runs, atk_ledgers),
        ):
            ledger = PacketLedger(journeys=want_journeys)
            results.append(
                run_single(
                    config, attacked=attacked, seed=run_seed, ledger=ledger
                )
            )
            ledgers.append(ledger)
    return ExplainResult(
        target=target,
        af_runs=af_runs,
        atk_runs=atk_runs,
        af_ledgers=af_ledgers,
        atk_ledgers=atk_ledgers,
    )


def conservation_report(result: ExplainResult) -> Dict[str, bool]:
    """Check the ledger invariant on every run: outcome counts sum to the
    number of originated packets.  Keys are ``"af-<seed>"``/``"atk-<seed>"``."""
    report: Dict[str, bool] = {}
    for label, runs, ledgers in (
        ("af", result.af_runs, result.af_ledgers),
        ("atk", result.atk_runs, result.atk_ledgers),
    ):
        for run, ledger in zip(runs, ledgers):
            totals = ledger.outcome_totals()
            report[f"{label}-{run.seed}"] = sum(totals.values()) == len(ledger)
    return report
