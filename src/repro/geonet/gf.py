"""Greedy Forwarding (GF) — EN 302 636-4-1 inter-area next-hop selection.

The forwarder ranks its LocT neighbors by distance to the destination area's
centre and picks the closest one, provided it makes strictly positive
progress (it is closer to the destination than the forwarder itself).  The
standard algorithm performs **no reachability or plausibility check** on the
stored PV and uses **no acknowledgement** — both vulnerabilities the paper
exploits.

The paper's §V mitigation is implemented here as an optional forwarding-time
plausibility filter: candidates whose position is further from the forwarder
than a threshold (default: the technology's NLoS-median range) are skipped
and the next-best candidate is considered.  The filter evaluates the *same*
position the ranking acted on — the advertised PV position by default, the
extrapolated one when ``loct_extrapolation`` is enabled — so the mitigation
always judges exactly what GF is about to trust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.geo.areas import DestinationArea
from repro.geo.position import Position
from repro.geonet.checks import position_plausible
from repro.geonet.config import GeoNetConfig
from repro.geonet.loct import LocationTable, LocationTableEntry


@dataclass
class GfSelection:
    """The outcome of a next-hop scan."""

    #: A read-only view of the chosen LocTE (built by ``live_entries``; the
    #: table itself stores ``(pv, updated_at)``), or None.
    next_hop: Optional[LocationTableEntry]
    candidates_considered: int = 0
    rejected_by_plausibility: int = 0
    reason: str = ""


@dataclass
class GfStats:
    """Counters for GF decisions across a node's lifetime."""

    selections: int = 0
    no_progress: int = 0
    plausibility_rejections: int = 0


class GreedyForwarder:
    """Stateless next-hop selection over a location table."""

    def __init__(self, config: GeoNetConfig, loct: LocationTable):
        self.config = config
        self.loct = loct
        self.stats = GfStats()

    def select_next_hop(
        self,
        own_position: Position,
        area: DestinationArea,
        now: float,
        *,
        exclude: Optional[Set[int]] = None,
    ) -> GfSelection:
        """Pick the neighbor closest to the area centre (with progress).

        ``exclude`` removes addresses from consideration (self, and the
        packet's source, which would be backwards progress by construction).
        """
        self.stats.selections += 1
        center = area.center
        own_distance = own_position.distance_to(center)
        excluded = exclude or set()
        ranked = self._ranked_candidates(center, now, excluded)
        considered = 0
        rejected_plausibility = 0
        for candidate_distance, candidate_position, entry in ranked:
            if candidate_distance >= own_distance:
                # Candidates are sorted; once progress stops, none remain.
                break
            considered += 1
            # The check judges the position GF ranked by (extrapolated when
            # loct_extrapolation is on), never a different one.
            if self.config.plausibility_check and not position_plausible(
                own_position, candidate_position, self.config.plausibility_threshold
            ):
                rejected_plausibility += 1
                continue
            self.stats.plausibility_rejections += rejected_plausibility
            return GfSelection(
                next_hop=entry,
                candidates_considered=considered,
                rejected_by_plausibility=rejected_plausibility,
                reason="progress",
            )
        self.stats.no_progress += 1
        self.stats.plausibility_rejections += rejected_plausibility
        return GfSelection(
            next_hop=None,
            candidates_considered=considered,
            rejected_by_plausibility=rejected_plausibility,
            reason="no-progress-candidate",
        )

    def _ranked_candidates(
        self, center: Position, now: float, excluded: Set[int]
    ) -> Iterable[tuple[float, Position, LocationTableEntry]]:
        """``(distance, position, entry)`` sorted by distance to ``center``.

        The position each entry was ranked by is returned alongside it so
        the plausibility filter can evaluate the very same coordinates.
        """
        extrapolate = self.config.loct_extrapolation
        candidates = []
        for entry in self.loct.live_entries(now):
            if entry.addr in excluded:
                continue
            position = (
                entry.pv.extrapolate(now) if extrapolate else entry.position
            )
            candidates.append((position.distance_to(center), position, entry))
        candidates.sort(key=lambda item: item[0])
        return candidates
