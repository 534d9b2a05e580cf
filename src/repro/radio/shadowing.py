"""Corner/building shadowing for Manhattan-grid urban scenarios.

On a city grid, radio propagation is dominated by the buildings between
streets: two vehicles hear each other when they share a street canyon
(line of sight down the corridor), or when both stand close enough to the
same intersection that corner diffraction carries the signal around the
building edge.  Everything else is blocked — the free-space range that the
highway scenarios use is meaningless through a city block.

:class:`ManhattanShadowing` encodes exactly that rule as a link
obstruction predicate for
:meth:`~repro.radio.channel.BroadcastChannel.add_obstruction`:

* **same-street LOS** — both endpoints lie within the half-width of a
  common street corridor (horizontal or vertical);
* **corner clearance** — both endpoints are within ``corner_clearance``
  metres of a common intersection (NLOS-around-the-corner reception);
* otherwise the link is **blocked**.

The model is deliberately binary (blocked or clear) so it composes with
the channel's range model (and the fault layer's link loss) instead of
replacing it; Amador et al. (arXiv 2403.16237) use the same
corridor-or-corner approximation for urban GeoNetworking studies.

The rule factorises per endpoint, and that is how it is evaluated.
:meth:`ManhattanShadowing.blocks_many` takes link endpoints as labelled
points, ``(xs, ys)`` plus ``src``/``dst`` index arrays, and gives each
point three labels: the horizontal corridor it lies in, the vertical
corridor it lies in, and the intersection whose clearance disc holds it
(-1 for none). A link is clear when its two ends share a non-negative
label. :meth:`~repro.radio.channel.BroadcastChannel.block_mask` calls it
once per fleet tick over the tick's swept pairs and once per transmitted
frame over the sender and its in-range receivers. The nearest street per
axis comes from one ``searchsorted`` over the sorted street coordinates,
so the cost does not grow with the number of streets.

The labels reproduce the pairwise rule exactly when no point can lie in
two corridors of one axis or in two corner discs at once: adjacent
streets more than ``2 * half_width`` apart and ``corner_clearance`` under
half the smallest street spacing. ``__post_init__`` rejects any other
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geo.position import Position


@dataclass(frozen=True)
class ManhattanShadowing:
    """Building shadowing predicate for a rectangular street grid.

    ``street_xs`` are the centerlines of the vertical (north-south)
    streets, ``street_ys`` of the horizontal (east-west) streets.
    ``half_width`` is half the corridor width a position may occupy and
    still count as "on" that street; ``corner_clearance`` is the radius
    around an intersection within which corner diffraction still connects
    two different streets.
    """

    street_xs: Tuple[float, ...]
    street_ys: Tuple[float, ...]
    half_width: float
    corner_clearance: float = 0.0

    def __post_init__(self):
        if not self.street_xs and not self.street_ys:
            raise ValueError("at least one street is required")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.corner_clearance < 0:
            raise ValueError("corner_clearance must be non-negative")
        # Normalise to sorted tuples so the instance stays hashable even
        # when built from lists/arrays, and so each endpoint's nearest
        # street is one ``searchsorted`` away.
        xs = tuple(sorted(float(x) for x in self.street_xs))
        ys = tuple(sorted(float(y) for y in self.street_ys))
        object.__setattr__(self, "street_xs", xs)
        object.__setattr__(self, "street_ys", ys)
        # Endpoint labels reproduce the pairwise corridor-or-corner rule
        # only while no point can sit in two corridors of one axis or in
        # two corner discs at once.
        gaps = [b - a for axis in (xs, ys) for a, b in zip(axis, axis[1:])]
        if gaps:
            spacing = min(gaps)
            if spacing <= 2.0 * self.half_width:
                raise ValueError(
                    f"streets {spacing} m apart overlap at half_width "
                    f"{self.half_width} m"
                )
            if 2.0 * self.corner_clearance >= spacing:
                raise ValueError(
                    f"corner_clearance {self.corner_clearance} m must be under "
                    f"half the smallest street spacing ({spacing} m)"
                )

    @classmethod
    def for_grid(
        cls,
        streets_x: int,
        streets_y: int,
        block_size: float,
        *,
        half_width: float,
        corner_clearance: float = 0.0,
    ) -> "ManhattanShadowing":
        """Build the predicate for a regular grid anchored at the origin.

        ``streets_x`` vertical streets at x = 0, block_size, ...;
        ``streets_y`` horizontal streets at y = 0, block_size, ...
        """
        if streets_x < 1 or streets_y < 1:
            raise ValueError("the grid needs at least one street per axis")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        return cls(
            street_xs=tuple(i * block_size for i in range(streets_x)),
            street_ys=tuple(j * block_size for j in range(streets_y)),
            half_width=half_width,
            corner_clearance=corner_clearance,
        )

    # ------------------------------------------------------------------
    # predicate protocol
    # ------------------------------------------------------------------
    def __call__(self, a: Position, b: Position) -> bool:
        """True when the link a<->b is blocked (the channel-hook contract)."""
        return bool(
            self.blocks_many(
                np.array([a.x, b.x]), np.array([a.y, b.y]), [0], [1]
            )[0]
        )

    def blocks_many(self, xs, ys, src, dst) -> np.ndarray:
        """Blocked-mask over links between labelled endpoints.

        Endpoint *i* sits at ``(xs[i], ys[i])``; link *k* runs from
        endpoint ``src[k]`` to endpoint ``dst[k]``.  Each endpoint is
        labelled once (see :meth:`_endpoint_labels`) and a link is clear
        when both ends carry the same non-negative label of one kind.
        """
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        clear = np.zeros(src.shape, dtype=bool)
        for label in self._endpoint_labels(xs, ys):
            # An unlabelled end (-1) never matches: the far end reads -2.
            clear |= label[src] == np.where(label < 0, -2, label)[dst]
        return ~clear

    def _endpoint_labels(self, xs, ys) -> List[np.ndarray]:
        """Per-point labels, one int array per kind the model has: the
        index of the horizontal street and of the vertical street whose
        corridor holds the point, and the index in :meth:`intersections`
        of the intersection whose clearance disc holds it; -1 where there
        is none."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        hw = self.half_width
        iy, dy = _nearest(ys, self.street_ys)
        ix, dx = _nearest(xs, self.street_xs)
        labels = []
        if iy is not None:
            labels.append(np.where(np.abs(dy) <= hw, iy, -1))
        if ix is not None:
            labels.append(np.where(np.abs(dx) <= hw, ix, -1))
        clearance = self.corner_clearance
        if clearance > 0.0 and ix is not None and iy is not None:
            near = dx * dx + dy * dy <= clearance * clearance
            labels.append(np.where(near, iy * len(self.street_xs) + ix, -1))
        return labels

    # ------------------------------------------------------------------
    # geometry helpers (shared with tests and the urban world assembly)
    # ------------------------------------------------------------------
    def on_street(self, position: Position) -> bool:
        """Whether ``position`` lies inside any street corridor."""
        return any(
            abs(position.y - sy) <= self.half_width for sy in self.street_ys
        ) or any(abs(position.x - sx) <= self.half_width for sx in self.street_xs)

    def intersections(self) -> Sequence[Position]:
        """All street intersections, row-major."""
        return [
            Position(sx, sy) for sy in self.street_ys for sx in self.street_xs
        ]


def _nearest(values: np.ndarray, streets: Tuple[float, ...]):
    """Index of the street nearest each value and the signed offset
    ``value - street`` (``(None, None)`` when the axis has no street).

    ``streets`` is sorted; the offset is the same ``value - street`` the
    pairwise rule would test, so a corridor or disc check on it matches
    that rule wherever the nearest street is the only candidate.
    """
    if not streets:
        return None, None
    s = np.asarray(streets)
    if s.size == 1:
        idx = np.zeros(values.shape, dtype=np.intp)
    else:
        hi = np.searchsorted(s, values).clip(1, s.size - 1)
        lo = hi - 1
        idx = np.where(values - s[lo] <= s[hi] - values, lo, hi)
    return idx, values - s[idx]
