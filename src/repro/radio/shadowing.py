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
the channel's range model (and the fault layer's link loss) instead of replacing it; Amador et al.
(arXiv 2403.16237) use the same corridor-or-corner approximation for
urban GeoNetworking studies.

The predicate also implements the vectorised ``blocks_many`` protocol, so
the batched fleet path evaluates it with a handful of numpy passes per
tick instead of per-pair Python calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

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
        # Normalise to tuples so the instance stays hashable even when
        # built from lists/arrays.
        object.__setattr__(self, "street_xs", tuple(float(x) for x in self.street_xs))
        object.__setattr__(self, "street_ys", tuple(float(y) for y in self.street_ys))

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
                np.array([a.x]), np.array([a.y]), np.array([b.x]), np.array([b.y])
            )[0]
        )

    def blocks_many(self, tx_x, tx_y, rx_x, rx_y) -> np.ndarray:
        """Vectorised blocked-mask over parallel link-endpoint arrays."""
        tx_x = np.asarray(tx_x, dtype=float)
        tx_y = np.asarray(tx_y, dtype=float)
        rx_x = np.asarray(rx_x, dtype=float)
        rx_y = np.asarray(rx_y, dtype=float)
        hw = self.half_width
        los = np.zeros(tx_x.shape, dtype=bool)
        for sy in self.street_ys:
            los |= (np.abs(tx_y - sy) <= hw) & (np.abs(rx_y - sy) <= hw)
        for sx in self.street_xs:
            los |= (np.abs(tx_x - sx) <= hw) & (np.abs(rx_x - sx) <= hw)
        clearance = self.corner_clearance
        if clearance > 0.0 and not los.all():
            c_sq = clearance * clearance
            for sx in self.street_xs:
                adx = tx_x - sx
                bdx = rx_x - sx
                for sy in self.street_ys:
                    ady = tx_y - sy
                    bdy = rx_y - sy
                    near_a = adx * adx + ady * ady <= c_sq
                    near_b = bdx * bdx + bdy * bdy <= c_sq
                    los |= near_a & near_b
        return ~los

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
