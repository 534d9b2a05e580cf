"""A uniform-grid spatial index over the plane.

The simulation's hot query is "who is within ``r`` metres of this point?"
— the broadcast channel asks it on every transmit for the radios outside
the vehicle fleet (masts, roadside units, standalone nodes; fleet radios
are found in the fleet arrays instead).  A :class:`SpatialGrid` buckets
items into square cells of side ``cell_size`` so a disc query only touches
the cells overlapping the disc's bounding box instead of every item.

Cell-size invariant: when ``cell_size >= r`` the bounding box spans at most
a 3×3 cell neighborhood, so a query is answered from at most nine buckets.
Larger radii remain *exact* — the query simply walks the larger cell
rectangle — so an occasional long-range transmission (an attacker's mast)
never misses receivers; it only touches more buckets.

The grid is incremental: items are inserted once and moved in place.
:meth:`move` is O(1) and does not touch the bucket dictionaries at all when
the item stays in its current cell, which is the common case for a mobile
mast advancing a few metres per update through cells hundreds of metres
wide.

The index imposes no ordering; callers that need deterministic iteration
(the channel's delivery order, for instance) sort the returned candidates
by their own sequence numbers.
"""

from __future__ import annotations

from math import floor
from typing import Dict, Hashable, List, Tuple

#: Cell keys are the two lattice coordinates packed into one int
#: (``(cx << 32) ^ (cy & 0xFFFFFFFF)``): hashing an int is cheaper than
#: building and hashing a tuple on every probe of the query hot loop.
#: XOR never carries between the halves, so the packing is exact for any
#: Python ints (``key >> 32`` recovers ``cx``; the low half sign-extends
#: back to ``cy``).
Cell = int

_CY_MASK = 0xFFFFFFFF
_CY_SIGN = 1 << 31
_CY_SPAN = 1 << 32


def _unpack(key: Cell) -> Tuple[int, int]:
    cy = key & _CY_MASK
    if cy >= _CY_SIGN:
        cy -= _CY_SPAN
    return key >> 32, cy


class SpatialGrid:
    """Uniform square-cell spatial hash of point items."""

    __slots__ = ("cell_size", "_inv", "_cells", "_cell_of")

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._inv = 1.0 / self.cell_size
        #: cell -> {item: (x, y)}
        self._cells: Dict[Cell, Dict[Hashable, Tuple[float, float]]] = {}
        self._cell_of: Dict[Hashable, Cell] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _key(self, x: float, y: float) -> Cell:
        return (floor(x * self._inv) << 32) ^ (floor(y * self._inv) & _CY_MASK)

    def insert(self, item: Hashable, x: float, y: float) -> None:
        """Add ``item`` at ``(x, y)``; it must not already be present."""
        if item in self._cell_of:
            raise ValueError(f"{item!r} is already in the grid")
        cell = self._key(x, y)
        self._cell_of[item] = cell
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = {}
        bucket[item] = (x, y)

    def move(self, item: Hashable, x: float, y: float) -> None:
        """Update ``item``'s position, re-bucketing only on a cell change."""
        old_cell = self._cell_of[item]
        cell = self._key(x, y)
        if cell == old_cell:
            self._cells[old_cell][item] = (x, y)
            return
        old_bucket = self._cells[old_cell]
        del old_bucket[item]
        if not old_bucket:
            del self._cells[old_cell]
        self._cell_of[item] = cell
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = {}
        bucket[item] = (x, y)

    def remove(self, item: Hashable) -> None:
        """Drop ``item`` from the index."""
        cell = self._cell_of.pop(item)
        bucket = self._cells[cell]
        del bucket[item]
        if not bucket:
            del self._cells[cell]

    def position_of(self, item: Hashable) -> Tuple[float, float]:
        """The ``(x, y)`` the grid currently has for ``item``."""
        return self._cells[self._cell_of[item]][item]

    def __contains__(self, item: Hashable) -> bool:
        return item in self._cell_of

    def __len__(self) -> int:
        return len(self._cell_of)

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells (empty buckets are reclaimed)."""
        return len(self._cells)

    def check_consistency(self) -> None:
        """Verify the two internal maps agree exactly; raise on any drift.

        The properties checked are what churn (register/unregister mid-run)
        must preserve: every indexed item sits in the bucket its cell map
        names, every bucketed position hashes back to that cell, no bucket
        is empty (reclamation), and no bucket holds an unindexed item.
        O(n) — used by the runtime invariant checker and the churn tests.
        """
        for item, cell in self._cell_of.items():
            bucket = self._cells.get(cell)
            if bucket is None or item not in bucket:
                raise ValueError(
                    f"grid inconsistency: {item!r} is indexed in cell "
                    f"{_unpack(cell)} but missing from its bucket"
                )
            x, y = bucket[item]
            if self._key(x, y) != cell:
                raise ValueError(
                    f"grid inconsistency: {item!r} at ({x}, {y}) hashes to "
                    f"cell {_unpack(self._key(x, y))} but is stored in "
                    f"{_unpack(cell)} (stale cell entry)"
                )
        total = 0
        for cell, bucket in self._cells.items():
            if not bucket:
                raise ValueError(
                    f"grid inconsistency: cell {_unpack(cell)} has an empty "
                    "bucket (should have been reclaimed)"
                )
            total += len(bucket)
            for item in bucket:
                if self._cell_of.get(item) != cell:
                    raise ValueError(
                        f"grid inconsistency: {item!r} sits in bucket "
                        f"{_unpack(cell)} but the item index says "
                        f"{self._cell_of.get(item)!r}"
                    )
        if total != len(self._cell_of):
            raise ValueError(
                f"grid inconsistency: buckets hold {total} items but the "
                f"item index has {len(self._cell_of)}"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_disc(
        self, x: float, y: float, radius: float
    ) -> List[Tuple[Hashable, float]]:
        """All ``(item, dist_sq)`` with ``dist(item, (x, y)) <= radius``.

        The boundary is inclusive, matching the channel's unit-disk rule.
        Results are in no particular order.
        """
        if radius < 0:
            return []
        r_sq = radius * radius
        inv = self._inv
        cx0 = floor((x - radius) * inv)
        cx1 = floor((x + radius) * inv)
        cy0 = floor((y - radius) * inv)
        cy1 = floor((y + radius) * inv)
        out: List[Tuple[Hashable, float]] = []
        cells = self._cells
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) >= len(cells):
            # The disc's bounding box covers most of the populated world:
            # walking the populated buckets directly is cheaper.
            buckets = []
            for key, bucket in cells.items():
                cx, cy = _unpack(key)
                if cx0 <= cx <= cx1 and cy0 <= cy <= cy1:
                    buckets.append(bucket)
        else:
            buckets = []
            cells_get = cells.get
            for cx in range(cx0, cx1 + 1):
                base = cx << 32
                for cy in range(cy0, cy1 + 1):
                    bucket = cells_get(base ^ (cy & _CY_MASK))
                    if bucket:
                        buckets.append(bucket)
        append = out.append
        for bucket in buckets:
            for item, (ix, iy) in bucket.items():
                dx = ix - x
                dy = iy - y
                d_sq = dx * dx + dy * dy
                if d_sq <= r_sq:
                    append((item, d_sq))
        return out

    def items_in_disc(self, x: float, y: float, radius: float) -> List[Hashable]:
        """Just the items of :meth:`query_disc` (unordered)."""
        return [item for item, _d in self.query_disc(x, y, radius)]
