"""Struct-of-arrays radio slots and the one beacon timer.

Every radio on a channel sits in a slot of the channel's one
:class:`FleetState` (``BroadcastChannel.fleet``).  Every node that beacons
— each vehicle of a :class:`~repro.experiments.world.World`, its static
roadside units, the nodes of a hand-built testbed — is a fleet member on
its own slot and beacons through this module; the channel claims a static
slot for every other radio (an attacker's mast, a node that does not
beacon, a test radio).  A per-node timer would keep one heap event per beacon and ~30
scheduled deliveries per transmission per node — fine at hundreds of
nodes, a hard wall at tens of thousands.  Instead the whole fleet's
kinematic and beaconing state lives in numpy arrays indexed by a stable
*slot*, and the two dominant per-node loops become per-tick batch passes:

* :class:`FleetState` — the one copy of where each radio is: lane
  progress, positions, speeds, headings and IDM inputs next to TX ranges,
  next-beacon deadlines and alive flags, as parallel arrays.  The traffic
  stepper advances each lane's slots in place, a
  :class:`~repro.traffic.vehicle.Vehicle` is a handle on its slot, a
  static slot moves only by :meth:`FleetState.move` (a mobile mast), and
  one cell index over the slot columns, cached on the fleet's version,
  answers every receiver lookup: :meth:`FleetState.neighbor_pairs` for a
  tick, :meth:`FleetState.near` for a per-frame transmit.
* :class:`FleetBeaconScheduler` — a single periodic tick selects the
  beacons due in ``[t, t+dt)`` with one vectorised mask, draws all jitters
  in one RNG call, sweeps neighbor pairs for the whole batch with a
  vectorised probe of the cell index, and delivers per-receiver beacon
  batches through one scheduled event — so the event heap sees O(ticks)
  events instead of O(N·ticks).

RNG contract: the tick draws exclusively from a dedicated numpy stream
(``fleet-beacon`` in :class:`~repro.experiments.world.World`), never from
the per-node stdlib streams (which CBF timers use), so beaconing stays
deterministic under its own seed.  The tick draws no frame loss of its
own: link loss is the fault layer's, applied per pair through the
channel's ``link_fault`` hook.

Protocol fidelity: each beacon is built and DCC-gated once by its member
(``GeoNode.make_beacon``), and carried as ``(addr, pv)`` entries to fleet
receivers, whose router accepts them through the same
``GeoRouter.receive_beacons_bulk`` a beacon frame reaches.  A fleet
receiver reads no signature, so none is made for it: a beacon is signed
(:func:`~repro.geonet.node.sign_beacon`, with the credentials its member
returned) on its first real frame of the tick, and
:func:`~repro.security.signing.sign` records the verdict every receiver of
that frame reads.  Radios on real-frame slots — the attacker's mast, a
node that does not beacon — receive real
:class:`~repro.radio.frames.Frame` objects through their normal handlers,
so sniffing, replay and promiscuous overhearing work unchanged.  They
hear the tick by the channel's one receiver rule: a radio without an
override comes from the tick's own probe pairs, a long-eared one
(``BroadcastChannel.long_eared``) is tested directly against the due
senders at its ``link_range``.  Each due sender is noted for carrier
sense in the channel's one active-transmission heap.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import floor
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.geo.position import Position, PositionVector
from repro.geonet.node import sign_beacon
from repro.radio.frames import Frame, FrameKind
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

#: Cell size of an index with no TX range to take it from.
_DEFAULT_CELL_SIZE = 500.0


class _CellIndex:
    """Live slots sorted by packed cell key, for one fleet version.

    ``cell`` is the largest TX range of the slots that take tick batches
    (of every live slot when none does), so a tick sender probes at most
    its 3x3 cell neighborhood.  A key packs the two lattice coordinates as
    ``(cx << 32) + cy``: one column's cells are one contiguous key range,
    so a disc probe costs one bisection per column.  The numpy arrays serve
    :meth:`FleetState.neighbor_pairs`; their Python-list copies, built on
    the first per-frame query, serve :meth:`FleetState.near`.
    """

    __slots__ = ("version", "cell", "inv", "keys", "slots", "xs", "ys", "_lists")

    def __init__(self, fleet: "FleetState"):
        live = fleet.live_slots()
        batch = fleet.batch_slots()
        cell = float(fleet.tx_range[batch].max()) if batch.size else 0.0
        if cell <= 0.0 and live.size:
            cell = float(fleet.tx_range[live].max())
        if cell <= 0.0:
            cell = _DEFAULT_CELL_SIZE
        self.version = fleet._version
        self.cell = cell
        self.inv = inv = 1.0 / cell
        xs = fleet.x[live]
        ys = fleet.y[live]
        keys = (np.floor(xs * inv).astype(np.int64) << 32) + np.floor(
            ys * inv
        ).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.slots = live[order]
        self.xs = xs[order]
        self.ys = ys[order]
        self._lists = None

    def lists(self) -> tuple:
        """``(keys, slots, xs, ys)`` as Python lists (built once)."""
        if self._lists is None:
            self._lists = (
                self.keys.tolist(),
                self.slots.tolist(),
                self.xs.tolist(),
                self.ys.tolist(),
            )
        return self._lists

    def same_as(self, other: "_CellIndex") -> bool:
        """True when both indexes hold the same cells, slots and points."""
        return (
            self.cell == other.cell
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.slots, other.slots)
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
        )


class FleetState:
    """Struct-of-arrays state for every radio on a channel.

    This is the only store of radio positions and of vehicle kinematics:
    position, lane progress ``s``, speed, heading, length, IDM speed factor,
    forced acceleration (``accel``; NaN means "drive by IDM") and the index
    of the next intersection ahead (``next_cross``), next to the radio state
    (TX range, next-beacon deadline, alive flag) as parallel arrays.  A
    static slot holds only a position (``add(x=, y=)``), which no traffic
    stepper touches.  ``batch`` marks a slot whose member beacons through
    the tick and hears beacon batches; every other slot's radio (a mast, a
    node that does not beacon) takes real frames.

    Slots are stable for a member's lifetime: :meth:`add` hands out the
    most recently freed slot (the lowest unused one at first),
    :meth:`remove` recycles it.  Arrays are over-allocated and doubled on
    demand, so hot-loop consumers index ``fleet.x[slots]`` without
    per-member indirection.

    ``add``, ``attach``, ``remove`` and ``move`` bump the fleet's version;
    a caller that writes the ``x``/``y`` columns in place (the traffic
    step) calls :meth:`moved`.  The slot views and the cell index are
    cached on that version.
    """

    #: ``(name, dtype, fill)`` of every per-slot column.  ``next_beacon_at``
    #: NaN means "not yet seeded": the scheduler initialises all fresh
    #: slots in one vectorised draw on its next tick, so spawning N
    #: vehicles costs one RNG call, not N.
    _COLUMNS = (
        ("x", float, 0.0),
        ("y", float, 0.0),
        ("s", float, 0.0),
        ("speed", float, 0.0),
        ("heading", float, 0.0),
        ("length", float, 0.0),
        ("speed_factor", float, 1.0),
        ("accel", float, np.nan),
        ("next_cross", np.intp, 0),
        ("tx_range", float, 0.0),
        ("next_beacon_at", float, np.nan),
        ("alive", bool, False),
        ("batch", bool, False),
        ("beacons_sent", np.int64, 0),  # beacons the tick generated
    )

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        for name, dtype, fill in self._COLUMNS:
            setattr(self, name, np.full(capacity, fill, dtype=dtype))
        #: Slot -> member object (e.g. GeoNode); None until attached.
        self.members: List[object] = [None] * capacity
        #: Slot -> radio interface, set by the channel on register (kept
        #: separately: the hot loops need the interface without touching
        #: the member).
        self.ifaces: List[object] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._n_live = 0
        #: Bumped by every membership or position change; caches keyed on it.
        self._version = 0
        self._views: Optional[tuple] = None
        self._index: Optional[_CellIndex] = None

    def __getstate__(self):
        # The caches are derived from the columns: a restored fleet
        # rebuilds them on its first query.
        state = self.__dict__.copy()
        state["_views"] = None
        state["_index"] = None
        return state

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_live

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name, dtype, fill in self._COLUMNS:
            arr = np.full(new, fill, dtype=dtype)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        self.members.extend([None] * (new - old))
        self.ifaces.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def add(self, **columns) -> int:
        """Claim a free slot and return it.

        Keyword arguments set the slot's columns by name (``x=``, ``s=``,
        ``speed=`` ...); every other column takes its fill value, so the
        beacon deadline starts as NaN — seeded lazily by the scheduler.
        The slot has no radio until a channel registers one on it.
        """
        if not self._free:
            self._grow()
        slot = self._free.pop()
        for name, _dtype, fill in self._COLUMNS:
            getattr(self, name)[slot] = fill
        for name, value in columns.items():
            getattr(self, name)[slot] = value
        self.alive[slot] = True
        self._n_live += 1
        self._version += 1
        return slot

    def attach(self, slot: int, member, tx_range: float) -> None:
        """Make ``member`` the beaconing owner of ``slot``: the tick
        beacons for it at ``tx_range`` and hands it beacon batches."""
        self.members[slot] = member
        self.tx_range[slot] = tx_range
        self.batch[slot] = True
        self._version += 1

    def remove(self, slot: int) -> None:
        """Release ``slot`` (member left the simulation for good)."""
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is not live")
        self.alive[slot] = False
        self.members[slot] = None
        self.ifaces[slot] = None
        self._free.append(slot)
        self._n_live -= 1
        self._version += 1

    def move(self, slot: int, x: float, y: float) -> None:
        """Move ``slot`` to ``(x, y)`` (a mobile mast reporting its move)."""
        self.x[slot] = x
        self.y[slot] = y
        self._version += 1

    def moved(self) -> None:
        """Note that the ``x``/``y`` columns were written in place."""
        self._version += 1

    def _slot_views(self) -> tuple:
        views = self._views
        if views is None or views[0] != self._version:
            live = np.flatnonzero(self.alive)
            batch = self.batch[live]
            views = self._views = (self._version, live, live[batch], live[~batch])
        return views

    def live_slots(self) -> np.ndarray:
        """Slots currently claimed, ascending."""
        return self._slot_views()[1]

    def batch_slots(self) -> np.ndarray:
        """Live slots that take tick batches, ascending."""
        return self._slot_views()[2]

    def frame_slots(self) -> np.ndarray:
        """Live slots whose radio takes real frames, ascending."""
        return self._slot_views()[3]

    # ------------------------------------------------------------------
    # the cell index
    # ------------------------------------------------------------------
    def cell_index(self) -> _CellIndex:
        """The cell index of the live slots, rebuilt when the version moved."""
        index = self._index
        if index is None or index.version != self._version:
            index = self._index = _CellIndex(self)
        return index

    def index_is_current(self) -> bool:
        """False when the cached index differs from a fresh build — a
        column write that skipped the version bump."""
        index = self._index
        if index is None or index.version != self._version:
            return True
        return index.same_as(_CellIndex(self))

    def near(self, x: float, y: float, radius: float) -> List[Tuple[int, float]]:
        """``(slot, d_sq)`` of every live slot within ``radius`` of
        ``(x, y)`` (boundary inclusive, ``d_sq`` computed as
        ``dx = x_i - x``, ``dx*dx + dy*dy``), in cell-key order.

        Plain Python over the index's lists: a column of cells is one
        bisected key range, so a probe wider than the cell (a long
        per-frame range, a mast's ``link_range``) costs one range per
        column it spans.
        """
        if radius < 0:
            return []
        index = self.cell_index()
        keys, slots, xs, ys = index.lists()
        inv = index.inv
        cy0 = floor((y - radius) * inv)
        cy1 = floor((y + radius) * inv)
        r_sq = radius * radius
        out: List[Tuple[int, float]] = []
        append = out.append
        for cx in range(floor((x - radius) * inv), floor((x + radius) * inv) + 1):
            base = cx << 32
            lo = bisect_left(keys, base + cy0)
            for k in range(lo, bisect_right(keys, base + cy1, lo)):
                dx = xs[k] - x
                dy = ys[k] - y
                d_sq = dx * dx + dy * dy
                if d_sq <= r_sq:
                    append((slots[k], d_sq))
        return out

    # ------------------------------------------------------------------
    # neighbor sweep
    # ------------------------------------------------------------------
    def neighbor_pairs(
        self, senders: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Live slots in range of each sender, for a whole batch.

        ``senders`` holds slot ids of batch slots.  Returns ``(sender_idx,
        receiver_slot, candidates)``: for every (sender, receiver) pair
        within the sender's TX range one entry with the *index into
        senders* and the receiver's slot; self pairs are excluded.
        ``candidates`` counts cell-level candidates examined (the
        receiver_candidates statistic).

        One vectorised pass over the cell index (cell >= every sender's TX
        range, so each sender probes at most its 3x3 cell neighborhood):
        the sorted key array is probed with ``searchsorted`` for all
        senders at once, and the ragged candidate ranges are gathered with
        one ``repeat``/``arange`` composition — no per-sender Python work
        at all.
        """
        n_senders = len(senders)
        empty = np.empty(0, dtype=np.intp)
        if len(self) == 0 or n_senders == 0:
            return empty, empty, 0
        index = self.cell_index()
        keys_sorted = index.keys
        live_sorted = index.slots
        xs_sorted = index.xs
        ys_sorted = index.ys
        inv = index.inv

        sx = self.x[senders]
        sy = self.y[senders]
        sr = self.tx_range[senders]
        scx = np.floor(sx * inv).astype(np.int64)
        scy = np.floor(sy * inv).astype(np.int64)
        sender_ids = np.arange(n_senders, dtype=np.intp)

        cand_idx_parts = []
        cand_sender_parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                probe = ((scx + dx) << 32) + (scy + dy)
                starts = np.searchsorted(keys_sorted, probe, side="left")
                ends = np.searchsorted(keys_sorted, probe, side="right")
                lens = ends - starts
                total = int(lens.sum())
                if total == 0:
                    continue
                shifts = np.concatenate(
                    ([0], np.cumsum(lens)[:-1])
                ).astype(np.intp)
                idx = np.repeat(starts - shifts, lens) + np.arange(
                    total, dtype=np.intp
                )
                cand_idx_parts.append(idx)
                cand_sender_parts.append(np.repeat(sender_ids, lens))
        if not cand_idx_parts:
            return empty, empty, 0
        cand = np.concatenate(cand_idx_parts)
        cand_sender = np.concatenate(cand_sender_parts)
        n_candidates = int(cand.size)

        ddx = xs_sorted[cand] - sx[cand_sender]
        ddy = ys_sorted[cand] - sy[cand_sender]
        r = sr[cand_sender]
        in_range = (ddx * ddx + ddy * ddy) <= r * r
        recv_slots = live_sorted[cand]
        in_range &= recv_slots != senders[cand_sender]
        return cand_sender[in_range], recv_slots[in_range], n_candidates


class FleetBeaconScheduler:
    """The one beacon timer: every beaconing node is a fleet member.

    One periodic tick (``World`` uses its mobility dt) advances all beacon
    deadlines that fell due, builds each due member's beacon once, sweeps
    batch receivers vectorised, groups entries per receiver, and
    schedules **one** delivery event for the whole tick.  Radios on
    real-frame slots get real frames, one scheduled delivery each, as a
    per-frame transmit schedules them.

    Members (``GeoNode`` in a simulation) implement three methods, which
    run only for *due* members (~N·dt/period per tick) and for receivers:

    * ``beacon_active() -> bool`` — False skips the cycle (node powered
      down or shut down); the deadline still advances, so a member that
      comes back beacons at its normal cadence with no catch-up burst.
    * ``make_beacon(pv, now) -> (entry, body, credentials) | None`` —
      build the ``(addr, pv)`` entry for batch receivers, plus the body and
      the credentials a real frame's payload is signed with (on the
      sender's first real frame of the tick; None credentials send the body
      unsigned); None suppresses the beacon (DCC throttling).
    * ``hear_beacons(batch, now) -> int`` — deliver a batch of entries to
      a receiving member; returns how many it heard (the delivered-frames
      statistic).
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetState,
        channel,
        rng: np.random.Generator,
        *,
        period: float = 3.0,
        jitter: float = 0.75,
        tick: float = 0.1,
        priority: int = 0,
    ):
        if period <= 0:
            raise ConfigError(f"beacon period must be positive, got {period!r}")
        if jitter < 0:
            raise ConfigError(
                f"beacon jitter must be non-negative, got {jitter!r}"
            )
        if tick <= 0:
            raise ConfigError(f"beacon tick must be positive, got {tick!r}")
        self._sim = sim
        self._fleet = fleet
        self._channel = channel
        self._rng = rng
        self._period = float(period)
        self._jitter = float(jitter)
        self._tick_dt = float(tick)
        #: Total beacons generated by the batched tick.
        self.beacons_sent = 0
        self._process = PeriodicProcess(
            sim, tick, self._on_tick, start_delay=tick, priority=priority
        )

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        fleet = self._fleet
        now = self._sim.now
        live = fleet.batch_slots()
        if live.size == 0:
            return
        nba = fleet.next_beacon_at
        live_nba = nba[live]
        fresh = np.isnan(live_nba)
        if fresh.any():
            # Seed every newly-added member's first deadline in one draw:
            # uniform within one period, so a fleet added at once does not
            # beacon in lockstep.
            idx = live[fresh]
            nba[idx] = now + self._rng.uniform(0.0, self._period, idx.size)
            live_nba = nba[live]
        due = live[live_nba <= now]
        if due.size == 0:
            return
        # Advance deadlines first (one batch draw), anchored on the old
        # deadline so cadence never drifts with the tick grid.  A deadline
        # stale by more than one tick (a node rejoining after an outage)
        # restarts from now instead of burst-beaconing to catch up.
        old = nba[due]
        anchor = np.where(now - old <= self._tick_dt, old, now)
        if self._jitter > 0.0:
            nba[due] = anchor + self._period + self._rng.uniform(
                0.0, self._jitter, due.size
            )
        else:
            nba[due] = anchor + self._period

        # Per-due-member Python work: activity filter + beacon build.
        members = fleet.members
        due_list = due.tolist()
        bx = fleet.x[due].tolist()
        by = fleet.y[due].tolist()
        bs = fleet.speed[due].tolist()
        bh = fleet.heading[due].tolist()
        keep: List[int] = []
        beacons: List[tuple] = []
        entries: List[tuple] = []
        for i, slot in enumerate(due_list):
            member = members[slot]
            if not member.beacon_active():
                continue
            pv = PositionVector(
                position=Position(bx[i], by[i]),
                speed=bs[i],
                heading=bh[i],
                timestamp=now,
            )
            out = member.make_beacon(pv, now)
            if out is None:
                continue
            keep.append(i)
            beacons.append(out)
            entries.append(out[0])
            fleet.beacons_sent[slot] += 1
        if not beacons:
            return
        n_sent = len(beacons)
        self.beacons_sent += n_sent
        if len(keep) < due.size:
            due = due[np.array(keep, dtype=np.intp)]

        channel = self._channel
        stats = channel.stats
        stats.record_sent_batch(FrameKind.BEACON, n_sent)
        tx_x = fleet.x[due]
        tx_y = fleet.y[due]
        note_tx = channel.note_tx
        tx_r = fleet.tx_range[due].tolist()
        for x, y, r in zip(tx_x.tolist(), tx_y.tolist(), tx_r):
            note_tx(x, y, r)

        # --- who hears: one probe, split into batch and real-frame links ---
        sidx, rslots, candidates = fleet.neighbor_pairs(due)
        stats.receiver_candidates += candidates
        batch = fleet.batch[rslots]
        fsidx, frslots = self._frame_links(
            sidx[~batch], rslots[~batch], tx_x, tx_y
        )
        if not batch.all():
            sidx = sidx[batch]
            rslots = rslots[batch]
        if channel.has_obstructions and (sidx.size or fsidx.size):
            # Obstructions are position predicates: one mask over every
            # link of the tick, with the fleet slots as endpoints, before
            # link faults, as in BroadcastChannel._receivers_for.
            n = sidx.size
            blocked = channel.block_mask(
                fleet.x,
                fleet.y,
                due[np.concatenate((sidx, fsidx))],
                np.concatenate((rslots, frslots)),
            )
            if blocked.any():
                keep_mask = ~blocked
                sidx = sidx[keep_mask[:n]]
                rslots = rslots[keep_mask[:n]]
                fsidx = fsidx[keep_mask[n:]]
                frslots = frslots[keep_mask[n:]]

        # --- batch receivers: per-receiver entry batches, one event ---
        if channel.link_fault is not None and sidx.size:
            sidx, rslots = self._drop_faulted(sidx, rslots, due)
        groups = self._group_by_receiver(sidx, rslots, entries)
        if groups:
            latency = channel.base_latency + channel.latency_jitter * float(
                self._rng.random()
            )
            self._sim.schedule_fire(latency, self._deliver_groups, groups)

        # --- real-frame receivers: real frames through normal delivery ---
        if fsidx.size:
            self._deliver_frames(fsidx, frslots, due, tx_x, tx_y, beacons, now)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _frame_links(self, sidx, rslots, tx_x, tx_y):
        """The tick's real-frame links ``(sender_idx, receiver_slot)``,
        sender-major and in registration order within a sender.

        ``sidx``/``rslots`` are the probe's pairs to non-batch slots: they
        give every real-frame radio without an override.  A long-eared one
        is tested directly against every due sender at its own
        ``link_range``.
        """
        fleet = self._fleet
        channel = self._channel
        ifaces = fleet.ifaces
        links = []
        for i, slot in zip(sidx.tolist(), rslots.tolist()):
            iface = ifaces[slot]
            if (
                iface is not None
                and iface.channel is channel
                and iface.link_range is None
            ):
                links.append((i, iface._reg_order, slot))
        for iface in channel.long_eared:
            slot = iface.slot
            if fleet.batch[slot]:
                continue  # a beaconing member hears beacon batches
            dx = fleet.x[slot] - tx_x
            dy = fleet.y[slot] - tx_y
            reach = iface.link_range
            order = iface._reg_order
            hits = np.flatnonzero(dx * dx + dy * dy <= reach * reach)
            links.extend((i, order, slot) for i in hits.tolist())
        if not links:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        links.sort()
        fsidx, _orders, frslots = np.array(links, dtype=np.intp).T
        return fsidx, frslots

    def _drop_faulted(self, sidx, rslots, due):
        """Batch links the channel's ``link_fault`` hook lets through, asked
        pair by pair in probe order.  Obstructions do not come through
        here — they are position predicates and run vectorised via
        :meth:`BroadcastChannel.block_mask` first."""
        channel = self._channel
        link_fault = channel.link_fault
        ifaces = self._fleet.ifaces
        keep = np.ones(sidx.size, dtype=bool)
        for k, (s, r) in enumerate(zip(due[sidx].tolist(), rslots.tolist())):
            if link_fault(ifaces[s].address, ifaces[r].address):
                channel.stats.frames_fault_dropped += 1
                keep[k] = False
        return sidx[keep], rslots[keep]

    def _group_by_receiver(self, sidx, rslots, entries):
        """Group pairs into ``(member, [entry, ...])`` per receiver."""
        if sidx.size == 0:
            return []
        order = np.argsort(rslots, kind="stable")
        rs = rslots[order]
        ss = sidx[order].tolist()
        bounds = np.flatnonzero(rs[1:] != rs[:-1]) + 1
        starts = np.concatenate(([0], bounds)).tolist()
        ends = np.concatenate((bounds, [rs.size])).tolist()
        heads = rs[np.concatenate(([0], bounds))].tolist()
        members = self._fleet.members
        groups = []
        for slot, a, b in zip(heads, starts, ends):
            batch = [entries[i] for i in ss[a:b]]
            groups.append((members[slot], batch))
        return groups

    def _deliver_groups(self, groups) -> None:
        """The single delivery event for one tick's fleet beacons."""
        now = self._sim.now
        delivered = 0
        for member, batch in groups:
            delivered += member.hear_beacons(batch, now)
        self._channel.stats.record_delivered(FrameKind.BEACON, delivered)

    def _deliver_frames(
        self, fsidx, frslots, due, tx_x, tx_y, beacons, now
    ) -> None:
        """Real-frame deliveries, one scheduled event per link in link
        order, as :meth:`BroadcastChannel.transmit` schedules them.

        The attacker's promiscuous mast and nodes that do not beacon
        receive genuine frames with true transmit metadata, so sniffing and
        replay work as with per-frame transmits.  A sender's beacon is
        signed, and its frame built, on its first delivery.
        """
        fleet = self._fleet
        channel = self._channel
        ifaces = fleet.ifaces
        link_fault = channel.link_fault
        rng = self._rng
        base = channel.base_latency
        jitter = channel.latency_jitter
        schedule_fire = self._sim.schedule_fire
        frames = {}
        delivered = 0
        for i, slot in zip(fsidx.tolist(), frslots.tolist()):
            sender = ifaces[int(due[i])]
            iface = ifaces[slot]
            if link_fault is not None and link_fault(sender.address, iface.address):
                channel.stats.frames_fault_dropped += 1
                continue
            frame = frames.get(i)
            if frame is None:
                _entry, body, credentials = beacons[i]
                frame = frames[i] = Frame(
                    kind=FrameKind.BEACON,
                    sender_addr=sender.address,
                    payload=sign_beacon(body, credentials),
                    tx_position=Position(float(tx_x[i]), float(tx_y[i])),
                    tx_range=float(fleet.tx_range[due[i]]),
                    tx_time=now,
                )
            delivered += 1
            schedule_fire(base + jitter * float(rng.random()), iface.deliver, frame)
        if delivered:
            channel.stats.record_delivered(FrameKind.BEACON, delivered)
