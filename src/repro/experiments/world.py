"""World building: one fully-wired simulated scenario.

A :class:`World` assembles the whole system for one run: the event engine,
the broadcast channel, the road traffic (pre-populated and/or spawning), a
GeoNode per vehicle, static destination nodes beyond the road ends (for the
inter-area workload), the attacker (B-runs only) and the metric recorder.

A/B pairing: the attacker draws from its own random streams and never
influences vehicle motion, so an attacked run with the same seed sees the
same traffic and the same generated packets as its attack-free twin.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.core.attacks import (
    AdaptiveInterceptor,
    InterAreaInterceptor,
    IntraAreaBlocker,
    MobileInterceptor,
    RoadsideAttacker,
    deploy_coordinated_masts,
)
from repro.core.online_detection import DetectionPipeline
from repro.core.vulnerability import VulnerabilityModel, greedy_mast_placement
from repro.experiments.config import AttackKind, ExperimentConfig, WorkloadKind
from repro.experiments.metrics import PacketOutcome, RunMetrics
from repro.faults.injector import FaultInjector
from repro.geo.areas import CircularArea, DestinationArea, RectangularArea
from repro.geo.position import Position
from repro.geonet.fleet import FleetBeaconScheduler, FleetState
from repro.geonet.node import GeoNode, StaticMobility, VehicleMobility, ledger_kind
from repro.geonet.packets import BeaconBody, GeoBroadcastPacket, PacketId
from repro.observability.invariants import InvariantChecker
from repro.observability.ledger import PacketLedger, reasons
from repro.radio.channel import BroadcastChannel
from repro.radio.shadowing import ManhattanShadowing
from repro.security.ca import CertificateAuthority
from repro.security.signing import sign, verify
from repro.sim.engine import Simulator
from repro.sim.process import every
from repro.sim.random import RandomStreams
from repro.traffic.grid import GridRoadNetwork, GridTrafficSimulation
from repro.traffic.idm import IdmParameters
from repro.traffic.road import Direction, RoadSegment
from repro.traffic.simulation import TrafficSimulation
from repro.traffic.spawner import EntranceSpawner


def reset_id_counters() -> None:
    """Reset every process-global id counter to its fresh-process value.

    Vehicle ids, link-layer addresses and frame ids are allocated from
    module-level counters, so a process that simulates several runs back
    to back numbers them differently from a freshly forked worker — the
    ids are pure labels (they never influence behaviour), but they are
    recorded in the store (``packet_id``), where they would break the
    bit-identity of records across worker counts.  The lease-service
    workers, which execute many runs per process, call this before each
    run."""
    from repro.radio.channel import reset_addresses
    from repro.radio.frames import reset_frame_ids
    from repro.traffic.grid import reset_grid_vehicle_ids
    from repro.traffic.vehicle import reset_vehicle_ids

    reset_vehicle_ids()
    reset_grid_vehicle_ids()
    reset_addresses()
    reset_frame_ids()


def _fleet_member_active(node: GeoNode) -> bool:
    return not (node.is_shut_down or node.is_down)


def _member_extra_jitter(node: GeoNode) -> float:
    return node._draw_beacon_extra_jitter()


class World:
    """One assembled scenario, attack-free (A) or attacked (B)."""

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        attacked: bool,
        seed: Optional[int] = None,
        build_workload: Optional[Callable[["World"], None]] = None,
        ledger: Optional[PacketLedger] = None,
    ):
        self.config = config
        self.attacked = attacked
        self.seed = config.seed if seed is None else seed
        #: Optional packet-lifecycle ledger, shared by every node of this
        #: world.  Strictly passive: runs are bit-identical with and
        #: without it (golden-tested).
        self.ledger = ledger
        self.sim = Simulator()
        self.streams = RandomStreams(self.seed)
        self.ca = CertificateAuthority()
        self.channel = BroadcastChannel(self.sim, self.streams)
        if ledger is not None:
            self.channel.on_unicast_lost.append(self._on_unicast_lost)

        # --- fault injection ----------------------------------------------
        # Built before any node exists so adoption covers the prepopulated
        # fleet.  A zero plan constructs nothing: no hooks, no RNG streams,
        # bit-identical to a plan-less run (golden-tested).
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None and not config.faults.is_zero:
            self.fault_injector = FaultInjector(
                config.faults,
                sim=self.sim,
                streams=self.streams,
                channel=self.channel,
                ledger=ledger,
            )

        # --- online detection pipeline -------------------------------------
        # Built before the traffic so the spawn hook can attach monitors to
        # the prepopulated fleet.  Disabled (the default) constructs
        # nothing: no detectors, no window timer, bit-identical runs.
        self.detection: Optional[DetectionPipeline] = None
        det_cfg = config.detection
        if det_cfg.enabled:
            self.detection = DetectionPipeline(
                sim=self.sim,
                window=det_cfg.window,
                alert_rate_threshold=det_cfg.alert_rate_threshold,
                ledger=ledger,
                detector_kwargs=dict(
                    plausible_range=(
                        config.vehicle_range
                        if det_cfg.plausible_range is None
                        else det_cfg.plausible_range
                    ),
                    dedup_window=det_cfg.dedup_window,
                    rhl_drop_threshold=det_cfg.rhl_drop_threshold,
                    packet_lifetime=config.geonet.default_lifetime,
                    max_tracked=det_cfg.max_tracked,
                    prune_interval=det_cfg.prune_interval,
                ),
            )

        # --- road traffic ------------------------------------------------
        # The urban scenario swaps the 4 000 m highway for a Manhattan grid
        # (turning traffic) and registers corner shadowing on the channel;
        # everything downstream (nodes, workload, attacker) is scenario-
        # agnostic apart from the geometry branches below.  The highway
        # branch is byte-for-byte the seed wiring: a default config takes
        # none of the urban code paths and stays golden-bit-identical.
        self.urban = config.scenario == "urban"
        road_cfg = config.road
        self.road: Optional[RoadSegment] = None
        self.grid: Optional[GridRoadNetwork] = None
        self.shadowing: Optional[ManhattanShadowing] = None
        # --- vehicle fleet ------------------------------------------------
        # Built before the traffic so the spawn callbacks can claim slots.
        # Vehicles carry no per-node BeaconService: one FleetBeaconScheduler
        # tick per mobility step beacons for everybody, and the mobility
        # loop pushes positions into the channel grid in bulk.
        self.fleet = FleetState(self.channel)
        if self.urban:
            urban_cfg = config.urban
            self.grid = GridRoadNetwork(
                streets_x=urban_cfg.streets_x,
                streets_y=urban_cfg.streets_y,
                block_size=urban_cfg.block_size,
                lane_width=urban_cfg.lane_width,
            )
            self.shadowing = ManhattanShadowing.for_grid(
                urban_cfg.streets_x,
                urban_cfg.streets_y,
                urban_cfg.block_size,
                half_width=urban_cfg.los_half_width,
                corner_clearance=urban_cfg.corner_clearance,
            )
            self.channel.add_obstruction(self.shadowing)
            self.spawner = (
                EntranceSpawner(
                    spawn_gap=urban_cfg.spawn_gap,
                    entry_speed=urban_cfg.entry_speed,
                    gap_jitter=0.3,
                    rng=self.streams.get("spawner"),
                )
                if urban_cfg.spawn
                else None
            )
            self.traffic = GridTrafficSimulation(
                self.grid,
                IdmParameters(desired_velocity=urban_cfg.desired_speed),
                dt=config.mobility_dt,
                spawner=self.spawner,
                rng=self.streams.get("traffic"),
                # One LocT lifetime at urban speed past the grid edge.
                runout=config.geonet.loct_ttl * urban_cfg.desired_speed,
                turn_probability=urban_cfg.turn_probability,
                fleet=self.fleet,
            )
        else:
            self.road = RoadSegment(
                length=road_cfg.length,
                lanes_per_direction=road_cfg.lanes_per_direction,
                lane_width=road_cfg.lane_width,
                directions=road_cfg.directions,
            )
            self.spawner = (
                EntranceSpawner(
                    spawn_gap=road_cfg.inter_vehicle_space,
                    entry_speed=road_cfg.entry_speed,
                    gap_jitter=0.3,
                    rng=self.streams.get("spawner"),
                )
                if road_cfg.spawn
                else None
            )
            self.traffic = TrafficSimulation(
                self.road,
                IdmParameters(),
                dt=config.mobility_dt,
                spawner=self.spawner,
                rng=self.streams.get("traffic"),
                # Keep radios alive past the segment for one LocT lifetime,
                # so exiting vehicles don't become phantom GF targets.
                runout=config.geonet.loct_ttl * 30.0,
                fleet=self.fleet,
            )
        self.traffic.on_step.append(self._push_fleet_positions)
        self.fleet_scheduler = FleetBeaconScheduler(
            self.sim,
            self.fleet,
            self.channel,
            self.streams.get_numpy("fleet-beacon"),
            period=config.geonet.beacon_period,
            jitter=config.geonet.beacon_jitter,
            tick=config.mobility_dt,
            make_beacon=self._make_fleet_beacon,
            bulk_sink=self._fleet_beacon_sink,
            member_active=_fleet_member_active,
            extra_delay=(
                _member_extra_jitter if self.fault_injector is not None else None
            ),
        )

        # --- nodes --------------------------------------------------------
        self.nodes: Dict[int, GeoNode] = {}  # vehicle_id -> node
        self.node_by_addr: Dict[int, GeoNode] = {}
        #: Protocol counters of nodes already torn down (exited vehicles) —
        #: without this, per-node GF/CBF/GUC stats vanish with the node.
        self._detached_stats: Counter = Counter()
        self._veh_seq = 0
        self.traffic.on_spawn.append(self._attach_node)
        self.traffic.on_exit.append(self._detach_node)
        if self.urban:
            if config.urban.prepopulate:
                self.traffic.populate(
                    spacing=config.urban.inter_vehicle_space,
                    speed=config.urban.entry_speed,
                )
        elif road_cfg.prepopulate:
            self.traffic.populate(
                spacing=road_cfg.inter_vehicle_space, speed=road_cfg.entry_speed
            )

        # --- destinations (inter-area workload) ----------------------------
        self.dest_nodes: List[GeoNode] = []
        self.dest_areas: Dict[Direction, DestinationArea] = {}
        if config.workload.kind is WorkloadKind.INTER_AREA:
            self._build_destinations()
        if self.urban:
            # The flood covers the grid plus the LoS corridor margin, so a
            # vehicle rounding the outermost corner still counts.
            margin = config.urban.los_half_width
            self.flood_area = RectangularArea(
                -margin, self.grid.width + margin, -margin, self.grid.height + margin
            )
        else:
            self.flood_area = RectangularArea(
                0.0, self.road.length, 0.0, self.road.total_width
            )

        # --- vulnerability geometry (drives paired workload selection) -----
        # On the grid the 1-D covered/vulnerable partition of the highway
        # analysis does not transfer (shadowing breaks range circles), so
        # the urban world keeps the model only for its range bookkeeping and
        # sources packets from *any* active vehicle instead.
        extent_x = self.grid.width if self.urban else self.road.length
        self.vulnerability = VulnerabilityModel(
            attacker_x=(
                config.attack.x if config.attack.x is not None else extent_x / 2
            ),
            attack_range=config.attack.attack_range,
            vehicle_range=config.vehicle_range,
            road_length=extent_x,
        )

        # --- attacker (B runs) ---------------------------------------------
        #: All deployed attackers (one for ``single``/``mobile``/
        #: ``adaptive``, ``n_masts`` for ``coordinated``); ``attacker``
        #: stays the first one for back-compat with single-mast callers.
        self.attackers: List[RoadsideAttacker] = []
        self.attacker: Optional[RoadsideAttacker] = None
        if attacked and config.attack.kind is not AttackKind.NONE:
            self.attackers = self._build_attackers()
            self.attacker = self.attackers[0] if self.attackers else None

        # --- metrics & workload ---------------------------------------------
        self.metrics = RunMetrics(
            duration=config.duration, bin_width=config.bin_width
        )
        self._outcomes: Dict[PacketId, PacketOutcome] = {}
        self._snapshots: Dict[PacketId, frozenset] = {}
        self._started = False
        self.invariant_checker: Optional[InvariantChecker] = None
        if config.invariant_check_interval is not None:
            self.invariant_checker = InvariantChecker(
                self.sim,
                iter_nodes=self._iter_all_nodes,
                channel=self.channel,
                ledger=ledger,
            )
            every(
                self.sim,
                config.invariant_check_interval,
                self.invariant_checker.run,
            )
        if build_workload is not None:
            build_workload(self)
        else:
            self._workload_rng = self.streams.get("workload")
            every(
                self.sim,
                config.workload.packet_interval,
                self._generate_packet,
                start_delay=1.0,
            )

    # ------------------------------------------------------------------
    # traffic-step hooks (named so a checkpointed world stays picklable)
    # ------------------------------------------------------------------
    def _push_fleet_positions(self, _now: float) -> None:
        self.fleet.push_positions_to_channel()

    def _iter_all_nodes(self):
        return list(self.nodes.values()) + self.dest_nodes

    # ------------------------------------------------------------------
    # node lifecycle
    # ------------------------------------------------------------------
    def _attach_node(self, vehicle) -> None:
        # ``vehicle`` is a highway Vehicle or a GridVehicle — both expose
        # vehicle_id / position / speed / heading / fleet_slot.
        self._veh_seq += 1
        seq = self._veh_seq
        node = GeoNode(
            sim=self.sim,
            channel=self.channel,
            config=self.config.geonet,
            credentials=self.ca.enroll(f"veh-{seq}"),
            mobility=VehicleMobility(vehicle),
            tx_range=self.config.vehicle_range,
            # CBF timer draws come from the per-node stream.
            rng=self.streams.get(f"beacon:{seq}"),
            # The FleetBeaconScheduler beacons for every vehicle.
            beaconing=False,
            name=f"veh-{seq}",
            ledger=self.ledger,
        )
        node.router.on_deliver.append(self._on_deliver)
        self.nodes[vehicle.vehicle_id] = node
        self.node_by_addr[node.address] = node
        position = vehicle.position
        vehicle.fleet_slot = self.fleet.add(
            node,
            node.iface,
            x=position.x,
            y=position.y,
            speed=vehicle.speed,
            heading=vehicle.heading,
            tx_range=self.config.vehicle_range,
        )
        if self.fault_injector is not None:
            # Vehicles only: destinations are surveyed roadside units
            # (no GPS error) on wired power (no churn).
            self.fault_injector.adopt(node)
        if (
            self.detection is not None
            and (seq - 1) % self.config.detection.monitor_stride == 0
        ):
            self.detection.attach(node)

    def _detach_node(self, vehicle) -> None:
        node = self.nodes.pop(vehicle.vehicle_id, None)
        if node is not None:
            self.node_by_addr.pop(node.address, None)
            if self.detection is not None:
                self.detection.detach(node)
            if self.fault_injector is not None:
                self.fault_injector.release(node)
            if vehicle.fleet_slot is not None:
                # Before shutdown(): unmarking the still-registered radio
                # keeps the channel's fleet/non-fleet sets consistent.
                self.fleet.remove(vehicle.fleet_slot)
                vehicle.fleet_slot = None
            self._detached_stats.update(node_stat_counters(node))
            node.shutdown()

    # ------------------------------------------------------------------
    # fleet beaconing callbacks
    # ------------------------------------------------------------------
    def _make_fleet_beacon(self, node: GeoNode, pv, now: float):
        """Build one due member's beacon for the fleet tick.

        Mirrors :meth:`GeoNode.send_beacon`: the advertised PV passes
        through the fault layer's ``pv_fault`` transform, the body is
        signed once — and verified immediately, memoizing the verdict so
        no receiver pays for re-verification (a per-frame receiver memoizes
        on first reception instead; same single verify call per beacon).
        DCC gating happens here too: a throttled member skips this cycle
        exactly as :meth:`GeoNode.send_beacon` would.
        """
        if node.dcc is not None and not node.dcc.allow(now):
            node.dcc.stats.beacons_throttled += 1
            return None
        if node.pv_fault is not None:
            pv = node.pv_fault(pv)
        payload = sign(
            BeaconBody(source_addr=node.address, pv=pv), node.credentials
        )
        verify(payload)
        return payload, (node.address, pv)

    def _fleet_beacon_sink(self, node: GeoNode, batch, now: float) -> int:
        """Deliver one receiver's beacon batch (fleet side of the tick).

        A powered-off or shut-down radio hears nothing (its interface has
        left the channel); a live one counts the whole batch as delivered —
        router-level rejection (staleness) is not a channel event, exactly
        as with real frames.
        """
        if node.is_shut_down or node.is_down:
            return 0
        # Passive monitors see the batch *before* the router, mirroring the
        # per-frame path where the detector interposes ahead of the handler
        # — without this, fleet-to-fleet delivery bypasses every detector.
        if node.bulk_beacon_taps:
            for tap in node.bulk_beacon_taps:
                tap(batch, now)
        node.router.receive_beacons_bulk(batch, now)
        return len(batch)

    def _build_destinations(self) -> None:
        offset = self.config.workload.dest_offset
        radius = self.config.workload.dest_radius
        if self.urban:
            # Roadside units just beyond the grid's east/west edges, on the
            # centerline of the central horizontal street: in LoS along the
            # street corridor, shadowed from everywhere else — reaching them
            # requires routing *along* streets.
            y_center = self.grid.ys[len(self.grid.ys) // 2]
            east_center = Position(self.grid.width + offset, y_center)
            west_center = Position(-offset, y_center)
        else:
            y_center = self.road.total_width / 2
            east_center = Position(self.road.length + offset, y_center)
            west_center = Position(-offset, y_center)
        self.dest_areas[Direction.EAST] = CircularArea(east_center, radius)
        self.dest_areas[Direction.WEST] = CircularArea(west_center, radius)
        for label, center in (("east", east_center), ("west", west_center)):
            node = GeoNode(
                sim=self.sim,
                channel=self.channel,
                config=self.config.geonet,
                credentials=self.ca.enroll(f"dest-{label}"),
                mobility=StaticMobility(center),
                tx_range=self.config.vehicle_range,
                rng=self.streams.get(f"beacon:dest-{label}"),
                name=f"dest-{label}",
                ledger=self.ledger,
            )
            node.router.on_deliver.append(self._on_deliver)
            self.dest_nodes.append(node)
            self.node_by_addr[node.address] = node

    def _attacker_anchor(self) -> Position:
        """The single-mast position (paper Fig 6: mid-road / central
        intersection, laterally offset by ``y_offset``)."""
        cfg = self.config.attack
        if self.urban:
            # Curbside mast on the central vertical street, offset along it
            # from the central intersection — on-street, so the shadowing
            # model gives it LoS down two full corridors plus every corner
            # within clearance.
            cx = (
                self.grid.xs[len(self.grid.xs) // 2] if cfg.x is None else cfg.x
            )
            cy = self.grid.ys[len(self.grid.ys) // 2]
            return Position(cx, cy + cfg.y_offset)
        return Position(self.config.attacker_x, cfg.y_offset)

    def _build_attackers(self) -> List[RoadsideAttacker]:
        cfg = self.config.attack
        common = dict(
            sim=self.sim,
            channel=self.channel,
            streams=self.streams,
            attack_range=cfg.attack_range,
            reaction_delay=cfg.reaction_delay,
        )
        if cfg.kind is AttackKind.INTRA_AREA:
            return [
                IntraAreaBlocker(
                    position=self._attacker_anchor(),
                    rewrite_rhl=cfg.rewrite_rhl,
                    replay_range=cfg.replay_range,
                    **common,
                )
            ]
        if cfg.variant == "coordinated":
            # Greedy coverage-maximising placement along the road (highway)
            # or along the central horizontal street (grid) — each mast
            # keeps the single mast's lateral offset.
            extent_x = self.grid.width if self.urban else self.road.length
            xs = greedy_mast_placement(
                n_masts=cfg.n_masts,
                attack_range=cfg.attack_range,
                road_length=extent_x,
            )
            if self.urban:
                y = self.grid.ys[len(self.grid.ys) // 2] + cfg.y_offset
            else:
                y = cfg.y_offset
            return deploy_coordinated_masts(
                positions=[Position(x, y) for x in xs], **common
            )
        if cfg.variant == "mobile":
            # Ride the flow end-to-end on the road centerline (highway) or
            # along the central horizontal street (grid), wrapping at the
            # far end like a fresh attacker vehicle entering.
            if self.urban:
                y = self.grid.ys[len(self.grid.ys) // 2]
                path = [Position(0.0, y), Position(self.grid.width, y)]
            else:
                y = self.road.total_width / 2
                path = [Position(0.0, y), Position(self.road.length, y)]
            return [
                MobileInterceptor(
                    path=path,
                    speed=cfg.mobile_speed,
                    update_interval=cfg.mobile_update_interval,
                    **common,
                )
            ]
        if cfg.variant == "adaptive":
            return [
                AdaptiveInterceptor(
                    position=self._attacker_anchor(),
                    max_replays_per_window=cfg.adaptive_max_replays_per_window,
                    alert_window=cfg.adaptive_window,
                    per_source_cooldown=cfg.adaptive_cooldown,
                    **common,
                )
            ]
        return [
            InterAreaInterceptor(position=self._attacker_anchor(), **common)
        ]

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _generate_packet(self) -> None:
        # Packets sourced in the run's final second have no time to complete
        # and would only add identical truncation noise to both A and B.
        if self.sim.now > self.config.duration - 1.0:
            return
        if self.config.workload.kind is WorkloadKind.INTER_AREA:
            self._generate_inter_area_packet()
        else:
            self._generate_intra_area_packet()

    def _active_vehicle_nodes(self) -> List[tuple]:
        """(vehicle, node) pairs on the segment proper, in deterministic
        (lane, progress) order.  Runout vehicles still forward but neither
        source packets nor count in reception denominators."""
        pairs = []
        for vehicle in self.traffic.vehicles(on_road_only=True):
            node = self.nodes.get(vehicle.vehicle_id)
            if node is not None and not node.is_shut_down and not node.is_down:
                pairs.append((vehicle, node))
        return pairs

    def _generate_inter_area_packet(self) -> None:
        """Source one *vulnerable* GF packet (paper §IV-A).

        Urban: the highway's 1-D vulnerability partition has no grid
        analogue, so any active vehicle sources toward a uniformly chosen
        east/west roadside destination (same two draws per packet).
        """
        if self.urban:
            candidates = [
                (vehicle, node, (Direction.EAST, Direction.WEST))
                for vehicle, node in self._active_vehicle_nodes()
            ]
        else:
            candidates = []
            for vehicle, node in self._active_vehicle_nodes():
                directions = self.vulnerability.vulnerable_directions(vehicle.x)
                if directions:
                    candidates.append((vehicle, node, directions))
        if not candidates:
            return
        vehicle, node, directions = candidates[
            self._workload_rng.randrange(len(candidates))
        ]
        direction = directions[self._workload_rng.randrange(len(directions))]
        area = self.dest_areas[direction]
        pid = node.originate(area, self.config.workload.payload)
        self._outcomes[pid] = outcome = PacketOutcome(
            packet_id=pid,
            send_time=self.sim.now,
            source_x=vehicle.x,
            direction=int(direction),
            success=0.0,
            in_fully_covered_area=(
                False
                if self.urban
                else self.vulnerability.in_fully_covered_area(vehicle.x)
            ),
        )
        self.metrics.record(outcome)

    def _generate_intra_area_packet(self) -> None:
        """Source one CBF flood over the whole segment (paper §IV-A)."""
        pairs = self._active_vehicle_nodes()
        if not pairs:
            return
        workload = self.config.workload
        candidates = pairs
        if workload.source_xmin is not None or workload.source_xmax is not None:
            lo = workload.source_xmin if workload.source_xmin is not None else 0.0
            hi = (
                workload.source_xmax
                if workload.source_xmax is not None
                else (self.grid.width if self.urban else self.road.length)
            )
            candidates = [(v, n) for v, n in pairs if lo <= v.x <= hi]
            if not candidates:
                return  # nobody currently inside the requested region
        vehicle, node = candidates[self._workload_rng.randrange(len(candidates))]
        snapshot = frozenset(n.address for _v, n in pairs)
        pid = node.originate(self.flood_area, self.config.workload.payload)
        self._snapshots[pid] = snapshot
        self._outcomes[pid] = outcome = PacketOutcome(
            packet_id=pid,
            send_time=self.sim.now,
            source_x=vehicle.x,
            direction=int(vehicle.direction),
            success=0.0,
            receivers=0,
            denominator=len(snapshot),
            in_fully_covered_area=(
                False
                if self.urban
                else self.vulnerability.in_fully_covered_area(vehicle.x)
            ),
        )
        self.metrics.record(outcome)

    # ------------------------------------------------------------------
    # delivery recording
    # ------------------------------------------------------------------
    def _on_deliver(self, node: GeoNode, packet: GeoBroadcastPacket) -> None:
        outcome = self._outcomes.get(packet.packet_id)
        if outcome is None:
            return
        if self.config.workload.kind is WorkloadKind.INTER_AREA:
            if node in self.dest_nodes and outcome.success == 0.0:
                outcome.success = 1.0
                outcome.delivery_latency = self.sim.now - outcome.send_time
        else:
            snapshot = self._snapshots.get(packet.packet_id)
            if snapshot is not None and node.address in snapshot:
                outcome.receivers += 1
                outcome.success = outcome.receivers / outcome.denominator

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _on_unicast_lost(self, frame, why: str) -> None:
        """Channel hook: a unicast frame missed its addressee.

        This is the paper's silent interception loss — the frame went on
        the air, nobody (reachable) was listening.  Only application
        packets are tracked; beacons and LS floods resolve to ``None``.
        """
        kind = ledger_kind(frame.payload)
        if kind is None or self.ledger is None:
            return
        if why == "faulted":
            reason = reasons.FAULTED_LINK_LOSS
        elif self.fault_injector is not None and self.fault_injector.is_down_addr(
            frame.dest_addr
        ):
            # The addressee's radio is powered off: the frame was doomed by
            # churn, not by a geographic-routing failure.
            reason = reasons.NODE_DOWN
        else:
            reason = reasons.UNREACHABLE_NEXT_HOP
        self.ledger.dropped(
            kind,
            frame.payload.packet_id,
            self.sim.now,
            frame.sender_addr,
            reason,
            detail=f"{why}:dest={frame.dest_addr}",
        )

    def protocol_stat_totals(self) -> Counter:
        """Per-node protocol counters summed over *every* node of the run:
        live vehicles, static destinations, and vehicles already torn down
        (whose stats are accumulated at detach time)."""
        totals = Counter(self._detached_stats)
        for node in list(self.nodes.values()) + list(self.dest_nodes):
            totals.update(node_stat_counters(node))
        return totals

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, duration: Optional[float] = None) -> RunMetrics:
        """Run the scenario to completion and return the metrics."""
        if not self._started:
            self.traffic.start(self.sim)
            self._started = True
        self.sim.run_until(self.config.duration if duration is None else duration)
        return self.metrics

    def snapshot(self) -> bytes:
        """Serialize the whole world (plus global allocators) to bytes.

        The inverse is :meth:`restore`; the restored world continues the
        run bit-identically to this process (see
        :mod:`repro.sim.checkpoint` for the contract and its rules).
        """
        from repro.sim.checkpoint import snapshot_world

        return snapshot_world(self)

    @staticmethod
    def restore(blob: bytes) -> "World":
        """Rebuild a :meth:`snapshot` world, reinstating global counters."""
        from repro.sim.checkpoint import CheckpointError, restore_world

        world = restore_world(blob)
        if not isinstance(world, World):
            raise CheckpointError(
                f"checkpoint does not contain a World (got {type(world).__name__})"
            )
        return world

    def vehicles_on_road(self, direction: Optional[Direction] = None) -> int:
        """Convenience passthrough for impact studies."""
        return self.traffic.count_on_road(direction)

    def nodes_near(self, position: Position, radius: float) -> List[GeoNode]:
        """GeoNodes whose radios are within ``radius`` of ``position``.

        Reuses the channel's spatial index (the one every transmit
        consults), so the lookup is O(k) in the ~k nearby nodes; results
        are in interface registration order.
        """
        return [
            node
            for iface in self.channel.neighbors_within(position, radius)
            if (node := self.node_by_addr.get(iface.address)) is not None
        ]


#: Stats dataclasses aggregated per node, with the prefix their counters
#: carry in :meth:`World.protocol_stat_totals` / ``RunResult.extras``.
_STAT_SOURCES = (
    ("router", lambda node: node.router.stats),
    ("gf", lambda node: node.router.gf.stats),
    ("cbf", lambda node: node.router.cbf.stats),
    ("guc", lambda node: node.router.unicast.stats),
)


def node_stat_counters(node: GeoNode) -> Counter:
    """One node's protocol counters, flattened to ``prefix_field`` keys."""
    counters: Counter = Counter()
    for prefix, getter in _STAT_SOURCES:
        stats = getter(node)
        for f in dataclasses.fields(stats):
            counters[f"{prefix}_{f.name}"] += getattr(stats, f.name)
    # DCC gates only exist with dcc_enabled; absent keys keep default-run
    # extras byte-identical.
    if node.dcc is not None:
        for f in dataclasses.fields(node.dcc.stats):
            counters[f"dcc_{f.name}"] += getattr(node.dcc.stats, f.name)
    return counters
