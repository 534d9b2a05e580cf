"""Integration-style tests for the router + node over a real channel."""

from repro.geo.areas import CircularArea, RectangularArea
from repro.geo.position import Position

FLOOD = RectangularArea(-100, 5000, -100, 100)


def collect_deliveries(node):
    got = []
    node.router.on_deliver.append(lambda n, p: got.append(p))
    return got


class TestBeaconing:
    def test_beacons_populate_location_tables(self, testbed):
        a = testbed.add_node(0)
        b = testbed.add_node(100)
        testbed.warm_up()
        assert b.address in a.router.loct
        assert a.address in b.router.loct

    def test_out_of_range_nodes_unknown(self, testbed):
        a = testbed.add_node(0)
        far = testbed.add_node(2000)
        testbed.warm_up()
        assert far.address not in a.router.loct

    def test_beacon_period_respected(self, testbed):
        a = testbed.add_node(0)
        testbed.add_node(100)
        testbed.sim.run_until(31.0)
        # ~10 beacons in 31 s at 3-3.75 s intervals
        assert 8 <= testbed.beacons_sent(a) <= 11

    def test_own_beacon_not_in_own_table(self, testbed):
        a = testbed.add_node(0)
        testbed.add_node(50)
        testbed.warm_up()
        assert a.address not in a.router.loct

    def test_beacon_positions_are_authentic(self, testbed):
        a = testbed.add_node(0)
        b = testbed.add_node(321)
        testbed.warm_up()
        entry = a.router.loct.get(b.address, testbed.sim.now)
        assert entry.position == Position(321, 0)


class TestGreedyForwardingPath:
    def test_multi_hop_chain_delivery(self, testbed):
        nodes = testbed.chain(6, 400.0)
        got = collect_deliveries(nodes[-1])
        testbed.warm_up()
        area = CircularArea(Position(2000, 0), 30.0)
        nodes[0].originate(area, "hello")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert len(got) == 1
        assert got[0].body.payload == "hello"

    def test_source_inside_area_floods_instead(self, testbed):
        a = testbed.add_node(0)
        b = testbed.add_node(100)
        got_a = collect_deliveries(a)
        got_b = collect_deliveries(b)
        testbed.warm_up()
        a.originate(RectangularArea(-50, 150, -50, 50), "local")
        testbed.sim.run_until(testbed.sim.now + 1.0)
        assert len(got_a) == 1  # source delivers to itself
        assert len(got_b) == 1

    def test_gf_holds_packet_until_neighbor_appears(self, testbed):
        a = testbed.add_node(0, beaconing=False)
        area = CircularArea(Position(800, 0), 30.0)
        # Nobody around: the packet is held and re-checked.
        a.originate(area, "patience")
        testbed.sim.run_until(2.0)
        assert a.router.stats.gf_rechecks >= 1
        # A relay and the destination appear later.
        testbed.add_node(400)
        dest = testbed.add_node(800)
        got = collect_deliveries(dest)
        testbed.sim.run_until(15.0)
        assert len(got) == 1

    def test_gf_drops_packet_after_lifetime(self, testbed):
        a = testbed.add_node(0, beaconing=False)
        a.originate(CircularArea(Position(1500, 0), 30.0), "doomed", lifetime=2.0)
        testbed.sim.run_until(10.0)
        assert a.router.stats.gf_lifetime_drops >= 1

    def test_unicast_loss_is_silent(self, testbed):
        """Vulnerability #3: no acknowledgement, no recovery."""
        a = testbed.add_node(0)
        testbed.add_node(400)
        dest = testbed.add_node(2000)  # too far for anyone
        got = collect_deliveries(dest)
        testbed.warm_up()
        # Poison a's LocT manually with dest's true position (as the attack
        # does): a will unicast straight to the unreachable destination.
        a.router.loct.update(
            dest.address, dest.position_vector(), testbed.sim.now
        )
        a.originate(CircularArea(Position(2000, 0), 30.0), "lost")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert got == []
        assert testbed.channel.stats.unicast_lost >= 1
        assert a.router.stats.gf_forwards == 1  # a believes it forwarded

    def test_rhl_exhaustion_drops_forwarding(self, testbed):
        nodes = testbed.chain(6, 400.0)
        got = collect_deliveries(nodes[-1])
        testbed.warm_up()
        area = CircularArea(Position(2000, 0), 30.0)
        nodes[0].originate(area, "short-leash", rhl=2)
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert got == []

    def test_forwarded_packet_keeps_source_signature(self, testbed):
        nodes = testbed.chain(4, 400.0)
        got = collect_deliveries(nodes[-1])
        testbed.warm_up()
        nodes[0].originate(CircularArea(Position(1200, 0), 30.0), "signed")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert got[0].signed.certificate.subject_id == nodes[0].credentials.certificate.subject_id


class TestCbfFloodPath:
    def test_flood_reaches_all_nodes(self, testbed):
        nodes = testbed.chain(10, 400.0)
        counters = [collect_deliveries(n) for n in nodes]
        testbed.warm_up()
        nodes[0].originate(FLOOD, "flood")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert all(len(c) == 1 for c in counters)

    def test_each_node_delivers_once(self, testbed):
        nodes = testbed.chain(5, 300.0)
        counters = [collect_deliveries(n) for n in nodes]
        testbed.warm_up()
        nodes[2].originate(FLOOD, "flood")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        assert all(len(c) == 1 for c in counters)

    def test_contention_suppresses_redundant_rebroadcasts(self, testbed):
        # A dense cluster: everyone hears everyone; only one node should
        # re-broadcast after the source.
        nodes = [testbed.add_node(x) for x in (0, 30, 60, 90, 120)]
        testbed.warm_up()
        nodes[0].originate(FLOOD, "dense")
        testbed.sim.run_until(testbed.sim.now + 2.0)
        rebroadcasts = sum(n.router.cbf.stats.rebroadcasts for n in nodes)
        # source origination + exactly one contention winner
        assert rebroadcasts == 2

    def test_out_of_area_nodes_ignore_flood(self, testbed):
        inside = testbed.add_node(0)
        outside = testbed.add_node(300)
        got = collect_deliveries(outside)
        testbed.warm_up()
        inside.originate(RectangularArea(-50, 100, -50, 50), "local")
        testbed.sim.run_until(testbed.sim.now + 1.0)
        assert got == []
        assert outside.router.stats.out_of_area_broadcasts >= 1


class TestNodeLifecycle:
    def test_shutdown_stops_beaconing_and_reception(self, testbed):
        a = testbed.add_node(0)
        testbed.add_node(100)
        testbed.warm_up()
        sent_before = testbed.beacons_sent(a)
        a.shutdown()
        testbed.sim.run_until(testbed.sim.now + 10.0)
        assert testbed.beacons_sent(a) == sent_before
        assert a.is_shut_down

    def test_shutdown_idempotent(self, testbed):
        a = testbed.add_node(0)
        a.shutdown()
        a.shutdown()


class TestAuthentication:
    def test_unauthenticated_beacon_rejected(self, testbed):
        from repro.geo.position import PositionVector
        from repro.geonet.packets import BeaconBody
        from repro.radio.channel import RadioInterface
        from repro.radio.frames import FrameKind
        from repro.security.certificates import Certificate, Credentials
        from repro.security.signing import sign

        victim = testbed.add_node(0)
        # An attacker with made-up credentials broadcasts a forged beacon.
        bogus = Credentials(
            certificate=Certificate("m", "fake-pub", "USDOT-CA", "fake-sig"),
            private_token="fake-priv",
        )
        forged = sign(
            BeaconBody(
                source_addr=424242,
                pv=PositionVector(Position(50, 0), 0.0, 0.0, testbed.sim.now),
            ),
            bogus,
        )
        iface = RadioInterface(lambda: Position(10, 0), tx_range=486.0)
        testbed.channel.register(iface)
        iface.send(FrameKind.BEACON, forged)
        testbed.sim.run_until(testbed.sim.now + 1.0)
        assert 424242 not in victim.router.loct
        assert victim.router.stats.beacons_rejected_auth == 1

    def test_stale_beacon_rejected(self, testbed):
        from repro.geo.position import PositionVector
        from repro.geonet.packets import BeaconBody
        from repro.radio.channel import RadioInterface
        from repro.radio.frames import FrameKind
        from repro.security.signing import sign

        victim = testbed.add_node(0)
        old_creds = testbed.ca.enroll("old")
        stale = sign(
            BeaconBody(
                source_addr=99,
                pv=PositionVector(Position(50, 0), 0.0, 0.0, timestamp=0.0),
            ),
            old_creds,
        )
        iface = RadioInterface(lambda: Position(10, 0), tx_range=486.0)
        testbed.channel.register(iface)
        testbed.sim.run_until(30.0)  # let the beacon age well past freshness
        iface.send(FrameKind.BEACON, stale)
        testbed.sim.run_until(31.0)
        assert 99 not in victim.router.loct
        assert victim.router.stats.beacons_rejected_stale == 1


class TestGfRecheckBounds:
    def test_pending_recheck_set_prunes_fired_handles(self, testbed):
        """Handles of fired rechecks must be pruned by due time, not
        retained for the node's lifetime."""
        a = testbed.add_node(0.0)
        testbed.warm_up()
        a.originate(
            CircularArea(Position(3000.0, 0.0), 100.0), "stuck", lifetime=60.0
        )
        testbed.sim.run_until(testbed.sim.now + 50.0)
        assert a.router.stats.gf_rechecks >= 90
        assert len(a.router._pending_rechecks) <= 65
