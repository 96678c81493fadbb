"""Failure injection: lossy links and multi-round recovery."""

from collections import Counter, defaultdict

from repro.experiments.common import make_level_fleet
from repro.net.faults import Fault, FaultKind, FaultSchedule, burst_loss_schedule
from repro.net.node import GroundNetwork, SimNode
from repro.net.radio import LinkModel
from repro.net.run import RetryPolicy, simulate_discovery
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, star
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.protocol.messages import Que1, Que2
from repro.protocol.object import ObjectEngine

LOSSY = LinkModel(loss_rate=0.25)
VERY_LOSSY = LinkModel(loss_rate=0.5)


class TestLossModel:
    def test_lossless_by_default(self):
        import random
        link = LinkModel()
        assert not any(link.lost(random.Random(0)) for _ in range(100))

    def test_loss_rate_approximate(self):
        import random
        rng = random.Random(7)
        losses = sum(LOSSY.lost(rng) for _ in range(4000))
        assert 0.2 < losses / 4000 < 0.3

    def test_lost_frames_counted(self):
        sim = Simulator()
        net = GroundNetwork(sim, star(["a"]), VERY_LOSSY, seed=3)
        net.add_node(SimNode(SUBJECT, "subject", NEXUS6))
        net.add_node(SimNode("a", "object", RASPBERRY_PI3))
        from repro.protocol.messages import Que1

        for _ in range(40):
            net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert net.messages_lost > 0

    def test_lost_frame_still_burns_airtime(self):
        """Losses don't free the channel: the radio stays busy."""
        sim = Simulator()
        always_lost = LinkModel(loss_rate=1.0)
        net = GroundNetwork(sim, star(["a"]), always_lost, seed=1)
        net.add_node(SimNode(SUBJECT, "subject", NEXUS6))
        net.add_node(SimNode("a", "object", RASPBERRY_PI3))
        from repro.protocol.messages import Que1

        net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert net.nodes[SUBJECT].radio.busy_until > 0
        assert net.messages_lost == 1


class TestDiscoveryUnderLoss:
    def test_single_round_misses_objects(self):
        subject, objects, _ = make_level_fleet(12, 2)
        timeline = simulate_discovery(
            subject, objects, link=VERY_LOSSY, seed=5, max_rounds=1
        )
        assert len(timeline.completion) < 12

    def test_multi_round_recovers(self):
        subject, objects, _ = make_level_fleet(12, 2)
        timeline = simulate_discovery(
            subject, objects, link=LOSSY, seed=5,
            max_rounds=8, round_interval_s=1.5,
        )
        assert len(timeline.completion) == 12

    def test_rounds_stop_early_when_complete(self):
        """No pointless re-broadcasts once everything is found."""
        subject, objects, _ = make_level_fleet(3, 1)
        timeline = simulate_discovery(
            subject, objects, max_rounds=5, round_interval_s=0.8,
        )
        # lossless: all found in round 1; completion before round 2 fires
        assert timeline.total_time < 0.8
        assert len(timeline.completion) == 3

    def test_level3_covert_survives_loss(self):
        """The covert path also recovers — fellows eventually get flyers."""
        subject, objects, _ = make_level_fleet(4, 3)
        timeline = simulate_discovery(
            subject, objects, link=LOSSY, seed=9,
            max_rounds=20, round_interval_s=1.0,
        )
        assert len(timeline.completion) == 4
        assert all(s.level_seen == 3 for s in timeline.services)

    def test_recovery_time_increases_with_loss(self):
        subject, objects, _ = make_level_fleet(8, 2)
        clean = simulate_discovery(subject, objects, seed=3).total_time
        subject2, objects2, _ = make_level_fleet(8, 2)
        lossy = simulate_discovery(
            subject2, objects2, link=LOSSY, seed=3,
            max_rounds=8, round_interval_s=1.0,
        ).total_time
        assert lossy > clean


class TestRebroadcastSeeksOnlyUnfound:
    """A later round re-handshakes only objects not found yet."""

    def _lossy_run(self):
        subject, objects, _ = make_level_fleet(12, 2)
        que2s: dict[str, list[tuple[float, bytes]]] = defaultdict(list)

        def tap(t, src, dst, message):
            if src == SUBJECT and isinstance(message, Que2):
                que2s[dst].append((t, message.to_bytes()))

        timeline = simulate_discovery(
            subject, objects, seed=4, retry=RetryPolicy(), max_rounds=12,
            faults=burst_loss_schedule(0.2, seed=4), deadline_s=30.0,
            on_delivery=tap,
        )
        assert len(timeline.completion) == 12
        return timeline, que2s

    def test_no_fresh_que2_after_an_object_is_found(self):
        """A QUE2 reaching a found object can only be a late copy of one
        it had already received: no new handshake leaves the subject."""
        timeline, que2s = self._lossy_run()
        for object_id, frames in que2s.items():
            found_at = timeline.completion[object_id]
            before = {raw for t, raw in frames if t <= found_at}
            fresh = [t for t, raw in frames if t > found_at and raw not in before]
            assert fresh == [], (object_id, found_at, fresh)

    def test_each_object_discovered_once(self):
        timeline, _ = self._lossy_run()
        found = sorted(service.object_id for service in timeline.services)
        assert found == sorted(timeline.completion)


class TestReRoundQue1:
    """Round 0 broadcasts QUE1; each later round unicasts it to the
    objects still unfound, and a QUE1 is never retransmitted."""

    def test_found_objects_answer_one_que1(self, monkeypatch):
        subject, objects, _ = make_level_fleet(6, 2)
        victim = objects[2].object_id
        # The victim's link is down through rounds 0 and 1 (t=0, t=2 s).
        schedule = FaultSchedule((
            Fault(FaultKind.PARTITION, stop_s=3.0, links=((SUBJECT, victim),)),
        ))
        handled: Counter = Counter()
        handle_que1 = ObjectEngine.handle_que1

        def counted(engine, que1, peer_id):
            handled[engine.creds.object_id] += 1
            return handle_que1(engine, que1, peer_id)

        monkeypatch.setattr(ObjectEngine, "handle_que1", counted)
        sent: list[tuple[float, str]] = []
        unicast, broadcast = GroundNetwork.unicast, GroundNetwork.broadcast

        def record_unicast(net, src, dst, message):
            if isinstance(message, Que1):
                sent.append((net.sim.now, dst))
            unicast(net, src, dst, message)

        def record_broadcast(net, src, message):
            sent.append((net.sim.now, "*"))
            broadcast(net, src, message)

        monkeypatch.setattr(GroundNetwork, "unicast", record_unicast)
        monkeypatch.setattr(GroundNetwork, "broadcast", record_broadcast)
        timeline = simulate_discovery(
            subject, objects, faults=schedule, retry=RetryPolicy(),
            max_rounds=4, round_interval_s=2.0,
        )
        found_first = {o.object_id for o in objects} - {victim}
        assert {oid: handled[oid] for oid in found_first} == dict.fromkeys(found_first, 1)
        # One QUE1 per later round to the unfound victim; it is found in
        # round 2, so round 3 never starts.
        assert sent == [(0.0, "*"), (2.0, victim), (4.0, victim)]
        assert handled[victim] == 1
        assert timeline.retransmissions == 0
        assert sorted(s.object_id for s in timeline.services) == sorted(
            o.object_id for o in objects
        )
        assert set(timeline.completion) == {o.object_id for o in objects}


class TestDuplicatedLevel1Res1:
    """A fault-duplicated Level 1 RES1 must not list its object twice."""

    def test_each_level1_object_listed_once(self):
        subject, objects, _ = make_level_fleet(12, 1)
        for seed in range(3):
            timeline = simulate_discovery(
                subject, objects, seed=seed,
                faults=FaultSchedule(
                    (Fault(FaultKind.DUPLICATION, severity=0.3),), seed=seed
                ),
            )
            assert len(timeline.services) == 12, seed
