"""The fault layer itself: vocabulary, determinism, and each fault kind."""

import hashlib
import math
import random

import pytest

from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.experiments.common import make_level_fleet
from repro.net.faults import (
    Fault,
    FaultKind,
    FaultLayer,
    FaultSchedule,
    UpdateOutageBuffer,
    burst_loss_schedule,
)
from repro.net.node import GroundNetwork, SimNode
from repro.net.radio import DEFAULT_WIFI, LinkModel
from repro.net.run import simulate_discovery
from repro.net.simulator import SimulationBudgetExceeded, Simulator
from repro.net.topology import SUBJECT, star


class TestFaultValidation:
    def test_window_order_enforced(self):
        with pytest.raises(ValueError, match="ends before"):
            Fault(FaultKind.BURST_LOSS, start_s=2.0, stop_s=1.0)

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError, match="severity"):
            Fault(FaultKind.DUPLICATION, severity=1.5)
        with pytest.raises(ValueError, match="p_enter_burst"):
            Fault(FaultKind.BURST_LOSS, p_enter_burst=-0.1)

    def test_crash_needs_targets_and_restart(self):
        with pytest.raises(ValueError, match="target nodes"):
            Fault(FaultKind.CRASH, stop_s=5.0)
        with pytest.raises(ValueError, match="restart"):
            Fault(FaultKind.CRASH, nodes=("a",))

    def test_targets_hop_semantics(self):
        everywhere = Fault(FaultKind.BURST_LOSS)
        assert everywhere.targets_hop("a", "b")
        by_node = Fault(FaultKind.BURST_LOSS, nodes=("a",))
        assert by_node.targets_hop("a", "b")
        assert by_node.targets_hop("b", "a")
        assert not by_node.targets_hop("b", "c")
        by_link = Fault(FaultKind.PARTITION, links=(("a", "b"),))
        assert by_link.targets_hop("b", "a")  # unordered pair
        assert not by_link.targets_hop("a", "c")

    def test_burst_schedule_hits_requested_mean(self):
        for mean in (0.05, 0.2, 0.4):
            schedule = burst_loss_schedule(mean)
            assert math.isclose(schedule.entries[0].mean_loss, mean)

    def test_burst_schedule_rejects_unreachable_mean(self):
        with pytest.raises(ValueError, match="mean_loss"):
            burst_loss_schedule(0.95, severity=0.9)


class TestDeterminism:
    def test_same_seed_same_fates(self):
        schedule = burst_loss_schedule(0.3, seed=2)

        def fates(n=200):
            layer = FaultLayer(schedule, seed=5)
            return [
                (f.dropped, f.duplicate, f.extra_delay_s, f.corrupt)
                for f in (layer.frame_fate("s", "o", 1.0) for _ in range(n))
            ]

        assert fates() == fates()

    def test_different_seed_different_fates(self):
        schedule = burst_loss_schedule(0.3, seed=2)

        def run(seed):
            layer = FaultLayer(schedule, seed=seed)
            return tuple(
                layer.frame_fate("s", "o", 1.0).dropped for _ in range(60)
            )

        assert len({run(s) for s in range(4)}) > 1

    def test_draw_order_is_pinned(self):
        """Every kind on one schedule, across its windows: the fates and
        counters hash to the value the fault layer has always given."""
        schedule = FaultSchedule(
            (
                Fault(FaultKind.BURST_LOSS, severity=0.6, p_enter_burst=0.2,
                      background_loss=0.05),
                Fault(FaultKind.DELAY_SPIKE, start_s=1.0, stop_s=3.0, nodes=("a",),
                      extra_delay_s=0.1),
                Fault(FaultKind.REORDER, severity=0.4, extra_delay_s=0.05),
                Fault(FaultKind.DUPLICATION, start_s=0.5, severity=0.3,
                      links=(("b", "S"),)),
                Fault(FaultKind.CORRUPTION, stop_s=2.5, severity=0.2),
                Fault(FaultKind.CRASH, start_s=2.0, stop_s=2.5, nodes=("b",)),
                Fault(FaultKind.PARTITION, start_s=3.0, stop_s=3.5, links=(("S", "a"),)),
            ),
            seed=7,
        )
        layer = FaultLayer(schedule, seed=11)
        fates = []
        for i in range(400):
            for src, dst in (("S", "a"), ("b", "S"), ("S", "c")):
                f = layer.frame_fate(src, dst, i * 0.01)
                fates.append((f.dropped, f.duplicate, round(f.extra_delay_s, 12), f.corrupt))
        counters = sorted(layer.counters.items())
        assert counters == [
            ("frames_blocked", 100), ("frames_corrupted", 104),
            ("frames_delayed", 153), ("frames_duplicated", 54),
            ("frames_lost_burst", 300), ("frames_reordered", 339),
        ]
        digest = hashlib.sha256(repr((fates, counters)).encode()).hexdigest()
        assert digest == (
            "5c79119f6bd1262ed30aa6864cf85e0c8ff3a273677de682d943f376ad121e53"
        )

    def test_empirical_loss_near_mean(self):
        schedule = burst_loss_schedule(0.2, seed=0)
        layer = FaultLayer(schedule, seed=0)
        n = 6000
        lost = sum(
            layer.frame_fate("s", "o", 1.0).dropped for _ in range(n)
        )
        assert 0.15 < lost / n < 0.25

    def test_loss_is_bursty_not_iid(self):
        """Consecutive losses correlate: far more runs-of-loss than an
        i.i.d. process at the same rate would produce."""
        schedule = burst_loss_schedule(0.2, seed=0, severity=0.95)
        layer = FaultLayer(schedule, seed=0)
        drops = [layer.frame_fate("s", "o", 1.0).dropped for _ in range(6000)]
        pairs = sum(a and b for a, b in zip(drops, drops[1:]))
        rate = sum(drops) / len(drops)
        iid_pairs = rate * rate * len(drops)
        assert pairs > 2 * iid_pairs


def tiny_net(faults=None, link=DEFAULT_WIFI):
    sim = Simulator()
    net = GroundNetwork(sim, star(["a"]), link, seed=1, faults=faults)
    net.add_node(SimNode(SUBJECT, "subject", NEXUS6))
    net.add_node(SimNode("a", "object", RASPBERRY_PI3))
    return sim, net


class TestFaultKindsOnTheWire:
    def test_partition_blocks_window_only(self):
        from repro.protocol.messages import Que1

        schedule = FaultSchedule(
            (Fault(FaultKind.PARTITION, start_s=0.0, stop_s=10.0,
                   links=((SUBJECT, "a"),)),)
        )
        sim, net = tiny_net(schedule)
        delivered = []
        net.on_delivery = lambda t, s, d, m: delivered.append(t)
        net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert not delivered  # inside the window: dropped
        sim.at(11.0, lambda: net.unicast(SUBJECT, "a", Que1(b"m" * 28)))
        sim.run()
        assert delivered  # after stop_s the link heals

    def test_duplication_delivers_twice(self):
        from repro.protocol.messages import Que1

        schedule = FaultSchedule((Fault(FaultKind.DUPLICATION, severity=1.0),))
        sim, net = tiny_net(schedule)
        delivered = []
        net.on_delivery = lambda t, s, d, m: delivered.append(m)
        net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert len(delivered) == 2
        assert delivered[0].to_bytes() == delivered[1].to_bytes()

    def test_delay_spike_shifts_arrival(self):
        from repro.protocol.messages import Que1

        base_times, spiked_times = [], []
        for times, schedule in (
            (base_times, None),
            (spiked_times, FaultSchedule(
                (Fault(FaultKind.DELAY_SPIKE, extra_delay_s=0.5),)
            )),
        ):
            sim, net = tiny_net(schedule)
            net.on_delivery = lambda t, s, d, m, acc=times: acc.append(t)
            net.unicast(SUBJECT, "a", Que1(b"n" * 28))
            sim.run()
        assert spiked_times[0] == pytest.approx(base_times[0] + 0.5)

    def test_corruption_recorded_not_fatal(self, staff, media):
        """A corrupted frame reaches a real engine as an error record."""
        subject_creds, object_creds, _ = make_level_fleet(3, level=2)
        schedule = FaultSchedule(
            (Fault(FaultKind.CORRUPTION, severity=1.0),), seed=4
        )
        timeline = simulate_discovery(
            subject_creds, object_creds, faults=schedule, seed=4,
            deadline_s=5.0,
        )
        assert timeline.completion == {}  # every frame mangled

    def test_crash_window_drops_and_restarts(self):
        from repro.protocol.messages import Que1

        schedule = FaultSchedule(
            (Fault(FaultKind.CRASH, start_s=0.0, stop_s=2.0, nodes=("a",)),)
        )
        sim, net = tiny_net(schedule)
        delivered = []
        net.on_delivery = lambda t, s, d, m: delivered.append(t)
        net.unicast(SUBJECT, "a", Que1(b"n" * 28))
        sim.run()
        assert not delivered
        assert net.nodes["a"].stats.crashes == 1
        sim.at(3.0, lambda: net.unicast(SUBJECT, "a", Que1(b"m" * 28)))
        sim.run()
        assert delivered  # back up after the restart

    def test_crashed_object_rejoins_cold_and_completes(self):
        subject_creds, object_creds, _ = make_level_fleet(4, level=2)
        victim = object_creds[0].object_id
        schedule = FaultSchedule(
            (Fault(FaultKind.CRASH, start_s=0.1, stop_s=1.5, nodes=(victim,)),)
        )
        timeline = simulate_discovery(
            subject_creds, object_creds, faults=schedule, seed=2,
            max_rounds=6, round_interval_s=1.0, deadline_s=20.0,
        )
        assert victim in timeline.completion
        assert timeline.completion[victim] > 1.5  # only after the restart


class TestBackendOutage:
    class FakeReceiver:
        def __init__(self):
            self.applied = []

        def apply(self, message):
            self.applied.append(message)
            return True

    def test_pushes_buffer_across_outage(self):
        schedule = FaultSchedule(
            (Fault(FaultKind.BACKEND_OUTAGE, start_s=1.0, stop_s=5.0),)
        )
        receiver = self.FakeReceiver()
        buffer = UpdateOutageBuffer(receiver, schedule)
        assert buffer.deliver("u1", now=0.5)       # plane up: applied
        assert not buffer.deliver("u2", now=2.0)   # outage: queued
        assert not buffer.deliver("u3", now=4.0)
        assert receiver.applied == ["u1"]
        assert buffer.deliver("u4", now=6.0)       # healed: flush + apply
        assert receiver.applied == ["u1", "u2", "u3", "u4"]  # publish order
        assert buffer.deferred == 2

    def test_flush_noop_while_down(self):
        schedule = FaultSchedule(
            (Fault(FaultKind.BACKEND_OUTAGE, start_s=0.0, stop_s=5.0),)
        )
        buffer = UpdateOutageBuffer(self.FakeReceiver(), schedule)
        buffer.deliver("u1", now=1.0)
        assert buffer.flush(now=2.0) == 0
        assert buffer.flush(now=6.0) == 1

    class SeqMsg:
        """A stand-in push with the wire messages' sequence attribute."""

        def __init__(self, sequence):
            self.sequence = sequence

        def __repr__(self):
            return f"SeqMsg({self.sequence})"

    def test_overlapping_outage_and_crash_drains_exactly_once(self):
        """A node crashed *through* an outage rejoins to each push once.

        Regression: the outage window heals at t=10 while the crash
        window runs to t=15 — flushing at the first heal would deliver
        into a dead device; retry-duplicates queued during the outage
        used to be buffered again and drain twice.
        """
        schedule = FaultSchedule((
            Fault(FaultKind.BACKEND_OUTAGE, start_s=0.0, stop_s=10.0),
            Fault(FaultKind.CRASH, start_s=5.0, stop_s=15.0, nodes=("dev",)),
        ))
        receiver = self.FakeReceiver()
        buffer = UpdateOutageBuffer(receiver, schedule, node="dev")
        m1, m2 = self.SeqMsg(1), self.SeqMsg(2)
        assert not buffer.deliver(m1, now=2.0)   # outage: queued
        assert not buffer.deliver(m1, now=3.0)   # publisher retry: dropped
        assert buffer.duplicates_suppressed == 1
        assert not buffer.deliver(m2, now=6.0)   # outage AND crash
        # Backend healed, node still down: nothing may flush yet.
        assert buffer.flush(now=12.0) == 0
        assert receiver.applied == []
        # Cold rejoin: everything drains, in publish order, exactly once.
        assert buffer.flush(now=15.0) == 2
        assert receiver.applied == [m1, m2]
        assert buffer.delivered == 2

    def test_partition_window_also_blocks_delivery(self):
        """Reachability is the conjunction: backend up AND node linked."""
        schedule = FaultSchedule(
            (Fault(FaultKind.PARTITION, start_s=0.0, stop_s=4.0,
                   nodes=("dev",)),)
        )
        receiver = self.FakeReceiver()
        buffer = UpdateOutageBuffer(receiver, schedule, node="dev")
        m1 = self.SeqMsg(1)
        assert not buffer.deliver(m1, now=1.0)  # backend fine, path cut
        assert receiver.applied == []
        assert buffer.deliver(self.SeqMsg(2), now=5.0)
        assert [m.sequence for m in receiver.applied] == [1, 2]

    def test_node_none_skips_node_windows(self):
        schedule = FaultSchedule(
            (Fault(FaultKind.CRASH, start_s=0.0, stop_s=9.0,
                   nodes=("dev",)),)
        )
        receiver = self.FakeReceiver()
        buffer = UpdateOutageBuffer(receiver, schedule)  # node unknown
        assert buffer.deliver(self.SeqMsg(1), now=1.0)
        assert len(receiver.applied) == 1


class TestSatelliteFixes:
    def test_lossy_link_without_rng_raises(self):
        """The silent no-loss footgun: loss_rate > 0 demands an rng."""
        with pytest.raises(ValueError, match="rng"):
            LinkModel(loss_rate=0.3).lost(None)

    def test_lossless_link_tolerates_missing_rng(self):
        assert LinkModel().lost(None) is False
        assert LinkModel(loss_rate=0.3).lost(random.Random(0)) in (True, False)

    def test_budget_exception_carries_context(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationBudgetExceeded) as excinfo:
            sim.run(max_events=25)
        assert excinfo.value.events_processed == 25
        assert excinfo.value.max_events == 25
        assert excinfo.value.now >= 0.0
        assert isinstance(excinfo.value, RuntimeError)  # old guards still work

    def test_max_events_plumbed_through_simulate_discovery(self):
        subject_creds, object_creds, _ = make_level_fleet(3, level=1)
        with pytest.raises(SimulationBudgetExceeded):
            simulate_discovery(
                subject_creds, object_creds, max_events=3, deadline_s=5.0
            )
