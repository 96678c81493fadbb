"""Simulated discovery runs: completeness, anchors, modes."""

import pytest

from repro.backend.registration import Backend
from repro.backend.synthetic import SyntheticConfig, generate, provision
from repro.crypto import meter
from repro.crypto.costmodel import CACHE_MARKER_OPS
from repro.crypto.ecdsa import VerifyingKey
from repro.experiments.common import make_level_fleet
from repro.experiments.fault_recovery import RECOVERY
from repro.net.faults import burst_loss_schedule
from repro.net.node import GroundNetwork, SizeMode, TimingMode
from repro.net.radio import JITTERY_WIFI
from repro.net.run import simulate_discovery
from repro.net.topology import SUBJECT, paper_multihop
from repro.pki.certificate import clear_parse_cache
from repro.pki.profile import clear_verify_cache
from repro.protocol.messages import Res1Level1, Res2


class TestCompleteness:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_all_objects_discovered(self, level):
        subject, objects, _ = make_level_fleet(4, level)
        timeline = simulate_discovery(subject, objects)
        assert set(timeline.completion) == {c.object_id for c in objects}

    def test_fellow_sees_covert_over_network(self):
        """The Level 3 covert path works end-to-end through the simulator."""
        subject, objects, _ = make_level_fleet(2, 3)
        timeline = simulate_discovery(subject, objects)
        assert all(s.level_seen == 3 for s in timeline.services)

    def test_multihop_all_discovered(self):
        subject, objects, _ = make_level_fleet(8, 2)
        graph = paper_multihop([c.object_id for c in objects], 4)
        timeline = simulate_discovery(subject, objects, graph=graph)
        assert len(timeline.completion) == 8
        assert set(timeline.hops.values()) == {1, 2, 3, 4}


class TestTimingShape:
    def test_level1_faster_than_level2(self):
        s1, o1, _ = make_level_fleet(5, 1)
        s2, o2, _ = make_level_fleet(5, 2)
        t1 = simulate_discovery(s1, o1).total_time
        t2 = simulate_discovery(s2, o2).total_time
        assert t1 < t2

    def test_levels_2_and_3_indistinguishable_in_time(self):
        """Fig. 6(e): 'Level 2 and Level 3 have overlapped time curves'."""
        s2, o2, _ = make_level_fleet(5, 2)
        s3, o3, _ = make_level_fleet(5, 3)
        t2 = simulate_discovery(s2, o2).total_time
        t3 = simulate_discovery(s3, o3).total_time
        assert t3 == pytest.approx(t2, rel=0.02)

    def test_time_grows_with_object_count(self):
        times = []
        for n in (1, 5, 10):
            subject, objects, _ = make_level_fleet(n, 1)
            times.append(simulate_discovery(subject, objects).total_time)
        assert times == sorted(times)

    def test_latency_grows_with_hops(self):
        subject, objects, _ = make_level_fleet(8, 2)
        graph = paper_multihop([c.object_id for c in objects], 4)
        timeline = simulate_discovery(subject, objects, graph=graph)
        by_hop = timeline.mean_latency_by_hops()
        assert [by_hop[h] for h in (1, 2, 3, 4)] == sorted(by_hop.values())

    @pytest.mark.parametrize("level", [1, 2])
    def test_completion_stamped_when_its_own_reply_is_processed(self, level, monkeypatch):
        """Each completion is the time the subject's CPU finished that
        object's settling reply, not any earlier reply's."""
        subject, objects, _ = make_level_fleet(20, level)
        reply = Res1Level1 if level == 1 else Res2
        processed: dict[str, float] = {}
        deliver = GroundNetwork._deliver

        def spy(net, src, dst, message):
            deliver(net, src, dst, message)
            if dst == SUBJECT and isinstance(message, reply):
                processed.setdefault(src, net.nodes[dst].cpu_busy_until)

        monkeypatch.setattr(GroundNetwork, "_deliver", spy)
        timeline = simulate_discovery(subject, objects)
        assert timeline.completion == processed

    def test_paper_anchor_level1_20_objects(self):
        """Fig. 6(e) anchor: 20 Level 1 objects in ~0.25 s (±40%)."""
        subject, objects, _ = make_level_fleet(20, 1)
        total = simulate_discovery(subject, objects).total_time
        assert 0.15 < total < 0.35

    def test_paper_anchor_level2_20_objects(self):
        """Fig. 6(e) anchor: 20 Level 2 objects ~0.63 s (±40%)."""
        subject, objects, _ = make_level_fleet(20, 2)
        total = simulate_discovery(subject, objects).total_time
        assert 0.4 < total < 0.9


class TestModes:
    def test_deterministic_given_seed(self):
        subject, objects, _ = make_level_fleet(3, 2)
        t1 = simulate_discovery(subject, objects, link=JITTERY_WIFI, seed=5)
        subject2, objects2, _ = make_level_fleet(3, 2)
        t2 = simulate_discovery(subject2, objects2, link=JITTERY_WIFI, seed=5)
        assert t1.total_time == pytest.approx(t2.total_time, rel=1e-9)

    def test_jitter_varies_across_seeds(self):
        subject, objects, _ = make_level_fleet(3, 2)
        t1 = simulate_discovery(subject, objects, link=JITTERY_WIFI, seed=1).total_time
        subject2, objects2, _ = make_level_fleet(3, 2)
        t2 = simulate_discovery(subject2, objects2, link=JITTERY_WIFI, seed=2).total_time
        assert t1 != t2

    def test_measured_mode_runs(self):
        subject, objects, _ = make_level_fleet(2, 2)
        timeline = simulate_discovery(subject, objects, timing=TimingMode.MEASURED)
        assert len(timeline.completion) == 2

    def test_actual_size_mode_runs(self):
        subject, objects, _ = make_level_fleet(2, 2)
        timeline = simulate_discovery(subject, objects, sizes=SizeMode.ACTUAL)
        assert len(timeline.completion) == 2

    def test_subject_compute_tracked(self):
        subject, objects, _ = make_level_fleet(3, 2)
        timeline = simulate_discovery(subject, objects)
        assert timeline.subject_compute_s > 0
        assert all(v > 0 for v in timeline.object_compute_s.values())


class TestCertificateMemo:
    def test_warm_memo_replays_the_cold_run_with_fewer_real_verifies(
        self, monkeypatch
    ):
        """One subject simulated twice in one process: the second run
        answers every certificate check from the memo the first filled,
        and its simulated timeline and logical op tallies are identical."""
        enterprise = generate(SyntheticConfig(
            n_subjects=4, n_buildings=1, rooms_per_building=3,
            objects_per_room=3, gamma=2,
        ))
        backend = Backend()
        provision(enterprise, backend)
        objects = [backend.issued_objects[o] for o in sorted(backend.issued_objects)]
        subject = backend.issued_subjects[min(backend.issued_subjects)]
        real = {"n": 0}
        verify = VerifyingKey.verify

        def counted(self, signature, message):
            real["n"] += 1
            return verify(self, signature, message)

        monkeypatch.setattr(VerifyingKey, "verify", counted)
        clear_parse_cache()
        clear_verify_cache()
        runs = []
        for _ in range(2):
            real["n"] = 0
            with meter.metered() as tally:
                timeline = simulate_discovery(
                    subject, objects, seed=0, retry=RECOVERY,
                    faults=burst_loss_schedule(0.20, seed=0),
                    max_rounds=150, deadline_s=300.0,
                )
            logical = {
                op: n for op, n in tally.snapshot().items()
                if op[0] not in CACHE_MARKER_OPS
            }
            runs.append((timeline, logical, real["n"]))
        (cold, cold_ops, cold_real), (warm, warm_ops, warm_real) = runs
        assert warm.retransmissions > 0  # the loss really exercised retries
        assert warm.completion == cold.completion
        assert len(warm.completion) == len(objects)
        assert warm.subject_compute_s == cold.subject_compute_s
        assert warm.object_compute_s == cold.object_compute_s
        assert warm_ops == cold_ops
        assert warm_real < cold_real
        # left: the RES1 and QUE2 signatures, which are new every handshake
        assert warm_real <= 1.6 * len(warm.completion)
