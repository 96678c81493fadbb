"""Concurrent multi-subject discovery over one shared channel."""

from collections import Counter

import pytest

from repro.experiments.concurrent_subjects import build_floor, measure
from repro.experiments.fault_recovery import RECOVERY, RECOVERY_ROUNDS
from repro.net.faults import Fault, FaultKind, FaultSchedule, burst_loss_schedule
from repro.net.run import simulate_concurrent_discovery, simulate_discovery
from repro.protocol.messages import Que2, Res2


class TestConcurrentDiscovery:
    def test_every_subject_completes(self):
        timeline = measure(n_subjects=3, n_objects=4)
        assert len(timeline.subject_completion) == 3
        assert all(n == 4 for n in timeline.discovered_counts.values())

    def test_single_subject_matches_baseline_shape(self):
        timeline = measure(n_subjects=1, n_objects=4)
        assert 0.1 < timeline.makespan < 1.5

    def test_contention_slows_everyone(self):
        solo = measure(n_subjects=1, n_objects=4).mean_completion
        crowded = measure(n_subjects=6, n_objects=4).mean_completion
        assert crowded > solo

    def test_makespan_monotone_in_subjects(self):
        makespans = [measure(n, n_objects=3).makespan for n in (1, 3, 6)]
        assert makespans == sorted(makespans)

    def test_stagger_reduces_makespan_noise(self):
        """Staggered starts serialize the bursts: makespan grows, but each
        subject's own completion (relative to its start) is cleaner. We
        only assert both modes complete fully."""
        subjects, objects = build_floor(4, 3)
        burst = simulate_concurrent_discovery(subjects, objects, stagger_s=0.0)
        subjects2, objects2 = build_floor(4, 3)
        staggered = simulate_concurrent_discovery(
            subjects2, objects2, stagger_s=1.0
        )
        assert len(burst.subject_completion) == 4
        assert len(staggered.subject_completion) == 4

    def test_resumed_rediscovery_completes_and_is_faster(self):
        """Warm mode: every subject re-discovers every object over the
        air via RQUE/RRES, and the 2-message exchange beats the 4-way
        handshake's makespan."""
        subjects, objects = build_floor(3, 4)
        first = simulate_concurrent_discovery(subjects, objects, seed=3)
        subjects2, objects2 = build_floor(3, 4)
        again = simulate_concurrent_discovery(
            subjects2, objects2, seed=3, resumption=True
        )
        assert len(again.subject_completion) == 3
        assert all(n == 4 for n in again.discovered_counts.values())
        assert again.makespan < first.makespan

    def test_resumption_flag_without_tickets_degrades_to_full(self):
        """A pure Level 1 fleet yields no tickets; warm mode must still
        complete via the broadcast round."""
        from repro.backend import Backend

        backend = Backend()
        subject = backend.register_subject("warm-s", {"position": "staff"})
        thermo = backend.register_object(
            "warm-t", {"type": "thermometer"}, level=1,
            functions=("read_temperature",),
        )
        timeline = simulate_concurrent_discovery(
            [subject], [thermo], resumption=True
        )
        assert timeline.discovered_counts == {"warm-s": 1}

    def test_objects_keep_sessions_separate(self):
        """Every subject gets her own variant payload — no cross-session
        bleed when an object serves many subjects at once."""
        from repro.backend import Backend

        backend = Backend()
        a = backend.register_subject("con-a", {"position": "staff"})
        b = backend.register_subject("con-b", {"position": "manager"})
        obj = backend.register_object(
            "con-obj", {"type": "multimedia"}, level=2, functions=("play",),
            variants=[("position=='manager'", ("play", "admin")),
                      ("position=='staff'", ("play",))],
        )
        # run both subjects concurrently against the same engine instance
        timeline = simulate_concurrent_discovery([a, b], [obj])
        assert timeline.discovered_counts == {"con-a": 1, "con-b": 1}


class TestSharedDriver:
    """The multi-subject path is simulate_discovery's driver: faults,
    retries, rounds and the cached RES2 come with it."""

    def test_one_subject_equals_simulate_discovery(self):
        subjects, objects = build_floor(1, 6)
        alone = simulate_discovery(subjects[0], objects, seed=2)
        concurrent = simulate_concurrent_discovery(subjects, objects, seed=2)
        assert concurrent.makespan == alone.total_time == pytest.approx(0.44138)

    def test_burst_loss_recovers_every_subject(self):
        subjects, objects = build_floor(3, 6)
        burst = burst_loss_schedule(0.2, seed=3)
        # Force one re-send: partition one link from its first QUE2's
        # arrival to the RES2 that answered it.  Each link draws its own
        # fates, and a blocked frame draws none, so the re-sent QUE2 after
        # the window draws what that RES2 drew, and is delivered.
        link = (subjects[0].subject_id, objects[0].object_id)
        arrived: dict[type, float] = {}

        def probe(t, src, dst, message):
            if (src, dst) == link and isinstance(message, Que2):
                arrived.setdefault(Que2, t)
            elif (dst, src) == link and isinstance(message, Res2) and Que2 in arrived:
                arrived.setdefault(Res2, t)

        simulate_concurrent_discovery(
            subjects, objects, seed=3, retry=RECOVERY, max_rounds=RECOVERY_ROUNDS,
            faults=burst, on_delivery=probe,
        )
        schedule = FaultSchedule(
            burst.entries + (Fault(FaultKind.PARTITION, start_s=arrived[Que2],
                                   stop_s=arrived[Res2], links=(link,)),),
            seed=burst.seed,
        )
        que2s: Counter = Counter()

        def tap(_t, src, dst, message):
            if isinstance(message, Que2):
                que2s[(src, dst, message.to_bytes())] += 1

        timeline = simulate_concurrent_discovery(
            subjects, objects, seed=3, retry=RECOVERY, max_rounds=RECOVERY_ROUNDS,
            faults=schedule, on_delivery=tap,
        )
        assert timeline.discovered_counts == {s.subject_id: 6 for s in subjects}
        assert len(timeline.subject_completion) == 3
        # No duplication fault here: a QUE2 delivered twice was re-sent.
        assert max(que2s.values()) > 1

    def test_duplicated_que2_gets_the_cached_res2(self):
        subjects, objects = build_floor(2, 3)
        link = (subjects[0].subject_id, objects[0].object_id)
        schedule = FaultSchedule(
            (Fault(FaultKind.DUPLICATION, severity=1.0, links=(link,)),)
        )
        que2s: Counter = Counter()
        res2s: Counter = Counter()

        def tap(_t, src, dst, message):
            if (src, dst) == link and isinstance(message, Que2):
                que2s[message.to_bytes()] += 1
            if (dst, src) == link and isinstance(message, Res2):
                res2s[message.to_bytes()] += 1

        timeline = simulate_concurrent_discovery(
            subjects, objects, faults=schedule, on_delivery=tap
        )
        assert timeline.discovered_counts == {s.subject_id: 3 for s in subjects}
        assert list(que2s.values()) == [2]
        # Both QUE2 copies were answered (and each RES2 duplicated in
        # turn), all with the same bytes.
        assert list(res2s.values()) == [4]
