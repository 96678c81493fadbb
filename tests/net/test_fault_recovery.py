"""The recovery stack end to end: retries, rounds, and chaos schedules."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.common import make_level_fleet
from repro.net.faults import Fault, FaultKind, FaultSchedule, burst_loss_schedule
from repro.net.run import RetryPolicy, simulate_discovery
from repro.net.topology import SUBJECT
from repro.protocol.messages import Que2, Res2


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="base_timeout_s"):
            RetryPolicy(base_timeout_s=0.0)

    def test_backoff_grows_exponentially(self):
        import random

        policy = RetryPolicy(base_timeout_s=1.0, backoff=2.0, jitter_fraction=0.0)
        rng = random.Random(0)
        assert policy.timeout_s(0, rng) == 1.0
        assert policy.timeout_s(1, rng) == 2.0
        assert policy.timeout_s(2, rng) == 4.0

    def test_jitter_bounded(self):
        import random

        policy = RetryPolicy(base_timeout_s=1.0, jitter_fraction=0.2)
        rng = random.Random(1)
        draws = [policy.timeout_s(0, rng) for _ in range(50)]
        assert all(1.0 <= d <= 1.2 for d in draws)


class TestRetransmissionRecovery:
    def test_retries_recover_within_single_round(self):
        """A partition on one object's link across its phase 2 drops its
        RES2: the no-retry run loses that exchange, and the retry layer
        recovers it within the round by re-sending the QUE2."""
        subject_creds, object_creds, _ = make_level_fleet(10, level=2)
        victim = object_creds[3].object_id
        # Phase 2 on the victim's link in a clean run: its QUE2 arrives
        # at arrived[Que2], its RES2 at arrived[Res2].  A partition
        # starting at the first time drops only the RES2, sent after it;
        # the first QUE2 re-send is due after the RES2 would have been
        # processed (a clean run re-sends nothing), so it passes.
        arrived: dict[type, float] = {}

        def tap(t, src, dst, message):
            if {src, dst} == {SUBJECT, victim}:
                arrived.setdefault(type(message), t)

        simulate_discovery(subject_creds, object_creds, on_delivery=tap)
        schedule = FaultSchedule((
            Fault(FaultKind.PARTITION, start_s=arrived[Que2],
                  stop_s=arrived[Res2], links=((SUBJECT, victim),)),
        ))
        bare = simulate_discovery(
            subject_creds, object_creds, faults=schedule, max_rounds=1
        )
        retried = simulate_discovery(
            subject_creds, object_creds, faults=schedule,
            retry=RetryPolicy(), max_rounds=1,
        )
        assert set(bare.completion) == {c.object_id for c in object_creds} - {victim}
        assert len(retried.completion) == len(object_creds)
        assert retried.retransmissions == 1

    def test_retry_count_bounded(self):
        subject_creds, object_creds, _ = make_level_fleet(6, level=2)
        policy = RetryPolicy(max_retries=2)
        timeline = simulate_discovery(
            subject_creds, object_creds,
            faults=burst_loss_schedule(0.4, seed=1),
            retry=policy, max_rounds=1, seed=1, deadline_s=20.0,
        )
        # per exchange at most max_retries re-sends; rounds can re-arm,
        # but with one round the global bound is objects x max_retries.
        assert timeline.retransmissions <= len(object_creds) * policy.max_retries

    def test_no_retransmissions_on_clean_network(self):
        subject_creds, object_creds, _ = make_level_fleet(6, level=2)
        timeline = simulate_discovery(
            subject_creds, object_creds, retry=RetryPolicy(), seed=0
        )
        assert len(timeline.completion) == len(object_creds)
        assert timeline.retransmissions == 0

    def test_identical_schedule_identical_timeline(self):
        """The determinism acceptance criterion: same seed + same
        FaultSchedule reproduce the exact timeline, retries included."""
        subject_creds, object_creds, _ = make_level_fleet(8, level=2)
        schedule = burst_loss_schedule(0.25, seed=6)

        def once():
            timeline = simulate_discovery(
                subject_creds, object_creds, faults=schedule,
                retry=RetryPolicy(), max_rounds=4, seed=6,
            )
            return (
                timeline.completion,
                timeline.retransmissions,
                timeline.messages_lost,
                timeline.total_time,
            )

        assert once() == once()

    def test_faulty_run_does_not_perturb_faultless_rng(self):
        """Installing a fault layer must not change the link model's
        draws: a fault-free schedule reproduces the no-faults timeline."""
        subject_creds, object_creds, _ = make_level_fleet(6, level=2)
        bare = simulate_discovery(subject_creds, object_creds, seed=3)
        shadowed = simulate_discovery(
            subject_creds, object_creds, seed=3,
            faults=FaultSchedule(()),  # installed, but nothing scheduled
        )
        assert bare.completion == shadowed.completion


#: Below these severities the recovery stack must always win (the
#: Hypothesis contract): modest bursty loss, duplication, reordering,
#: delay spikes in any combination.
_fault_entry = st.one_of(
    st.builds(
        lambda sev: burst_loss_schedule(sev).entries[0],
        st.floats(min_value=0.01, max_value=0.20),
    ),
    st.builds(
        lambda sev: Fault(FaultKind.DUPLICATION, severity=sev),
        st.floats(min_value=0.0, max_value=0.4),
    ),
    st.builds(
        lambda sev, d: Fault(FaultKind.REORDER, severity=sev, extra_delay_s=d),
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.3),
    ),
    st.builds(
        lambda d: Fault(FaultKind.DELAY_SPIKE, extra_delay_s=d),
        st.floats(min_value=0.0, max_value=0.3),
    ),
)

_FLEET = None


def _fleet():
    global _FLEET
    if _FLEET is None:
        _FLEET = make_level_fleet(4, level=2)
    return _FLEET


class TestScheduleProperty:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        entries=st.lists(
            _fault_entry, min_size=1, max_size=3,
            unique_by=lambda fault: fault.kind,  # the bound is per kind:
            # stacking e.g. two burst-loss entries multiplies loss past it
        ),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_bounded_schedules_always_complete(self, entries, seed):
        """Any schedule under the severity bound: retry-enabled discovery
        finds every object before the deadline, deterministically."""
        subject_creds, object_creds, _ = _fleet()
        # round_interval_s must exceed the worst-case faulty RTT (~1.3s
        # under a 0.3s delay spike): a re-broadcast discards in-flight
        # exchanges, so rounds faster than the RTT destroy the very
        # handshakes they back up (docs/robustness.md, "sizing the
        # outer loop").
        timeline = simulate_discovery(
            subject_creds, object_creds,
            faults=FaultSchedule(tuple(entries), seed=seed),
            retry=RetryPolicy(), max_rounds=9, round_interval_s=3.0,
            deadline_s=30.0, seed=seed,
        )
        assert len(timeline.completion) == len(object_creds)
        assert timeline.total_time <= 30.0
