"""Retry-layer accounting: give-up counted per exchange, seeded jitter.

Regression tests for two subtle retry-layer bugs:

* an abandoned exchange used to be counted once per *backoff attempt*
  instead of once per exchange, inflating the §IX failure accounting;
* jitter must come from the retry layer's own injected RNG (seeded
  ``(seed & 0xFFFFFFFF) ^ 0x5EED5``) so a chaos run replays exactly
  from its seed — and so the live client can reproduce the same draws.
"""

import random

from repro.experiments.common import make_level_fleet
from repro.net.faults import Fault, FaultKind, FaultSchedule
from repro.net.run import RetryPolicy, simulate_discovery
from repro.protocol.messages import Res1, Res2


def _clean_delivery_times(subject, objects, seed):
    """When RES1 and RES2 reach the subject on an undisturbed run."""
    times = {}

    def on_delivery(t, _src, dst, message):
        if isinstance(message, Res1) and Res1 not in times:
            times[Res1] = t
        elif isinstance(message, Res2) and Res2 not in times:
            times[Res2] = t

    simulate_discovery(subject, objects, seed=seed, on_delivery=on_delivery)
    assert Res1 in times and Res2 in times
    return times[Res1], times[Res2]


class TestGiveUpAccounting:
    def test_abandoned_exchange_counts_once(self):
        """Partition the wire mid-exchange: 1 give-up, not 1 per timer.

        The partition opens between RES1 and RES2 delivery (timed off a
        clean instrumented run), so the subject holds a half-open QUE2
        exchange whose retries can never be answered.  Every retry fires
        — and the abandoned exchange still counts exactly once.
        """
        retry = RetryPolicy(max_retries=3, base_timeout_s=0.3,
                            backoff=2.0, give_up_s=8.0)
        subject, objects, _ = make_level_fleet(1, level=2)
        t_res1, t_res2 = _clean_delivery_times(subject, objects, seed=11)
        midpoint = (t_res1 + t_res2) / 2.0
        schedule = FaultSchedule(
            (Fault(FaultKind.PARTITION, start_s=midpoint),)
        )
        timeline = simulate_discovery(
            subject, objects, faults=schedule, retry=retry,
            max_rounds=1, deadline_s=30.0, seed=11,
        )
        assert timeline.completion == {}
        assert timeline.retransmissions == retry.max_retries
        assert timeline.exchanges_given_up == 1

    def test_every_round_gives_up_once(self):
        """Multi-round: each round's abandoned exchange counts once."""
        retry = RetryPolicy(max_retries=2, base_timeout_s=0.2,
                            backoff=2.0, give_up_s=2.0)
        subject, objects, _ = make_level_fleet(1, level=2)
        t_res1, t_res2 = _clean_delivery_times(subject, objects, seed=13)
        rounds = 3
        schedule = FaultSchedule(
            (Fault(FaultKind.PARTITION, start_s=(t_res1 + t_res2) / 2.0),)
        )
        timeline = simulate_discovery(
            subject, objects, faults=schedule, retry=retry,
            max_rounds=rounds, round_interval_s=4.0,
            deadline_s=30.0, seed=13,
        )
        # Rounds after the first never get a RES1 through the partition,
        # so only round 1 arms a QUE2 exchange — and it is the only
        # give-up, no matter how many timers fired inside it.
        assert timeline.exchanges_given_up == 1
        assert timeline.retransmissions == retry.max_retries


class TestSeededJitter:
    def test_timeout_draws_replay_from_seed(self):
        policy = RetryPolicy(jitter_fraction=0.25)
        a = random.Random((99 & 0xFFFFFFFF) ^ 0x5EED5)
        b = random.Random((99 & 0xFFFFFFFF) ^ 0x5EED5)
        assert [policy.timeout_s(i, a) for i in range(5)] == [
            policy.timeout_s(i, b) for i in range(5)
        ]

    def test_jitter_never_shrinks_backoff(self):
        policy = RetryPolicy(base_timeout_s=0.5, backoff=2.0,
                             jitter_fraction=0.5)
        rng = random.Random(1)
        for attempt in range(4):
            nominal = 0.5 * 2.0 ** attempt
            for _ in range(50):
                drawn = policy.timeout_s(attempt, rng)
                assert nominal <= drawn <= nominal * 1.5

    def test_simulated_chaos_run_is_seed_reproducible(self):
        retry = RetryPolicy(max_retries=3, base_timeout_s=0.3)
        schedule = FaultSchedule(
            (Fault(FaultKind.PARTITION, start_s=0.05),)
        )

        def run():
            subject, objects, _ = make_level_fleet(2, level=2)
            return simulate_discovery(
                subject, objects, faults=schedule, retry=retry,
                max_rounds=2, deadline_s=20.0, seed=21,
            )

        one, two = run(), run()
        assert one.retransmissions == two.retransmissions
        assert one.exchanges_given_up == two.exchanges_given_up
        assert one.messages_lost == two.messages_lost


class TestExhausted:
    """The one give-up rule the simulator, client and pusher share."""

    POLICY = RetryPolicy(max_retries=3, give_up_s=10.0)

    def test_fresh_exchange_may_retry(self):
        assert not self.POLICY.exhausted(0, 0.0)

    def test_retry_budget_boundary(self):
        assert not self.POLICY.exhausted(2, 9.0)
        assert self.POLICY.exhausted(3, 0.0)

    def test_deadline_boundary_is_inclusive(self):
        assert not self.POLICY.exhausted(0, 9.999)
        assert self.POLICY.exhausted(0, 10.0)

    def test_zero_retries_gives_up_after_the_first_send(self):
        assert RetryPolicy(max_retries=0).exhausted(0, 0.0)
