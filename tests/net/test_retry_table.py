"""The shared retransmission table (repro.net.retry.Retransmissions)."""

import pytest

from repro.net.retry import Retransmissions, RetryPolicy

#: No jitter, so every deadline is exact: base * backoff**attempt.
EXACT = RetryPolicy(max_retries=3, base_timeout_s=1.0, backoff=2.0,
                    jitter_fraction=0.0, give_up_s=100.0)


def resend_all(table, now):
    resends, gave_up = table.due(now)
    for peer, frame in resends:
        table.sent(peer, frame, now)
    return resends, gave_up


class TestAttempts:
    def test_same_frame_keeps_its_attempt_count(self):
        table = Retransmissions(EXACT)
        frame = b"que2"
        assert table.sent("a", frame, 0.0) == 1.0
        assert table.sent("a", frame, 1.0) == 3.0  # attempt 1: 2 s
        assert table.sent("a", frame, 3.0) == 7.0  # attempt 2: 4 s

    def test_identity_not_equality_names_the_frame(self):
        table = Retransmissions(EXACT)
        table.sent("a", bytearray(b"que2"), 0.0)
        # An equal but distinct frame is a new exchange: attempt 0 again.
        assert table.sent("a", bytearray(b"que2"), 1.0) == 2.0

    def test_new_frame_restarts_the_count(self):
        table = Retransmissions(EXACT)
        old = b"old-que2"
        table.sent("a", old, 0.0)
        table.sent("a", old, 1.0)
        assert table.sent("a", b"new-que2", 5.0) == 6.0

    def test_due_reports_resends_in_send_order(self):
        table = Retransmissions(EXACT)
        table.sent("b", b"to-b", 0.0)
        table.sent("a", b"to-a", 0.0)
        table.sent("c", b"to-c", 0.5)
        assert table.next_deadline() == 1.0
        assert table.due(0.99) == ([], [])
        assert table.due(1.0) == ([("b", b"to-b"), ("a", b"to-a")], [])
        assert table.due(1.5) == (
            [("b", b"to-b"), ("a", b"to-a"), ("c", b"to-c")], []
        )


class TestSettling:
    def test_settle_stops_resends(self):
        table = Retransmissions(EXACT)
        table.sent("a", b"que2", 0.0)
        table.sent("b", b"que2", 0.0)
        table.settle("a")
        table.settle("nobody")  # unknown peers are ignored
        assert table.due(10.0) == ([("b", b"que2")], [])

    def test_clear_stops_every_resend(self):
        table = Retransmissions(EXACT)
        table.sent("a", b"que2", 0.0)
        table.sent("b", b"que2", 0.0)
        table.clear()
        assert table.next_deadline() is None
        assert table.due(10.0) == ([], [])


class TestGiveUp:
    def test_give_up_reported_once(self):
        table = Retransmissions(EXACT)
        table.sent("a", b"que2", 0.0)
        now, gave_up = 0.0, []
        for _ in range(EXACT.max_retries + 1):
            now = table.next_deadline()
            resends, out = resend_all(table, now)
            gave_up += out
        assert gave_up == ["a"]
        assert now == 15.0  # 1 + 2 + 4 + 8
        assert table.next_deadline() is None
        assert table.due(1e9) == ([], [])

    def test_zero_retries_gives_up_at_the_first_deadline(self):
        table = Retransmissions(RetryPolicy(max_retries=0, jitter_fraction=0.0))
        table.sent("a", b"que2", 0.0)
        assert table.due(table.next_deadline()) == ([], ["a"])

    @pytest.mark.parametrize("elapsed, gives_up", [(2.999, False), (3.0, True)])
    def test_give_up_s_boundary_is_inclusive(self, elapsed, gives_up):
        policy = RetryPolicy(max_retries=10, base_timeout_s=0.5, backoff=1.0,
                             jitter_fraction=0.0, give_up_s=3.0)
        table = Retransmissions(policy)
        table.sent("a", b"que2", 0.0)
        resends, gave_up = table.due(elapsed)
        assert gave_up == (["a"] if gives_up else [])
        assert resends == ([] if gives_up else [("a", b"que2")])


class TestSeededJitter:
    SENDS = [("a", 0.0), ("b", 0.1), ("a", 0.4), ("c", 0.4), ("b", 0.9)]

    def deadlines(self, seed):
        table = Retransmissions(RetryPolicy(), seed)
        frames = {peer: object() for peer in "abc"}
        return [table.sent(p, frames[p], t) for p, t in self.SENDS]

    def test_one_seed_one_send_sequence_one_schedule(self):
        assert self.deadlines(1234) == self.deadlines(1234)
        assert self.deadlines(1234) != self.deadlines(1235)

    def test_one_draw_per_send(self):
        """Settling, clearing and asking what is due draw nothing."""
        plain = self.deadlines(7)
        table = Retransmissions(RetryPolicy(), 7)
        frames = {peer: object() for peer in "abc"}
        busy = []
        for peer, t in self.SENDS:
            table.due(t)
            table.settle("nobody")
            table.next_deadline()
            busy.append(table.sent(peer, frames[peer], t))
        assert busy == plain

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_timeout_s=1.0, jitter_fraction=0.25)
        table = Retransmissions(policy, 3)
        for attempt in range(4):
            deadline = table.sent("a", b"que2", 0.0)
            base = policy.backoff**attempt
            assert base <= deadline <= base * 1.25
