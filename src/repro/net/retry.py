"""Retransmission of unicast requests — one table for every sender.

A request addressed to one peer (the subject's QUE2 or RQUE, the
backend's update push) is re-sent *byte-identically* with exponential
backoff and seeded jitter until it settles, its retry budget runs out,
or ``give_up_s`` elapses (docs/robustness.md).  :class:`Retransmissions`
is that rule, sans-IO: a host reports what it sent and asks what is
due.  The simulator schedules one event per deadline; the live client
and update pusher (:mod:`repro.service.requester`) keep one loop timer.
Each host counts resends and give-ups in its own stats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class RetryPolicy:
    """Per-exchange retransmission knobs (docs/robustness.md).

    Once the subject has addressed a specific object (a unicast QUE2 or
    RQUE), losing the request or its response no longer costs a whole
    ``round_interval_s``: a timer re-sends the *same* frame with
    exponential backoff + jitter until the exchange completes, the retry
    budget runs out, or ``give_up_s`` elapses. A fresh QUE1 round in
    :func:`~repro.net.run.simulate_discovery` remains the outer fallback
    for objects that never answered QUE1 at all.
    """

    #: Retransmissions per exchange after the initial send.
    max_retries: int = 3
    #: Timer for the first retransmission (covers one round trip plus
    #: object compute under DEFAULT_WIFI).
    base_timeout_s: float = 0.35
    #: Multiplier applied per attempt (classic exponential backoff).
    backoff: float = 2.0
    #: Uniform jitter added on top: timeout *= 1 + U(0,1)*fraction.
    #: Desynchronizes retransmissions that would otherwise collide.
    jitter_fraction: float = 0.1
    #: Absolute per-exchange deadline; after this the object is left to
    #: the next round (or lost).
    give_up_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_timeout_s <= 0:
            raise ValueError("base_timeout_s must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def timeout_s(self, attempt: int, rng: random.Random) -> float:
        """Timer for retransmission number *attempt* (0-based)."""
        base = self.base_timeout_s * self.backoff**attempt
        return base * (1.0 + self.jitter_fraction * rng.random())

    def exhausted(self, attempt: int, elapsed_s: float) -> bool:
        """True once an exchange should give up instead of re-sending.

        *attempt* counts the retransmissions already made; *elapsed_s*
        is the time since the first send.  Either budget running out
        ends the exchange.
        """
        return attempt >= self.max_retries or elapsed_s >= self.give_up_s


@dataclass(slots=True)
class _InFlight:
    frame: object
    first_sent: float
    attempt: int = -1  # retransmissions made; the first send makes it 0
    deadline: float = 0.0


class Retransmissions:
    """One in-flight request per peer, under one :class:`RetryPolicy`.

    The jitter RNG is the table's own, so retries never perturb a link
    model's stream, and one seed gives a live and a simulated run the
    same jitter.  Every send and re-send draws exactly one value.
    """

    def __init__(self, policy: RetryPolicy, seed: int = 0) -> None:
        self.policy = policy
        self._rng = random.Random((seed & 0xFFFFFFFF) ^ 0x5EED5)
        #: peer -> its exchange, least recently sent first.
        self._inflight: dict[Hashable, _InFlight] = {}

    def sent(self, peer: Hashable, frame: object, now: float) -> float:
        """Record that *frame* went to *peer* at *now*; returns its deadline.

        Re-sending the frame in flight (the same object) counts one more
        attempt; any other frame starts a new exchange with *peer*.
        """
        entry = self._inflight.pop(peer, None)
        if entry is None or entry.frame is not frame:
            entry = _InFlight(frame, now)
        entry.attempt += 1
        entry.deadline = now + self.policy.timeout_s(entry.attempt, self._rng)
        self._inflight[peer] = entry
        return entry.deadline

    def settle(self, peer: Hashable) -> None:
        """*peer*'s exchange is over (answered, or abandoned by the host)."""
        self._inflight.pop(peer, None)

    def clear(self) -> None:
        """Forget every exchange (a fresh round supersedes them)."""
        self._inflight.clear()

    def next_deadline(self) -> float | None:
        """The earliest deadline in flight, or None when nothing is."""
        return min((e.deadline for e in self._inflight.values()), default=None)

    def due(self, now: float) -> tuple[list[tuple[Hashable, object]], list[Hashable]]:
        """Exchanges past their deadline, in the order last sent.

        Returns ``(resends, gave_up)``: the ``(peer, frame)`` pairs to
        send again (through :meth:`sent`), and the peers whose budget ran
        out; those leave the table, so each is reported exactly once.
        """
        resends: list[tuple[Hashable, object]] = []
        gave_up: list[Hashable] = []
        for peer, entry in list(self._inflight.items()):
            if entry.deadline > now:
                continue
            if self.policy.exhausted(entry.attempt, now - entry.first_sent):
                del self._inflight[peer]
                gave_up.append(peer)
            else:
                resends.append((peer, entry.frame))
        return resends, gave_up
