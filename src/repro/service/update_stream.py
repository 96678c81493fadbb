"""Backend → daemon update pushes over the live transport.

Revocations, ECIES rekeys, ``TYPE_BUNDLE`` bundles and
``TYPE_LKH_REKEY`` broadcast streams (:mod:`repro.backend.updatewire`)
have a signed wire format; this module delivers them over lossy UDP.

The one constraint that shapes everything here is the receiver's
strictly-increasing sequence discipline: once a daemon has applied
sequence *n*, anything ≤ *n* is rejected as stale.  A pusher that blasts
a burst and retries stragglers would therefore permanently strand an
earlier update behind a later one the network happened to deliver
first.  So :class:`UpdateStreamPusher` is **stop-and-wait**: one push in
flight per recipient, re-sent byte-identically by the same
:class:`~repro.net.retry.Retransmissions` table the discovery client
uses, and one future per push, resolved by the daemon's ACK
(:func:`~repro.service.framing.ack_frame`) or by a give-up.  Two failure
modes fall out for free:

* a lost *push* is re-sent until the daemon ACKs;
* a lost *ACK* causes a duplicate push, which the daemon answers with a
  fresh ACK for the already-applied sequence (it can distinguish
  "already applied" from "never seen" precisely because pushes arrive
  in order) — the pusher advances, nothing is applied twice.

A ``BACKEND_OUTAGE`` window in the harness schedule models the backend
itself being down: :meth:`push` defers (buffering in publish order, the
live analogue of :class:`~repro.net.faults.UpdateOutageBuffer`) until
the schedule says the plane is healthy again.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Callable, Sequence

from repro.backend.updatewire import UpdateMessage
from repro.net.faults import FaultSchedule
from repro.net.retry import Retransmissions, RetryPolicy
from repro.service.framing import MAX_DATAGRAM, FramingError, parse_ack
from repro.service.requester import Addr, Requester

#: Updates cross an admin link, not a constrained radio: retry harder
#: and wait longer than the discovery-path defaults before giving up.
DEFAULT_UPDATE_RETRY = RetryPolicy(
    max_retries=8, base_timeout_s=0.05, backoff=1.7, give_up_s=20.0
)

#: Poll interval while a BACKEND_OUTAGE window is open.
_OUTAGE_POLL_S = 0.02


class UpdateStreamPusher(Requester):
    """The backend's side of the live update plane (stop-and-wait)."""

    def __init__(
        self,
        *,
        retry: RetryPolicy = DEFAULT_UPDATE_RETRY,
        seed: int = 0,
        schedule: FaultSchedule | None = None,
        now_fn: Callable[[], float] | None = None,
    ) -> None:
        """``schedule`` + ``now_fn`` attach the harness's outage windows
        (:meth:`ServiceChaosHarness._now <repro.service.chaos.ServiceChaosHarness>`);
        without them the backend is always up."""
        super().__init__(Retransmissions(retry, seed))
        #: recipient -> (sequence, future) of its one push in flight.
        self._awaiting: dict[Addr, tuple[int, asyncio.Future]] = {}
        self.schedule = schedule
        self._now_fn = now_fn
        self.stats: Counter = Counter()

    # -- pushing --------------------------------------------------------------------

    def _backend_up(self) -> bool:
        if self.schedule is None:
            return True
        now = 0.0 if self._now_fn is None else self._now_fn()
        return self.schedule.backend_up(now)

    async def push(self, addr: Addr, message: UpdateMessage) -> bool:
        """Deliver one push; True once the daemon ACKed its sequence."""
        assert self._loop is not None, "pusher not started"
        while not self._backend_up():
            # The plane is down: defer, exactly as UpdateOutageBuffer
            # queues in the simulator.  Publish order is preserved
            # because callers await each push before the next.
            self.stats["pushes_deferred"] += 1
            await asyncio.sleep(_OUTAGE_POLL_S)
        raw = message.to_bytes()
        if len(raw) > MAX_DATAGRAM:
            # A bundle grows with the churn burst it carries; one that
            # cannot ride a single datagram is refused, never split.
            self.stats["pushes_oversized"] += 1
            return False
        assert addr not in self._awaiting, "one push in flight per recipient"
        entry = self._awaiting[addr] = (message.sequence, self._loop.create_future())
        self._request(addr, raw)
        self.stats["pushes_sent"] += 1
        try:
            return await entry[1]
        finally:
            if self._awaiting.get(addr) is entry:  # cancelled in flight
                del self._awaiting[addr]
                self.table.settle(addr)

    async def push_all(self, addr: Addr, messages: Sequence[UpdateMessage]) -> int:
        """Deliver a stream in publish order; returns how many ACKed.

        Aborts at the first failure: pushing past a gap would let the
        daemon's stale-sequence re-ACK misreport the skipped update as
        applied (the in-order invariant is what makes re-ACKs sound).
        """
        delivered = 0
        for message in messages:
            if not await self.push(addr, message):
                break
            delivered += 1
        return delivered

    def datagram_received(self, data: bytes, addr) -> None:
        addr = (addr[0], addr[1])
        entry = self._awaiting.get(addr)
        if entry is None:
            self.stats["acks_unrouted"] += 1
            return
        try:
            acked = parse_ack(data)
        except FramingError:
            self.stats["acks_malformed"] += 1
            return
        if acked != entry[0]:
            # An ACK for an older sequence (late duplicate): stale.
            self.stats["acks_stale"] += 1
            return
        self.stats["pushes_acked"] += 1
        self._finish(addr, True)

    def error_received(self, exc: Exception) -> None:
        self.stats["socket_errors"] += 1

    def _finish(self, addr: Addr, acked: bool) -> None:
        self.table.settle(addr)
        self._awaiting.pop(addr)[1].set_result(acked)

    def _retransmit(self, addr: Addr, raw: bytes) -> None:
        self.stats["pushes_retransmitted"] += 1
        self._request(addr, raw)

    def _give_up(self, addr: Addr) -> None:
        self.stats["pushes_given_up"] += 1
        self._finish(addr, False)
