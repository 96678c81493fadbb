"""Backend → daemon update pushes over the live transport.

ROADMAP item 2's remainder: revocations, ECIES rekeys, ``TYPE_BUNDLE``
bundles and ``TYPE_LKH_REKEY`` broadcast streams
(:mod:`repro.backend.updatewire`) already have a signed wire format;
this module gives them delivery semantics on a lossy socket path.

The one constraint that shapes everything here is the receiver's
strictly-increasing sequence discipline: once a daemon has applied
sequence *n*, anything ≤ *n* is rejected as stale.  A pusher that blasts
a burst and retries stragglers would therefore permanently strand an
earlier update behind a later one the network happened to deliver
first.  So :class:`UpdateStreamPusher` is **stop-and-wait**: one push in
flight per recipient, byte-identical retransmission with the standard
:class:`~repro.net.run.RetryPolicy` backoff, advance only on the
daemon's ACK (:func:`~repro.service.framing.ack_frame`).  Two failure
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
import random
from collections import Counter
from typing import Callable, Sequence

from repro.backend.updatewire import UpdateMessage
from repro.net.faults import FaultSchedule
from repro.net.run import RetryPolicy
from repro.service.framing import MAX_DATAGRAM, FramingError, parse_ack

Addr = tuple[str, int]

#: Updates cross an admin link, not a constrained radio: retry harder
#: and wait longer than the discovery-path defaults before giving up.
DEFAULT_UPDATE_RETRY = RetryPolicy(
    max_retries=8, base_timeout_s=0.05, backoff=1.7, give_up_s=20.0
)

#: Poll interval while a BACKEND_OUTAGE window is open.
_OUTAGE_POLL_S = 0.02


class UpdateStreamPusher:
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
        self.retry = retry
        self.schedule = schedule
        self._now_fn = now_fn
        self._jitter_rng = random.Random((seed & 0xFFFFFFFF) ^ 0x5EED5)
        self.stats: Counter = Counter()
        self._queues: dict[Addr, asyncio.Queue] = {}
        self._transport: asyncio.DatagramTransport | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> "UpdateStreamPusher":
        self._loop = asyncio.get_running_loop()
        self._transport, _ = await self._loop.create_datagram_endpoint(
            lambda: _AckMailbox(self), local_addr=("127.0.0.1", 0)
        )
        return self

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def __aenter__(self) -> "UpdateStreamPusher":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

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
        queue: asyncio.Queue = asyncio.Queue()
        self._queues[addr] = queue
        try:
            return await self._send_until_acked(addr, raw, message.sequence, queue)
        finally:
            self._queues.pop(addr, None)

    async def _send_until_acked(
        self, addr: Addr, raw: bytes, sequence: int, queue: asyncio.Queue
    ) -> bool:
        assert self._loop is not None and self._transport is not None
        first_sent = self._loop.time()
        attempt = 0
        self._transport.sendto(raw, addr)
        self.stats["pushes_sent"] += 1
        while True:
            deadline = self._loop.time() + self.retry.timeout_s(
                attempt, self._jitter_rng
            )
            while True:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    frame = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                try:
                    acked = parse_ack(frame)
                except FramingError:
                    self.stats["acks_malformed"] += 1
                    continue
                if acked == sequence:
                    self.stats["pushes_acked"] += 1
                    return True
                # An ACK for an older sequence (late duplicate): stale.
                self.stats["acks_stale"] += 1
            if self.retry.exhausted(attempt, self._loop.time() - first_sent):
                self.stats["pushes_given_up"] += 1
                return False
            attempt += 1
            self.stats["pushes_retransmitted"] += 1
            self._transport.sendto(raw, addr)

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

    def _deliver(self, data: bytes, addr: Addr) -> None:
        queue = self._queues.get(addr)
        if queue is None:
            self.stats["acks_unrouted"] += 1
            return
        queue.put_nowait(data)


class _AckMailbox(asyncio.DatagramProtocol):
    def __init__(self, pusher: UpdateStreamPusher) -> None:
        self.pusher = pusher

    def datagram_received(self, data: bytes, addr) -> None:
        self.pusher._deliver(data, (addr[0], addr[1]))

    def error_received(self, exc: Exception) -> None:
        self.pusher.stats["socket_errors"] += 1
