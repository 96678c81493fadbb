"""The socket side shared by the live client and the update pusher."""

from __future__ import annotations

import asyncio
import math

from repro.net.retry import Retransmissions

Addr = tuple[str, int]


class Requester(asyncio.DatagramProtocol):
    """A UDP socket (its own protocol) whose requests are re-sent until answered.

    It keeps the lifecycle and one loop timer, armed at the earliest of
    its :class:`~repro.net.retry.Retransmissions` table's deadlines and
    the host's own ``_deadline``.  A subclass handles
    ``datagram_received`` and settles what is answered; the timer calls
    its ``_retransmit`` and ``_give_up`` hooks.
    """

    def __init__(self, table: Retransmissions) -> None:
        self.table = table
        #: A deadline of the host's own (the client's phase 1); the timer
        #: clears it once it passes.
        self._deadline: float | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._transport: asyncio.DatagramTransport | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._transport, _ = await self._loop.create_datagram_endpoint(
            lambda: self, local_addr=("127.0.0.1", 0)
        )
        return self

    async def close(self) -> None:
        """Close the socket; every exchange still open ends unanswered."""
        if self._timer is not None:
            self._timer.cancel()
        # Past every deadline: each request in flight gives up.
        self._fire(math.inf)
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _send(self, addr: Addr, raw: bytes) -> None:
        assert self._transport is not None, "not started"
        self._transport.sendto(raw, addr)

    def _request(self, addr: Addr, raw: bytes) -> None:
        """Send *raw* to *addr* and keep re-sending it until settled."""
        self._send(addr, raw)
        self.table.sent(addr, raw, self._loop.time())
        self._rearm()

    def _rearm(self) -> None:
        deadlines = (self.table.next_deadline(), self._deadline)
        when = min((d for d in deadlines if d is not None), default=None)
        if self._timer is not None:
            if when is not None and self._timer.when() <= when:
                return  # fires early at worst, then re-arms
            self._timer.cancel()
        self._timer = None if when is None else self._loop.call_at(when, self._fire, when)

    def _fire(self, when: float) -> None:
        self._timer = None
        # call_at may run a callback up to one clock tick early.
        now = when if self._loop is None else max(self._loop.time(), when)
        resends, gave_up = self.table.due(now)
        for addr, raw in resends:
            self._retransmit(addr, raw)
        for addr in gave_up:
            self._give_up(addr)
        if self._deadline is not None and now >= self._deadline:
            self._deadline = None
        self._rearm()
