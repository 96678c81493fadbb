"""The async subject client: discovery over real sockets.

:class:`SubjectServiceClient` drives the sans-IO
:class:`~repro.protocol.subject.SubjectEngine` over one UDP socket.
Loopback has no broadcast domain, so "broadcast QUE1" is the round's
QUE1 frame unicast to every endpoint: byte-identical frames, identical
§IX-A accounting.  Every flight is one datagram (the largest, a QUE2 at
strength 256, is about 1.2 KB).

Recovery is the simulator's (docs/robustness.md): the same
:class:`~repro.protocol.tracker.SubjectTracker` keeps the exchanges, so
the client only carries frames and keeps time.  QUE1 is **never**
retransmitted: objects silence duplicate nonces, so a lost phase 1
waits for the next round's fresh QUE1.  QUE2 and RQUE are re-sent
byte-identically from the tracker's retry table (the object's cached-RES2
and decoy-RRES paths answer duplicates safely), and each abandoned
exchange counts **once** in :attr:`ClientStats.exchanges_given_up`.
One loop timer covers every deadline; each pass awaits one future.

Warm rediscovery tries RQUE→RRES for every endpoint it holds a ticket
for; any failure (lost RRES, decoy, rekeyed epoch) falls back to full
rounds, and as the ticket was popped on send (single-use), the fallback
never replays it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.backend.registration import SubjectCredentials
from repro.net.retry import Retransmissions, RetryPolicy
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import parse_message
from repro.protocol.subject import DiscoveredService, SubjectEngine
from repro.protocol.tracker import SubjectTracker
from repro.protocol.versions import Version
from repro.service.requester import Addr, Requester

#: Phase-1 wait for RES1s after a round's QUE1 (no retransmission —
#: see the module docstring); the simulator's analogue is the round
#: interval.
DEFAULT_PHASE1_TIMEOUT_S = 1.0
#: Full-discovery round budget (the simulator's ``max_rounds``).
DEFAULT_ROUNDS = 8


@dataclass
class ClientStats:
    """Counters for one client's lifetime."""

    rounds: int = 0
    frames_tx: int = 0
    frames_rx: int = 0
    retransmissions: int = 0
    #: Exchanges (not attempts) that exhausted retries or ``give_up_s``.
    exchanges_given_up: int = 0
    wire_errors: int = 0
    resumptions: int = 0
    resumption_fallbacks: int = 0


class SubjectServiceClient(Requester):
    """One subject device's async discovery SDK."""

    def __init__(
        self,
        creds: SubjectCredentials,
        *,
        version: Version = Version.V3_0,
        retry: RetryPolicy | None = None,
        seed: int = 0,
        phase1_timeout_s: float = DEFAULT_PHASE1_TIMEOUT_S,
        on_frame: Callable[[str, bytes, Addr], None] | None = None,
    ) -> None:
        """``on_frame(direction, raw, addr)`` taps every frame this
        client sends (``"tx"``) or consumes (``"rx"``) — the hook the
        live distinguisher experiments capture wire traffic with."""
        self.tracker = SubjectTracker(
            SubjectEngine(creds, version),
            Retransmissions(retry if retry is not None else RetryPolicy(), seed),
        )
        super().__init__(self.tracker.table)
        self.engine = self.tracker.engine
        #: endpoint -> object id discovered there (feeds warm resumption).
        self.object_at: dict[Addr, str] = self.tracker.object_at
        self.phase1_timeout_s = phase1_timeout_s
        self.on_frame = on_frame
        self.stats = ClientStats()
        #: What the current pass has found, and the future it awaits.
        self._found: dict[Addr, DiscoveredService] = {}
        self._done: asyncio.Future | None = None

    # -- discovery ------------------------------------------------------------------

    async def discover(
        self,
        endpoints: Iterable[Addr],
        *,
        group_id: str | None = None,
        rounds: int = DEFAULT_ROUNDS,
        allow_resume: bool = True,
    ) -> dict[Addr, DiscoveredService]:
        """Discover every endpoint's service, warm paths first.

        Runs up to *rounds* full-handshake rounds for whatever the warm
        (resumption) pass did not settle; endpoints that stay silent
        through every round are simply absent from the result —
        indistinguishable, by design, from endpoints that declined.
        """
        assert self._loop is not None, "client not started"
        found: dict[Addr, DiscoveredService] = {}
        pending = list(dict.fromkeys(endpoints))

        if allow_resume:
            warm = [a for a in pending if self.engine.has_ticket(self.object_at.get(a, ""))]
            if warm:
                found = await self._resume_pass(warm)
                self.stats.resumption_fallbacks += len(warm) - len(found)
                pending = [a for a in pending if a not in found]

        for _ in range(rounds):
            if not pending:
                break
            self.stats.rounds += 1
            self.engine.tick(self._loop.time())
            raw = self.tracker.start_round(pending, group_id).to_bytes()
            for addr in pending:
                self._send(addr, raw)
            # Phase 1 is never retransmitted: the next round's QUE1 is.
            self._deadline = self._loop.time() + self.phase1_timeout_s
            found.update(await self._pass())
            pending = [a for a in pending if a not in found]
        return found

    # -- warm path (RQUE -> RRES) ---------------------------------------------------

    async def resume(self, addr: Addr) -> DiscoveredService | None:
        """One resumption attempt toward *addr*; None = fall back cold.

        The ticket is popped on send (single-use), so whatever goes
        wrong — loss, a decoy RRES, a rekeyed epoch — the caller's full
        handshake fallback never replays it.
        """
        assert self._loop is not None, "client not started"
        return (await self._resume_pass([addr])).get(addr)

    async def _resume_pass(self, addrs: list[Addr]) -> dict[Addr, DiscoveredService]:
        self.engine.tick(self._loop.time())
        for addr, rque in self.tracker.start_resumption(addrs):
            self.stats.resumptions += 1
            self._request(addr, rque.to_bytes())
        return await self._pass()

    # -- the open exchanges ---------------------------------------------------------

    async def _pass(self) -> dict[Addr, DiscoveredService]:
        """Await every open exchange; returns the services they found."""
        assert self._done is None, "one discovery pass at a time"
        self._found = {}
        self._done = self._loop.create_future()
        try:
            self._settle()
            self._rearm()
            await self._done
            return self._found
        finally:
            self._done = self._deadline = None
            self.tracker.close()

    def datagram_received(self, data: bytes, addr) -> None:
        addr = (addr[0], addr[1])
        if not self.tracker.awaits(addr):
            return  # a reply that arrived after its exchange closed
        if self.on_frame is not None:
            self.on_frame("rx", data, addr)
        message = self._parse(data)
        if message is not None:
            que2 = self.tracker.receive(message, addr)
            if que2 is not None:
                self._request(addr, que2.to_bytes())
        self._settle()

    def error_received(self, exc: Exception) -> None:
        self.stats.wire_errors += 1

    def _settle(self) -> None:
        """Take what settled; end the pass once nothing is left to await."""
        for addr, service in self.tracker.collect():
            if service is not None:
                self._found[addr] = service
        done = self._done
        if done is not None and not done.done() and not self.tracker.waiting(
            phase_one=self._deadline is not None
        ):
            done.set_result(None)

    def _fire(self, when: float) -> None:
        super()._fire(when)
        self._settle()

    def _retransmit(self, addr: Addr, raw: bytes) -> None:
        self.stats.retransmissions += 1
        self._request(addr, raw)

    def _give_up(self, addr: Addr) -> None:
        self.stats.exchanges_given_up += 1

    # -- plumbing -------------------------------------------------------------------

    def _send(self, addr: Addr, raw: bytes) -> None:
        self.stats.frames_tx += 1
        if self.on_frame is not None:
            self.on_frame("tx", raw, addr)
        super()._send(addr, raw)

    def _parse(self, frame: bytes):
        self.stats.frames_rx += 1
        try:
            return parse_message(frame)
        except MessageFormatError as exc:
            # Corrupted frame: a typed error record, never a crash.
            self.stats.wire_errors += 1
            self.engine.record_wire_error(exc)
            return None
