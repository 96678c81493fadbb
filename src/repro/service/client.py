"""The async subject client: discovery over real sockets.

:class:`SubjectServiceClient` drives the sans-IO
:class:`~repro.protocol.subject.SubjectEngine` over a UDP socket against
a directory of daemon endpoints — loopback has no broadcast domain, so
"broadcast QUE1" becomes "unicast the round's QUE1 frame to every
endpoint", which carries byte-identical frames and therefore identical
§IX-A accounting.

Recovery semantics are deliberately the simulator's
(:class:`~repro.net.run.RetryPolicy`, docs/robustness.md):

* QUE1 is **never** retransmitted — the object silences duplicate
  nonces, so a lost phase 1 is recovered by the next round's fresh QUE1;
* QUE2 and RQUE arm per-exchange retransmission timers with exponential
  backoff + jitter, re-sending the *byte-identical* frame so the
  object's idempotent cached-RES2 path (and the decoy-RRES path) answer
  duplicates safely;
* jitter draws from an RNG seeded exactly as the simulator seeds its
  retry RNG (``(seed & 0xFFFFFFFF) ^ 0x5EED5``), so a live chaos run is
  reproducible from its seed;
* an exchange that exhausts its retries or its ``give_up_s`` deadline
  is counted **once** in :attr:`ClientStats.exchanges_given_up` and left
  to the next round — mirroring the fixed simulator accounting.

Every flight is one datagram: the largest frame the engines build (a
QUE2 at strength 256) is about 1.2 KB, far below what UDP carries.

Warm rediscovery tries the 2-message RQUE→RRES path for every endpoint
it holds a ticket for; any failure (lost RRES, decoy on a replayed
ticket, expired/rekeyed ticket) falls back transparently to the full
handshake rounds — the ticket was already popped (single-use), so the
fallback never replays it.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.backend.registration import SubjectCredentials
from repro.net.run import RetryPolicy
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import (
    Res1,
    Res1Level1,
    Res2,
    Rres,
    parse_message,
)
from repro.protocol.subject import DiscoveredService, SubjectEngine
from repro.protocol.versions import Version

Addr = tuple[str, int]

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


class SubjectServiceClient:
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
        self.engine = SubjectEngine(creds, version)
        self.retry = retry if retry is not None else RetryPolicy()
        self.phase1_timeout_s = phase1_timeout_s
        self.on_frame = on_frame
        self.stats = ClientStats()
        # Same construction as simulate_discovery's retry RNG: a live
        # run and a simulated run with one seed draw the same jitter.
        self._jitter_rng = random.Random((seed & 0xFFFFFFFF) ^ 0x5EED5)
        #: endpoint -> object id discovered there (feeds warm resumption).
        self.object_at: dict[Addr, str] = {}
        self._queues: dict[Addr, asyncio.Queue] = {}
        self._transport: asyncio.DatagramTransport | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> "SubjectServiceClient":
        self._loop = asyncio.get_running_loop()
        self._transport, _ = await self._loop.create_datagram_endpoint(
            lambda: _ClientMailbox(self), local_addr=("127.0.0.1", 0)
        )
        return self

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def __aenter__(self) -> "SubjectServiceClient":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

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
            results = await asyncio.gather(*(self.resume(a) for a in warm))
            for addr, service in zip(warm, results):
                if service is not None:
                    found[addr] = service
                else:
                    self.stats.resumption_fallbacks += 1
            pending = [a for a in pending if a not in found]

        for _ in range(rounds):
            if not pending:
                break
            self.stats.rounds += 1
            self.engine.tick(self._loop.time())
            raw = self.engine.start_round(group_id).to_bytes()
            results = await asyncio.gather(*(self._exchange(a, raw) for a in pending))
            for addr, result in zip(pending, results):
                if result is not None:
                    self._settle(found, addr, result)
            pending = [a for a in pending if a not in found]
        return found

    def _settle(
        self, found: dict[Addr, DiscoveredService], addr: Addr, service: DiscoveredService
    ) -> None:
        found[addr] = service
        self.object_at[addr] = service.object_id

    # -- warm path (RQUE -> RRES) ---------------------------------------------------

    async def resume(self, addr: Addr) -> DiscoveredService | None:
        """One resumption attempt toward *addr*; None = fall back cold.

        The ticket is popped on send (single-use), so whatever goes
        wrong — loss, a decoy RRES, a rekeyed epoch — the caller's full
        handshake fallback never replays it.
        """
        assert self._loop is not None, "client not started"
        object_id = self.object_at.get(addr)
        if object_id is None:
            return None
        self.engine.tick(self._loop.time())
        rque = self.engine.start_resumption(object_id)
        if rque is None:
            return None
        self.stats.resumptions += 1
        queue = self._register(addr)
        try:
            return await self._await_reply(
                queue, addr, rque.to_bytes(), Rres,
                lambda m: self.engine.handle_rres(m, object_id),
            )
        finally:
            self._unregister(addr)

    # -- one exchange ---------------------------------------------------------------

    async def _exchange(self, addr: Addr, que1_raw: bytes) -> DiscoveredService | None:
        """QUE1 → (RES1 → QUE2 → RES2 | Level 1 PROF) toward one endpoint."""
        assert self._loop is not None
        peer_key = f"{addr[0]}:{addr[1]}"
        queue = self._register(addr)
        try:
            self._send(addr, que1_raw)
            deadline = self._loop.time() + self.phase1_timeout_s
            while True:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    return None  # next round's QUE1 retries phase 1
                try:
                    frame = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    return None
                message = self._parse(frame)
                if message is None:
                    continue
                if isinstance(message, Res1Level1):
                    return self.engine.handle_res1_level1(message, peer_key)
                if isinstance(message, Res1):
                    que2 = self.engine.handle_res1(message, peer_key)
                    if que2 is None:
                        return None
                    return await self._await_reply(
                        queue, addr, que2.to_bytes(), Res2,
                        lambda m: self.engine.handle_res2(m, peer_key),
                    )
                # Anything else is a stale/duplicated frame from an
                # earlier exchange; ignore and keep waiting.
        finally:
            self._unregister(addr)

    async def _await_reply(
        self,
        queue: asyncio.Queue,
        addr: Addr,
        raw: bytes,
        expect: type,
        handler: Callable,
    ):
        """Send *raw* and await its reply under the retry policy.

        Retransmissions are byte-identical (the engine answers them from
        its idempotent caches); give-up is counted once per exchange.
        """
        assert self._loop is not None
        first_sent = self._loop.time()
        attempt = 0
        self._send(addr, raw)
        while True:
            timeout = self.retry.timeout_s(attempt, self._jitter_rng)
            deadline = self._loop.time() + timeout
            while True:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    frame = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
                message = self._parse(frame)
                if message is None:
                    continue
                if isinstance(message, expect):
                    return handler(message)
                # e.g. a duplicated RES1 while we wait for RES2: stale.
            if self.retry.exhausted(attempt, self._loop.time() - first_sent):
                self.stats.exchanges_given_up += 1
                return None
            attempt += 1
            self.stats.retransmissions += 1
            self._send(addr, raw)

    # -- plumbing -------------------------------------------------------------------

    def _send(self, addr: Addr, raw: bytes) -> None:
        assert self._transport is not None, "client not started"
        self.stats.frames_tx += 1
        if self.on_frame is not None:
            self.on_frame("tx", raw, addr)
        self._transport.sendto(raw, addr)

    def _parse(self, frame: bytes):
        self.stats.frames_rx += 1
        try:
            return parse_message(frame)
        except MessageFormatError as exc:
            # Corrupted frame: a typed error record, never a crash.
            self.stats.wire_errors += 1
            self.engine.record_wire_error(exc)
            return None

    def _register(self, addr: Addr) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._queues[addr] = queue
        return queue

    def _unregister(self, addr: Addr) -> None:
        self._queues.pop(addr, None)

    def _deliver(self, data: bytes, addr: Addr) -> None:
        queue = self._queues.get(addr)
        if queue is None:
            return  # a reply that arrived after its exchange closed
        if self.on_frame is not None:
            self.on_frame("rx", data, addr)
        queue.put_nowait(data)


class _ClientMailbox(asyncio.DatagramProtocol):
    """Routes received datagrams to the exchange awaiting that peer."""

    def __init__(self, client: SubjectServiceClient) -> None:
        self.client = client

    def datagram_received(self, data: bytes, addr) -> None:
        self.client._deliver(data, (addr[0], addr[1]))

    def error_received(self, exc: Exception) -> None:
        self.client.stats.wire_errors += 1
