"""The object service daemon: one IoT device on real sockets.

:class:`ObjectServiceDaemon` binds an asyncio UDP endpoint and drives
the existing sans-IO :class:`~repro.protocol.object.ObjectEngine` — the
daemon owns the socket, clock and backpressure; the engine owns every
protocol decision, including which handler a flight goes to
(:meth:`~repro.protocol.object.ObjectEngine.receive`, the router the
simulator calls too).  The service path turns on the simulator's full
recovery stack, because a real transport *is* the lossy transport:

* ``resend_cached_res2`` — a retransmitted (byte-identical) QUE2 gets
  the byte-identical cached RES2 back, so a lost RES2 costs one backoff
  interval, not a whole handshake;
* ``decoy_on_replay`` — a replayed ticket gets a constant-length decoy
  RRES, keeping responder behavior uniform under duplication;
* pending-table TTL eviction runs off the event-loop clock
  (``engine.tick``), closing the half-open exhaustion window;
* per-peer token-bucket load shedding: a peer exceeding its budget is
  answered with the protocol's one universal failure mode — silence —
  so shedding is indistinguishable from loss and teaches an attacker
  nothing (§III service information secrecy).

Crash/restart is modeled exactly as the simulator's ``CRASH`` fault:
:meth:`crash` makes the daemon dark (frames evaporate) and drops all
volatile engine state; :meth:`restart` rejoins cold.  Durable state —
credentials, ticket keyring, replay ledger, update-receiver sequence —
survives, like flash storage would, so a power-cycle cannot launder
replays.

Backend pushes (revocations, rekeys, ``TYPE_BUNDLE`` bundles,
``TYPE_LKH_REKEY`` broadcast streams) arrive on the same socket, are
applied through :class:`~repro.backend.updatewire.UpdateReceiver`, and
are acknowledged with a tiny ACK frame so the stop-and-wait pusher
(:mod:`repro.service.update_stream`) can advance; an already-applied
sequence is re-acknowledged (the ACK was lost, not the push).
"""

from __future__ import annotations

import asyncio
from collections import Counter, OrderedDict
from typing import Callable

from repro.backend.registration import ObjectCredentials
from repro.backend.updatewire import UpdateMessage, UpdateReceiver, UpdateWireError
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import parse_message
from repro.protocol.object import ObjectEngine
from repro.protocol.versions import Version
from repro.service.framing import FrameKind, ack_frame, classify_frame

#: Token-bucket defaults for per-peer load shedding: a peer may burst
#: this many frames, refilled at ``PEER_REFILL_PER_S`` per second.
PEER_BURST_LIMIT = 64
PEER_REFILL_PER_S = 256.0

#: Hard cap on tracked peer buckets.  Past it the least recently seen
#: peer's bucket is evicted, so a spoofed-source flood cannot grow the
#: daemon's state without bound.
PEER_BUCKET_LIMIT = 4096


class _PeerBucket:
    """One peer's token bucket (deterministic given the clock)."""

    __slots__ = ("tokens", "last")

    def __init__(self, capacity: float, now: float) -> None:
        self.tokens = capacity
        self.last = now

    def take(self, now: float, capacity: float, refill_per_s: float) -> bool:
        self.tokens = min(capacity, self.tokens + (now - self.last) * refill_per_s)
        self.last = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True

    def refilled(self, now: float, capacity: float, refill_per_s: float) -> bool:
        """True once the bucket admits exactly like a fresh one."""
        return self.tokens + (now - self.last) * refill_per_s >= capacity


class ObjectServiceDaemon(asyncio.DatagramProtocol):
    """Serve one object's discovery protocol over loopback/LAN sockets."""

    def __init__(
        self,
        creds: ObjectCredentials,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        version: Version = Version.V3_0,
        issue_tickets: bool = True,
        peer_burst_limit: int = PEER_BURST_LIMIT,
        peer_refill_per_s: float = PEER_REFILL_PER_S,
        update_receiver: UpdateReceiver | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        """``issue_tickets`` defaults on — the service path is the
        production deployment, where resumed re-discovery is the common
        case.  ``update_receiver`` attaches this device's update-plane
        state (pass one sharing ``creds`` and, for Level 3 fellows, its
        LKH :class:`~repro.backend.lkh.MemberState`); None means the
        daemon rejects pushes.  ``clock`` defaults to the running event
        loop's monotonic time and exists for deterministic tests."""
        self.creds = creds
        self.engine = ObjectEngine(
            creds,
            version,
            issue_tickets=issue_tickets,
            decoy_on_replay=True,
            resend_cached_res2=True,
        )
        self.host = host
        self._requested_port = port
        self.peer_burst_limit = peer_burst_limit
        self.peer_refill_per_s = peer_refill_per_s
        self.update_receiver = update_receiver
        self._clock = clock
        self.stats: Counter = Counter()
        #: Peer buckets, least recently seen first.
        self._buckets: OrderedDict[str, _PeerBucket] = OrderedDict()
        self._down = False
        self._udp: asyncio.DatagramTransport | None = None
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> "ObjectServiceDaemon":
        """Bind the UDP port; returns self for chaining."""
        loop = asyncio.get_running_loop()
        if self._clock is None:
            self._clock = loop.time
        self._udp, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(self.host, self._requested_port)
        )
        self.port = self._udp.get_extra_info("sockname")[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError("daemon not started")
        return (self.host, self.port)

    async def close(self) -> None:
        if self._udp is not None:
            self._udp.close()
            self._udp = None

    async def __aenter__(self) -> "ObjectServiceDaemon":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def connection_made(self, transport) -> None:
        self._udp = transport

    def datagram_received(self, data: bytes, addr) -> None:
        reply = self.dispatch(data, f"{addr[0]}:{addr[1]}")
        if reply is not None and self._udp is not None:
            self._udp.sendto(reply, addr)

    def error_received(self, exc: Exception) -> None:
        self.stats["socket_errors"] += 1

    # -- fault injection hooks (the live CRASH fault) -------------------------------

    def crash(self) -> None:
        """Go dark and lose all volatile state (the simulator's
        ``crash_reset`` contract on a real socket)."""
        self._down = True
        self.stats["crashes"] += 1
        self._buckets.clear()
        self.engine.reset_cold()

    def restart(self) -> None:
        """Rejoin cold; durable state (keyring, ledger, sequence) kept."""
        self._down = False
        self.stats["restarts"] += 1

    @property
    def is_down(self) -> bool:
        return self._down

    # -- dispatch -------------------------------------------------------------------

    def _admit(self, peer: str) -> bool:
        """Token-bucket admission; shed (silently) over budget."""
        now = self._clock()
        buckets = self._buckets
        bucket = buckets.get(peer)
        if bucket is None:
            bucket = buckets[peer] = _PeerBucket(self.peer_burst_limit, now)
        else:
            buckets.move_to_end(peer)
        admitted = bucket.take(now, self.peer_burst_limit, self.peer_refill_per_s)
        self._prune_buckets(now)
        if admitted:
            return True
        self.stats["frames_shed"] += 1
        return False

    def _prune_buckets(self, now: float) -> None:
        """Forget refilled buckets, oldest first, then enforce the cap.

        A bucket refilled to capacity admits exactly like a fresh one,
        so dropping it changes no admission decision.  Only the front of
        the recency order is examined and each bucket is popped at most
        once per insertion: amortised O(1) per frame, never a scan.
        """
        buckets = self._buckets
        while buckets and next(iter(buckets.values())).refilled(
            now, self.peer_burst_limit, self.peer_refill_per_s
        ):
            buckets.popitem(last=False)
        while len(buckets) > PEER_BUCKET_LIMIT:
            buckets.popitem(last=False)

    def dispatch(self, data: bytes, peer: str) -> bytes | None:
        """One frame in, at most one frame out (None = silence).

        *peer* is the transport-level peer identity the engine keys
        sessions on.
        """
        if self._down:
            self.stats["frames_dropped_down"] += 1
            return None
        self.stats["frames_in"] += 1
        if not self._admit(peer):
            return None
        self.engine.tick(self._clock())
        kind = classify_frame(data)
        if kind is FrameKind.PROTOCOL:
            return self._dispatch_protocol(data, peer)
        if kind is FrameKind.UPDATE:
            return self._dispatch_update(data)
        self.stats["wire_errors"] += 1
        self.engine.record_wire_error(
            MessageFormatError(f"unroutable frame from {peer}")
        )
        return None

    def _dispatch_protocol(self, data: bytes, peer: str) -> bytes | None:
        try:
            message = parse_message(data)
        except MessageFormatError as exc:
            # The wire-path robustness contract: mangled bytes are an
            # error record, never a crash — and never an answer.
            self.stats["wire_errors"] += 1
            self.engine.record_wire_error(exc)
            return None
        reply = self.engine.receive(message, peer)
        if reply is None:
            return None
        self.stats["frames_out"] += 1
        return reply.to_bytes()

    def _dispatch_update(self, data: bytes) -> bytes | None:
        if self.update_receiver is None:
            self.stats["updates_rejected"] += 1
            return None
        try:
            message = UpdateMessage.from_bytes(data)
        except UpdateWireError as exc:
            self.stats["wire_errors"] += 1
            self.engine.record_wire_error(exc)
            return None
        if message.sequence <= self.update_receiver.last_sequence:
            # Already applied; the ACK was lost, not the push.  Do not
            # re-apply (the receiver would reject it as stale anyway) —
            # just re-acknowledge so the pusher advances.
            self.stats["updates_reacked"] += 1
            return ack_frame(message.sequence)
        if self.update_receiver.apply(message):
            self.stats["updates_applied"] += 1
            return ack_frame(message.sequence)
        self.stats["updates_rejected"] += 1
        return None
