"""Socket-level chaos: PR 4's fault vocabulary against live sockets.

The simulator injects faults *inside* the event loop it owns; a real
socket path has no such seam, so this module provides one: a
:class:`ChaosProxy` sits on the loopback path between clients and one
daemon, and every datagram crossing it is rolled through the *same*
:class:`~repro.net.faults.FaultLayer` the simulator uses — same
Gilbert–Elliott burst chains, same per-link RNG streams (seeded from the
layer seed and the link's node names, so a live link named like its
simulated twin draws the same fates), same draw order.  The schedule's
windows run on wall-clock time relative to the harness epoch
(:meth:`ServiceChaosHarness.start`), so "burst loss from t=0, crash from
t=0.5" means the same thing it means in simulation, just against real
frames.

What the proxy does **not** do is call ``FaultLayer.install`` — that
hook schedules simulator events and is meaningless here.  Crash windows
are instead armed by :class:`ChaosController`, which drives the
daemons' own :meth:`~repro.service.daemon.ObjectServiceDaemon.crash` /
``restart`` hooks at the windows' wall-clock times — the daemon loses
its volatile state exactly as the simulated node does.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Callable

from repro.backend.registration import ObjectCredentials
from repro.net.faults import FaultLayer, FaultSchedule
from repro.service.daemon import ObjectServiceDaemon

Addr = tuple[str, int]

#: The client-side node name fault entries target (the simulator's
#: subject node name, so simulator schedules transfer verbatim).
SUBJECT_NODE = "subject"


class ChaosController:
    """Arms crash/restart windows against live daemons."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.daemons: dict[str, ObjectServiceDaemon] = {}
        self._handles: list[asyncio.TimerHandle] = []

    def register(self, name: str, daemon: ObjectServiceDaemon) -> None:
        self.daemons[name] = daemon

    def start(self, epoch: float) -> None:
        """Schedule every window's transitions relative to *epoch*."""
        loop = asyncio.get_running_loop()
        for window in self.schedule.crash_windows():
            for name in window.nodes:
                daemon = self.daemons.get(name)
                if daemon is None:
                    continue
                self._handles.append(loop.call_later(
                    max(0.0, epoch + window.start_s - loop.time()), daemon.crash
                ))
                self._handles.append(loop.call_later(
                    max(0.0, epoch + window.stop_s - loop.time()), daemon.restart
                ))

    def cancel(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


class ChaosProxy(asyncio.DatagramProtocol):
    """One lossy hop: clients ↔ proxy ↔ one daemon.

    Each client address gets its own connected relay socket toward the
    daemon, so replies route back unambiguously; both directions roll
    through the shared :class:`FaultLayer` with the hop named
    ``(SUBJECT_NODE, node_name)`` — the same link key a simulator
    schedule scopes faults by.
    """

    def __init__(
        self,
        upstream: Addr,
        layer: FaultLayer,
        node_name: str,
        *,
        client_name: str = SUBJECT_NODE,
        now_fn: Callable[[], float] | None = None,
        on_tap: Callable[[str, str, bytes], None] | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        """``on_tap(direction, node_name, raw)`` sees every frame the
        proxy actually forwards — the eavesdropper's view, matching the
        simulator's ``on_delivery`` semantics (dropped frames are not
        observed, delivered duplicates are)."""
        self.upstream = upstream
        self.layer = layer
        self.node_name = node_name
        self.client_name = client_name
        self.on_tap = on_tap
        self.host = host
        self._now_fn = now_fn
        self.counters: Counter = Counter()
        self._listen: asyncio.DatagramTransport | None = None
        self._relays: dict[Addr, asyncio.DatagramTransport] = {}
        self.port: int | None = None

    def _now(self) -> float:
        return 0.0 if self._now_fn is None else self._now_fn()

    async def start(self) -> "ChaosProxy":
        loop = asyncio.get_running_loop()
        self._listen, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(self.host, 0)
        )
        self.port = self._listen.get_extra_info("sockname")[1]
        return self

    @property
    def address(self) -> Addr:
        if self.port is None:
            raise RuntimeError("proxy not started")
        return (self.host, self.port)

    async def close(self) -> None:
        if self._listen is not None:
            self._listen.close()
            self._listen = None
        for relay in self._relays.values():
            relay.close()
        self._relays.clear()

    # -- the faulty path -------------------------------------------------------------

    def datagram_received(self, data: bytes, addr) -> None:
        """A client's frame, on the client-facing socket."""
        client = (addr[0], addr[1])
        self.ensure_relay(client)
        self._roll(data, self.client_name, self.node_name, "c2o",
                   lambda frame: self._to_upstream(frame, client))

    def _from_upstream(self, data: bytes, client: Addr) -> None:
        self._roll(data, self.node_name, self.client_name, "o2c",
                   lambda frame: self._to_client(frame, client))

    def _roll(
        self,
        data: bytes,
        src: str,
        dst: str,
        direction: str,
        forward: Callable[[bytes], None],
    ) -> None:
        """One frame through the fault layer, then (maybe) onward."""
        fate = self.layer.frame_fate(src, dst, self._now())
        if fate.dropped:
            self.counters["frames_dropped"] += 1
            return
        if fate.corrupt:
            data = self.layer.corrupt_bytes(data, src, dst)
            self.counters["frames_corrupted"] += 1

        def deliver(frame: bytes = data) -> None:
            if self.on_tap is not None:
                self.on_tap(direction, self.node_name, frame)
            self.counters["frames_forwarded"] += 1
            forward(frame)

        loop = asyncio.get_running_loop()
        if fate.extra_delay_s > 0:
            self.counters["frames_delayed"] += 1
            loop.call_later(fate.extra_delay_s, deliver)
        else:
            deliver()
        if fate.duplicate:
            # The copy trails its original, as the simulator delivers it.
            self.counters["frames_duplicated"] += 1
            loop.call_later(fate.extra_delay_s + 0.01, deliver)

    def _to_upstream(self, data: bytes, client: Addr) -> None:
        relay = self._relays.get(client)
        if isinstance(relay, _PendingRelay):
            relay.buffer.append(data)  # flushed once the socket exists
            return
        if relay is None or relay.is_closing():
            self.counters["frames_unrouted"] += 1
            return
        relay.sendto(data)

    def _to_client(self, data: bytes, client: Addr) -> None:
        if self._listen is None:
            return
        self._listen.sendto(data, client)

    def ensure_relay(self, client: Addr) -> None:
        """Open the per-client upstream socket on first contact."""
        if client in self._relays:
            return
        loop = asyncio.get_running_loop()
        # Reserve the slot synchronously so one burst of datagrams
        # creates exactly one relay; frames arriving before the socket
        # exists queue on the placeholder and flush in order.
        pending = _PendingRelay()
        self._relays[client] = pending  # type: ignore[assignment]

        async def connect() -> None:
            transport, _ = await loop.create_datagram_endpoint(
                lambda: _RelayFace(self, client), remote_addr=self.upstream
            )
            self._relays[client] = transport
            for frame in pending.buffer:
                transport.sendto(frame)

        loop.create_task(connect())


class _PendingRelay:
    """Placeholder (with a send queue) while a relay socket is created."""

    def __init__(self) -> None:
        self.buffer: list[bytes] = []

    def is_closing(self) -> bool:
        return True

    def close(self) -> None:
        pass


class _RelayFace(asyncio.DatagramProtocol):
    """One client's upstream socket toward the daemon."""

    def __init__(self, proxy: ChaosProxy, client: Addr) -> None:
        self.proxy = proxy
        self.client = client

    def datagram_received(self, data: bytes, addr) -> None:
        self.proxy._from_upstream(data, self.client)


class ServiceChaosHarness:
    """A fleet of live daemons behind chaos proxies, one schedule.

    The live analogue of ``simulate_discovery(..., faults=schedule)``:
    one shared :class:`FaultLayer` (so burst chains and RNG streams are
    per-link, exactly as in simulation), one controller for crash
    windows, one epoch for the schedule clock, and a tap stream of every
    delivered frame for the distinguisher experiments.
    """

    def __init__(self, schedule: FaultSchedule | None = None, seed: int = 0) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.layer = FaultLayer(self.schedule, seed=seed)
        self.controller = ChaosController(self.schedule)
        self.daemons: dict[str, ObjectServiceDaemon] = {}
        self.proxies: dict[str, ChaosProxy] = {}
        #: Every frame any proxy forwarded: ``(direction, node, raw)``.
        self.taps: list[tuple[str, str, bytes]] = []
        self.epoch: float | None = None

    def _now(self) -> float:
        if self.epoch is None:
            return 0.0
        return asyncio.get_running_loop().time() - self.epoch

    async def add_object(
        self, creds: ObjectCredentials, **daemon_kwargs
    ) -> Addr:
        """Start a daemon + proxy pair; returns the *proxy* endpoint
        (the only address clients should know)."""
        daemon = ObjectServiceDaemon(creds, **daemon_kwargs)
        await daemon.start()
        proxy = ChaosProxy(
            daemon.address, self.layer, creds.object_id,
            now_fn=self._now,
            on_tap=lambda d, n, raw: self.taps.append((d, n, raw)),
        )
        await proxy.start()
        self.daemons[creds.object_id] = daemon
        self.proxies[creds.object_id] = proxy
        self.controller.register(creds.object_id, daemon)
        return proxy.address

    def endpoints(self) -> list[Addr]:
        return [proxy.address for proxy in self.proxies.values()]

    async def start(self) -> "ServiceChaosHarness":
        """Open the schedule clock and arm the crash windows."""
        self.epoch = asyncio.get_running_loop().time()
        self.controller.start(self.epoch)
        return self

    async def close(self) -> None:
        self.controller.cancel()
        for proxy in self.proxies.values():
            await proxy.close()
        for daemon in self.daemons.values():
            await daemon.close()

    async def __aenter__(self) -> "ServiceChaosHarness":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
