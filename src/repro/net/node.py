"""Simulated nodes: protocol engines bound to radios and CPUs.

A :class:`SimNode` owns a half-duplex :class:`~repro.net.radio.Radio`, a
serial CPU, and (for subjects/objects) a sans-IO protocol engine. The
:class:`GroundNetwork` routes messages over the topology graph, applying
the link model per hop and contention at every radio.

Two timing modes (DESIGN.md §4):

* ``CALIBRATED`` — engine handlers run under an
  :class:`~repro.crypto.meter.OpMeter`; the simulated CPU time is the
  tally priced by the node's paper-hardware
  :class:`~repro.crypto.costmodel.DeviceProfile`.
* ``MEASURED`` — the handler's real wall-clock time on this machine is
  used instead.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.crypto.costmodel import DeviceProfile
from repro.crypto.meter import metered
from repro.net.faults import CorruptedFrame, FaultLayer, FaultSchedule
from repro.net.radio import LinkModel, Radio
from repro.net.retry import Retransmissions, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import (
    Que1,
    Que2,
    Res1,
    Res1Level1,
    Res2,
    Rque,
    Rres,
    parse_message,
)
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.tracker import SubjectTracker


class TimingMode(enum.Enum):
    CALIBRATED = "calibrated"
    MEASURED = "measured"


class SizeMode(enum.Enum):
    #: §IX-A nominal byte counts (reproduces the paper's accounting).
    NOMINAL = "nominal"
    #: Actual serialized lengths of our encodings.
    ACTUAL = "actual"


def message_size(message, mode: SizeMode) -> int:
    """Bytes a message occupies on the air."""
    if isinstance(message, CorruptedFrame):
        return len(message.raw)  # bit flips don't change the length
    if mode is SizeMode.ACTUAL:
        return len(message.to_bytes())
    from repro.access.messages import Command, Response

    if isinstance(message, (Command, Response)):
        return len(message.to_bytes())  # no §IX-A nominal: actual size
    if isinstance(message, Que1):
        return Que1.nominal_size()
    if isinstance(message, Res1Level1):
        return Res1Level1.nominal_size()
    if isinstance(message, Res1):
        return Res1.nominal_size()
    if isinstance(message, Que2):
        return Que2.nominal_size(with_mac3=message.mac_s3 is not None)
    if isinstance(message, Res2):
        return Res2.nominal_size()
    if isinstance(message, Rque):
        return Rque.nominal_size()
    if isinstance(message, Rres):
        return Rres.nominal_size()
    raise TypeError(f"unknown message {type(message).__name__}")


@dataclass
class NodeStats:
    """Per-node accounting for the experiment reports."""

    compute_s: float = 0.0
    messages_handled: int = 0
    #: Mangled frames that reached this node (recorded, never fatal).
    frames_corrupted: int = 0
    #: Crash/restart cycles the fault layer put this node through.
    crashes: int = 0


class SimNode:
    """A device in the ground network; a bare :class:`SubjectEngine` gets a
    :class:`SubjectTracker` (that re-sends nothing), so engines all ``receive``."""

    def __init__(
        self,
        name: str,
        role: str,
        profile: DeviceProfile,
        engine: SubjectTracker | SubjectEngine | ObjectEngine | None = None,
    ) -> None:
        self.name = name
        self.role = role
        self.profile = profile
        if isinstance(engine, SubjectEngine):
            engine = SubjectTracker(engine, Retransmissions(RetryPolicy()))
        self.engine = engine
        self.radio = Radio(name)
        self.cpu_busy_until = 0.0
        self.stats = NodeStats()
        #: Optional access-layer endpoints (post-discovery commands).
        self.command_handler = None   # CommandHandler on objects
        self.command_client = None    # CommandClient on subjects
        #: Responses the subject's client accepted: (time, peer, payload).
        self.command_results: list[tuple[float, str, bytes]] = []

    def crash_reset(self, now: float) -> None:
        """A power-cycle: drop in-flight protocol state, rejoin cold.

        Durable state (credentials, ticket keyring, replay ledger — the
        things a real device keeps in flash) survives; half-open
        handshakes, pending retransmissions and the CPU queue do not.
        """
        self.cpu_busy_until = now
        self.stats.crashes += 1
        if self.engine is not None:
            self.engine.reset_cold()


class GroundNetwork:
    """Routes messages between SimNodes over a topology graph."""

    def __init__(
        self,
        sim: Simulator,
        graph: Topology,
        link: LinkModel,
        timing: TimingMode = TimingMode.CALIBRATED,
        sizes: SizeMode = SizeMode.NOMINAL,
        seed: int = 0,
        faults: FaultLayer | FaultSchedule | None = None,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.link = link
        self.timing = timing
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.nodes: dict[str, SimNode] = {}
        self._path_cache: dict[tuple[str, str], list[str]] = {}
        self._broadcast_seen: set = set()
        #: Hook invoked as (time, src, dst, message) on every delivery.
        self.on_delivery: Callable[[float, str, str, object], None] | None = None
        #: Hook invoked as (time, src, dst, message) when a unicast send
        #: starts — the retransmission layer's view of outgoing traffic.
        self.on_sent: Callable[[float, str, str, object], None] | None = None
        #: Hook invoked as (completion_time, node_name, src, message) after
        #: a node finishes *processing* a message from ``src`` (engine work
        #: included).
        self.on_processed: Callable[[float, str, str, object], None] | None = None
        #: Frames dropped by the lossy link model or the fault layer.
        self.messages_lost: int = 0
        #: Optional chaos layer (repro.net.faults); a bare schedule is
        #: wrapped with this network's seed so runs stay reproducible.
        if isinstance(faults, FaultSchedule):
            faults = FaultLayer(faults, seed=seed)
        self.faults = faults
        if faults is not None:
            faults.install(self)

    def add_node(self, node: SimNode) -> None:
        if node.name not in self.graph:
            raise ValueError(f"{node.name!r} is not in the topology")
        self.nodes[node.name] = node

    # -- transport ---------------------------------------------------------------

    def _fault_deliveries(
        self, src: str, dst: str, message, arrival: float, occupancy: float
    ) -> list[tuple[float, object]]:
        """(time, frame) deliveries for one surviving transmission.

        Without a fault layer this is the identity: one on-time copy.
        With one, the frame may be delayed, duplicated (the copy trails
        by one occupancy), corrupted en route, or dropped entirely
        (empty list) — all from the layer's own deterministic RNG.
        """
        if self.faults is None:
            return [(arrival, message)]
        fate = self.faults.frame_fate(src, dst, self.sim.now)
        if fate.dropped:
            self.messages_lost += 1
            return []
        frame = message
        if fate.corrupt:
            raw = message.to_bytes()
            original = (
                message.original_type
                if isinstance(message, CorruptedFrame)
                else type(message).__name__
            )
            frame = CorruptedFrame(self.faults.corrupt_bytes(raw, src, dst), original)
        deliveries = [(arrival + fate.extra_delay_s, frame)]
        if fate.duplicate:
            deliveries.append((arrival + fate.extra_delay_s + occupancy, frame))
        return deliveries

    def _hop(
        self, src: str, dst: str, message, on_delivered: Callable[[object], None]
    ) -> None:
        """One hop: contend for both radios, then deliver (unless lost).

        *on_delivered* receives the frame as it arrived — normally the
        message itself, a :class:`CorruptedFrame` if the fault layer
        mangled it in flight.
        """
        size = message_size(message, self.sizes)
        occupancy = self.link.occupancy(size, self.rng)
        tx, rx = self.nodes[src].radio, self.nodes[dst].radio
        start = max(self.sim.now, tx.busy_until, rx.busy_until)
        end = start + occupancy
        tx.busy_until = end
        rx.busy_until = end
        tx.bytes_sent += size
        tx.messages_sent += 1
        if self.link.lost(self.rng):
            self.messages_lost += 1
            return  # airtime burned, frame gone
        arrival = end + self.link.access_delay_s
        for at, frame in self._fault_deliveries(src, dst, message, arrival, occupancy):
            self.sim.at(at, lambda f=frame: on_delivered(f))

    def unicast(self, src: str, dst: str, message) -> None:
        """Send along the subject-rooted shortest path, hop by hop."""
        if self.on_sent is not None:
            self.on_sent(self.sim.now, src, dst, message)
        path = self._route(src, dst)

        def run(index: int, current) -> None:
            hop_src, hop_dst = path[index], path[index + 1]

            def delivered(frame) -> None:
                node = self.nodes[hop_dst]
                if hop_dst == dst:
                    # peer id is the logical originator, not the last hop.
                    self._deliver(src, dst, frame)
                elif node.role == "relay":
                    delay = node.profile.per_message_ms / 1000.0
                    start = max(self.sim.now, node.cpu_busy_until)
                    node.cpu_busy_until = start + delay
                    self.sim.at(node.cpu_busy_until, lambda: run(index + 1, frame))
                else:
                    run(index + 1, frame)

            self._hop(hop_src, hop_dst, current, delivered)

        run(0, message)

    def broadcast(self, src: str, message) -> None:
        """Wireless flood: one transmission reaches all neighbors; relays
        rebroadcast once (network-layer duplicate suppression)."""
        key = (type(message).__name__, message.to_bytes())
        self._broadcast_seen.add(key)

        def emit(origin: str, current) -> None:
            size = message_size(current, self.sizes)
            occupancy = self.link.occupancy(size, self.rng)
            tx = self.nodes[origin].radio
            start = max(self.sim.now, tx.busy_until)
            end = start + occupancy
            tx.busy_until = end
            tx.bytes_sent += size
            tx.messages_sent += 1
            for neighbor in self.graph.neighbors(origin):
                rx = self.nodes[neighbor].radio
                rx.busy_until = max(rx.busy_until, end)
                if self.link.lost(self.rng):
                    self.messages_lost += 1
                    continue
                arrival = end + self.link.access_delay_s
                for at, frame in self._fault_deliveries(
                    origin, neighbor, current, arrival, occupancy
                ):
                    self.sim.at(at, lambda n=neighbor, f=frame: arrive(origin, n, f))

        def arrive(origin: str, at_node: str, frame) -> None:
            node = self.nodes[at_node]
            if node.role == "relay":
                rebroadcast_key = (at_node,) + key
                if rebroadcast_key in self._broadcast_seen:
                    return
                self._broadcast_seen.add(rebroadcast_key)
                delay = node.profile.per_message_ms / 1000.0
                start = max(self.sim.now, node.cpu_busy_until)
                node.cpu_busy_until = start + delay
                self.sim.at(node.cpu_busy_until, lambda: emit(at_node, frame))
            else:
                # peer id is the broadcast's logical source (the subject).
                self._deliver(src, at_node, frame)

        emit(src, message)

    def _route(self, src: str, dst: str) -> list[str]:
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = self.graph.shortest_path(src, dst)
            self._path_cache[key] = path
            self._path_cache[(dst, src)] = list(reversed(path))
        return list(path)

    # -- processing -----------------------------------------------------------------

    def _deliver(self, src: str, dst: str, message) -> None:
        node = self.nodes[dst]
        if self.faults is not None and self.faults.node_down(dst, self.sim.now):
            self.messages_lost += 1  # receiver is dark; frame evaporates
            return
        if self.on_delivery is not None:
            self.on_delivery(self.sim.now, src, dst, message)
        if isinstance(message, CorruptedFrame):
            # The wire-path robustness contract: mangled bytes are an
            # error record, never a crash.  If the flip left the frame
            # parseable, the engine's own fail-closed checks (bad MACs,
            # bad signatures) take it from here.
            node.stats.frames_corrupted += 1
            try:
                message = parse_message(message.raw)
            except MessageFormatError as exc:
                if node.engine is not None:
                    node.engine.record_wire_error(exc)
                return
        if node.engine is None:
            return
        node.engine.tick(self.sim.now)
        start = max(self.sim.now, node.cpu_busy_until)
        reply, compute_s = self._run_engine(node, message, src)
        duration = compute_s + node.profile.per_message_ms / 1000.0
        node.cpu_busy_until = start + duration
        node.stats.compute_s += duration
        node.stats.messages_handled += 1
        if self.on_processed is not None:
            hook = self.on_processed
            self.sim.at(
                node.cpu_busy_until,
                lambda: hook(self.sim.now, node.name, src, message),
            )
        if reply is not None:
            self.sim.at(node.cpu_busy_until, lambda: self.unicast(dst, src, reply))

    def _run_engine(self, node: SimNode, message, src: str):
        """Dispatch a message into the node's engine; price the work."""
        handler = self._handler(node, message)
        if self.timing is TimingMode.CALIBRATED:
            with metered() as tally:
                reply = handler(message, src)
            compute_s = node.profile.meter_cost_ms(tally) / 1000.0
        else:
            t0 = time.perf_counter()
            reply = handler(message, src)
            compute_s = time.perf_counter() - t0
        return reply, compute_s

    def _handler(self, node: SimNode, message):
        """Access-layer frames go to their endpoints, the rest to the engine."""
        from repro.access.messages import Command, Response

        if isinstance(message, Command) and node.command_handler is not None:
            return node.command_handler.handle
        if isinstance(message, Response) and node.command_client is not None:

            def handle_response(m, s):
                payload = b""
                try:
                    payload = node.command_client.parse_response(s, m)
                except Exception as exc:  # recorded, never crashes the sim
                    node.engine.record_wire_error(exc)
                node.command_results.append((self.sim.now, s, payload))

            return handle_response
        return node.engine.receive
