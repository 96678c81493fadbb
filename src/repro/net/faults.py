"""Composable, seed-deterministic fault injection for the ground network.

The paper's evaluation runs on a real WiFi testbed whose "changeful
wireless transmission" shows up as the error bars of Fig. 6(e)–(h); the
uniform i.i.d. ``LinkModel.loss_rate`` reproduces the *average* of that
behavior but none of its structure.  This module injects the structure:
bursty (Gilbert–Elliott) loss, delay spikes, frame duplication,
reordering, byte corruption, node crash/restart windows, link
partitions, and backend (update-plane) outages — each a declarative
:class:`Fault` entry with a start/stop window in simulated time and an
explicit target set, grouped into a :class:`FaultSchedule`.

Determinism is load-bearing: the schedule plus the network seed fully
determine every draw (the fault layer keeps its own
``random.Random``, separate from the link model's), so a chaos run is
byte-identical run-to-run — the same property every other experiment in
:mod:`repro.net.simulator` relies on, now extended to failure modes.

The recovery side lives in :mod:`repro.net.run` (per-exchange
retransmission with backoff, round re-broadcast as the outer fallback)
and :mod:`repro.protocol.object` (idempotent duplicate handling, pending
-handshake TTL, decoy RRES); see docs/robustness.md for the full fault
vocabulary and the §VI-B indistinguishability argument for recovery
paths.
"""

from __future__ import annotations

import enum
import math
import random
from collections import Counter
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """The fault vocabulary; each kind reads its own knobs off the entry."""

    #: Gilbert–Elliott two-state loss: frames die with ``severity``
    #: inside a burst and ``background_loss`` outside; ``p_enter_burst``
    #: / ``p_exit_burst`` shape burst arrival and dwell per frame.
    BURST_LOSS = "burst_loss"
    #: Every affected frame's delivery is delayed by ``extra_delay_s``.
    DELAY_SPIKE = "delay_spike"
    #: Each affected frame is delivered twice with probability
    #: ``severity`` (the copy trails by ``extra_delay_s``).
    DUPLICATION = "duplication"
    #: Each affected frame is held back by a uniform extra delay in
    #: ``[0, extra_delay_s]`` with probability ``severity``, letting
    #: later frames overtake it.
    REORDER = "reorder"
    #: Each affected frame's bytes are flipped with probability
    #: ``severity``; it arrives as a :class:`CorruptedFrame`.
    CORRUPTION = "corruption"
    #: Every node in ``nodes`` is down for the window: its frames are
    #: dropped, its in-flight handshake state is lost, and it rejoins
    #: cold at ``stop_s``.
    CRASH = "crash"
    #: Frames crossing any link in ``links`` (or touching any node in
    #: ``nodes``) are dropped for the window.
    PARTITION = "partition"
    #: The backend update plane is unreachable for the window; pushes
    #: queue in an :class:`UpdateOutageBuffer` until it heals.
    BACKEND_OUTAGE = "backend_outage"


@dataclass(frozen=True)
class Fault:
    """One declarative fault: what, when, where, how hard.

    ``nodes``/``links`` scope the fault; both empty means "everywhere".
    A frame is affected when either endpoint of its hop is in ``nodes``
    or its (unordered) hop pair is in ``links``.
    """

    kind: FaultKind
    start_s: float = 0.0
    stop_s: float = math.inf
    nodes: tuple[str, ...] = ()
    links: tuple[tuple[str, str], ...] = ()
    #: Main intensity knob in [0, 1]; meaning is kind-specific (loss
    #: probability in a burst, duplication/reorder/corruption probability).
    severity: float = 0.5
    #: BURST_LOSS: per-frame probability of entering / leaving a burst.
    p_enter_burst: float = 0.08
    p_exit_burst: float = 0.30
    #: BURST_LOSS: loss probability outside bursts.
    background_loss: float = 0.0
    #: DELAY_SPIKE / DUPLICATION / REORDER: the extra delay (seconds).
    extra_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.stop_s < self.start_s:
            raise ValueError(f"fault window ends before it starts: {self}")
        for name, value in (
            ("severity", self.severity),
            ("p_enter_burst", self.p_enter_burst),
            ("p_exit_burst", self.p_exit_burst),
            ("background_loss", self.background_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.extra_delay_s < 0:
            raise ValueError(f"negative extra_delay_s: {self.extra_delay_s}")
        if self.kind is FaultKind.CRASH and not self.nodes:
            raise ValueError("CRASH fault needs explicit target nodes")
        if self.kind is FaultKind.CRASH and not math.isfinite(self.stop_s):
            raise ValueError("CRASH fault needs a finite restart time")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.stop_s

    def hits(self, src: str, dst: str, now: float) -> bool:
        """Active at *now* and scoped to the ``src``-``dst`` hop."""
        return self.active(now) and self.targets_hop(src, dst)

    def targets_hop(self, src: str, dst: str) -> bool:
        if not self.nodes and not self.links:
            return True
        if src in self.nodes or dst in self.nodes:
            return True
        pair = (src, dst) if src <= dst else (dst, src)
        return any(
            pair == ((a, b) if a <= b else (b, a)) for a, b in self.links
        )

    @property
    def mean_loss(self) -> float:
        """BURST_LOSS stationary loss rate (burst fraction x severity)."""
        denom = self.p_enter_burst + self.p_exit_burst
        if denom == 0:
            return self.background_loss
        burst_fraction = self.p_enter_burst / denom
        return (
            burst_fraction * self.severity
            + (1 - burst_fraction) * self.background_loss
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, reproducible chaos plan for one simulation run."""

    entries: tuple[Fault, ...] = ()
    #: Folded into the fault layer's RNG seed so two schedules with the
    #: same entries can still diverge deliberately.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def active(self, kind: FaultKind, now: float):
        for entry in self.entries:
            if entry.kind is kind and entry.active(now):
                yield entry

    def crash_windows(self) -> list[Fault]:
        return [e for e in self.entries if e.kind is FaultKind.CRASH]

    def backend_up(self, now: float) -> bool:
        return next(self.active(FaultKind.BACKEND_OUTAGE, now), None) is None

    def describe(self) -> list[str]:
        out = []
        for entry in self.entries:
            stop = "inf" if math.isinf(entry.stop_s) else f"{entry.stop_s:g}"
            where = ",".join(entry.nodes) or (
                "|".join(f"{a}-{b}" for a, b in entry.links) or "all"
            )
            out.append(
                f"{entry.kind.value}[{entry.start_s:g},{stop}) "
                f"sev={entry.severity:g} @ {where}"
            )
        return out


@dataclass(frozen=True)
class CorruptedFrame:
    """A frame whose bytes were mangled in flight.

    Delivered in place of the original message; the receiving node must
    record an error and move on — the
    ``tests/protocol/test_robustness.py`` contract extended to the wire
    path (a crashing device is a free DoS the link layer must not hand
    out).
    """

    raw: bytes
    original_type: str

    def to_bytes(self) -> bytes:
        return self.raw


@dataclass
class FrameFate:
    """What the fault layer decided for one frame on one hop."""

    dropped: bool = False
    duplicate: bool = False
    extra_delay_s: float = 0.0
    corrupt: bool = False


class FaultLayer:
    """Runtime fault state for one :class:`GroundNetwork`.

    Owns its own RNG (never the link model's — installing a fault layer
    must not perturb the loss/jitter draws of an otherwise identical
    run) and the per-link Gilbert–Elliott burst states.  Install with
    ``GroundNetwork(..., faults=FaultLayer(schedule, seed=seed))`` or
    pass a bare :class:`FaultSchedule` and let the network wrap it.
    """

    def __init__(self, schedule: FaultSchedule, seed: int = 0) -> None:
        self.schedule = schedule
        self.rng = random.Random((seed & 0xFFFFFFFF) << 16 ^ schedule.seed ^ 0xFA017)
        # The schedule is frozen: split its entries by kind once, each in
        # schedule order, instead of rescanning them all on every frame.
        def of_kind(kind: FaultKind) -> tuple[Fault, ...]:
            return tuple(e for e in schedule.entries if e.kind is kind)

        self._crashes = of_kind(FaultKind.CRASH)
        self._partitions = of_kind(FaultKind.PARTITION)
        self._burst_losses = of_kind(FaultKind.BURST_LOSS)
        self._delay_spikes = of_kind(FaultKind.DELAY_SPIKE)
        self._reorders = of_kind(FaultKind.REORDER)
        self._duplications = of_kind(FaultKind.DUPLICATION)
        self._corruptions = of_kind(FaultKind.CORRUPTION)
        #: (link key, fault id) -> currently inside a burst.
        self._burst: dict[tuple, bool] = {}
        self.counters: Counter = Counter()
        self._net = None

    # -- installation -------------------------------------------------------------

    def install(self, net) -> None:
        """Bind to a network: schedule crash/restart state transitions."""
        self._net = net
        for window in self.schedule.crash_windows():
            for name in window.nodes:
                net.sim.at(window.start_s, lambda n=name: self._crash(n))
                net.sim.at(window.stop_s, lambda n=name: self._restart(n))

    def _crash(self, name: str) -> None:
        node = self._net.nodes.get(name)
        if node is None:
            return
        self.counters["node_crashes"] += 1
        node.crash_reset(self._net.sim.now)

    def _restart(self, name: str) -> None:
        node = self._net.nodes.get(name)
        if node is None:
            return
        self.counters["node_restarts"] += 1
        # Rejoining cold: nothing to restore — crash_reset dropped the
        # volatile state; durable state (credentials, ticket keyring,
        # replay ledger) survives like flash storage would.
        node.cpu_busy_until = self._net.sim.now

    # -- queries the transport makes ----------------------------------------------

    def node_down(self, name: str, now: float) -> bool:
        if not self._crashes:
            return False
        return any(
            name in entry.nodes for entry in self._crashes if entry.active(now)
        )

    def hop_blocked(self, src: str, dst: str, now: float) -> bool:
        if not (self._crashes or self._partitions):
            return False
        if self.node_down(src, now) or self.node_down(dst, now):
            return True
        return any(entry.hits(src, dst, now) for entry in self._partitions)

    def frame_fate(self, src: str, dst: str, now: float) -> FrameFate:
        """Roll every active fault against one frame, in a fixed order.

        The draw order (loss, delay, reorder, duplication, corruption)
        is part of the determinism contract: identical schedules consume
        identical RNG streams.
        """
        fate = FrameFate()
        if self.hop_blocked(src, dst, now):
            fate.dropped = True
            self.counters["frames_blocked"] += 1
            return fate
        for entry in self._burst_losses:
            if entry.hits(src, dst, now) and self._burst_lost(entry, src, dst):
                fate.dropped = True
        if fate.dropped:
            self.counters["frames_lost_burst"] += 1
            return fate
        for entry in self._delay_spikes:
            if entry.hits(src, dst, now):
                fate.extra_delay_s += entry.extra_delay_s
                self.counters["frames_delayed"] += 1
        for entry in self._reorders:
            if entry.hits(src, dst, now) and self.rng.random() < entry.severity:
                fate.extra_delay_s += self.rng.uniform(0.0, entry.extra_delay_s)
                self.counters["frames_reordered"] += 1
        for entry in self._duplications:
            if entry.hits(src, dst, now) and self.rng.random() < entry.severity:
                fate.duplicate = True
                self.counters["frames_duplicated"] += 1
        for entry in self._corruptions:
            if entry.hits(src, dst, now) and self.rng.random() < entry.severity:
                fate.corrupt = True
                self.counters["frames_corrupted"] += 1
        return fate

    def _burst_lost(self, entry: Fault, src: str, dst: str) -> bool:
        """Advance one Gilbert–Elliott chain by one frame; return loss."""
        link = (src, dst) if src <= dst else (dst, src)
        key = (link, id(entry))
        in_burst = self._burst.get(key, False)
        lost = self.rng.random() < (
            entry.severity if in_burst else entry.background_loss
        )
        if in_burst:
            if self.rng.random() < entry.p_exit_burst:
                in_burst = False
        elif self.rng.random() < entry.p_enter_burst:
            in_burst = True
        self._burst[key] = in_burst
        return lost

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Flip 1–3 bytes at deterministic positions (never a no-op)."""
        if not data:
            return data
        mangled = bytearray(data)
        for _ in range(self.rng.randint(1, min(3, len(mangled)))):
            index = self.rng.randrange(len(mangled))
            mangled[index] ^= self.rng.randint(1, 255)
        return bytes(mangled)

    def backend_up(self, now: float) -> bool:
        return self.schedule.backend_up(now)


@dataclass
class UpdateOutageBuffer:
    """Backend pushes queued across an update-plane outage.

    §IV-A wants backend changes "immediately propagated"; an outage
    breaks "immediately", not "propagated" — pushes buffer here (in
    publish order, preserving the
    :class:`~repro.backend.updatewire.UpdateReceiver` sequence
    discipline) and flush when the plane heals.  The receiver's own
    checks still run on every flushed message, so an outage can delay
    but never forge or reorder an update.

    ``node`` (optional) names the receiving device, extending the
    reachability check to *overlapping* windows: a push is held back not
    only while the backend is down but while the node itself is crashed
    or partitioned away — flushing into a dead link would count the push
    as delivered while the device never saw it.  Re-delivery of a push
    already queued (a publisher retrying into the outage) is suppressed
    by sequence number, so however the windows overlap, a node crashed
    through an outage drains each buffered push **exactly once** on cold
    rejoin.
    """

    receiver: object  # repro.backend.updatewire.UpdateReceiver
    schedule: FaultSchedule
    #: Receiving device's node name; None skips node-window checks.
    node: str | None = None
    queued: list = field(default_factory=list)
    delivered: int = 0
    deferred: int = 0
    #: Duplicate submissions of an already-queued sequence, dropped.
    duplicates_suppressed: int = 0

    def _reachable(self, now: float) -> bool:
        """Both ends up and the path between them unbroken."""
        if not self.schedule.backend_up(now):
            return False
        if self.node is None:
            return True
        if any(
            self.node in entry.nodes
            for entry in self.schedule.active(FaultKind.CRASH, now)
        ):
            return False
        return not any(
            self.node in entry.nodes
            for entry in self.schedule.active(FaultKind.PARTITION, now)
        )

    def _is_queued(self, message) -> bool:
        sequence = getattr(message, "sequence", None)
        if sequence is None:
            return message in self.queued
        return any(
            getattr(queued, "sequence", None) == sequence
            for queued in self.queued
        )

    def deliver(self, message, now: float) -> bool:
        """Apply *message* now, or queue it while the path is broken."""
        if not self._reachable(now):
            if self._is_queued(message):
                self.duplicates_suppressed += 1
            else:
                self.queued.append(message)
            self.deferred += 1
            return False
        self.flush(now)
        self.delivered += 1
        return self.receiver.apply(message)

    def flush(self, now: float) -> int:
        """Apply everything queued, oldest first; returns the count."""
        if not self._reachable(now):
            return 0
        flushed = 0
        while self.queued:
            self.receiver.apply(self.queued.pop(0))
            self.delivered += 1
            flushed += 1
        return flushed


#: Ready-made schedules for the chaos matrix (severity scaled by level).
def burst_loss_schedule(
    mean_loss: float, seed: int = 0, severity: float = 0.9
) -> FaultSchedule:
    """A whole-run Gilbert–Elliott schedule with the given average loss.

    Solves ``p_enter / (p_enter + p_exit) * severity = mean_loss`` for
    the burst-entry probability at a fixed exit rate, so "20% burst
    loss" means 20% of frames die on average, concentrated in bursts.
    """
    if not 0.0 <= mean_loss < severity:
        raise ValueError(f"mean_loss {mean_loss} must be in [0, severity)")
    p_exit = 0.30
    burst_fraction = mean_loss / severity
    p_enter = p_exit * burst_fraction / (1.0 - burst_fraction)
    return FaultSchedule(
        (
            Fault(
                FaultKind.BURST_LOSS,
                severity=severity,
                p_enter_burst=p_enter,
                p_exit_burst=p_exit,
            ),
        ),
        seed=seed,
    )
