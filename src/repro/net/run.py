"""Simulated discovery runs — the driver behind Fig. 6(e)–(h).

Builds a :class:`GroundNetwork` over a topology, installs the *same*
protocol engines the in-memory path uses, broadcasts QUE1 at t=0, and
records when each object's discovery completes on the subject. Sorted
completion times are exactly the paper's "discovery time cost vs number
of objects" curves.

Lost QUE2s are re-sent by :class:`~repro.net.retry.Retransmissions`, the
table the live client shares (``RetryPolicy`` is re-exported from here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.backend.registration import ObjectCredentials, SubjectCredentials
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3, DeviceProfile
from repro.net.faults import FaultLayer, FaultSchedule
from repro.net.node import GroundNetwork, SimNode, SizeMode, TimingMode
from repro.net.radio import DEFAULT_WIFI, LinkModel
from repro.net.retry import Retransmissions, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, hop_distance, star
from repro.protocol.messages import Que2, Res1Level1, Res2, Rque
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version


@dataclass
class DiscoveryTimeline:
    """Results of one simulated discovery run."""

    #: object id -> simulated time (s) its discovery completed.
    completion: dict[str, float] = field(default_factory=dict)
    #: object id -> hop distance from the subject.
    hops: dict[str, int] = field(default_factory=dict)
    #: total subject compute seconds (simulated).
    subject_compute_s: float = 0.0
    #: per-object compute seconds (simulated).
    object_compute_s: dict[str, float] = field(default_factory=dict)
    services: list = field(default_factory=list)
    #: QUE2/RQUE frames the retry layer re-sent.
    retransmissions: int = 0
    #: Exchanges (not attempts) whose retry budget or ``give_up_s``
    #: deadline ran out — each abandoned exchange counts exactly once,
    #: however many backoff timers fired on the way there.
    exchanges_given_up: int = 0
    #: Frames the link model or fault layer dropped.
    messages_lost: int = 0

    @property
    def completion_curve(self) -> list[float]:
        """Sorted completion times: entry k-1 = time to discover k objects."""
        return sorted(self.completion.values())

    @property
    def total_time(self) -> float:
        return max(self.completion.values()) if self.completion else 0.0

    def mean_latency_by_hops(self) -> dict[int, float]:
        """Average per-object completion time grouped by hop count (Fig. 6(h))."""
        by_hop: dict[int, list[float]] = {}
        for object_id, t in self.completion.items():
            by_hop.setdefault(self.hops[object_id], []).append(t)
        return {h: sum(v) / len(v) for h, v in sorted(by_hop.items())}


def simulate_discovery(
    subject_creds: SubjectCredentials,
    object_creds: list[ObjectCredentials],
    graph: nx.Graph | None = None,
    link: LinkModel = DEFAULT_WIFI,
    timing: TimingMode = TimingMode.CALIBRATED,
    sizes: SizeMode = SizeMode.NOMINAL,
    version: Version = Version.V3_0,
    subject_profile: DeviceProfile = NEXUS6,
    object_profile: DeviceProfile = RASPBERRY_PI3,
    group_id: str | None = None,
    seed: int = 0,
    deadline_s: float = 60.0,
    max_rounds: int = 1,
    round_interval_s: float = 2.0,
    retry: RetryPolicy | None = None,
    faults: FaultLayer | FaultSchedule | None = None,
    max_events: int = 1_000_000,
    on_delivery=None,
) -> DiscoveryTimeline:
    """Run a discovery over the simulated ground network.

    With a lossy link model (``link.loss_rate > 0``) a single round may
    miss objects whose frames were dropped; ``max_rounds > 1`` makes the
    subject re-broadcast a fresh QUE1 every ``round_interval_s`` until
    everything is found or the rounds are exhausted — the natural
    recovery strategy for a protocol without per-message ACKs. A
    re-broadcast round handshakes only with the objects not found yet:
    found objects still answer the QUE1, but the subject drops their
    RES1 unverified, so ``timeline.services`` holds each object once.

    ``retry`` adds the finer-grained inner loop: per-object QUE2/RQUE
    retransmission timers (see :class:`RetryPolicy`), so one lost frame
    costs a backoff interval instead of a whole round. ``faults``
    installs a chaos layer (:mod:`repro.net.faults`) on the network;
    ``max_events`` raises the simulator's event budget for long chaos
    runs (exceeding it raises
    :class:`~repro.net.simulator.SimulationBudgetExceeded`).
    ``on_delivery`` taps the network's delivery hook — an eavesdropper's
    view of every frame, ``(time, src, dst, message)`` — which is how
    the fault experiments capture wire traffic for the distinguisher.
    """
    if graph is None:
        graph = star([c.object_id for c in object_creds])

    sim = Simulator()
    net = GroundNetwork(sim, graph, link, timing, sizes, seed=seed, faults=faults)

    subject_engine = SubjectEngine(subject_creds, version)
    subject_node = SimNode(SUBJECT, "subject", subject_profile, subject_engine)
    net.add_node(subject_node)

    for creds in object_creds:
        # Wire path: duplicated/retransmitted QUE2s get the byte-identical
        # cached RES2 back (idempotent recovery, see docs/robustness.md).
        engine = ObjectEngine(creds, version, resend_cached_res2=True)
        net.add_node(SimNode(creds.object_id, "object", object_profile, engine))

    for node_name, data in graph.nodes(data=True):
        if data.get("role") == "relay":
            net.add_node(SimNode(node_name, "relay", object_profile))

    timeline = DiscoveryTimeline()
    for creds in object_creds:
        timeline.hops[creds.object_id] = hop_distance(graph, creds.object_id)

    # The subject's in-flight QUE2s; a completed object settles its entry
    # and a new round clears the table (a fresh QUE1 supersedes them).
    table = Retransmissions(retry or RetryPolicy(), seed)

    # Completion detection: a discovery completes when the subject node
    # finishes processing the message that yields a DiscoveredService —
    # a Level 1 RES1 or a RES2.
    seen_count = {"n": 0}

    def on_processed(t: float, node_name: str, message) -> None:
        if node_name == SUBJECT and isinstance(message, (Res1Level1, Res2)):
            for service in subject_engine.discovered[seen_count["n"]:]:
                timeline.completion.setdefault(service.object_id, t)
                table.settle(service.object_id)
            seen_count["n"] = len(subject_engine.discovered)

    net.on_processed = on_processed
    if on_delivery is not None:
        net.on_delivery = on_delivery

    if retry is not None:
        # Each QUE2/RQUE sent schedules a check at its deadline; a check
        # re-sends the *same* frame (the object's idempotent duplicate
        # handling sees byte-identical bytes) back through on_sent.
        def check() -> None:
            resends, gave_up = table.due(sim.now)
            for dst, message in resends:
                timeline.retransmissions += 1
                net.unicast(SUBJECT, dst, message)
            timeline.exchanges_given_up += len(gave_up)

        def on_sent(t: float, src: str, dst: str, message) -> None:
            if src == SUBJECT and isinstance(message, (Que2, Rque)):
                # Exact: at() adds (t + timeout) - t to t, which rounds back to t + timeout.
                sim.at(table.sent(dst, message, t), check)

        net.on_sent = on_sent

    expected = len(object_creds)

    def launch_round(round_index: int) -> None:
        if len(timeline.completion) >= expected:
            return
        table.clear()
        # Seek only the objects not found yet.  The engine's view, not
        # ``timeline.completion``: completion is stamped when the subject's
        # CPU finishes a RES2, which can be after this round starts.
        settled = {service.object_id for service in subject_engine.discovered}
        que1 = subject_engine.start_round(group_id, settled=settled)
        net.broadcast(SUBJECT, que1)
        if round_index + 1 < max_rounds:
            sim.schedule(
                round_interval_s, lambda: launch_round(round_index + 1)
            )

    sim.schedule(0.0, lambda: launch_round(0))
    sim.run(until=deadline_s, max_events=max_events)

    timeline.messages_lost = net.messages_lost
    timeline.subject_compute_s = subject_node.stats.compute_s
    for creds in object_creds:
        timeline.object_compute_s[creds.object_id] = net.nodes[
            creds.object_id
        ].stats.compute_s
    timeline.services = list(subject_engine.discovered)
    return timeline


def simulate_multi_group_discovery(
    subject_creds: SubjectCredentials,
    object_creds: list[ObjectCredentials],
    graph: nx.Graph | None = None,
    link: LinkModel = DEFAULT_WIFI,
    timing: TimingMode = TimingMode.CALIBRATED,
    sizes: SizeMode = SizeMode.NOMINAL,
    version: Version = Version.V3_0,
    subject_profile: DeviceProfile = NEXUS6,
    object_profile: DeviceProfile = RASPBERRY_PI3,
    seed: int = 0,
) -> tuple[DiscoveryTimeline, list[float]]:
    """§VI-C over the air: one discovery round per group key, in turn.

    A subject in several secret groups "can automatically use her group
    keys in turns (one at a time) … till all her authorized covert
    services are found". Rounds run back to back; returns the merged
    timeline (completion times offset by the preceding rounds' durations,
    keeping each object's best = highest-level sighting) plus the list of
    per-round durations — the marginal cost of each additional sensitive
    attribute.
    """
    group_ids = list(subject_creds.group_keys) or [None]
    merged = DiscoveryTimeline()
    round_durations: list[float] = []
    best_level: dict[str, int] = {}
    offset = 0.0
    for index, group_id in enumerate(group_ids):
        timeline = simulate_discovery(
            subject_creds, object_creds, graph=graph, link=link,
            timing=timing, sizes=sizes, version=version,
            subject_profile=subject_profile, object_profile=object_profile,
            group_id=group_id, seed=seed + index,
        )
        merged.hops = timeline.hops
        merged.subject_compute_s += timeline.subject_compute_s
        for object_id, compute in timeline.object_compute_s.items():
            merged.object_compute_s[object_id] = (
                merged.object_compute_s.get(object_id, 0.0) + compute
            )
        for service in timeline.services:
            object_id = service.object_id
            if service.level_seen > best_level.get(object_id, 0):
                best_level[object_id] = service.level_seen
                merged.completion[object_id] = offset + timeline.completion[object_id]
                merged.services = [
                    s for s in merged.services if s.object_id != object_id
                ] + [service]
        round_durations.append(timeline.total_time)
        offset += timeline.total_time
    return merged, round_durations
