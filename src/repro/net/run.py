"""Simulated discovery runs — the driver behind Fig. 6(e)–(h).

Builds a :class:`GroundNetwork` over a topology, installs the *same*
protocol engines the in-memory path uses, broadcasts QUE1 at t=0, and
records when each object's discovery completes on the subject. Sorted
completion times are exactly the paper's "discovery time cost vs number
of objects" curves.

One body drives one subject or many, each through its own
:class:`~repro.protocol.tracker.SubjectTracker` and retry table, as the
live client does (``RetryPolicy`` is re-exported from here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.registration import ObjectCredentials, SubjectCredentials
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3, DeviceProfile
from repro.net.faults import FaultLayer, FaultSchedule
from repro.net.node import GroundNetwork, SimNode, SizeMode, TimingMode
from repro.net.radio import DEFAULT_WIFI, LinkModel
from repro.net.retry import Retransmissions, RetryPolicy
from repro.net.simulator import Simulator
from repro.net.topology import SUBJECT, Topology, hop_distance, shared_floor, star
from repro.protocol.discovery import run_round
from repro.protocol.messages import Que1, Res1Level1, Res2, Rres
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.tracker import SubjectTracker
from repro.protocol.versions import Version


@dataclass
class DiscoveryTimeline:
    """Results of one simulated discovery run."""

    #: object id -> simulated time (s) its discovery completed.
    completion: dict[str, float] = field(default_factory=dict)
    #: object id -> hop distance from the subject, for every object the
    #: run sought (a resumed run seeks the objects it holds tickets for).
    hops: dict[str, int] = field(default_factory=dict)
    #: total subject compute seconds (simulated).
    subject_compute_s: float = 0.0
    #: per-object compute seconds (simulated; over every subject served).
    object_compute_s: dict[str, float] = field(default_factory=dict)
    services: list = field(default_factory=list)
    #: QUE2/RQUE frames the retry layer re-sent.
    retransmissions: int = 0
    #: Exchanges (not attempts) whose retry budget or ``give_up_s``
    #: deadline ran out — each abandoned exchange counts exactly once,
    #: however many backoff timers fired on the way there.
    exchanges_given_up: int = 0
    #: Frames the link model or fault layer dropped (network-wide).
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
    graph: Topology | None = None,
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
    subject start a fresh QUE1 round every ``round_interval_s`` until
    everything is found or the rounds are exhausted — the natural
    recovery strategy for a protocol without per-message ACKs. Round 0
    broadcasts its QUE1; each later round unicasts it to the objects not
    found yet, as the live client does, so a found object answers no
    further QUE1 and ``timeline.services`` holds each object once.  A
    QUE1 is never retransmitted: the next round is its retry.

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
    return _simulate(
        [(SUBJECT, subject_creds)], object_creds, graph, link, timing, sizes,
        version, subject_profile, object_profile, group_id, seed, deadline_s,
        max_rounds, round_interval_s, retry, faults, max_events, on_delivery,
    )[0]


@dataclass
class ConcurrentTimeline:
    """Per-subject completion results of a concurrent run."""

    #: subject id -> time (s) it finished discovering ALL objects.
    subject_completion: dict[str, float] = field(default_factory=dict)
    #: subject id -> number of objects it discovered.
    discovered_counts: dict[str, int] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Time until the last subject finished."""
        return max(self.subject_completion.values(), default=0.0)

    @property
    def mean_completion(self) -> float:
        values = list(self.subject_completion.values())
        return sum(values) / len(values) if values else 0.0


def simulate_concurrent_discovery(
    subject_creds: list[SubjectCredentials],
    object_creds: list[ObjectCredentials],
    link: LinkModel = DEFAULT_WIFI,
    timing: TimingMode = TimingMode.CALIBRATED,
    sizes: SizeMode = SizeMode.NOMINAL,
    version: Version = Version.V3_0,
    subject_profile: DeviceProfile = NEXUS6,
    object_profile: DeviceProfile = RASPBERRY_PI3,
    stagger_s: float = 0.0,
    seed: int = 0,
    deadline_s: float = 120.0,
    resumption: bool = False,
    max_rounds: int = 1,
    round_interval_s: float = 2.0,
    retry: RetryPolicy | None = None,
    faults: FaultLayer | FaultSchedule | None = None,
    on_delivery=None,
) -> ConcurrentTimeline:
    """All subjects discover the same fleet over one shared channel (§II-C).

    Each subject runs its own rounds exactly as in :func:`simulate_discovery`,
    whose keywords mean the same here; ``stagger_s`` spaces their first
    rounds (0 = simultaneous burst, the worst case for contention).
    ``resumption`` simulates a *re*-discovery: each subject first completes
    one in-memory discovery (an earlier visit, off the air), then opens
    with unicast RQUEs to the objects it holds tickets for, its target.
    """
    subject_ids = [c.subject_id for c in subject_creds]
    timelines = _simulate(
        list(zip(subject_ids, subject_creds)), object_creds,
        shared_floor(subject_ids, [c.object_id for c in object_creds]),
        link, timing, sizes, version, subject_profile, object_profile, None,
        seed, deadline_s, max_rounds, round_interval_s, retry, faults,
        1_000_000, on_delivery, stagger_s, resumption,
    )
    result = ConcurrentTimeline()
    for subject_id, timeline in zip(subject_ids, timelines):
        found = result.discovered_counts[subject_id] = len(timeline.completion)
        if found and found >= len(timeline.hops):
            result.subject_completion[subject_id] = timeline.total_time
    return result


def _simulate(
    subjects, object_creds, graph, link, timing, sizes, version, subject_profile,
    object_profile, group_id, seed, deadline_s, max_rounds, round_interval_s,
    retry, faults, max_events, on_delivery, stagger_s=0.0, resumption=False,
) -> list[DiscoveryTimeline]:
    """The one simulated driver: a timeline per ``(node, creds)`` subject,
    each subject with its own tracker, retry table and rounds."""
    sim = Simulator()
    net = GroundNetwork(sim, graph, link, timing, sizes, seed=seed, faults=faults)
    objects: dict[str, ObjectEngine] = {}
    for creds in object_creds:
        # Wire path: duplicated/retransmitted QUE2s get the byte-identical
        # cached RES2 back (idempotent recovery, see docs/robustness.md).
        objects[creds.object_id] = engine = ObjectEngine(
            creds, version, issue_tickets=resumption, resend_cached_res2=True
        )
        net.add_node(SimNode(creds.object_id, "object", object_profile, engine))
    for node_name, role in graph.roles.items():
        if role == "relay":
            net.add_node(SimNode(node_name, "relay", object_profile))

    trackers: dict[str, SubjectTracker] = {}
    #: Each timeline's ``hops`` keys are the objects its subject seeks.
    timelines: dict[str, DiscoveryTimeline] = {}
    for index, (name, creds) in enumerate(subjects):
        engine = SubjectEngine(creds, version)
        if resumption:
            run_round(engine, objects)  # the earlier visit
            engine.discovered.clear()
            engine.established.clear()
            engine.errors.clear()
        # No tickets (e.g. a pure Level 1 fleet) -> full discovery.
        sought = [oid for oid in objects if engine.has_ticket(oid)] or objects
        trackers[name] = SubjectTracker(
            engine, Retransmissions(retry or RetryPolicy(), seed + index)
        )
        timelines[name] = DiscoveryTimeline(
            hops={oid: hop_distance(graph, oid, name) for oid in sought}
        )
        net.add_node(SimNode(name, "subject", subject_profile, trackers[name]))

    def launch_round(name: str, index: int) -> None:
        tracker, targets = trackers[name], timelines[name].hops
        if len(timelines[name].completion) >= len(targets):
            return
        if index == 0 and tracker.engine.tickets:
            for peer, rque in tracker.start_resumption(targets):
                net.unicast(name, peer, rque)
        else:
            # Seek only the objects not found yet.  The engine's view, not
            # the timeline's: completion is stamped when the subject's CPU
            # finishes a reply, which can be after this round starts.
            found = {service.object_id for service in tracker.engine.discovered}
            unfound = [o for o in targets if o not in found]
            que1 = tracker.start_round(unfound, group_id)
            if index == 0:
                net.broadcast(name, que1)
            else:
                # A re-round asks only the objects still unfound, as the
                # live client does: a found object signs no RES1 to drop.
                for peer in unfound:
                    net.unicast(name, peer, que1)
        if index + 1 < max_rounds:
            sim.schedule(round_interval_s, lambda: launch_round(name, index + 1))

    #: subject -> peer -> service its tracker settled, held until the
    #: subject's CPU finishes that peer's reply.
    held: dict[str, dict] = {name: {} for name in trackers}

    def on_processed(t: float, node_name: str, src: str, message) -> None:
        # The handler settles an exchange when the reply is delivered;
        # its completion is stamped when the subject's CPU finishes it.
        if node_name in trackers and isinstance(message, (Res1Level1, Res2, Rres)):
            settled = held[node_name]
            for peer, service in trackers[node_name].collect():
                if service is not None:
                    settled[peer] = service
            service = settled.pop(src, None)
            if service is not None:
                timelines[node_name].completion.setdefault(service.object_id, t)

    net.on_processed = on_processed
    if on_delivery is not None:
        net.on_delivery = on_delivery
    if retry is not None:
        # Each QUE2/RQUE sent schedules a check at its deadline; a check
        # re-sends the *same* frame (the object's idempotent duplicate
        # handling sees byte-identical bytes) back through on_sent.
        def check(name: str) -> None:
            resends, gave_up = trackers[name].table.due(sim.now)
            for dst, message in resends:
                timelines[name].retransmissions += 1
                net.unicast(name, dst, message)
            timelines[name].exchanges_given_up += len(gave_up)

        def on_sent(t: float, src: str, dst: str, message) -> None:
            # A QUE1 is never re-sent: the next round is its retry.
            if src in trackers and not isinstance(message, Que1):
                # Exact: at() adds (t + timeout) - t to t, which rounds back to t + timeout.
                sim.at(trackers[src].table.sent(dst, message, t), lambda: check(src))

        net.on_sent = on_sent

    for index, name in enumerate(trackers):
        sim.schedule(index * stagger_s, lambda name=name: launch_round(name, 0))
    sim.run(until=deadline_s, max_events=max_events)

    object_compute_s = {oid: net.nodes[oid].stats.compute_s for oid in objects}
    for name, timeline in timelines.items():
        timeline.messages_lost = net.messages_lost
        timeline.subject_compute_s = net.nodes[name].stats.compute_s
        timeline.object_compute_s = dict(object_compute_s)
        timeline.services = list(trackers[name].engine.discovered)
    return list(timelines.values())


def simulate_multi_group_discovery(
    subject_creds: SubjectCredentials,
    object_creds: list[ObjectCredentials],
    graph: Topology | None = None,
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
