"""Concurrent multi-subject discovery — an extension experiment.

The paper evaluates one subject at a time; enterprises have thousands
(§II-C). This driver puts several subjects in one collision domain and
measures how per-subject discovery time degrades as the channel is
shared — the natural next question after Fig. 6(e), and the kind of
result the paper's "concurrent discoveries" design implies but never
measures. Each subject runs an independent Argus round; objects serve
all of them (their session tables are per-peer already).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.registration import ObjectCredentials, SubjectCredentials
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3, DeviceProfile
from repro.net.node import GroundNetwork, SimNode, SizeMode, TimingMode
from repro.net.radio import DEFAULT_WIFI, LinkModel
from repro.net.simulator import Simulator
from repro.net.topology import shared_floor
from repro.protocol.discovery import run_round
from repro.protocol.messages import Res1Level1, Res2, Rres
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version


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
) -> ConcurrentTimeline:
    """All subjects discover the same object fleet over one shared channel.

    ``stagger_s`` spaces the QUE1 broadcasts (0 = simultaneous burst, the
    worst case for contention).

    ``resumption`` simulates a *re*-discovery: every subject first
    completes one full in-memory discovery against the fleet (off the
    simulated air — it models an earlier visit), collecting resumption
    tickets; the simulated round then opens with unicast RQUEs instead
    of a QUE1 broadcast.  Each subject's completion target is the set of
    objects it holds tickets for.
    """
    subject_ids = [c.subject_id for c in subject_creds]
    object_ids = [c.object_id for c in object_creds]
    graph = shared_floor(subject_ids, object_ids)

    sim = Simulator()
    net = GroundNetwork(sim, graph, link, timing, sizes, seed=seed)

    engines: dict[str, SubjectEngine] = {}
    for creds in subject_creds:
        engine = SubjectEngine(creds, version)
        engines[creds.subject_id] = engine
        net.add_node(SimNode(creds.subject_id, "subject", subject_profile, engine))
    object_engines: dict[str, ObjectEngine] = {
        creds.object_id: ObjectEngine(creds, version, issue_tickets=resumption)
        for creds in object_creds
    }
    for creds in object_creds:
        net.add_node(
            SimNode(creds.object_id, "object", object_profile, object_engines[creds.object_id])
        )

    timeline = ConcurrentTimeline()
    expected: dict[str, int] = {}
    if resumption:
        for name, engine in engines.items():
            run_round(engine, object_engines)  # the earlier visit
            engine.discovered.clear()
            engine.established.clear()
            engine.errors.clear()
            # No tickets (e.g. a pure Level 1 fleet) -> full re-discovery.
            expected[name] = len(engine.tickets) or len(object_creds)
    else:
        expected = {name: len(object_creds) for name in engines}

    def on_processed(t: float, node_name: str, message) -> None:
        engine = engines.get(node_name)
        if engine is None or not isinstance(message, (Res1Level1, Res2, Rres)):
            return
        found = {s.object_id for s in engine.discovered}
        timeline.discovered_counts[node_name] = len(found)
        if len(found) >= expected[node_name]:
            timeline.subject_completion.setdefault(node_name, t)

    net.on_processed = on_processed

    for index, creds in enumerate(subject_creds):
        engine = engines[creds.subject_id]
        delay = index * stagger_s

        def kick(engine=engine, name=creds.subject_id) -> None:
            ticketed = [oid for oid in object_ids if engine.has_ticket(oid)]
            if resumption and ticketed:
                for object_id in ticketed:
                    rque = engine.start_resumption(object_id)
                    assert rque is not None
                    net.unicast(name, object_id, rque)
            else:
                que1 = engine.start_round()
                net.broadcast(name, que1)

        sim.schedule(delay, kick)

    sim.run(until=deadline_s)
    for subject_id in subject_ids:
        timeline.discovered_counts.setdefault(subject_id, 0)
    return timeline
