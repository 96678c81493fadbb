"""In-memory discovery orchestration (no network).

Runs the full Argus exchange between one subject engine and many object
engines directly, which is what the unit/integration tests, the attack
harness, and the computation-cost benchmarks (Fig. 6(b)) use.  The wire
here is a queue of flights: like the simulator (:mod:`repro.net`, Fig.
6(e)–(h)) and the live client, it hands each reply to a
:class:`~repro.protocol.tracker.SubjectTracker` and each request to
``ObjectEngine.receive``, so one state machine runs on every host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.backend.registration import ObjectCredentials, SubjectCredentials
from repro.crypto.meter import OpMeter, metered
from repro.net.retry import Retransmissions, RetryPolicy
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import DiscoveredService, SubjectEngine
from repro.protocol.tracker import SubjectTracker
from repro.protocol.versions import Version


@dataclass
class DiscoveryResult:
    """Outcome of one or more discovery rounds."""

    services: list[DiscoveredService] = field(default_factory=list)
    subject_ops: OpMeter = field(default_factory=OpMeter)
    object_ops: dict[str, OpMeter] = field(default_factory=dict)

    @property
    def by_level(self) -> dict[int, list[DiscoveredService]]:
        out: dict[int, list[DiscoveredService]] = {1: [], 2: [], 3: []}
        for service in self.services:
            out[service.level_seen].append(service)
        return out

    def service_ids(self) -> set[str]:
        return {s.object_id for s in self.services}


def run_round(
    subject: SubjectEngine,
    objects: dict[str, ObjectEngine],
    group_id: str | None = None,
    result: DiscoveryResult | None = None,
) -> DiscoveryResult:
    """One QUE1 broadcast + per-object phase 2, fully in memory."""
    result = result or DiscoveryResult()
    _drive(subject, objects, result, group_id)
    return result


def run_warm_round(
    subject: SubjectEngine,
    objects: dict[str, ObjectEngine],
    group_id: str | None = None,
    result: DiscoveryResult | None = None,
) -> DiscoveryResult:
    """A re-discovery round: resumption fast path where tickets exist.

    For every object the subject holds a ticket for, run the 2-message
    ``RQUE -> RRES`` exchange (symmetric ops only).  Objects with no
    ticket — and any whose resumption failed (expired/replayed ticket,
    backend push bumped the epoch, rotated ticket key…) — transparently
    fall back to the full 4-way handshake via :func:`run_round`.
    """
    result = result or DiscoveryResult()
    resumed = _drive(subject, objects, result, resume=True)
    fallback = {oid: engine for oid, engine in objects.items() if oid not in resumed}
    if fallback:
        run_round(subject, fallback, group_id, result)
    return result


def _drive(
    subject: SubjectEngine,
    objects: dict[str, ObjectEngine],
    result: DiscoveryResult,
    group_id: str | None = None,
    resume: bool = False,
    on_flight: Callable[[object], object] = lambda message: message,
) -> set[str]:
    """The in-memory wire: open a round (or, with *resume*, an RQUE to
    each ticket holder) through a :class:`SubjectTracker`, carry each
    request to its object and each reply back to the tracker, first in
    first out, so a QUE2 goes out after the flights already queued.

    Each side's crypto is metered apart into *result*, and the services
    found join it; returns the ids of the objects found.  *on_flight*
    sees, and may replace, every frame before it is delivered.
    """
    # Nothing is sent through the table on this wire, so it stays empty.
    tracker = SubjectTracker(subject, Retransmissions(RetryPolicy()))
    with metered() as subject_meter:
        if resume:
            flights = tracker.start_resumption(objects)
        else:
            que1 = tracker.start_round(objects, group_id)
            flights = [(object_id, que1) for object_id in objects]
    result.subject_ops.merge(subject_meter)

    subject_id = subject.creds.subject_id
    queue = deque(flights)
    while queue:
        object_id, request = queue.popleft()
        request = on_flight(request)
        with metered() as object_meter:
            reply = objects[object_id].receive(request, subject_id)
        result.object_ops.setdefault(object_id, OpMeter()).merge(object_meter)
        if reply is None:
            continue
        reply = on_flight(reply)
        with metered() as subject_meter:
            que2 = tracker.receive(reply, object_id)
        result.subject_ops.merge(subject_meter)
        if que2 is not None:
            queue.append((object_id, que2))
    found = [service for _, service in tracker.collect() if service is not None]
    result.services.extend(found)
    return {service.object_id for service in found}


def discover(
    subject_creds: SubjectCredentials,
    object_creds: list[ObjectCredentials],
    version: Version = Version.V3_0,
    all_groups: bool = True,
) -> DiscoveryResult:
    """Full discovery: every group key in turn (§VI-C), results merged.

    Builds fresh engines, runs one round per Level 3 key the subject
    holds (plus the cover-up round if she holds none), and deduplicates
    services — a Level 3 answer supersedes the Level 2 face of the same
    object.
    """
    subject = SubjectEngine(subject_creds, version)
    objects = {c.object_id: ObjectEngine(c, version) for c in object_creds}

    rounds: list[str | None]
    if version is Version.V1_0 or not all_groups:
        rounds = [None]
    else:
        rounds = list(subject_creds.group_keys) or ["coverup"]

    result = DiscoveryResult()
    for group_id in rounds:
        run_round(subject, objects, group_id, result)

    # Merge: keep the highest-level sighting of each object.
    best: dict[str, DiscoveredService] = {}
    for service in result.services:
        current = best.get(service.object_id)
        if current is None or service.level_seen > current.level_seen:
            best[service.object_id] = service
    result.services = list(best.values())
    return result
