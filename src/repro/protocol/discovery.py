"""In-memory discovery orchestration (no network).

Runs the full Argus exchange between one subject engine and many object
engines directly, which is what the unit/integration tests, the attack
harness, and the computation-cost benchmarks (Fig. 6(b)) use. The
discrete-event simulator (:mod:`repro.net`) drives the *same* engines for
the discovery-time experiments (Fig. 6(e)–(h)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.registration import ObjectCredentials, SubjectCredentials
from repro.crypto.meter import OpMeter, metered
from repro.protocol.messages import Res1, Res1Level1
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import DiscoveredService, SubjectEngine
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

    with metered() as subject_meter:
        que1 = subject.start_round(group_id)
    result.subject_ops.merge(subject_meter)

    # Phase 1: broadcast; collect each object's RES1.
    phase2: list[tuple[str, ObjectEngine, Res1]] = []
    for object_id, engine in objects.items():
        with metered() as object_meter:
            res1 = engine.handle_que1(que1, subject.creds.subject_id)
        result.object_ops.setdefault(object_id, OpMeter()).merge(object_meter)
        if isinstance(res1, Res1Level1):
            with metered() as subject_meter:
                service = subject.handle_res1_level1(res1, object_id)
            result.subject_ops.merge(subject_meter)
            if service is not None:
                result.services.append(service)
        elif isinstance(res1, Res1):
            phase2.append((object_id, engine, res1))

    # Phase 2: per-object QUE2 -> RES2.
    for object_id, engine, res1 in phase2:
        with metered() as subject_meter:
            que2 = subject.handle_res1(res1, object_id)
        result.subject_ops.merge(subject_meter)
        if que2 is None:
            continue
        with metered() as object_meter:
            res2 = engine.handle_que2(que2, subject.creds.subject_id)
        result.object_ops[object_id].merge(object_meter)
        if res2 is None:
            continue
        with metered() as subject_meter:
            service = subject.handle_res2(res2, object_id)
        result.subject_ops.merge(subject_meter)
        if service is not None:
            result.services.append(service)
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

    fallback: dict[str, ObjectEngine] = {}
    for object_id, engine in objects.items():
        if not subject.has_ticket(object_id):
            fallback[object_id] = engine
            continue
        with metered() as subject_meter:
            rque = subject.start_resumption(object_id)
        result.subject_ops.merge(subject_meter)
        assert rque is not None  # has_ticket() held and nothing raced us
        with metered() as object_meter:
            rres = engine.handle_rque(rque, subject.creds.subject_id)
        result.object_ops.setdefault(object_id, OpMeter()).merge(object_meter)
        service = None
        if rres is not None:
            with metered() as subject_meter:
                service = subject.handle_rres(rres, object_id)
            result.subject_ops.merge(subject_meter)
        if service is not None:
            result.services.append(service)
        else:
            fallback[object_id] = engine

    if fallback:
        run_round(subject, fallback, group_id, result)
    return result


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
