"""The campus every workload runs on, its ground truth and the crypto floor.

Set-up provisions a seeded :class:`~repro.backend.synthetic.SyntheticConfig`
campus with real keys and certificates and saves it with
``save_backend``; the daemon host (``fleet.py``) loads that snapshot.
Ground truth comes from the program's own in-process discovery
(``repro.protocol.discovery``), computed before any timing starts.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend.persistence import load_backend, save_backend
from repro.backend.registration import Backend, SubjectCredentials
from repro.backend.synthetic import SyntheticConfig, generate, provision
from repro.crypto.ecdh import EphemeralECDH
from repro.crypto.ecdsa import generate_signing_key
from repro.pki.chain import LEAF_CACHE_MAX
from repro.protocol.discovery import discover, run_round
from repro.protocol.messages import Res1Level1
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

#: One building of 8 rooms x 3 objects: every subject fans out to the
#: same 24 objects, and every daemon sees every subject, so a population
#: above the object-side chain cache (LEAF_CACHE_MAX) really overflows it.
#: The layout (object types, levels, covert hosts) is fixed; the run seed
#: draws everything else (keys, subjects, orders, schedules).
LAYOUT_SEED = 2020
POPULATION = LEAF_CACHE_MAX + 96


@dataclass(frozen=True)
class Expected:
    """What one subject must see of one object."""

    level: int
    functions: tuple[str, ...]


@dataclass
class Campus:
    backend: Backend
    snapshot: Path
    #: object id -> level it was provisioned at
    object_level: dict[str, int]
    #: subject id -> object id -> Expected (filled by :func:`ground_truth`)
    truth: dict[str, dict[str, Expected]] = field(default_factory=dict)
    #: subject id -> object id -> Expected for one plain ``run_round``
    #: (what a single simulated discovery with ``group_id=None`` yields)
    round_truth: dict[str, dict[str, Expected]] = field(default_factory=dict)
    #: sans-IO frame lengths: ("Res1", oid) -> n, ("Que2", sid) -> n, ...
    sizes: dict[tuple[str, str], int] = field(default_factory=dict)
    #: first wire byte -> message class name
    codes: dict[int, str] = field(default_factory=dict)

    def subjects(self) -> list[str]:
        return sorted(self.backend.issued_subjects)

    def objects(self) -> list[str]:
        return sorted(self.backend.issued_objects)

    def fellows(self) -> list[str]:
        return [s for s in self.subjects() if self.backend.issued_subjects[s].group_keys]


CAMPUS_CONFIG = SyntheticConfig(
    n_subjects=POPULATION,
    n_departments=4,
    n_buildings=1,
    rooms_per_building=8,
    objects_per_room=3,
    n_secret_groups=2,
    gamma=8,
    seed=LAYOUT_SEED,
)


def provision_campus(seed: int, workdir: Path) -> Campus:
    """Provision the campus with real credentials and snapshot it."""
    enterprise = generate(CAMPUS_CONFIG)
    # The run seed reshuffles which users hold which attributes, so two
    # seeds differ in who is a fellow, a manager or a student.
    rng = random.Random(seed)
    attrs = [(s["attributes"], s["sensitive_attributes"]) for s in enterprise.subject_specs]
    rng.shuffle(attrs)
    for spec, (attributes, sensitive) in zip(enterprise.subject_specs, attrs):
        spec["attributes"], spec["sensitive_attributes"] = attributes, sensitive
    backend = Backend()
    provision(enterprise, backend)
    workdir.mkdir(parents=True, exist_ok=True)
    snapshot = workdir / "campus.json"
    save_backend(backend, str(snapshot))
    levels = {s["object_id"]: s["level"] for s in enterprise.object_specs}
    return Campus(backend=backend, snapshot=snapshot, object_level=levels)


def reload_objects(campus: Campus) -> dict:
    """The object credentials as a device host sees them: from the snapshot."""
    return load_backend(str(campus.snapshot)).issued_objects


def _class_key(creds: SubjectCredentials) -> tuple:
    return (creds.profile.attributes.to_bytes(), tuple(sorted(creds.group_keys)))


def ground_truth(campus: Campus, subject_ids: list[str], *, per_round: bool = False) -> None:
    """Fill ``campus.truth`` (and ``round_truth``) for *subject_ids*.

    Visibility is a function of a subject's attributes and secret
    groups, so subjects sharing both share one in-process discovery.
    """
    objects = [campus.backend.issued_objects[o] for o in campus.objects()]
    by_class: dict[tuple, tuple[dict, dict]] = {}
    for sid in subject_ids:
        creds = campus.backend.issued_subjects[sid]
        key = _class_key(creds)
        if key not in by_class:
            result = discover(creds, objects)
            full = {
                s.object_id: Expected(s.level_seen, tuple(s.functions))
                for s in result.services
            }
            single = {}
            if per_round:
                subject = SubjectEngine(creds)
                plain = run_round(subject, {c.object_id: ObjectEngine(c) for c in objects})
                single = {
                    s.object_id: Expected(s.level_seen, tuple(s.functions))
                    for s in plain.services
                }
            by_class[key] = (full, single)
        campus.truth[sid], campus.round_truth[sid] = by_class[key]


def object_sizes(campus: Campus) -> None:
    """Sans-IO lengths of every object-side frame and of the constant
    subject frames, from one engine-to-engine exchange per object."""
    creds = campus.backend.issued_subjects[campus.subjects()[0]]
    subject = SubjectEngine(creds)
    que1 = subject.start_round()
    campus.sizes[("Que1", "")] = len(que1.to_bytes())

    def note(message) -> int:
        raw = message.to_bytes()
        campus.codes[raw[0]] = type(message).__name__
        return len(raw)

    note(que1)
    for oid in campus.objects():
        engine = ObjectEngine(
            campus.backend.issued_objects[oid], issue_tickets=True,
            decoy_on_replay=True, resend_cached_res2=True,
        )
        res1 = engine.handle_que1(que1, creds.subject_id)
        if isinstance(res1, Res1Level1):
            campus.sizes[("Res1Level1", oid)] = note(res1)
            continue
        campus.sizes[("Res1", oid)] = note(res1)
        que2 = subject.handle_res1(res1, oid)
        note(que2)
        res2 = engine.handle_que2(que2, creds.subject_id)
        if res2 is None:
            continue
        campus.sizes[("Res2", oid)] = note(res2)
        service = subject.handle_res2(res2, oid)
        if service is None:
            continue
        rque = subject.start_resumption(oid)
        rres = engine.handle_rque(rque, creds.subject_id)
        campus.sizes[("Rque", "")] = note(rque)
        campus.sizes[("Rres", oid)] = note(rres)


def que2_size(campus: Campus, sid: str) -> int:
    """Sans-IO QUE2 length of subject *sid* (its chain and PROF vary)."""
    key = ("Que2", sid)
    if key not in campus.sizes:
        creds = campus.backend.issued_subjects[sid]
        subject = SubjectEngine(creds)
        oid = next(o for o in campus.objects() if campus.object_level[o] >= 2)
        engine = ObjectEngine(campus.backend.issued_objects[oid])
        res1 = engine.handle_que1(subject.start_round(), sid)
        campus.sizes[key] = len(subject.handle_res1(res1, oid).to_bytes())
    return campus.sizes[key]


def crypto_floor_us(samples: int = 60) -> float:
    """Host calibration: 3 raw ECDSA verifies + 1 ECDH derive (median)."""
    key = generate_signing_key()
    message = b"argus crypto floor calibration" * 8
    signature = key.sign(message)
    public = key.public_key
    peer = EphemeralECDH().kexm
    times = []
    for _ in range(samples):
        mine = EphemeralECDH()
        t0 = time.perf_counter()
        for _ in range(3):
            public.verify(signature, message)
        mine.derive_premaster(peer)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6

