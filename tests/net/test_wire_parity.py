"""The in-memory wire and the simulator discover the same services.

Both run the subject's exchanges through one ``SubjectTracker`` and each
object's through ``ObjectEngine.receive``; only what carries the frames
differs.  On a loss-free link, one simulated round must find what
``run_round`` finds, at the same level with the same functions, and a
resumed simulated visit must resume what ``run_warm_round`` resumes.
"""

import pytest

from repro.experiments.mixed_fleet import build_mixed_fleet
from repro.experiments.resumption import public_key_ops
from repro.net.radio import DEFAULT_WIFI
from repro.net.run import simulate_concurrent_discovery, simulate_discovery
from repro.protocol.discovery import run_round, run_warm_round
from repro.protocol.messages import Rres
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


@pytest.fixture(scope="module")
def mixed_fleet():
    """One subject (a Level 3 group member) and two objects per level."""
    return build_mixed_fleet(2)


def _seen(services) -> set[tuple[str, int, tuple[str, ...]]]:
    return {(s.object_id, s.level_seen, s.functions) for s in services}


def test_one_round_finds_what_one_simulated_round_finds(mixed_fleet):
    subject, objects = mixed_fleet
    assert DEFAULT_WIFI.loss_rate == 0.0

    in_memory = run_round(SubjectEngine(subject), {c.object_id: ObjectEngine(c) for c in objects})
    simulated = simulate_discovery(subject, objects, max_rounds=1)

    assert _seen(in_memory.services) == _seen(simulated.services)
    assert len(in_memory.services) == len(objects)
    assert {s.level_seen for s in in_memory.services} == {1, 2, 3}


def test_warm_round_resumes_what_a_simulated_return_visit_resumes(mixed_fleet):
    subject, objects = mixed_fleet
    engines = {c.object_id: ObjectEngine(c, issue_tickets=True) for c in objects}
    engine = SubjectEngine(subject)
    run_round(engine, engines)  # the earlier visit
    ticketed = {oid: obj for oid, obj in engines.items() if engine.has_ticket(oid)}
    warm = run_warm_round(engine, ticketed)

    rres_from: set[str] = set()

    def tap(_t, src, _dst, message):
        if isinstance(message, Rres):
            rres_from.add(src)

    simulated = simulate_concurrent_discovery(
        [subject], objects, resumption=True, on_delivery=tap
    )

    # Every ticket holder resumed in memory: no public-key op, no fallback.
    assert public_key_ops(warm.subject_ops) == 0
    found = {s.object_id for s in warm.services}
    assert found == set(ticketed) == rres_from
    assert {oid[:2] for oid in found} == {"l2", "l3"}  # Level 1 holds no ticket
    assert simulated.discovered_counts == {subject.subject_id: len(found)}
