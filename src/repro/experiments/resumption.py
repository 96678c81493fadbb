"""Extension experiment: the session-resumption fast path quantified.

Not a paper figure — the paper prices every discovery as a fresh 4-way
handshake (§IX-B) — but enterprises re-discover the *same* objects
constantly, and :mod:`repro.protocol.resumption` amortizes the
public-key work across visits.  This experiment prices a first visit
(cold and warm full handshake) against a resumed re-discovery on the
paper's hardware, counts public-key operations on each path, and runs
the concurrent-floor simulation once per mode to show the air-time win
(RQUE/RRES is 656 B nominal vs 2088 B for QUE1..RES2).
"""

from __future__ import annotations

from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.crypto.meter import OpMeter
from repro.experiments.common import Table, make_level_fleet
from repro.experiments.concurrent_subjects import build_floor
from repro.net.run import simulate_concurrent_discovery
from repro.protocol.discovery import DiscoveryResult, run_round, run_warm_round
from repro.protocol.messages import level23_exchange_nominal, resumed_exchange_nominal
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

#: The operations §IX-B counts — what resumption is designed to avoid.
PUBLIC_KEY_OPS = ("ecdsa_sign", "ecdsa_verify", "ecdh_gen", "ecdh_derive")


def public_key_ops(tally: OpMeter) -> int:
    return sum(tally.total(op) for op in PUBLIC_KEY_OPS)


def measure_paths(level: int = 2, strength: int = 128) -> dict[str, DiscoveryResult]:
    """One object, three discoveries: cold full, warm full, resumed."""
    subject_creds, object_creds, _ = make_level_fleet(1, level, strength)
    subject = SubjectEngine(subject_creds)
    objects = {
        c.object_id: ObjectEngine(c, issue_tickets=True) for c in object_creds
    }
    results = {
        "full (cold)": run_round(subject, objects),
        "full (warm)": run_round(subject, objects),
        "resumed": run_warm_round(subject, objects),
    }
    for name, result in results.items():
        assert len(result.services) == 1, f"{name}: discovery failed"
    return results


def run(level: int = 2, n_subjects: int = 4, n_objects: int = 6) -> Table:
    table = Table(
        "Extension: session resumption vs the full 4-way handshake "
        f"(Level {level}, one object, paper hardware)",
        ["path", "subject ms", "object ms", "pk ops S", "pk ops O", "wire B"],
    )
    results = measure_paths(level)
    wire = {
        "full (cold)": level23_exchange_nominal(),
        "full (warm)": level23_exchange_nominal(),
        "resumed": resumed_exchange_nominal(),
    }
    for name, result in results.items():
        object_ops = next(iter(result.object_ops.values()))
        table.add(
            name,
            NEXUS6.meter_cost_ms(result.subject_ops),
            RASPBERRY_PI3.meter_cost_ms(object_ops),
            public_key_ops(result.subject_ops),
            public_key_ops(object_ops),
            wire[name],
        )

    subjects, objects = build_floor(n_subjects, n_objects)
    first = simulate_concurrent_discovery(subjects, objects, seed=7)
    again = simulate_concurrent_discovery(subjects, objects, seed=7, resumption=True)
    table.notes = (
        "Resumption (RQUE/RRES) uses symmetric operations only — 0 signs, "
        "0 verifies, 0 ECDH on both sides — and one round trip instead of "
        f"two.  Simulated floor ({n_subjects} subjects x {n_objects} Level 2 "
        f"objects, shared channel): first visit makespan {first.makespan:.3f} s, "
        f"re-discovery makespan {again.makespan:.3f} s."
    )
    return table
