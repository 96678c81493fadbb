"""§VI "Overhead of Extensions": what v2.0 and v3.0 add over v1.0.

The paper claims each increment is nearly free: v2.0 adds one 32-byte
HMAC to QUE2 (only for Level 3 seekers) and "one more HMAC generation
and verification, together costing less than 1 ms"; v3.0 makes the
32 bytes mandatory and leaves RES2's length and computation unchanged.
This experiment measures all of that on the real engines.
"""

from __future__ import annotations

from repro.attacks.channel import run_exchange
from repro.crypto.costmodel import NEXUS6, RASPBERRY_PI3
from repro.experiments.common import Table, make_level_fleet
from repro.protocol.discovery import run_round
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine
from repro.protocol.versions import Version


def measure_version(version: Version, level: int = 3) -> dict[str, float]:
    """One full exchange at *version*; bytes + calibrated compute."""
    subject_creds, object_creds, _ = make_level_fleet(1, level)
    subject = SubjectEngine(subject_creds, version)
    obj = ObjectEngine(object_creds[0], version)
    # Warm-up: chain caches on both sides.  QUE2/RES2 lengths are
    # constant per version, so the warm-up's frames give them.
    capture = run_exchange(subject, obj)

    subject2 = SubjectEngine(subject_creds, version)
    subject2.verifier = subject.verifier  # keep the warmed cache
    result = run_round(subject2, {obj.creds.object_id: obj})
    [outcome] = result.services
    return {
        "que2_bytes": len(capture.que2.to_bytes()),
        "res2_bytes": len(capture.res2.to_bytes()),
        "subject_ms": NEXUS6.meter_cost_ms(result.subject_ops),
        "object_ms": RASPBERRY_PI3.meter_cost_ms(result.object_ops[obj.creds.object_id]),
        "level_seen": outcome.level_seen,
    }


def run() -> Table:
    table = Table(
        "§VI Overhead of Extensions: version ladder on real engines",
        ["version", "QUE2 B", "RES2 B", "subject ms", "object ms", "level seen"],
    )
    for version in (Version.V1_0, Version.V2_0, Version.V3_0):
        m = measure_version(version)
        table.add(version.value, m["que2_bytes"], m["res2_bytes"],
                  m["subject_ms"], m["object_ms"], m["level_seen"])
    v1 = measure_version(Version.V1_0)
    v3 = measure_version(Version.V3_0)
    table.notes = (
        f"QUE2 grows {v3['que2_bytes'] - v1['que2_bytes']} B (paper: 32, one "
        f"mandatory MAC); subject compute grows "
        f"{v3['subject_ms'] - v1['subject_ms']:.2f} ms (paper: <1 ms of "
        f"HMACs); RES2 size may grow only by v3.0's constant-length padding."
    )
    return table
