"""§IX-A — message overhead accounting, nominal vs actual.

Derives the paper's per-message byte budget from field sizes, captures a
real exchange from the live engines, and prints both side by side.
"""

from __future__ import annotations

from repro.analysis.overhead import actual_sizes, exchange_totals, paper_accounting
from repro.attacks.channel import CapturedExchange, run_exchange
from repro.experiments.common import Table, make_level_fleet
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine


def capture_exchange(level: int = 2) -> CapturedExchange:
    """Run one handshake and capture its four raw messages."""
    subject_creds, object_creds, _ = make_level_fleet(1, level)
    capture = run_exchange(SubjectEngine(subject_creds), ObjectEngine(object_creds[0]))
    assert capture.res2 is not None, "handshake failed during capture"
    return capture


def run() -> Table:
    table = Table(
        "Message overhead (§IX-A), nominal bytes at 128-bit strength",
        ["message", "nominal B", "composition"],
    )
    for budget in paper_accounting():
        table.add(budget.name, budget.nominal, budget.composition)
    totals = exchange_totals()
    capture = capture_exchange()
    actual = actual_sizes(capture.que1, capture.res1, capture.que2, capture.res2)
    table.notes = (
        f"Exchange totals: Level 1 = {totals['level1']} B (paper: 228), "
        f"Level 2/3 = {totals['level23']} B (paper: 2088). "
        f"Actual serialized sizes of our encodings: {actual}."
    )
    return table
