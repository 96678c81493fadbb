"""Replay / freshness attacks (§III "Freshness").

Captures a legitimate exchange and replays pieces of it: a duplicated
QUE1 (must be deduplicated via R_S), a replayed QUE2 against the same
object (session already closed), and a cross-session QUE2 splice (the
transcript binds both nonces, so signatures/MACs fail).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.channel import CapturedExchange
from repro.protocol.errors import FreshnessError, SessionError
from repro.protocol.object import ObjectEngine


@dataclass
class ReplayResult:
    replayed_que1_answered: bool
    replayed_que2_answered: bool
    spliced_que2_answered: bool


def replay_attack(
    capture: CapturedExchange,
    target: ObjectEngine,
    subject_peer_id: str,
) -> ReplayResult:
    """Replay the captured frames at the object that produced them,
    through its one router (``ObjectEngine.receive``), as any wire would."""
    assert capture.que1 is not None and capture.que2 is not None

    # 1. Duplicate QUE1: must be silently dropped (duplicate R_S).
    before = target.errors_recorded
    res1_again = target.receive(capture.que1, subject_peer_id)
    que1_dropped = res1_again is None and any(
        isinstance(e, FreshnessError) for e in target.errors_since(before)
    )

    # 2. Replayed QUE2 on the (now closed) original session.
    before = target.errors_recorded
    res2_again = target.receive(capture.que2, subject_peer_id)
    que2_dropped = res2_again is None and any(
        isinstance(e, SessionError) for e in target.errors_since(before)
    )

    # 3. Splice: open a NEW session (fresh QUE1 from the attacker's
    #    position) and replay the old QUE2 into it. The old QUE2's
    #    signature covers the old R_S/R_O, so it cannot verify.
    from repro.crypto.primitives import fresh_nonce
    from repro.protocol.messages import Que1

    attacker_peer = subject_peer_id  # she spoofs the same source address
    fresh = Que1(fresh_nonce())
    opened = target.receive(fresh, attacker_peer)
    spliced = None
    if opened is not None:
        spliced = target.receive(capture.que2, attacker_peer)

    return ReplayResult(
        replayed_que1_answered=not que1_dropped,
        replayed_que2_answered=not que2_dropped,
        spliced_que2_answered=spliced is not None,
    )
