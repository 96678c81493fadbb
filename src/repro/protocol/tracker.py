"""The subject's open exchanges — one sans-IO tracker for every host.

A subject runs one state machine per round (§V–VI): QUE1 → RES1 → QUE2
→ RES2, or RQUE → RRES on a return visit.  :class:`SubjectTracker` keeps
it around one :class:`~repro.protocol.subject.SubjectEngine`, so the
simulator and the live client only carry frames and keep time.  Every
reply goes to the engine's handler for its type; a flight meant for an
object is a ``MessageFormatError``, never answered.  An exchange settles
when the engine finds its service or rejects the awaited reply; a
give-up in the :class:`~repro.net.retry.Retransmissions` table only
stops the re-sends, so a late answer counts until the next round.
Settlements leave the table when the host collects them: the client
after each frame, the simulator once the subject's CPU has processed it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from repro.protocol.errors import MessageFormatError
from repro.protocol.messages import Que1, Que2, Res1, Res1Level1, Res2, Rque, Rres
from repro.protocol.subject import DiscoveredService, SubjectEngine

if TYPE_CHECKING:
    from repro.net.retry import Retransmissions

#: What a peer owes this round's QUE1.
_FIRST_REPLY = (Res1, Res1Level1)


class _Unsought:
    """Every peer outside *sought*."""

    __slots__ = ("sought",)

    def __init__(self, sought: frozenset) -> None:
        self.sought = sought

    def __contains__(self, peer: object) -> bool:
        return peer not in self.sought


class SubjectTracker:
    """One subject's open exchanges, keyed by the host's peer (a node
    name, or a ``(host, port)`` endpoint); RQUE and RRES name the object
    found at the peer instead (:attr:`object_at`)."""

    def __init__(self, engine: SubjectEngine, table: Retransmissions) -> None:
        self.engine = engine
        self.table = table
        #: peer -> object id found there; a peer not in it is taken to be
        #: named by its object id (the simulator's nodes are).
        self.object_at: dict[Hashable, str] = {}
        #: peer -> the reply its open exchange awaits.
        self._awaiting: dict[Hashable, type | tuple[type, ...]] = {}
        self._settled: list[tuple[Hashable, DiscoveredService | None]] = []

    def start_round(self, peers: Iterable[Hashable], group_id: str | None = None) -> Que1:
        """End earlier exchanges and await a RES1 from each of *peers*; other
        peers' RES1s are dropped unverified (the engine's ``settled``)."""
        self.close()
        sought = frozenset(peers)
        que1 = self.engine.start_round(group_id, settled=_Unsought(sought))
        self._awaiting = dict.fromkeys(sought, _FIRST_REPLY)
        return que1

    def start_resumption(self, peers: Iterable[Hashable]) -> list[tuple[Hashable, Rque]]:
        """End earlier exchanges and open RQUE → RRES with each of *peers*
        we hold a ticket for; returns the ``(peer, RQUE)`` pairs to send."""
        self.close()
        rques = []
        for peer in peers:
            rque = self.engine.start_resumption(self.object_at.get(peer, peer))
            if rque is not None:
                self._awaiting[peer] = Rres
                rques.append((peer, rque))
        return rques

    def receive(self, message: object, peer: Hashable) -> Que2 | None:
        """Route one parsed flight from *peer*; returns the QUE2 to send.
        Handlers are looked up at each call, so wrappers see every flight."""
        service = que2 = None
        if isinstance(message, Res1Level1):
            service = self.engine.handle_res1_level1(message, peer)
        elif isinstance(message, Res1):
            que2 = self.engine.handle_res1(message, peer)
        elif isinstance(message, Res2):
            service = self.engine.handle_res2(message, peer)
        elif isinstance(message, Rres):
            service = self.engine.handle_rres(message, self.object_at.get(peer, peer))
        else:
            self.engine.record_wire_error(MessageFormatError(
                f"{type(message).__name__} addressed to a subject"
            ))
            return None
        if que2 is not None:
            self._awaiting[peer] = Res2
        elif service is not None:
            self._awaiting.pop(peer, None)
            self.object_at[peer] = service.object_id
            self._settled.append((peer, service))
        elif isinstance(message, self._awaiting.get(peer, ())):
            # The engine rejected the very reply this exchange awaited.
            del self._awaiting[peer]
            self._settled.append((peer, None))
        return que2

    def collect(self) -> list[tuple[Hashable, DiscoveredService | None]]:
        """``(peer, service)`` for each exchange settled since the last
        call (service None: the awaited reply was rejected); each leaves
        the retry table now."""
        settled, self._settled = self._settled, []
        for peer, _ in settled:
            self.table.settle(peer)
        return settled

    def awaits(self, peer: Hashable) -> bool:
        return peer in self._awaiting

    def waiting(self, phase_one: bool) -> bool:
        """A request is in flight, or (*phase_one*) a RES1 is still owed."""
        return self.table.next_deadline() is not None or (
            phase_one and _FIRST_REPLY in self._awaiting.values()
        )

    def close(self) -> None:
        """End every open exchange unanswered; nothing is re-sent."""
        self._awaiting = {}
        self.table.clear()

    def tick(self, now_s: float) -> None:
        self.engine.tick(now_s)

    def record_wire_error(self, error: Exception) -> None:
        self.engine.record_wire_error(error)

    def reset_cold(self) -> None:
        self.close()
        self.engine.reset_cold()
