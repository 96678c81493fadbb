"""Attack-harness plumbing: a recording, tamperable in-memory channel.

Runs the Argus exchange between real engines while (a) recording every
message exactly as an eavesdropper would see it, and (b) letting an
active attacker replace any message in flight. Every §VII case is a test
built on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.protocol.discovery import DiscoveryResult, _drive
from repro.protocol.messages import Que1, Que2, Res1, Res1Level1, Res2
from repro.protocol.object import ObjectEngine
from repro.protocol.subject import SubjectEngine

#: A tamper hook: (message_name, message) -> replacement message (or the
#: original, to pass it through unchanged).
Tamper = Callable[[str, object], object]

#: The flights of one exchange, in the order they go on the air.
_FLIGHTS = ("que1", "res1", "que2", "res2")


@dataclass
class CapturedExchange:
    """Everything visible on the air during one discovery handshake.

    Flights are named by their place in the exchange, not by their type:
    ``res1`` is whatever the object's first reply became in flight.
    """

    que1: Que1 | None = None
    res1: Res1 | Res1Level1 | None = None
    que2: Que2 | None = None
    res2: Res2 | None = None
    #: What the subject concluded (DiscoveredService or None).
    outcome: object = None

    @property
    def notes(self) -> list[str]:
        """Where the exchange stopped short, read off the captured flights."""
        if self.que1 is not None and self.res1 is None:
            return ["object stayed silent after QUE1"]
        if self.res1 is not None and self.que2 is None and not isinstance(self.res1, Res1Level1):
            return ["subject aborted after RES1"]
        if self.que2 is not None and self.res2 is None:
            return ["object stayed silent after QUE2"]
        return []

    def wire_bytes(self) -> dict[str, bytes]:
        """The raw captured frames (an eavesdropper's transcript)."""
        out = {}
        for name in _FLIGHTS:
            message = getattr(self, name)
            if message is not None:
                out[name] = message.to_bytes()
        return out


def run_exchange(
    subject: SubjectEngine,
    obj: ObjectEngine,
    tamper: Tamper | None = None,
    group_id: str | None = None,
) -> CapturedExchange:
    """One full discovery exchange through the recording channel: the
    in-memory round of :mod:`repro.protocol.discovery`, with every flight
    passed through *tamper* and captured as it is delivered."""
    passthrough: Tamper = tamper or (lambda _name, message: message)
    capture = CapturedExchange()
    names = iter(_FLIGHTS)

    def on_flight(message: object) -> object:
        name = next(names)
        message = passthrough(name, message)
        setattr(capture, name, message)
        return message

    result = DiscoveryResult()
    _drive(subject, {obj.creds.object_id: obj}, result, group_id, on_flight=on_flight)
    capture.outcome = next(iter(result.services), None)
    return capture
