"""Session resumption: amortizing the 4-way handshake across re-discoveries.

A Level 2/3 discovery costs each side one ECDSA sign, three ECDSA
verifies and an ephemeral ECDH exchange (§IX-B) — the dominant cost of
the whole protocol (Table 1).  Enterprises re-discover the *same*
objects constantly (a phone walking back into the same room), so after a
successful handshake the object issues an encrypted, self-contained
**resumption ticket** (this module), delivered inside the encrypted RES2
payload.  On re-discovery the subject opens with a 2-message
``RQUE → RRES`` exchange instead of ``QUE1..RES2``, using **symmetric
operations only** — 0 signs, 0 verifies, 0 ECDH on both sides.

Security properties preserved:

* **Single use.** Each ticket carries a random ticket id; the object
  keeps a bounded LRU ledger of redeemed ids and rejects replays.  A
  successful resumption issues a *fresh* ticket in the RRES payload, so
  the chain continues.
* **Expiry.** Tickets expire with the ticket lifetime, capped to the
  subject certificate's validity window — a ticket can never outlive
  the credential that earned it.
* **Backend invalidation.** Tickets embed the object's
  ``resumption_epoch``; any backend push that changes what the object
  would serve (policy add/remove, revocation, group rekey) bumps the
  epoch, so stale tickets are rejected and the subject transparently
  falls back to the full 4-way handshake.
* **Key compromise containment.** Tickets are sealed under an
  object-local AEAD key that rotates; the keyring keeps one previous
  key so recently issued tickets survive a rotation, and nothing else.
* **Indistinguishability (§VI-B).** The RRES ciphertext is padded to
  the object's constant payload length and the accept path performs the
  same symmetric-op sequence whether the ticket resumes a Level 2 or a
  covert Level 3 session, so neither length nor op count leaks the
  level.  Every rejection is silence, exactly like the full handshake's
  failure paths.

The cost model prices the fast path honestly: the AEAD and HMAC
operations meter as usual, and the zero-cost markers
``resumption_ticket_issued`` / ``resumption_accept`` /
``resumption_reject`` (:data:`repro.crypto.costmodel.CACHE_MARKER_OPS`)
make fast-path behavior observable without perturbing calibrated
predictions.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto import aead
from repro.crypto.primitives import random_bytes

#: Default ticket lifetime in backend time units (the engines' ``now``).
#: The protocol tests run with ``now`` in the low integers and
#: certificates valid to 2**40, so the default is generous; deployments
#: tune it downward.
TICKET_LIFETIME = 2**20

#: Fixed plaintext size a ticket body is padded to before sealing, so
#: every sealed ticket one object emits is the same length regardless of
#: which subject/level/variant it encodes (no size side channel).
TICKET_BODY_LEN = 224

#: Length of the random single-use ticket id.
TICKET_ID_LEN = 16

#: Redeemed ticket ids remembered per object (bounded LRU).
REPLAY_LEDGER_LIMIT = 4096

#: Sealed-ticket length: AEAD blob over the fixed-size body
#: (16 IV + PKCS7(224)=240 + 32 MAC).
SEALED_TICKET_LEN = aead.ciphertext_length(TICKET_BODY_LEN)


class TicketError(Exception):
    """A ticket failed to seal, open, or validate."""


@dataclass(frozen=True)
class TicketPayload:
    """What an object remembers about one finished handshake.

    Self-contained: the object stores *nothing* per ticket (stateless
    resumption, TLS-1.3 style) except the replay ledger of redeemed ids.
    """

    ticket_id: bytes
    peer_id: str
    level: int
    group_id: str
    variant: str
    master: bytes
    expiry: int
    epoch: int

    def to_bytes(self) -> bytes:
        parts = []
        for data in (
            self.ticket_id,
            self.peer_id.encode(),
            bytes([self.level]),
            self.group_id.encode(),
            self.variant.encode(),
            self.master,
            struct.pack(">Q", self.expiry),
            struct.pack(">I", self.epoch),
        ):
            parts.append(struct.pack(">H", len(data)))
            parts.append(data)
        body = b"".join(parts)
        if len(body) > TICKET_BODY_LEN:
            raise TicketError(
                f"ticket body {len(body)} B exceeds the {TICKET_BODY_LEN} B frame"
            )
        return body + b"\x00" * (TICKET_BODY_LEN - len(body))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TicketPayload":
        fields = []
        offset = 0
        for _ in range(8):
            if offset + 2 > len(data):
                raise TicketError("truncated ticket body")
            (length,) = struct.unpack_from(">H", data, offset)
            offset += 2
            if offset + length > len(data):
                raise TicketError("truncated ticket field")
            fields.append(data[offset : offset + length])
            offset += length
        if any(data[offset:]):
            raise TicketError("non-zero ticket padding")
        try:
            return cls(
                ticket_id=fields[0],
                peer_id=fields[1].decode(),
                level=fields[2][0],
                group_id=fields[3].decode(),
                variant=fields[4].decode(),
                master=fields[5],
                expiry=struct.unpack(">Q", fields[6])[0],
                epoch=struct.unpack(">I", fields[7])[0],
            )
        except (IndexError, UnicodeDecodeError, struct.error) as exc:
            raise TicketError(f"malformed ticket body: {exc}") from exc


class TicketKeyring:
    """The object-local rotating AEAD key tickets are sealed under.

    ``rotate()`` installs a fresh key and demotes the current one to
    *previous*; :meth:`open` tries both, so tickets issued shortly before
    a rotation stay redeemable for exactly one more rotation period.
    Each key is a :class:`~repro.crypto.aead.SymmetricCipher`, expanded
    once when it is made rather than on every seal and open.
    """

    def __init__(self) -> None:
        self._current = aead.SymmetricCipher(random_bytes(32))
        self._previous: aead.SymmetricCipher | None = None
        self.rotations = 0

    def rotate(self) -> None:
        self._previous = self._current
        self._current = aead.SymmetricCipher(random_bytes(32))
        self.rotations += 1

    def seal(self, payload: TicketPayload) -> bytes:
        return aead.encrypt(self._current, payload.to_bytes())

    # lint: indistinguishable
    def open(self, blob: bytes) -> TicketPayload | None:
        """Decrypt a sealed ticket; None if no keyring key opens it.

        A marked INDIST-RETURN region: the fixed-size ticket body means
        every open attempt does identical AEAD work, and nothing here may
        branch on the level/group the payload encodes (§VI-B).
        """
        for key in (self._current, self._previous):
            if key is None:
                continue
            try:
                return TicketPayload.from_bytes(aead.decrypt(key, blob))
            except (aead.AeadError, TicketError):
                continue
        return None


class ReplayLedger:
    """Bounded LRU set of redeemed ticket ids (object-side, single-use)."""

    def __init__(self, limit: int = REPLAY_LEDGER_LIMIT) -> None:
        self.limit = limit
        self._seen: OrderedDict[bytes, None] = OrderedDict()

    def redeem(self, ticket_id: bytes) -> bool:
        """Mark *ticket_id* used; False if it was already redeemed."""
        if ticket_id in self._seen:
            return False
        self._seen[ticket_id] = None
        while len(self._seen) > self.limit:
            self._seen.popitem(last=False)
        return True

    def __contains__(self, ticket_id: bytes) -> bool:
        return ticket_id in self._seen

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class StoredTicket:
    """The subject-side half of a ticket: the opaque blob plus the
    resumption master secret and what the subject learned the session
    was (so a resumed Level 3 sighting reports as level 3 again)."""

    ticket: bytes
    master: bytes
    level: int
    group_id: str | None


def fresh_ticket_id() -> bytes:
    return random_bytes(TICKET_ID_LEN)
