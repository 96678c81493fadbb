"""Datagram framing for the live service path.

Every Argus wire message already starts with a self-describing type tag
(:mod:`repro.protocol.messages`: 0x01–0x07; :mod:`repro.backend.updatewire`:
0x20–0x23), so a UDP datagram carries exactly one raw frame with no
extra header — the bytes on the socket are byte-identical to the bytes
the simulator accounts, which is what makes the §IX-A parity check in
``benchmarks/bench_service.py`` exact rather than approximate.

Argus is a few short datagram flights, never a stream: the largest
frame the engines build (a QUE2 at strength 256) is about 1.2 KB.  The
one frame whose size is not fixed by the protocol is a backend push
bundle, which grows with the churn burst it carries; the pusher refuses
one larger than :data:`MAX_DATAGRAM` rather than split it.

One extra frame type lives here: the update-plane ACK
(:data:`TYPE_UPDATE_ACK`), the tiny ``tag || u64 sequence`` receipt a
daemon returns for an applied (or already-applied) backend push so the
stop-and-wait pusher (:mod:`repro.service.update_stream`) can advance.
It is not a protocol message — it never enters the engines — so the
PROTO-STATE spec does not know it.
"""

from __future__ import annotations

import enum
import struct

from repro.backend.updatewire import (
    TYPE_BUNDLE,
    TYPE_LKH_REKEY,
    TYPE_REKEY,
    TYPE_REVOKE,
)
from repro.protocol.messages import (
    TYPE_QUE1,
    TYPE_QUE2,
    TYPE_RES1,
    TYPE_RES1_L1,
    TYPE_RES2,
    TYPE_RQUE,
    TYPE_RRES,
)

#: Largest frame sent as one datagram: loopback/LAN-safe, far above
#: every Argus protocol frame.
MAX_DATAGRAM = 60_000

#: Update-plane delivery receipt: ``0x2F || u64 sequence``.
TYPE_UPDATE_ACK = 0x2F

_PROTOCOL_TAGS = frozenset({
    TYPE_QUE1, TYPE_RES1_L1, TYPE_RES1, TYPE_QUE2, TYPE_RES2,
    TYPE_RQUE, TYPE_RRES,
})
_UPDATE_TAGS = frozenset({TYPE_REVOKE, TYPE_REKEY, TYPE_BUNDLE, TYPE_LKH_REKEY})

_ACK = struct.Struct(">BQ")


class FramingError(Exception):
    """A frame violated the framing contract."""


class FrameKind(enum.Enum):
    """Coarse dispatch class of one received frame."""

    PROTOCOL = "protocol"
    UPDATE = "update"
    UPDATE_ACK = "update_ack"
    UNKNOWN = "unknown"


def classify_frame(data: bytes) -> FrameKind:
    """Route a raw frame by its leading type tag (empty = UNKNOWN)."""
    if not data:
        return FrameKind.UNKNOWN
    tag = data[0]
    if tag in _PROTOCOL_TAGS:
        return FrameKind.PROTOCOL
    if tag in _UPDATE_TAGS:
        return FrameKind.UPDATE
    if tag == TYPE_UPDATE_ACK:
        return FrameKind.UPDATE_ACK
    return FrameKind.UNKNOWN


def ack_frame(sequence: int) -> bytes:
    """The receipt for one applied update push."""
    return _ACK.pack(TYPE_UPDATE_ACK, sequence)


def parse_ack(data: bytes) -> int:
    """Sequence number out of an ACK frame."""
    if len(data) != _ACK.size or data[0] != TYPE_UPDATE_ACK:
        raise FramingError("not an update ACK")
    return _ACK.unpack(data)[1]
