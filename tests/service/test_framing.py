"""Datagram framing: tag routing and update-plane ACKs."""

import pytest

from repro.backend.updatewire import TYPE_BUNDLE, TYPE_LKH_REKEY, TYPE_REKEY, TYPE_REVOKE
from repro.protocol.messages import (
    TYPE_QUE1,
    TYPE_QUE2,
    TYPE_RES1,
    TYPE_RES1_L1,
    TYPE_RES2,
    TYPE_RQUE,
    TYPE_RRES,
)
from repro.service.framing import (
    TYPE_UPDATE_ACK,
    FrameKind,
    FramingError,
    ack_frame,
    classify_frame,
    parse_ack,
)


class TestClassify:
    def test_protocol_tags(self):
        for tag in (TYPE_QUE1, TYPE_RES1_L1, TYPE_RES1, TYPE_QUE2,
                    TYPE_RES2, TYPE_RQUE, TYPE_RRES):
            assert classify_frame(bytes([tag]) + b"x") is FrameKind.PROTOCOL

    def test_update_tags(self):
        for tag in (TYPE_REVOKE, TYPE_REKEY, TYPE_BUNDLE, TYPE_LKH_REKEY):
            assert classify_frame(bytes([tag]) + b"x") is FrameKind.UPDATE

    def test_ack_tag(self):
        assert classify_frame(ack_frame(7)) is FrameKind.UPDATE_ACK

    def test_unknown_and_empty(self):
        assert classify_frame(b"") is FrameKind.UNKNOWN
        assert classify_frame(b"\xff\x00") is FrameKind.UNKNOWN


class TestAck:
    def test_roundtrip(self):
        assert parse_ack(ack_frame(0)) == 0
        assert parse_ack(ack_frame(2**63)) == 2**63

    def test_malformed_rejected(self):
        with pytest.raises(FramingError):
            parse_ack(b"")
        with pytest.raises(FramingError):
            parse_ack(ack_frame(1)[:-1])  # truncated
        wrong_tag = bytes([TYPE_QUE1]) + ack_frame(1)[1:]
        with pytest.raises(FramingError):
            parse_ack(wrong_tag)
