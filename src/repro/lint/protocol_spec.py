"""Checked-in Argus protocol state machine the PROTO-STATE rule enforces.

The discovery handshake is QUE1 -> RES1 (or the Level-1 short form
RES1_L1) -> QUE2 -> RES2; resumption is RQUE -> RRES.  This module is
the single source of truth the linter checks the implementation
against: which handler consumes each wire message, and which message
types a handler may legitimately construct in response.  Changing the
protocol means changing this spec *and* the code — the rule exists to
make a drive-by change to only one of them fail CI.
"""

from __future__ import annotations

#: Package whose modules are subject to PROTO-STATE.
PROTOCOL_PACKAGE = "repro.protocol"

#: Every package PROTO-STATE walks.  Transports hold no handlers of
#: their own: every host routes through ``ObjectEngine.receive`` or
#: ``SubjectTracker.receive``, so ``repro.protocol`` is the one dispatcher.
CHECKED_PACKAGES: tuple[str, ...] = (PROTOCOL_PACKAGE,)

#: Module defining the wire message dataclasses.
MESSAGES_MODULE = "repro.protocol.messages"

#: Wire message class name -> the handler that must consume it.
HANDLERS: dict[str, str] = {
    "Que1": "handle_que1",
    "Res1": "handle_res1",
    "Res1Level1": "handle_res1_level1",
    "Que2": "handle_que2",
    "Res2": "handle_res2",
    "Rque": "handle_rque",
    "Rres": "handle_rres",
}

#: Handler name -> message types it may construct (its legal responses).
#: Terminal handlers (handle_res2/handle_rres consume the final flight)
#: may not put anything on the wire.
RESPONSES: dict[str, frozenset[str]] = {
    "handle_que1": frozenset({"Res1", "Res1Level1"}),
    "handle_res1": frozenset({"Que2"}),
    "handle_res1_level1": frozenset(),
    "handle_que2": frozenset({"Res2"}),
    "handle_res2": frozenset(),
    "handle_rque": frozenset({"Rres"}),
    "handle_rres": frozenset(),
}

#: Message types whose emission paths must be constant-length: the v3.0
#: indistinguishability argument requires a decoy RES2/RRES to be
#: byte-length-identical to a real one, so any randomly generated
#: ciphertext placed in these constructors must derive its length from
#: the padded-payload calibration, never from a literal.
CONSTANT_LENGTH_TYPES = frozenset({"Res2", "Rres"})

#: Functions whose return value is a calibrated ciphertext length.
LENGTH_CALIBRATORS = frozenset({
    "padded_payload_length",
    "ciphertext_length",
})

#: Random-filler constructors used to build decoy ciphertexts.
RANDOM_FILLERS = frozenset({"random_bytes", "token_bytes", "urandom"})


def handler_names() -> frozenset[str]:
    return frozenset(HANDLERS.values())


def message_qualified(name: str) -> str:
    return f"{MESSAGES_MODULE}.{name}"


#: Qualified constructor name -> message class name.
QUALIFIED_MESSAGES: dict[str, str] = {
    message_qualified(name): name for name in HANDLERS
}
