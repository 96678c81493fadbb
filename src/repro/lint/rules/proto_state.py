"""PROTO-STATE: protocol state-machine conformance against the spec.

Checks every module in the spec's ``CHECKED_PACKAGES`` — the sans-IO
engines (``repro.protocol``), which every transport dispatches into —
against the checked-in state machine in :mod:`repro.lint.protocol_spec`:

1. **Handler existence** — every wire message type constructed anywhere
   in the protocol package has its spec'd ``handle_*`` consumer defined
   somewhere in the package.  A new message type without a handler (or
   a renamed handler) is a protocol hole.
2. **Response ordering** — a ``handle_*`` function may only construct
   the message types the spec lists as its legal responses;
   constructing QUE2 inside ``handle_que1`` would emit a flight out of
   order.
3. **Decoy constant-length** — a RES2/RRES construction whose
   ciphertext is random filler (a decoy) must derive the filler length
   from the padded-payload calibration
   (``padded_payload_length``/``ciphertext_length``), possibly through
   helper calls; a literal length breaks the v3.0 indistinguishability
   argument the moment the real payload size changes.

The first check needs the whole protocol package in view: linting one
protocol file on its own reports the constructors whose handlers live
in the files not being linted.  That is by design — the tier-1 gate
lints the full tree.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint import protocol_spec as spec
from repro.lint.base import ProgramRule
from repro.lint.findings import Finding
from repro.lint.program import Program, ProgramFunction


def _in_protocol(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in spec.CHECKED_PACKAGES
    )


class ProtoStateRule(ProgramRule):
    RULE_ID = "PROTO-STATE"
    SUMMARY = (
        "handlers and message constructors must conform to the "
        "QUE1>RES1>QUE2>RES2 / RQUE>RRES state machine spec"
    )

    def check_program(self, program: Program) -> Iterable[Finding]:
        constructed: dict[str, tuple[str, int, int]] = {}
        defined_handlers: set[str] = set()
        protocol_functions = [
            fn for fn in program.iter_functions() if _in_protocol(fn.module)
        ]
        for fn in protocol_functions:
            if fn.name in spec.handler_names():
                defined_handlers.add(fn.name)
            for call in fn.calls:
                message = spec.QUALIFIED_MESSAGES.get(call["callee"])
                if message is None:
                    continue
                constructed.setdefault(
                    message, (fn.path, call["line"], call["col"])
                )
                yield from self._check_order(fn, call, message)
                if message in spec.CONSTANT_LENGTH_TYPES:
                    yield from self._check_decoy_length(program, fn, call, message)

        for message in sorted(constructed):
            handler = spec.HANDLERS[message]
            if handler not in defined_handlers:
                path, line, col = constructed[message]
                yield self.program_finding(
                    path, line, col,
                    f"message type {message} is constructed but its handler "
                    f"{handler} is not defined anywhere in "
                    f"{' or '.join(spec.CHECKED_PACKAGES)}",
                )

    # -- response ordering ----------------------------------------------------

    def _check_order(
        self, fn: ProgramFunction, call: dict, message: str
    ) -> Iterable[Finding]:
        allowed = spec.RESPONSES.get(fn.name)
        if allowed is None:
            return
        if message not in allowed:
            legal = ", ".join(sorted(allowed)) or "nothing"
            yield self.program_finding(
                fn.path, call["line"], call["col"],
                f"{fn.qualified} constructs {message} out of protocol order "
                f"({fn.name} may emit: {legal})",
            )

    # -- decoy constant-length ------------------------------------------------

    def _check_decoy_length(
        self, program: Program, fn: ProgramFunction, call: dict, message: str
    ) -> Iterable[Finding]:
        """Random ciphertext filler in RES2/RRES must be calibrated."""
        ciphertext_atoms = call["kwargs"].get("ciphertext")
        if ciphertext_atoms is None:
            idx = 1  # (nonce, ciphertext, mac) positional layout
            if idx < len(call["args"]):
                ciphertext_atoms = call["args"][idx]
        for atom in ciphertext_atoms or []:
            if atom[0] != "call":
                continue
            filler = fn.calls[atom[1]]
            terminal = filler["raw"].rsplit(".", 1)[-1]
            if terminal not in spec.RANDOM_FILLERS:
                continue
            if not self._calibrated(program, fn, filler, depth=0):
                yield self.program_finding(
                    fn.path, filler["line"], filler["col"],
                    f"decoy {message} ciphertext uses {terminal} with a "
                    f"length not derived from "
                    f"{'/'.join(sorted(spec.LENGTH_CALIBRATORS))}; decoys "
                    f"must stay constant-length",
                )

    def _calibrated(
        self, program: Program, fn: ProgramFunction, call: dict, depth: int
    ) -> bool:
        """True iff some argument of *call* traces to a length calibrator.

        Follows ``["call", k]`` atoms breadth-first through local helper
        calls (and one level into known callees' return atoms), so
        ``random_bytes(aead.ciphertext_length(self.padded_payload_length()))``
        and a wrapper helper both count as calibrated.
        """
        if depth > 4:
            return False
        atom_lists = list(call["args"]) + list(call["kwargs"].values())
        for atoms in atom_lists:
            for atom in atoms:
                if atom[0] != "call":
                    continue
                inner = fn.calls[atom[1]]
                terminal = inner["raw"].rsplit(".", 1)[-1]
                if terminal in spec.LENGTH_CALIBRATORS:
                    return True
                target = program.function_for(inner["callee"])
                if target is not None and self._ret_calibrated(
                    program, target, depth + 1
                ):
                    return True
                if self._calibrated(program, fn, inner, depth + 1):
                    return True
        return False

    def _ret_calibrated(
        self, program: Program, fn: ProgramFunction, depth: int
    ) -> bool:
        if depth > 4:
            return False
        for atom in fn.ret_atoms:
            if atom[0] != "call":
                continue
            inner = fn.calls[atom[1]]
            terminal = inner["raw"].rsplit(".", 1)[-1]
            if terminal in spec.LENGTH_CALIBRATORS:
                return True
            if self._calibrated(program, fn, inner, depth + 1):
                return True
        return False
