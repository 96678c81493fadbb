"""PROTO-STATE fixtures: state-machine conformance bad/good pairs."""

import textwrap

from repro.lint.engine import lint_source, lint_sources
from repro.lint.rules import RULES_BY_ID

RULE = [RULES_BY_ID["PROTO-STATE"]]

HANDLER_NAMES = [
    "handle_que1",
    "handle_res1",
    "handle_res1_level1",
    "handle_que2",
    "handle_res2",
    "handle_rque",
    "handle_rres",
]


def engine_source(imports: str = "", helpers: str = "", **bodies: str) -> str:
    """A protocol engine defining every handler; *bodies* override the
    default ``return None`` body of named handlers."""
    lines = [textwrap.dedent(imports).strip(), "", "class Engine:"]
    if helpers:
        lines.append(textwrap.indent(textwrap.dedent(helpers).strip(), "    "))
    for name in HANDLER_NAMES:
        body = textwrap.dedent(bodies.get(name, "return None")).strip()
        lines.append(f"    def {name}(self, msg):")
        lines.append(textwrap.indent(body, "        "))
        lines.append("")
    return "\n".join(lines) + "\n"


def findings(source: str, path: str = "src/repro/protocol/x.py") -> list:
    return [
        f for f in lint_source(source, path, rules=RULE) if f.rule_id == "PROTO-STATE"
    ]


class TestResponseOrdering:
    def test_bad_handler_emits_out_of_order_response(self):
        src = engine_source(
            imports="from repro.protocol.messages import Que2",
            handle_que1='return Que2(kexm=b"x", ciphertext=b"y", mac_s2=b"z")',
        )
        out = findings(src)
        assert any("out of protocol order" in f.message for f in out)

    def test_good_handler_emits_its_spec_response(self):
        src = engine_source(
            imports="from repro.protocol.messages import Que2",
            handle_res1='return Que2(kexm=b"x", ciphertext=b"y", mac_s2=b"z")',
        )
        assert not findings(src)

    def test_non_handler_helpers_may_construct(self):
        src = engine_source(
            imports="from repro.protocol.messages import Que2",
            helpers="""
                def _build_que2(self, kexm, ct, mac):
                    return Que2(kexm=kexm, ciphertext=ct, mac_s2=mac)
            """,
        )
        assert not findings(src)


class TestHandlerExistence:
    def test_bad_constructed_type_without_handler(self):
        src = textwrap.dedent(
            """
            from repro.protocol.messages import Rque

            def start(ticket):
                return Rque(ticket=ticket, r_s=b"r", binder=b"b")
            """
        )
        out = findings(src)
        assert any("handle_rque is not defined" in f.message for f in out)

    def test_good_handler_in_another_protocol_module(self):
        # The whole point of the whole-program pass: the constructor and
        # its handler live in different modules.
        builder = textwrap.dedent(
            """
            from repro.protocol.messages import Rque

            def start(ticket):
                return Rque(ticket=ticket, r_s=b"r", binder=b"b")
            """
        )
        out = [
            f
            for f in lint_sources(
                {
                    "src/repro/protocol/builder.py": builder,
                    "src/repro/protocol/engine2.py": engine_source(),
                },
                rules=RULE,
            )
            if f.rule_id == "PROTO-STATE"
        ]
        assert not out

    def test_non_protocol_modules_are_out_of_scope(self):
        src = textwrap.dedent(
            """
            from repro.protocol.messages import Rque

            def replay(ticket):
                return Rque(ticket=ticket, r_s=b"r", binder=b"b")
            """
        )
        assert not findings(src, path="src/repro/attacks/x.py")


class TestDecoyConstantLength:
    def test_bad_decoy_with_literal_length(self):
        src = engine_source(
            imports="""
                from repro.protocol.messages import Rres
                from repro.crypto.primitives import random_bytes
            """,
            handle_rque='return Rres(r_o=b"r", ciphertext=random_bytes(64), mac_o=b"m")',
        )
        out = findings(src)
        assert any("constant-length" in f.message for f in out)

    def test_good_decoy_calibrated_via_padded_length(self):
        src = engine_source(
            imports="""
                from repro.protocol.messages import Rres
                from repro.crypto import aead
                from repro.crypto.primitives import random_bytes
            """,
            helpers="""
                def padded_payload_length(self):
                    return 96
            """,
            handle_rque="""
                n = aead.ciphertext_length(self.padded_payload_length())
                return Rres(r_o=b"r", ciphertext=random_bytes(n), mac_o=random_bytes(16))
            """,
        )
        assert not findings(src)

    def test_good_decoy_calibrated_through_helper(self):
        src = engine_source(
            imports="""
                from repro.protocol.messages import Rres
                from repro.crypto import aead
                from repro.crypto.primitives import random_bytes
            """,
            helpers="""
                def padded_payload_length(self):
                    return 96

                def _decoy_len(self):
                    return aead.ciphertext_length(self.padded_payload_length())
            """,
            handle_rque=(
                'return Rres(r_o=b"r", ciphertext=random_bytes(self._decoy_len()),'
                ' mac_o=random_bytes(16))'
            ),
        )
        assert not findings(src)

    def test_good_real_ciphertext_is_not_a_decoy(self):
        src = engine_source(
            imports="""
                from repro.protocol.messages import Rres
                from repro.crypto import aead
            """,
            helpers="""
                def respond(self, key, payload):
                    return Rres(r_o=b"r", ciphertext=aead.encrypt(key, payload), mac_o=b"m")
            """,
        )
        assert not findings(src)
