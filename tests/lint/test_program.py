"""Facts extraction and whole-program assembly: the analyzer substrate."""

import json
import textwrap

from repro.lint.base import ModuleContext
from repro.lint.facts import extract_module_facts
from repro.lint.program import Program


def facts_for(source: str, path: str = "src/repro/crypto/x.py") -> dict:
    context = ModuleContext.build(path, textwrap.dedent(source))
    return extract_module_facts(context.path, context.source, context.tree, context.module)


class TestFactExtraction:
    def test_facts_are_json_serializable(self):
        facts = facts_for(
            """
            from repro.crypto import kdf

            _CACHE = {}

            class Engine:
                def derive(self, pre, binder):
                    key = kdf.derive_k2(pre, binder)
                    return key
            """
        )
        assert json.loads(json.dumps(facts)) == facts

    def test_import_resolution(self):
        facts = facts_for(
            """
            from repro.crypto import kdf
            from repro.protocol.messages import Que1
            import repro.crypto.aead as aead

            def f(x):
                kdf.derive_k2(x, x)
                Que1(n_s=x)
                aead.encrypt(x, x)
            """
        )
        callees = [c["callee"] for c in facts["functions"][0]["calls"]]
        assert "repro.crypto.kdf.derive_k2" in callees
        assert "repro.protocol.messages.Que1" in callees
        assert "repro.crypto.aead.encrypt" in callees

    def test_self_method_calls_resolve_to_own_class(self):
        facts = facts_for(
            """
            class Engine:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
            """
        )
        outer = next(f for f in facts["functions"] if f["name"] == "outer")
        assert outer["calls"][0]["callee"] == "repro.crypto.x.Engine.inner"

    def test_param_taint_flows_through_assignments(self):
        facts = facts_for(
            """
            def f(secret, other):
                alias = secret
                combined = alias + b"!"
                return combined
            """
        )
        fn = facts["functions"][0]
        assert ["param", 0] in fn["ret"]
        assert ["param", 1] not in fn["ret"]

    def test_loop_carried_taint(self):
        facts = facts_for(
            """
            def f(items, secret):
                acc = b""
                for item in items:
                    acc = acc + secret
                return acc
            """
        )
        fn = facts["functions"][0]
        assert ["param", 1] in fn["ret"]

    def test_mutable_global_detection_and_pool_safe_marker(self):
        facts = facts_for(
            """
            TABLE = {}
            SAFE = {}  # argus-lint: pool-safe
            LIMIT = 512
            """
        )
        assert facts["globals"]["TABLE"]["mutable"]
        assert not facts["globals"]["TABLE"]["pool_safe"]
        assert facts["globals"]["SAFE"]["pool_safe"]
        assert not facts["globals"]["LIMIT"]["mutable"]

    def test_register_at_fork_needs_a_real_call(self):
        # A docstring *mention* must not count.
        assert not facts_for('"""uses os.register_at_fork somewhere"""')[
            "registers_at_fork"
        ]
        assert facts_for(
            """
            import os
            os.register_at_fork(after_in_child=list)
            """
        )["registers_at_fork"]


class TestProgramAssembly:
    def _program(self) -> Program:
        a = facts_for(
            """
            from repro.crypto.helper import leaf

            def top(x):
                return leaf(x)
            """,
            path="src/repro/crypto/entry.py",
        )
        b = facts_for(
            """
            def leaf(x):
                return bottom(x)

            def bottom(x):
                return x
            """,
            path="src/repro/crypto/helper.py",
        )
        return Program.from_facts([a, b])

    def test_cross_module_function_index(self):
        program = self._program()
        assert "repro.crypto.entry.top" in program.functions
        assert "repro.crypto.helper.bottom" in program.functions

    def test_call_graph_edges_cross_modules(self):
        program = self._program()
        top = program.functions["repro.crypto.entry.top"]
        assert [c.qualified for c in program.callees(top)] == [
            "repro.crypto.helper.leaf"
        ]

    def test_transitive_closure(self):
        program = self._program()
        names = [f.qualified for f in program.closure(["repro.crypto.entry.top"])]
        assert names == [
            "repro.crypto.entry.top",
            "repro.crypto.helper.bottom",
            "repro.crypto.helper.leaf",
        ]

    def test_from_facts_round_trips_through_json(self):
        # The cache stores facts as JSON; Program must behave identically
        # when built from round-tripped dicts.
        a = facts_for("def f(x):\n    return g(x)\n\ndef g(x):\n    return x\n")
        direct = Program.from_facts([a])
        revived = Program.from_facts([json.loads(json.dumps(a))])
        assert sorted(direct.functions) == sorted(revived.functions)
