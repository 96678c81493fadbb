"""POOL-SAFETY fixtures: worker-closure globals."""

import textwrap

from repro.lint.engine import lint_source, lint_sources
from repro.lint.rules import RULES_BY_ID

RULE = [RULES_BY_ID["POOL-SAFETY"]]


def findings(source: str, path: str = "src/repro/crypto/x.py") -> list:
    return [
        f
        for f in lint_source(textwrap.dedent(source), path, rules=RULE)
        if f.rule_id == "POOL-SAFETY"
    ]


WORKER_MODULE = """
    from concurrent.futures import ProcessPoolExecutor

    _CACHE = {}

    def _work(item):
        cached = _CACHE.get(item)
        return cached or item

    def run(batch):
        with ProcessPoolExecutor() as executor:
            return list(executor.map(_work, batch))
"""


class TestWorkerClosureGlobals:
    def test_bad_mutable_global_in_worker_function(self):
        out = findings(WORKER_MODULE)
        assert out and "_CACHE" in out[0].message

    def test_good_pool_safe_annotation(self):
        src = WORKER_MODULE.replace(
            "_CACHE = {}", "_CACHE = {}  # argus-lint: pool-safe"
        )
        assert not findings(src)

    def test_good_register_at_fork_in_module(self):
        src = (
            "import os\n"
            + textwrap.dedent(WORKER_MODULE)
            + "\nos.register_at_fork(after_in_child=_CACHE.clear)\n"
        )
        assert not lint_source(src, "src/repro/crypto/x.py", rules=RULE)

    def test_good_immutable_global_is_fine(self):
        src = WORKER_MODULE.replace("_CACHE = {}", "_CACHE = None")
        assert not findings(src)

    def test_bad_helper_reached_through_call_graph(self):
        # The global is touched two hops below the pooled entry point,
        # in another module — the closure walk must still find it.
        worker = """
            from repro.crypto.deep_helper import lookup

            def _work(item):
                return lookup(item)

            def run(batch, executor):
                return list(executor.map(_work, batch))
        """
        helper = """
            _TABLE = {}

            def lookup(item):
                return _fetch(item)

            def _fetch(item):
                return _TABLE.get(item)
        """
        out = [
            f
            for f in lint_sources(
                {
                    "src/repro/crypto/pool_entry.py": textwrap.dedent(worker),
                    "src/repro/crypto/deep_helper.py": textwrap.dedent(helper),
                },
                rules=RULE,
            )
            if f.rule_id == "POOL-SAFETY"
        ]
        assert out
        assert out[0].path == "src/repro/crypto/deep_helper.py"
        assert "_TABLE" in out[0].message

    def test_good_initializer_kwarg_is_a_root_but_clean(self):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            def _init():
                pass

            def run(batch, work):
                with ProcessPoolExecutor(initializer=_init) as executor:
                    return list(executor.map(work, batch))
        """
        assert not findings(src)
