"""POOL-SAFETY: process-pool worker closures must survive fork.

A function reachable from pool-worker entry points (anything passed to
``executor.map``/``submit`` or as an ``initializer=``; the experiment
runner forks through ``ProcessPoolExecutor.map``) that touches a
*mutable module global* shares that state with the parent at fork
time.  A per-worker cache is fine **iff** it is declared so: annotate
the global's definition line with ``# argus-lint: pool-safe``, or
register a reset hook via ``os.register_at_fork`` in the same module.

The closure walk is whole-program: a helper two modules away from the
``executor.map`` call site is still checked.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.base import ProgramRule, name_tokens
from repro.lint.findings import Finding
from repro.lint.program import Program, ProgramFunction

#: Executor/pool method terminals whose callable arguments become
#: worker entry points.
_DISPATCH_METHODS = frozenset({"map", "submit", "apply_async", "imap"})

#: Base-object name tokens that look like an executor/pool.
_POOL_BASE_TOKENS = frozenset({"executor", "pool", "workers"})


def _terminal(raw: str) -> str:
    return raw.rsplit(".", 1)[-1]


def _base_tokens(raw: str) -> set[str]:
    head, _, _ = raw.rpartition(".")
    out: set[str] = set()
    for part in head.split("."):
        out.update(name_tokens(part))
    return out


class PoolSafetyRule(ProgramRule):
    RULE_ID = "POOL-SAFETY"
    SUMMARY = (
        "worker-reachable mutable globals must be fork-registered or "
        "marked pool-safe"
    )

    def _worker_roots(self, program: Program) -> set[str]:
        """Qualified names of functions handed to executors/pools."""
        roots: set[str] = set()
        for fn in program.iter_functions():
            for call in fn.calls:
                terminal = _terminal(call["raw"])
                is_dispatch = (
                    terminal in _DISPATCH_METHODS
                    and _base_tokens(call["raw"]) & _POOL_BASE_TOKENS
                )
                if is_dispatch:
                    for expr in call["arg_exprs"]:
                        if expr is not None:
                            roots.add(self._resolve_expr(program, fn, expr))
                initializer = call["kwarg_exprs"].get("initializer")
                if initializer is not None:
                    roots.add(self._resolve_expr(program, fn, initializer))
        return {r for r in roots if r in program.functions}

    @staticmethod
    def _resolve_expr(program: Program, fn: ProgramFunction, expr: str) -> str:
        """A callable reference argument, resolved like a call would be."""
        facts = program.modules.get(fn.module)
        if facts is None:
            return expr
        head, _, rest = expr.partition(".")
        imports = facts["imports"]
        if head in ("self", "cls") and rest and "." not in rest:
            class_name = fn.facts.get("class_name")
            if class_name:
                return f"{fn.module}.{class_name}.{rest}"
        if head in imports:
            return f"{imports[head]}.{rest}" if rest else imports[head]
        candidate = f"{fn.module}.{expr}"
        if candidate in program.functions:
            return candidate
        return expr

    def check_program(self, program: Program) -> Iterable[Finding]:
        roots = self._worker_roots(program)
        if not roots:
            return
        for fn in program.closure(sorted(roots)):
            facts = program.modules.get(fn.module)
            if facts is None:
                continue
            globals_info = facts["globals"]
            forked = facts["registers_at_fork"]
            for name in fn.facts["global_reads"]:
                info = globals_info.get(name)
                if info is None or not info["mutable"]:
                    continue
                if info["pool_safe"] or forked:
                    continue
                yield self.program_finding(
                    fn.path, fn.line, fn.facts["col"],
                    f"{fn.qualified} runs in pool workers but touches mutable "
                    f"module global '{name}' ({fn.module}:{info['line']}); "
                    f"register an os.register_at_fork reset or annotate the "
                    f"definition with '# argus-lint: pool-safe'",
                )
