"""Whole-program view: modules, functions, and the call graph.

A :class:`Program` is assembled from per-module fact dicts
(:func:`repro.lint.facts.extract_module_facts`), never from ASTs.  It
indexes every function by its qualified name
(``repro.crypto.kdf.derive_k2``,
``repro.protocol.object.ObjectEngine.handle_que2``) and exposes the
call graph the dataflow engine and POOL-SAFETY closure walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.facts import extract_module_facts

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.base import ModuleContext


@dataclass
class ProgramFunction:
    """One function (or method) with its facts and owning module."""

    qualified: str
    module: str
    path: str
    facts: dict

    @property
    def name(self) -> str:
        return self.facts["name"]

    @property
    def params(self) -> list[str]:
        return self.facts["params"]

    @property
    def calls(self) -> list[dict]:
        return self.facts["calls"]

    @property
    def ret_atoms(self) -> list:
        return self.facts["ret"]

    @property
    def line(self) -> int:
        return self.facts["line"]


@dataclass
class Program:
    """Cross-module index over extracted facts."""

    modules: dict[str, dict] = field(default_factory=dict)  # module name -> facts
    functions: dict[str, ProgramFunction] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)  # qualified class -> module

    @classmethod
    def from_facts(cls, facts_list: Iterable[dict]) -> "Program":
        program = cls()
        for facts in facts_list:
            if facts is None:
                continue
            module = facts["module"]
            program.modules[module] = facts
            for cls_name in facts["classes"]:
                program.classes[f"{module}.{cls_name}"] = module
            for fn in facts["functions"]:
                qualified = f"{module}.{fn['qualname']}"
                program.functions[qualified] = ProgramFunction(
                    qualified=qualified,
                    module=module,
                    path=facts["path"],
                    facts=fn,
                )
        return program

    @classmethod
    def from_contexts(cls, contexts: Iterable["ModuleContext"]) -> "Program":
        return cls.from_facts(
            extract_module_facts(ctx.path, ctx.source, ctx.tree, ctx.module)
            for ctx in contexts
        )

    # -- lookups --------------------------------------------------------------

    def function_for(self, resolved: str) -> ProgramFunction | None:
        """The function a resolved callee string targets, if it is ours."""
        return self.functions.get(resolved)

    def iter_functions(self) -> Iterator[ProgramFunction]:
        # Deterministic order: by path then definition line.
        yield from sorted(
            self.functions.values(), key=lambda fn: (fn.path, fn.line, fn.qualified)
        )

    def callees(self, fn: ProgramFunction) -> list[ProgramFunction]:
        """In-program functions *fn* calls (call-graph edge set)."""
        out: dict[str, ProgramFunction] = {}
        for call in fn.calls:
            target = self.functions.get(call["callee"])
            if target is not None:
                out[target.qualified] = target
        return [out[name] for name in sorted(out)]

    def closure(self, roots: Iterable[str]) -> list[ProgramFunction]:
        """Transitive call-graph closure of the given qualified names."""
        seen: dict[str, ProgramFunction] = {}
        stack = [name for name in roots if name in self.functions]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            fn = self.functions[name]
            seen[name] = fn
            for callee in self.callees(fn):
                if callee.qualified not in seen:
                    stack.append(callee.qualified)
        return [seen[name] for name in sorted(seen)]
