"""Per-module fact extraction for the whole-program analyzer.

Every fact the whole-program rules (SECRET-FLOW, PROTO-STATE,
POOL-SAFETY) need is extracted here in **one AST walk per module** and
is **JSON-serializable**: dotted import maps, per-function call records
with taint atoms, module globals.  :class:`repro.lint.program.Program`
is assembled purely from these facts, never from ASTs.

Taint atoms are the currency of the dataflow engine
(:mod:`repro.lint.dataflow`).  An atom is a small list:

* ``["param", i]`` — the value derives from the function's i-th
  parameter;
* ``["call", k]`` — the value derives from the return of the k-th call
  recorded in this function (classification of that call as
  source/sanitizer/sink happens later, at program-analysis time, so the
  facts stay rule-agnostic).

Constants carry no atoms.  Propagation here is deliberately coarse
(any formatting, slicing, concatenation or container keeps taint): a
linter would rather follow one spurious flow than drop a real key.
"""

from __future__ import annotations

import ast
import re

#: Attribute names whose *read* is recorded as a pseudo-call so the
#: dataflow layer can treat them as taint sources (LKH node/group keys
#: are exposed as properties, not calls).
TRACKED_ATTRS = ("root_key", "group_key")

#: ``# argus-lint: pool-safe`` on (or directly above) a module-global
#: definition asserts the global is safe to touch from pool workers
#: (per-process cache, reset hook registered, etc.).
POOL_SAFE_RE = re.compile(r"#\s*argus-lint:\s*pool-safe\b")

#: Call terminals that build mutable containers when assigned at module
#: level.
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "Counter",
    "deque", "bytearray",
}

_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
)


def dotted_expr(node: ast.AST) -> str | None:
    """Best-effort dotted form of a Name/Attribute chain.

    ``session.ecdh.derive_premaster`` -> that string; anything rooted in
    a call or subscript -> None (not resolvable statically).
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_expr(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _resolve(
    dotted: str,
    imports: dict[str, str],
    module: str,
    class_name: str | None,
    module_defs: set[str],
) -> str:
    """Qualify *dotted* against the module's imports and local defs."""
    head, _, rest = dotted.partition(".")
    if head in ("self", "cls") and class_name:
        if rest and "." not in rest:
            return f"{module}.{class_name}.{rest}"
        return dotted
    mapped = imports.get(head)
    if mapped is not None:
        return f"{mapped}.{rest}" if rest else mapped
    if head in module_defs:
        return f"{module}.{dotted}"
    return dotted


class _FunctionExtractor:
    """Single forward walk of one function body, building FunctionFacts."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        module: str,
        imports: dict[str, str],
        class_name: str | None,
        module_defs: set[str],
        module_globals: set[str],
    ) -> None:
        self.node = node
        self.module = module
        self.imports = imports
        self.class_name = class_name
        self.module_defs = module_defs
        self.module_globals = module_globals
        args = node.args
        self.params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        self.env: dict[str, frozenset] = {
            name: frozenset({("param", i)}) for i, name in enumerate(self.params)
        }
        self.calls: list[dict] = []
        self.ret: set = set()
        self._in_raise = 0

    # -- expression atoms -----------------------------------------------------

    def atoms(self, node: ast.AST | None) -> frozenset:
        if node is None:
            return frozenset()
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, frozenset())
        if isinstance(node, ast.Attribute):
            dotted = dotted_expr(node)
            if dotted is not None and dotted in self.env:
                return self.env[dotted]
            if node.attr in TRACKED_ATTRS:
                return frozenset({("call", self._record_attr_read(node))})
            return self.atoms(node.value)
        if isinstance(node, ast.Call):
            return frozenset({("call", self._record_call(node))})
        if isinstance(node, ast.Lambda):
            return frozenset()
        # Generic union over child expressions (BinOp, JoinedStr,
        # FormattedValue, Compare, Subscript, comprehensions, ...).
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.atoms(child)
            else:
                out |= self._non_expr_atoms(child)
        return frozenset(out)

    def _non_expr_atoms(self, node: ast.AST) -> frozenset:
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.atoms(child)
            else:
                out |= self._non_expr_atoms(child)
        return frozenset(out)

    def _record_call(self, node: ast.Call) -> int:
        raw = dotted_expr(node.func)
        if raw is None:
            terminal = node.func.attr if isinstance(node.func, ast.Attribute) else None
            raw = terminal or "<dynamic>"
            resolved = raw
        else:
            resolved = _resolve(
                raw, self.imports, self.module, self.class_name, self.module_defs
            )
        args = []
        arg_exprs = []
        for arg in node.args:
            value = arg.value if isinstance(arg, ast.Starred) else arg
            args.append(sorted(map(list, self.atoms(value))))
            arg_exprs.append(dotted_expr(value))
        kwargs = {}
        kwarg_exprs = {}
        for kw in node.keywords:
            key = kw.arg or "**"
            kwargs[key] = sorted(map(list, self.atoms(kw.value)))
            kwarg_exprs[key] = dotted_expr(kw.value)
        recv: list = []
        if isinstance(node.func, ast.Attribute):
            recv = sorted(map(list, self.atoms(node.func.value)))
        entry = {
            "callee": resolved,
            "raw": raw,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "args": args,
            "kwargs": kwargs,
            "arg_exprs": arg_exprs,
            "kwarg_exprs": kwarg_exprs,
            "recv": recv,
            "in_raise": self._in_raise > 0,
        }
        self.calls.append(entry)
        return len(self.calls) - 1

    def _record_attr_read(self, node: ast.Attribute) -> int:
        dotted = dotted_expr(node) or node.attr
        self.calls.append({
            "callee": dotted,
            "raw": dotted,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "args": [],
            "kwargs": {},
            "arg_exprs": [],
            "kwarg_exprs": {},
            "recv": [],
            "in_raise": self._in_raise > 0,
        })
        return len(self.calls) - 1

    # -- statements -----------------------------------------------------------

    def run(self) -> None:
        self._visit_body(self.node.body)

    def _visit_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _assign(self, target: ast.AST, atoms: frozenset, augment: bool = False) -> None:
        if isinstance(target, ast.Name):
            if augment:
                atoms = atoms | self.env.get(target.id, frozenset())
            self.env[target.id] = atoms
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, atoms, augment)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, atoms, augment)
        elif isinstance(target, ast.Attribute):
            dotted = dotted_expr(target)
            if dotted is not None:
                if augment:
                    atoms = atoms | self.env.get(dotted, frozenset())
                self.env[dotted] = atoms
        elif isinstance(target, ast.Subscript):
            dotted = dotted_expr(target.value)
            if dotted is not None:
                self.env[dotted] = atoms | self.env.get(dotted, frozenset())
            else:
                self.atoms(target.value)

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.atoms(stmt.value)
            for target in stmt.targets:
                self._assign(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.atoms(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._assign(stmt.target, self.atoms(stmt.value), augment=True)
        elif isinstance(stmt, ast.Return):
            self.ret |= self.atoms(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self._in_raise += 1
            self.atoms(stmt.exc)
            self._in_raise -= 1
        elif isinstance(stmt, ast.Expr):
            self.atoms(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.atoms(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_atoms = self.atoms(stmt.iter)
            self._assign(stmt.target, iter_atoms)
            # Two passes over the loop body to pick up loop-carried flows.
            self._visit_body(stmt.body)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.atoms(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                atoms = self.atoms(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, atoms)
            self._visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._visit_body(stmt.orelse)
            self._visit_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs keep their own scope; not followed
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            self._non_expr_atoms(stmt)
        else:
            self._non_expr_atoms(stmt)

    # -- output ---------------------------------------------------------------

    def facts(self) -> dict:
        node = self.node
        qualname = (
            f"{self.class_name}.{node.name}" if self.class_name else node.name
        )
        local = bound_param_names = set(self.params)
        bound = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound.add(sub.id)
        local = bound | bound_param_names
        global_reads = sorted({
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
            and sub.id in self.module_globals
            and sub.id not in local
        })
        return {
            "name": node.name,
            "qualname": qualname,
            "class_name": self.class_name,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "params": self.params,
            "is_repr": node.name in ("__repr__", "__str__"),
            "calls": self.calls,
            "ret": sorted(map(list, self.ret)),
            "global_reads": global_reads,
        }


def _module_imports(tree: ast.Module, module: str) -> dict[str, str]:
    imports: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix_parts = module.split(".")
                # level 1 = current package, 2 = parent, ...
                cut = len(prefix_parts) - (node.level - 1)
                prefix = ".".join(prefix_parts[:cut]) if cut > 0 else package
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _mutable_global(value: ast.AST | None) -> bool:
    if value is None:
        return False
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        terminal = (
            value.func.attr if isinstance(value.func, ast.Attribute)
            else value.func.id if isinstance(value.func, ast.Name)
            else None
        )
        return terminal in _MUTABLE_FACTORIES
    return False


def extract_module_facts(path: str, source: str, tree: ast.Module, module: str) -> dict:
    """Everything the program layer needs from one module, serializable."""
    lines = source.splitlines()

    def _line(lineno: int) -> str:
        return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""

    imports = _module_imports(tree, module)
    module_defs: set[str] = set()
    classes: dict[str, list[str]] = {}
    globals_info: dict[str, dict] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_defs.add(node.name)
            if isinstance(node, ast.ClassDef):
                classes[node.name] = [
                    sub.name
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    module_defs.add(target.id)
                    globals_info[target.id] = {
                        "line": node.lineno,
                        "mutable": _mutable_global(node.value),
                        "pool_safe": bool(
                            POOL_SAFE_RE.search(_line(node.lineno))
                            or POOL_SAFE_RE.search(_line(node.lineno - 1))
                        ),
                    }

    module_globals = set(globals_info)
    functions: list[dict] = []

    def _extract(node, class_name: str | None) -> None:
        extractor = _FunctionExtractor(
            node, module, imports, class_name, module_defs, module_globals
        )
        extractor.run()
        functions.append(extractor.facts())

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _extract(node, None)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _extract(sub, node.name)

    registers_at_fork = any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "register_at_fork")
            or (isinstance(node.func, ast.Name) and node.func.id == "register_at_fork")
        )
        for node in ast.walk(tree)
    )

    return {
        "module": module,
        "path": path,
        "imports": imports,
        "classes": classes,
        "functions": functions,
        "globals": globals_info,
        "registers_at_fork": registers_at_fork,
    }
