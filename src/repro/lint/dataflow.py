"""Interprocedural taint propagation over function summaries.

The engine runs two fixpoints over the :class:`~repro.lint.program.Program`
call graph:

* **RT** (return taint): for every function, which taint *sources*
  reach its return value and which of its *parameters* flow to it.
* **PS** (param-to-sink): for every function, which parameters reach a
  sink somewhere in its transitive callees, with the witness chain.

Both are summary-based — the classic bottom-up design that scales
linearly with program size and survives recursion (monotone lattice,
so iteration terminates).  A call site is classified against a
:class:`TaintSpec` before any summary is consulted: a *source* call
taints regardless of its body (``kdf.derive_k2`` internally ends in an
HMAC, but its *return value* is the session key), a *sanitizer* call
stops propagation (AEAD seal, hashing, the blessed constant-time
compare), an unknown call conservatively unions its argument taint.

Findings are emitted at the offending call line in the *calling*
function, so per-line ``# argus-lint: disable=`` suppressions keep
working, and messages avoid line numbers so baseline fingerprints stay
stable under unrelated edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.program import Program, ProgramFunction

#: Conservative cap on fixpoint sweeps; real call graphs converge in 2-4.
_MAX_PASSES = 20


@dataclass(frozen=True)
class TaintSpec:
    """What counts as a source, sanitizer, and sink."""

    source_calls: frozenset[str] = frozenset()       # fully-qualified callees
    source_methods: frozenset[str] = frozenset()     # terminal method names
    sanitizer_calls: frozenset[str] = frozenset()
    sanitizer_methods: frozenset[str] = frozenset()
    wire_sinks: frozenset[str] = frozenset()         # fully-qualified constructors
    log_methods: frozenset[str] = frozenset()        # logger method terminals
    log_objects: frozenset[str] = frozenset()        # logger-ish base names
    raise_is_sink: bool = True
    repr_is_sink: bool = True
    #: Only findings located in these packages are reported (analysis is
    #: still whole-program).
    report_packages: tuple[str, ...] = ()


@dataclass(frozen=True)
class TaintValue:
    """Lattice value: which sources and which own-params reach here."""

    sources: frozenset[str] = frozenset()
    params: frozenset[int] = frozenset()

    def __or__(self, other: "TaintValue") -> "TaintValue":
        if not other.sources and not other.params:
            return self
        return TaintValue(self.sources | other.sources, self.params | other.params)


_EMPTY = TaintValue()


@dataclass(frozen=True)
class SinkWitness:
    """How a parameter reaches a sink: kind + qualified call chain."""

    kind: str
    chain: tuple[str, ...]


@dataclass
class TaintFinding:
    """Raw engine output; the SECRET-FLOW rule wraps these as Findings."""

    path: str
    module: str
    line: int
    col: int
    message: str


def _terminal(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _base(name: str) -> str:
    head, _, _ = name.rpartition(".")
    return head.rsplit(".", 1)[-1] if head else ""


class TaintAnalysis:
    """Run the RT/PS fixpoints and collect source-to-sink findings."""

    def __init__(self, program: Program, spec: TaintSpec) -> None:
        self.program = program
        self.spec = spec
        self.rt: dict[str, TaintValue] = {q: _EMPTY for q in program.functions}
        self.ps: dict[str, dict[int, SinkWitness]] = {q: {} for q in program.functions}

    # -- call classification --------------------------------------------------

    def classify(self, call: dict) -> str:
        """'source' | 'sanitizer' | 'sink-...' | 'known' | 'unknown'."""
        spec = self.spec
        callee = call["callee"]
        terminal = _terminal(call["raw"])
        if callee in spec.source_calls or terminal in spec.source_methods:
            return "source"
        if callee in spec.sanitizer_calls or terminal in spec.sanitizer_methods:
            return "sanitizer"
        if callee in spec.wire_sinks:
            return "sink-wire"
        if terminal in spec.log_methods and _base(call["raw"]) in spec.log_objects:
            return "sink-log"
        if callee == "print" or terminal == "print":
            return "sink-log"
        if spec.raise_is_sink and call["in_raise"]:
            return "sink-raise"
        if callee in self.program.functions:
            return "known"
        return "unknown"

    @staticmethod
    def _sink_label(kind: str) -> str:
        return {
            "sink-wire": "unsealed wire emission",
            "sink-log": "logging",
            "sink-raise": "exception text",
            "sink-repr": "repr/str formatting",
        }[kind]

    # -- atom evaluation ------------------------------------------------------

    def _eval_atoms(self, fn: ProgramFunction, atoms: list) -> TaintValue:
        value = _EMPTY
        for atom in atoms:
            kind, payload = atom[0], atom[1]
            if kind == "param":
                value = value | TaintValue(params=frozenset({payload}))
            elif kind == "call":
                value = value | self._eval_call(fn, payload)
        return value

    def _call_inputs(self, fn: ProgramFunction, call: dict) -> TaintValue:
        value = self._eval_atoms(fn, call.get("recv", []))
        for atoms in call["args"]:
            value = value | self._eval_atoms(fn, atoms)
        for atoms in call["kwargs"].values():
            value = value | self._eval_atoms(fn, atoms)
        return value

    def _eval_call(self, fn: ProgramFunction, index: int) -> TaintValue:
        call = fn.calls[index]
        cls = self.classify(call)
        if cls == "sanitizer":
            return _EMPTY
        if cls == "source":
            return TaintValue(sources=frozenset({call["callee"]}))
        if cls == "known":
            target = self.program.functions[call["callee"]]
            summary = self.rt[target.qualified]
            value = TaintValue(sources=summary.sources)
            for j in summary.params:
                value = value | self._eval_atoms(fn, self._arg_atoms(target, call, j))
            return value
        # Unknown calls (and sinks used as expressions) propagate inputs.
        return self._call_inputs(fn, call)

    @staticmethod
    def _arg_atoms(target: ProgramFunction, call: dict, j: int) -> list:
        """Atoms feeding *target*'s j-th parameter at this call site.

        Methods called via an instance drop the ``self`` slot, so try
        both the exact index and the index shifted by one; keywords are
        matched by parameter name.
        """
        params = target.params
        name = params[j] if j < len(params) else None
        if name is not None and name in call["kwargs"]:
            return call["kwargs"][name]
        bound_shift = 1 if params[:1] in (["self"], ["cls"]) else 0
        if bound_shift and j == 0:
            return call.get("recv", [])  # the receiver fills the self slot
        for idx in (j - bound_shift, j):
            if 0 <= idx < len(call["args"]):
                return call["args"][idx]
        return []

    # -- fixpoints ------------------------------------------------------------

    def run(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for fn in self.program.iter_functions():
                new = self._eval_atoms(fn, fn.ret_atoms)
                if new != self.rt[fn.qualified]:
                    self.rt[fn.qualified] = new
                    changed = True
            if not changed:
                break
        for _ in range(_MAX_PASSES):
            if not self._ps_pass():
                break

    def _ps_pass(self) -> bool:
        changed = False
        for fn in self.program.iter_functions():
            table = self.ps[fn.qualified]
            for call in fn.calls:
                cls = self.classify(call)
                if cls.startswith("sink-"):
                    value = self._call_inputs(fn, call)
                    for i in sorted(value.params):
                        if i not in table:
                            table[i] = SinkWitness(cls, (fn.qualified,))
                            changed = True
                elif cls == "known":
                    target = self.program.functions[call["callee"]]
                    for j, witness in sorted(self.ps[target.qualified].items()):
                        value = self._eval_atoms(fn, self._arg_atoms(target, call, j))
                        for i in sorted(value.params):
                            if i not in table:
                                table[i] = SinkWitness(
                                    witness.kind, (fn.qualified, *witness.chain)
                                )
                                changed = True
            if self.spec.repr_is_sink and fn.facts["is_repr"]:
                value = self._eval_atoms(fn, fn.ret_atoms)
                for i in sorted(value.params):
                    if i not in table:
                        table[i] = SinkWitness("sink-repr", (fn.qualified,))
                        changed = True
        return changed

    # -- findings -------------------------------------------------------------

    def _reportable(self, fn: ProgramFunction) -> bool:
        pkgs = self.spec.report_packages
        if not pkgs:
            return True
        return any(
            fn.module == pkg or fn.module.startswith(pkg + ".") for pkg in pkgs
        )

    def findings(self) -> list[TaintFinding]:
        out: list[TaintFinding] = []

        def emit(fn: ProgramFunction, call: dict, message: str) -> None:
            out.append(
                TaintFinding(
                    path=fn.path,
                    module=fn.module,
                    line=call["line"],
                    col=call["col"],
                    message=message,
                )
            )

        for fn in self.program.iter_functions():
            if not self._reportable(fn):
                continue
            for call in fn.calls:
                cls = self.classify(call)
                if cls.startswith("sink-"):
                    value = self._call_inputs(fn, call)
                    for source in sorted(value.sources):
                        emit(
                            fn, call,
                            f"secret material from {source} reaches "
                            f"{self._sink_label(cls)} in {fn.qualified}",
                        )
                elif cls == "known":
                    target = self.program.functions[call["callee"]]
                    for j, witness in sorted(self.ps[target.qualified].items()):
                        value = self._eval_atoms(fn, self._arg_atoms(target, call, j))
                        for source in sorted(value.sources):
                            chain = " -> ".join((fn.qualified, *witness.chain))
                            emit(
                                fn, call,
                                f"secret material from {source} flows into "
                                f"{target.qualified} and reaches "
                                f"{self._sink_label(witness.kind)} via {chain}",
                            )
            if self.spec.repr_is_sink and fn.facts["is_repr"]:
                value = self._eval_atoms(fn, fn.ret_atoms)
                for source in sorted(value.sources):
                    ret_site = {"line": fn.line, "col": fn.facts["col"]}
                    emit(
                        fn, ret_site,
                        f"secret material from {source} reaches repr/str "
                        f"formatting in {fn.qualified}",
                    )
        return out
