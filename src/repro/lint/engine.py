"""The linter driver: collect files, run rules, filter, report, exit.

``argus-repro lint [paths...]`` (see :func:`add_arguments` /
:func:`run_lint`) lints ``src/`` by default, applies per-line
suppressions and the checked-in baseline, prints a text/JSON/SARIF
report and exits non-zero iff any *new* finding remains — the contract
CI and ``tests/lint/test_clean_tree.py`` enforce.

The run has two passes.  Module rules see one file at a time; program
rules (:class:`~repro.lint.base.ProgramRule`) run once over the whole
checked tree, against per-module facts.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.base import ModuleContext, ProgramRule, Rule
from repro.lint.baseline import DEFAULT_BASELINE, Baseline, BaselineError
from repro.lint.findings import Finding
from repro.lint.program import Program
from repro.lint.report import RENDERERS, LintResult
from repro.lint.rules import ALL_RULES

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand *paths* (files or directories) into a sorted .py file list."""
    out: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _instantiate(rules: Sequence[type[Rule]] | None) -> list[Rule]:
    return [cls() for cls in (rules if rules is not None else ALL_RULES)]


def _split_rules(rule_objects: list[Rule]) -> tuple[list[Rule], list[ProgramRule]]:
    module_rules = [r for r in rule_objects if not isinstance(r, ProgramRule)]
    program_rules = [r for r in rule_objects if isinstance(r, ProgramRule)]
    return module_rules, program_rules


def _sorted(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: f.sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[type[Rule]] | None = None,
    apply_suppressions: bool = True,
) -> list[Finding]:
    """Lint one source string as if it lived at *path* (package scoping
    and suppression comments both derive from it).

    Program rules see a one-module program here; use
    :func:`lint_sources` to exercise genuinely cross-module behavior.
    """
    return lint_sources(
        {path: source}, rules=rules, apply_suppressions=apply_suppressions
    )


def lint_sources(
    sources: dict[str, str],
    rules: Sequence[type[Rule]] | None = None,
    apply_suppressions: bool = True,
) -> list[Finding]:
    """Lint several in-memory modules as one program.

    The multi-module entry point fixtures use to prove interprocedural
    behavior: module rules run per file, program rules run once over a
    :class:`~repro.lint.program.Program` built from every module.
    """
    contexts = [
        ModuleContext.build(path, source) for path, source in sorted(sources.items())
    ]
    findings, _ = _check(contexts, rules, apply_suppressions)
    return findings


def _check(
    contexts: list[ModuleContext],
    rules: Sequence[type[Rule]] | None,
    apply_suppressions: bool = True,
) -> tuple[list[Finding], int]:
    """Both passes over parsed modules; returns ``(findings, suppressed)``."""
    module_rules, program_rules = _split_rules(_instantiate(rules))
    by_path = {context.path: context for context in contexts}
    findings: list[Finding] = []
    suppressed = 0

    def keep(context: ModuleContext | None, finding: Finding) -> None:
        nonlocal suppressed
        if (
            apply_suppressions
            and context is not None
            and context.is_suppressed(finding)
        ):
            suppressed += 1
        else:
            findings.append(finding)

    for context in contexts:
        for rule in module_rules:
            for finding in rule.check(context):
                keep(context, finding)
    if program_rules and contexts:
        program = Program.from_contexts(contexts)
        for rule in program_rules:
            for finding in rule.check_program(program):
                keep(by_path.get(finding.path), finding)
    return _sorted(findings), suppressed


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[type[Rule]] | None = None,
    relative_to: str | Path | None = None,
) -> tuple[list[Finding], int, int]:
    """Lint every file under *paths*.

    Returns ``(findings, suppressed_count, checked_files)``.  Finding
    paths are made relative to *relative_to* (default: the current
    directory) when possible, so baselines stay machine-independent.
    """
    root = Path(relative_to) if relative_to is not None else Path.cwd()
    errors: list[Finding] = []
    contexts: list[ModuleContext] = []
    files = collect_files(paths)
    for file in files:
        try:
            display = str(file.resolve().relative_to(root.resolve()))
        except ValueError:
            display = str(file)
        try:
            contexts.append(ModuleContext.build(display, file.read_bytes().decode()))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(Finding(
                path=display,
                line=1,
                col=1,
                rule_id="PARSE-ERROR",
                message=f"cannot lint file: {exc}",
            ))
    findings, suppressed = _check(contexts, rules)
    return _sorted(errors + findings), suppressed, len(files)


def changed_files(root: str | Path | None = None) -> set[str] | None:
    """Paths (relative to *root*) git reports as modified or untracked.

    Returns None when git is unavailable or the tree is not a work tree
    — callers then skip filtering rather than hiding findings.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    out: set[str] = set()
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        path = line[3:].strip()
        if " -> " in path:  # renames: keep the new side
            path = path.split(" -> ", 1)[1]
        path = path.strip('"')
        if path.endswith(".py"):
            out.add(path)
    return out


def run(
    paths: Iterable[str | Path],
    baseline_path: str | Path | None = DEFAULT_BASELINE,
    rules: Sequence[type[Rule]] | None = None,
    relative_to: str | Path | None = None,
    changed_only: bool = False,
) -> LintResult:
    """Full pipeline: lint, subtract the baseline, package the result."""
    findings, suppressed, checked = lint_paths(paths, rules, relative_to)
    if changed_only:
        changed = changed_files(relative_to)
        if changed is not None:
            findings = [f for f in findings if f.path in changed]
    baseline = Baseline.load(baseline_path)
    new, baselined = baseline.split(findings)
    return LintResult(
        new=_sorted(new),
        baselined=_sorted(baselined),
        suppressed=suppressed,
        checked_files=checked,
    )


# -- CLI plumbing (the ``argus-repro lint`` subcommand) ----------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=sorted(RENDERERS), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="additionally write a SARIF 2.1.0 log to FILE",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="FILE",
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "rewrite the baseline file deterministically from current "
            "findings (warns about stale fingerprints) and exit 0"
        ),
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="alias for --update-baseline (kept for compatibility)",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help=(
            "report findings only in files git sees as modified or "
            "untracked (analysis stays whole-program)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )


def _update_baseline(args: argparse.Namespace, out) -> int:
    findings, _, _ = lint_paths(args.paths)
    previous = Baseline.load(args.baseline)
    for rule, path, message in previous.stale_fingerprints(findings):
        print(
            f"argus-lint: stale baseline entry dropped: {rule} {path}: {message}",
            file=sys.stderr,
        )
    Baseline.write(args.baseline, findings)
    print(
        f"argus-lint: wrote {len(findings)} finding(s) to {args.baseline}",
        file=out,
    )
    return 0


def run_lint(args: argparse.Namespace, out=None) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.RULE_ID:18s} {rule.SUMMARY}", file=out)
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"argus-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    baseline_path = None if args.no_baseline else args.baseline
    try:
        if args.update_baseline or args.write_baseline:
            return _update_baseline(args, out)
        result = run(
            args.paths,
            baseline_path,
            changed_only=args.changed_only,
        )
    except BaselineError as exc:
        print(f"argus-lint: {exc}", file=sys.stderr)
        return 2
    if args.sarif:
        Path(args.sarif).write_text(RENDERERS["sarif"](result) + "\n")
    print(RENDERERS[args.format](result), file=out)
    return result.exit_code
