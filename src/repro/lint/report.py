"""Reporters: render lint results for humans (text) and tooling (JSON/SARIF).

Every reporter sorts findings by :attr:`Finding.sort_key`
(path, line, rule id, col, message), so output — and therefore CI
diffs — is byte-stable regardless of rule registration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.lint.findings import Finding
from repro.lint.sarif import render_sarif


def _ordered(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: f.sort_key)


@dataclass
class LintResult:
    """Outcome of one linter run, after suppression and baseline filtering."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    checked_files: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.new)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


def render_text(result: LintResult) -> str:
    lines = [finding.render() for finding in _ordered(result.new)]
    summary = (
        f"argus-lint: {len(result.new)} new finding(s), "
        f"{len(result.baselined)} baselined, {result.suppressed} suppressed "
        f"across {result.checked_files} file(s)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "new": [finding.to_dict() for finding in _ordered(result.new)],
        "baselined": [finding.to_dict() for finding in _ordered(result.baselined)],
        "suppressed": result.suppressed,
        "checked_files": result.checked_files,
        "failed": result.failed,
    }
    return json.dumps(payload, indent=2)


RENDERERS = {"text": render_text, "json": render_json, "sarif": render_sarif}
