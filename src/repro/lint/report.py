"""Reporters: pretty terminal output and machine-readable JSON."""

from __future__ import annotations

import json

from repro.lint.core import Finding, severity_rank

__all__ = ["render_json", "render_pretty", "summary_line"]


def _sorted(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def summary_line(findings: list[Finding], files: int) -> str:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.severity] = counts.get(f.severity, 0) + 1
    parts = [f"{counts[s]} {s}{'s' if counts[s] != 1 else ''}"
             for s in sorted(counts, key=severity_rank)]
    body = ", ".join(parts) if parts else "clean"
    return f"lint: {files} files, {body}"


def render_pretty(findings: list[Finding], files: int) -> str:
    lines = [f.format() for f in _sorted(findings)]
    lines.append(summary_line(findings, files))
    return "\n".join(lines)


def render_json(findings: list[Finding], files: int) -> str:
    payload = {
        "files": files,
        "findings": [f.as_dict() for f in _sorted(findings)],
        "counts": {s: sum(1 for f in findings if f.severity == s)
                   for s in ("error", "warning", "info")},
        "clean": not findings,
    }
    return json.dumps(payload, indent=2)
