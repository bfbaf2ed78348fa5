"""``repro.analysis`` — rapidslint, the project's static analyzer.

:mod:`repro.analysis.framework` is an AST-based analyzer: each rule
checks one parsed file at a time, and per-line suppression comments
*require* a justification.  :mod:`repro.analysis.rules` holds the
project-specific rules (GF(256) operator misuse, EC dtype hygiene,
thread_map shared-state writes, solver nondeterminism, chaos-seam
coverage, …).  :func:`run_lint` is the ``rapids lint`` CLI entry point.
The runtime thread sanitizer that complements RPD103 lives next to its
only caller, in :mod:`repro.parallel.sanitizer`.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from . import rules as _rules  # noqa: F401 — importing registers the rules
from .framework import (
    META_RULE_ID,
    Analyzer,
    Finding,
    ModuleContext,
    Rule,
    Severity,
    all_rules,
    iter_python_files,
    register,
)

__all__ = [
    "META_RULE_ID",
    "Analyzer",
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "iter_python_files",
    "register",
    "run_lint",
    "changed_files",
]


def changed_files(base: str = "HEAD") -> set[Path]:
    """Resolved paths of the ``.py`` files under the working directory
    that changed vs ``base`` (git diff plus untracked files)."""
    root = Path.cwd().resolve()
    out: set[Path] = set()
    for args in (
        ["git", "diff", "--name-only", "--relative", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            continue
        out.update(
            root / line.strip()
            for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return out


def run_lint(
    paths,
    *,
    select=None,
    output=print,
    fmt: str = "text",
    changed_base: str | None = None,
) -> int:
    """Lint ``paths`` and report findings; returns a process exit code.

    ``0`` when the tree is clean, ``1`` when any non-suppressed finding
    remains (regardless of severity — the CI gate fails on warnings
    too), ``2`` on usage errors.  ``changed_base`` lints only the files
    under ``paths`` that differ from that git ref (every rule is
    per-file, so nothing else can change their findings).
    """
    analyzer = Analyzer(select=select)
    files = list(iter_python_files(paths))
    if changed_base is not None:
        changed = changed_files(changed_base)
        files = [f for f in files if f.resolve() in changed]
    findings = analyzer.check_paths(files)
    if fmt == "json":
        import json

        output(
            json.dumps(
                [
                    {
                        "rule": f.rule_id,
                        "severity": str(f.severity),
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for f in findings:
            output(f.render())
    if findings:
        worst = max(f.severity for f in findings)
        output(
            f"rapidslint: {len(findings)} finding(s), worst severity "
            f"{worst} ({len(analyzer.rules)} rules active)"
        )
        return 1
    return 0
