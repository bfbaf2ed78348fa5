"""``repro.analysis`` — rapidslint static analysis + thread sanitizer.

Three complementary layers:

* :mod:`repro.analysis.framework` / :mod:`repro.analysis.rules` — an
  AST-based analyzer with project-specific single-file rules (GF(256)
  operator misuse, EC dtype hygiene, thread_map shared-state writes,
  solver nondeterminism, …), per-line suppression comments that
  *require* a justification, and the ``rapids lint`` CLI entry point.
* the whole-program engine — :mod:`repro.analysis.callgraph` (project
  symbol table + call graph from per-file summaries),
  :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow`
  (per-function CFGs with exception edges and a forward dataflow
  framework), :mod:`repro.analysis.wholeprog` (the interprocedural
  rules RPD113–RPD116).
* :mod:`repro.analysis.sanitizer` — a runtime shadow-tracker that
  instruments pooled :func:`repro.parallel.threads.thread_map` calls
  (``RAPIDS_THREAD_SANITIZER=1``) and fails tests when a worker
  callable writes shared state without a lock.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from . import rules as _rules  # noqa: F401 — importing registers the rules
from . import wholeprog as _wholeprog  # noqa: F401 — registers RPD113-RPD116
from .callgraph import CallGraph, ModuleSummary, summarize_module
from .cfg import CFG, build_cfg
from .dataflow import ForwardAnalysis, run_forward, tainted_names
from .framework import (
    META_RULE_ID,
    Analyzer,
    Finding,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    Severity,
    all_rules,
    get_rule,
    iter_python_files,
    register,
)
from .sanitizer import (
    SANITIZER_ENV,
    MutationEvent,
    SharedStateTracker,
    ThreadSanitizerError,
    sanitizer_mode,
)

__all__ = [
    "META_RULE_ID",
    "Analyzer",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "Severity",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "register",
    "CFG",
    "build_cfg",
    "ForwardAnalysis",
    "run_forward",
    "tainted_names",
    "CallGraph",
    "ModuleSummary",
    "summarize_module",
    "SANITIZER_ENV",
    "MutationEvent",
    "SharedStateTracker",
    "ThreadSanitizerError",
    "sanitizer_mode",
    "run_lint",
    "changed_files",
]


def changed_files(base: str = "HEAD", cwd: str | None = None) -> set[str]:
    """Posix paths changed vs ``base`` (git diff + untracked files)."""
    out: set[str] = set()
    for args in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, cwd=cwd, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            continue
        out.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return {p for p in out if p.endswith(".py")}


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
    too), ``2`` on usage errors.  ``changed_base`` restricts *reported*
    findings to files that differ from that git ref (the whole project
    is still analyzed, so whole-program rules see every caller).
    """
    analyzer = Analyzer(select=select)
    restrict = None
    if changed_base is not None:
        restrict = changed_files(changed_base)
        # Paths may be reported relative to the repo root; accept both
        # spellings so `rapids lint --changed src` works from anywhere.
        restrict |= {str(Path(p)) for p in restrict}
    findings = analyzer.check_paths(paths, restrict_to=restrict)
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
