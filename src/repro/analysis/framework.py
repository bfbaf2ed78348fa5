"""Core of ``rapidslint`` — the project-specific static analyzer.

The framework is deliberately small: a rule is a class with an id, a
severity, and a ``check(module)`` generator; the analyzer parses each
file once into an :class:`ast.Module`, hands every registered rule the
same :class:`ModuleContext`, and filters the resulting findings through
the suppression comments found in the source.

Suppression syntax (one honest justification per suppression)::

    x = risky()  # rapidslint: disable=RPD105 -- handle is closed in close()
    # rapidslint: disable-next=RPD108,RPD105 -- long-lived segment handle
    fh = open(path, "rb")
    # rapidslint: disable-file=RPD106 -- generated module, names re-exported

``disable=`` applies to the findings on its own line, ``disable-next=``
to the following line, and ``disable-file=`` to the whole module.  The
`` -- justification`` part is **mandatory**: a suppression without one
(or naming an unknown rule id) is itself reported as :data:`META_RULE_ID`
and does not silence anything.
"""

from __future__ import annotations

import ast
import enum
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "ModuleContext",
    "Analyzer",
    "register",
    "all_rules",
    "iter_python_files",
    "META_RULE_ID",
]

#: Reserved id for problems with suppression comments themselves.
META_RULE_ID = "RPD100"

_SUPPRESS_RE = re.compile(
    r"#\s*rapidslint:\s*(?P<kind>disable|disable-next|disable-file)\s*="
    r"\s*(?P<rules>[A-Z0-9, ]+?)\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error" reads better than "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule (or by the suppression parser)."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )


@dataclass
class _Suppression:
    rules: tuple[str, ...]
    line: int          # the line the suppression applies to (1-based)
    whole_file: bool
    justification: str
    used: bool = False

    def matches(self, finding: Finding) -> bool:
        if finding.rule_id not in self.rules:
            return False
        return self.whole_file or finding.line == self.line


class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    def __init__(self, path: str | Path, source: str, tree: ast.Module):
        self.path = str(path)
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        # Normalised, '/'-separated path for cheap "is this an EC
        # module?" checks in path-scoped rules.
        self.posix_path = Path(path).as_posix()

    def in_package(self, *fragments: str) -> bool:
        """True if the module path contains any of the given fragments
        (e.g. ``"/ec/"`` or ``"/optimize/"``)."""
        return any(f in self.posix_path for f in fragments)


class Rule:
    """Base class for rapidslint rules.

    Subclasses set the class attributes and implement :meth:`check` as a
    generator of :class:`Finding`.  Use :meth:`finding` to stamp the
    rule's id/severity and the node's position automatically.
    """

    rule_id: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""
    rationale: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY or cls.rule_id == META_RULE_ID:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    # rapidslint: disable-next=RPD110 -- import-time registration; decorators run on the single thread importing the module
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Registered rules, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _known_rule_ids() -> set[str]:
    return set(_REGISTRY) | {META_RULE_ID}


def _parse_suppressions(
    module: ModuleContext,
) -> tuple[list[_Suppression], list[Finding]]:
    """Extract suppression comments; malformed ones become findings."""
    suppressions: list[_Suppression] = []
    problems: list[Finding] = []
    known = _known_rule_ids()
    # Only genuine COMMENT tokens count — a suppression example quoted in
    # a docstring or string literal must not silence anything.
    try:
        comments = [
            (tok.start[0], tok.start[1], tok.string)
            for tok in tokenize.generate_tokens(
                io.StringIO(module.source).readline
            )
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        comments = []
    for lineno, col, text in comments:
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        rules = tuple(r.strip() for r in m.group("rules").split(",") if r.strip())
        why = (m.group("why") or "").strip()
        bad: str | None = None
        unknown = [r for r in rules if r not in known]
        if not rules:
            bad = "suppression lists no rule ids"
        elif unknown:
            bad = f"suppression names unknown rule id(s): {', '.join(unknown)}"
        elif not why:
            bad = (
                "suppression has no justification — write "
                "'# rapidslint: disable=ID -- why this is safe'"
            )
        if bad is not None:
            problems.append(
                Finding(META_RULE_ID, Severity.ERROR, module.path, lineno, col, bad)
            )
            continue
        kind = m.group("kind")
        suppressions.append(
            _Suppression(
                rules=rules,
                line=lineno + 1 if kind == "disable-next" else lineno,
                whole_file=kind == "disable-file",
                justification=why,
            )
        )
    return suppressions, problems


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if "__pycache__" in c.parts or c in seen:
                continue
            seen.add(c)
            yield c




class Analyzer:
    """Runs a set of rules over files and applies suppressions.

    ``select`` restricts to the given rule ids; by default every
    registered rule runs.  Unused suppressions are reported (as
    :data:`META_RULE_ID` warnings) so stale disables cannot accumulate.
    """

    def __init__(self, *, select: Sequence[str] | None = None) -> None:
        self.rules = all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {r.rule_id for r in self.rules}
            if unknown:
                raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
            self.rules = [r for r in self.rules if r.rule_id in wanted]

    def check_source(
        self, source: str, path: str | Path = "<string>"
    ) -> list[Finding]:
        """Analyze one source string (the unit-test entry point)."""
        path = str(path)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    META_RULE_ID, Severity.ERROR, path,
                    exc.lineno or 1, exc.offset or 0,
                    f"syntax error: {exc.msg}",
                )
            ]
        module = ModuleContext(path, source, tree)
        suppressions, findings = _parse_suppressions(module)
        for rule in self.rules:
            for f in rule.check(module):
                hit = next((s for s in suppressions if s.matches(f)), None)
                if hit is not None:
                    hit.used = True
                else:
                    findings.append(f)
        active = {r.rule_id for r in self.rules}
        findings += [
            Finding(
                META_RULE_ID, Severity.WARNING, path, s.line, 0,
                "unused suppression for " + ", ".join(s.rules)
                + " — remove it",
            )
            for s in suppressions
            if not s.used and set(s.rules) & active
        ]
        findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
        return findings

    def check_file(self, path: str | Path) -> list[Finding]:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            return [
                Finding(
                    META_RULE_ID, Severity.ERROR, str(path), 1, 0,
                    f"cannot read file: {exc}",
                )
            ]
        return self.check_source(source, path)

    def check_paths(self, paths: Sequence[str | Path]) -> list[Finding]:
        """Analyze files/directories, one file at a time."""
        return [f for p in iter_python_files(paths) for f in self.check_file(p)]
