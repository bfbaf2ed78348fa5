"""Project-wide symbol table and call graph for rapidslint.

The whole-program rules (RPD113, RPD115, RPD116) need to answer
reachability questions — "is this raw ``open`` reachable from a function
that never consulted the fault injector?", "which locks can be held by
the time we get here?" — across module boundaries.  This module is split
in two layers:

* :func:`summarize_module` extracts a :class:`ModuleSummary` from one
  parsed file: its import aliases,
  top-level symbols, classes (with bases and methods), and per-function
  facts — call sites (with the locks held at each), lock acquisitions,
  nondeterminism sources, raw-I/O sites, fault-injector consults, and
  frozen string sets (how ``chaos/plan.py`` declares its sites).
* :class:`CallGraph` links a set of summaries into an edge set with a
  deliberately modest resolution strategy (direct names, from-imports,
  ``self.method`` with single-inheritance walk, ``module.attr`` chains,
  constructor calls, and locally-instantiated variables).  Unresolvable
  dynamic calls become no edges — the rules that consume the graph are
  written so a missing edge produces a false *negative*, never a false
  positive.

Nested functions are inlined into their enclosing function's summary:
for every rule built on this graph, "the closure does it" and "the
function does it" are the same fact, and inlining sidesteps the
impossible problem of resolving closure call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

from .cfg import attr_chain

__all__ = [
    "CallSite",
    "LockAcquire",
    "FunctionSummary",
    "ModuleSummary",
    "CallGraph",
    "summarize_module",
    "module_name_for",
]

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# -- fact extraction ---------------------------------------------------------

_NONDET_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.perf_counter",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "uuid.uuid4",
    "os.urandom",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.choice",
    "np.random.rand",
    "np.random.randn",
    "np.random.randint",
    "np.random.random",
    "np.random.shuffle",
    "np.random.permutation",
    "np.random.choice",
}

_RAW_IO_CALLS = {
    "open",
    "os.replace",
    "os.remove",
    "os.rename",
    "os.unlink",
    "os.fsync",
}
_RAW_IO_METHODS = {
    "read_bytes",
    "write_bytes",
    "read_text",
    "write_text",
}

_LOCK_HINTS = ("lock", "mutex", "semaphore", "_sem")


def _is_lockish(chain: str) -> bool:
    leaf = chain.rsplit(".", 1)[-1].lower()
    return any(h in leaf for h in _LOCK_HINTS)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str  # textual a.b.c chain as written
    lineno: int
    held_locks: tuple[str, ...] = ()  # resolved lock ids held at the call
    arg0: str | None = None  # first positional arg if a string literal


@dataclass(frozen=True)
class LockAcquire:
    """A ``with <lock>:`` acquisition inside a function body."""

    lock: str  # resolved lock id, e.g. "repro/storage/system.py:StorageSystem._lock"
    lineno: int
    held: tuple[str, ...] = ()  # locks already held at this acquisition


@dataclass
class FunctionSummary:
    """Whole-program facts about one function (closures inlined)."""

    qualname: str  # "path/to/mod.py:Cls.fn" or "path/to/mod.py:fn"
    lineno: int
    calls: list[CallSite] = field(default_factory=list)
    locks: list[LockAcquire] = field(default_factory=list)
    nondet: list[tuple[str, int]] = field(default_factory=list)
    raw_io: list[tuple[str, int]] = field(default_factory=list)
    injector_sites: list[tuple[str, int]] = field(default_factory=list)
    instantiates: dict[str, str] = field(default_factory=dict)  # var -> class chain


@dataclass
class ModuleSummary:
    """Whole-program facts about one module."""

    path: str  # posix, repo-relative as given to the analyzer
    module: str  # dotted guess, e.g. "repro.storage.system"
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted target
    symbols: list[str] = field(default_factory=list)  # top-level defs/classes
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    string_sets: dict[str, list[str]] = field(default_factory=dict)


def module_name_for(posix_path: str) -> str:
    """Best-effort dotted module name for a repo-relative posix path."""
    p = posix_path
    if p.endswith(".py"):
        p = p[:-3]
    parts = [seg for seg in p.split("/") if seg]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _FunctionVisitor:
    """Extracts one FunctionSummary; descends into nested defs inline."""

    def __init__(self, summary: FunctionSummary, owner_class: str | None,
                 path: str) -> None:
        self.summary = summary
        self.owner_class = owner_class
        self.path = path
        self.held: list[str] = []

    def _resolve_lock(self, chain: str) -> str:
        if chain.startswith("self.") and self.owner_class:
            return f"{self.path}:{self.owner_class}.{chain[5:]}"
        return f"{self.path}:{chain}"

    def visit_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _FUNC_DEFS):
            # Inline nested function bodies into this summary.
            self.visit_body(stmt.body)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in stmt.items:
                ctx = item.context_expr
                chain = attr_chain(ctx)
                if isinstance(ctx, ast.Call):
                    self._visit_expr(ctx)
                    continue
                if chain and _is_lockish(chain):
                    lock_id = self._resolve_lock(chain)
                    self.summary.locks.append(
                        LockAcquire(lock_id, stmt.lineno, tuple(self.held))
                    )
                    acquired.append(lock_id)
                else:
                    self._visit_expr(ctx)
            self.held.extend(acquired)
            self.visit_body(stmt.body)
            del self.held[len(self.held) - len(acquired):]
            return
        if isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for h in stmt.handlers:
                self.visit_body(h.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.If,)):
            self._visit_expr(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._visit_expr(stmt.test)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Assign):
            self._record_instantiation(stmt)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._visit_expr(node)

    def _record_instantiation(self, stmt: ast.Assign) -> None:
        if (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            chain = attr_chain(stmt.value.func)
            if chain and chain[0:1].isupper() or (
                chain and chain.rsplit(".", 1)[-1][:1].isupper()
            ):
                self.summary.instantiates[stmt.targets[0].id] = chain

    def _visit_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, _FUNC_DEFS + (ast.Lambda,)):
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if not chain:
                continue
            arg0 = None
            if node.args and isinstance(node.args[0], ast.Constant) and \
                    isinstance(node.args[0].value, str):
                arg0 = node.args[0].value
            self.summary.calls.append(
                CallSite(chain, node.lineno, tuple(self.held), arg0)
            )
            if chain in _NONDET_CALLS:
                self.summary.nondet.append((chain, node.lineno))
            leaf = chain.rsplit(".", 1)[-1]
            if chain in _RAW_IO_CALLS or leaf in _RAW_IO_METHODS:
                self.summary.raw_io.append((chain, node.lineno))
            if leaf in ("check", "filter_payload", "latency") and arg0 and \
                    "." in arg0:
                # Heuristic: injector.check("storage.write", ...) — any
                # dotted string literal consulted via check/filter/latency.
                self.summary.injector_sites.append((arg0, node.lineno))


def summarize_module(path: str, tree: ast.Module) -> ModuleSummary:
    """Extract the whole-program summary of one parsed module."""
    summary = ModuleSummary(path=path, module=module_name_for(path))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                summary.imports[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                # Relative import: best-effort resolve against this module.
                base = summary.module.split(".")
                base = base[: len(base) - node.level]
                mod = ".".join(base + ([mod] if mod else []))
            for a in node.names:
                if a.name == "*":
                    continue
                summary.imports[a.asname or a.name] = (
                    f"{mod}.{a.name}" if mod else a.name
                )

    for node in tree.body:
        if isinstance(node, _FUNC_DEFS):
            summary.symbols.append(node.name)
            fs = FunctionSummary(f"{path}:{node.name}", node.lineno)
            _FunctionVisitor(fs, None, path).visit_body(node.body)
            summary.functions[node.name] = fs
        elif isinstance(node, ast.ClassDef):
            summary.symbols.append(node.name)
            bases = [attr_chain(b) for b in node.bases]
            methods = []
            for item in node.body:
                if isinstance(item, _FUNC_DEFS):
                    methods.append(item.name)
                    key = f"{node.name}.{item.name}"
                    fs = FunctionSummary(f"{path}:{key}", item.lineno)
                    _FunctionVisitor(fs, node.name, path).visit_body(item.body)
                    summary.functions[key] = fs
            summary.classes[node.name] = {
                "bases": [b for b in bases if b],
                "methods": methods,
            }
        elif isinstance(node, ast.Assign):
            # Frozen string-set declarations, e.g. chaos/plan.py SITES.
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                values = _string_set(node.value)
                if values is not None:
                    summary.string_sets[node.targets[0].id] = values
                summary.symbols.append(node.targets[0].id)
    return summary


def _string_set(value: ast.expr) -> list[str] | None:
    """Literal frozenset/set/tuple/list of strings, possibly wrapped in
    ``frozenset({...})``; None when the value is anything else."""
    if isinstance(value, ast.Call) and attr_chain(value.func) in (
        "frozenset", "set", "tuple", "list"
    ):
        if len(value.args) == 1:
            return _string_set(value.args[0])
        return []
    if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        out = []
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return out
    return None


# -- linking ----------------------------------------------------------------


class CallGraph:
    """Links a set of :class:`ModuleSummary` into a resolved edge set."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        self.by_dotted: dict[str, ModuleSummary] = {}
        for s in summaries:
            self.modules[s.path] = s
            if s.module:
                self.by_dotted[s.module] = s
        #: qualname -> FunctionSummary for every function in the project
        self.functions: dict[str, FunctionSummary] = {}
        #: method name -> [qualnames] for last-resort unique-name matching
        self._methods: dict[str, list[str]] = {}
        #: class name -> (path, class info)
        self._classes: dict[str, list[tuple[str, dict[str, Any]]]] = {}
        for s in self.modules.values():
            for key, fs in s.functions.items():
                self.functions[fs.qualname] = fs
                leaf = key.rsplit(".", 1)[-1]
                self._methods.setdefault(leaf, []).append(fs.qualname)
            for cname, info in s.classes.items():
                self._classes.setdefault(cname, []).append((s.path, info))
        #: caller qualname -> [(callee qualname, CallSite)]
        self.edges: dict[str, list[tuple[str, CallSite]]] = {}
        self._link()

    # -- resolution --------------------------------------------------------

    def _class_method(self, path: str, cls: str, meth: str) -> str | None:
        """Resolve ``cls.meth`` in ``path`` walking single-inheritance."""
        seen = set()
        queue = [(path, cls)]
        while queue:
            p, c = queue.pop(0)
            if (p, c) in seen:
                continue
            seen.add((p, c))
            mod = self.modules.get(p)
            if mod is None:
                continue
            info = mod.classes.get(c)
            if info is None:
                # The base may live elsewhere under the same name.
                for bp, binfo in self._classes.get(c, []):
                    queue.append((bp, c)) if bp != p else None
                continue
            if meth in info["methods"]:
                return f"{p}:{c}.{meth}"
            for base in info["bases"]:
                bleaf = base.rsplit(".", 1)[-1]
                target = mod.imports.get(bleaf)
                if target:
                    bmod = self.by_dotted.get(target.rsplit(".", 1)[0])
                    if bmod:
                        queue.append((bmod.path, bleaf))
                for bp, _ in self._classes.get(bleaf, []):
                    queue.append((bp, bleaf))
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        """Resolve a fully-dotted target like ``repro.storage.system.put``
        or ``repro.parallel.procpipe.SharedArena`` to a qualname."""
        mod = self.by_dotted.get(dotted)
        if mod is not None:
            return None  # a module, not a callable
        if "." not in dotted:
            return None
        head, leaf = dotted.rsplit(".", 1)
        owner = self.by_dotted.get(head)
        if owner is None:
            # Maybe Class.method: strip one more level.
            if "." in head:
                h2, cls = head.rsplit(".", 1)
                owner2 = self.by_dotted.get(h2)
                if owner2 is not None and cls in owner2.classes:
                    return self._class_method(owner2.path, cls, leaf)
            return None
        if leaf in owner.classes:
            return self._class_method(owner.path, leaf, "__init__")
        if leaf in owner.functions:
            return owner.functions[leaf].qualname
        return None

    def resolve(self, caller_mod: ModuleSummary, caller_key: str,
                chain: str) -> str | None:
        """Resolve one textual call chain to a callee qualname, or None."""
        parts = chain.split(".")
        head = parts[0]

        # self.method() — owning class from the caller key.
        if head == "self" and len(parts) == 2 and "." in caller_key:
            cls = caller_key.split(".", 1)[0]
            return self._class_method(caller_mod.path, cls, parts[1])

        # Locally instantiated variable: x = SharedArena(); x.lease()
        caller_fs = caller_mod.functions.get(caller_key)
        if caller_fs and len(parts) == 2 and head in caller_fs.instantiates:
            cls_chain = caller_fs.instantiates[head]
            target = self._resolve_instantiated(caller_mod, cls_chain)
            if target is not None:
                path, cls = target
                return self._class_method(path, cls, parts[1])

        # Direct name in the same module.
        if len(parts) == 1:
            if head in caller_mod.classes:
                return self._class_method(caller_mod.path, head, "__init__")
            if head in caller_mod.functions:
                return caller_mod.functions[head].qualname
            target = caller_mod.imports.get(head)
            if target:
                return self._resolve_dotted(target)
            return None

        # alias.attr... — follow the import alias.
        target = caller_mod.imports.get(head)
        if target:
            return self._resolve_dotted(".".join([target, *parts[1:]]))

        # Unique-method-name fallback for two-part chains: obj.close()
        # resolves iff exactly one project class defines close().  This
        # keeps resource rules useful without full type inference; a
        # name defined twice simply produces no edge.
        if len(parts) == 2:
            candidates = self._methods.get(parts[1], [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _resolve_instantiated(
        self, caller_mod: ModuleSummary, cls_chain: str
    ) -> tuple[str, str] | None:
        parts = cls_chain.split(".")
        if len(parts) == 1:
            if parts[0] in caller_mod.classes:
                return caller_mod.path, parts[0]
            target = caller_mod.imports.get(parts[0])
            if target and "." in target:
                h, leaf = target.rsplit(".", 1)
                owner = self.by_dotted.get(h)
                if owner is not None and leaf in owner.classes:
                    return owner.path, leaf
            return None
        target = caller_mod.imports.get(parts[0])
        if target:
            dotted = ".".join([target, *parts[1:]])
            h, leaf = dotted.rsplit(".", 1)
            owner = self.by_dotted.get(h)
            if owner is not None and leaf in owner.classes:
                return owner.path, leaf
        return None

    def _link(self) -> None:
        for s in self.modules.values():
            for key, fs in s.functions.items():
                out: list[tuple[str, CallSite]] = []
                for site in fs.calls:
                    callee = self.resolve(s, key, site.callee)
                    if callee is not None and callee in self.functions:
                        out.append((callee, site))
                self.edges[fs.qualname] = out

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> list[tuple[str, CallSite]]:
        return self.edges.get(qualname, [])

    def callers(self) -> dict[str, list[tuple[str, CallSite]]]:
        rev: dict[str, list[tuple[str, CallSite]]] = {}
        for caller, outs in self.edges.items():
            for callee, site in outs:
                rev.setdefault(callee, []).append((caller, site))
        return rev

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            stack.extend(c for c, _ in self.edges.get(q, []))
        return seen

    def call_chain(self, root: str, target: str) -> list[str] | None:
        """Shortest root -> ... -> target qualname path (BFS), or None."""
        if root == target:
            return [root]
        prev: dict[str, str] = {}
        queue = [root]
        seen = {root}
        while queue:
            q = queue.pop(0)
            for callee, _ in self.edges.get(q, []):
                if callee in seen:
                    continue
                prev[callee] = q
                if callee == target:
                    chain = [callee]
                    while chain[-1] != root:
                        chain.append(prev[chain[-1]])
                    return list(reversed(chain))
                seen.add(callee)
                queue.append(callee)
        return None

    def transitive_locks(self) -> dict[str, set[str]]:
        """qualname -> every lock possibly acquired by it or any callee."""
        direct = {
            q: {a.lock for a in fs.locks}
            for q, fs in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for q, outs in self.edges.items():
                mine = direct[q]
                before = len(mine)
                for callee, _ in outs:
                    mine |= direct.get(callee, set())
                if len(mine) != before:
                    changed = True
        return direct
