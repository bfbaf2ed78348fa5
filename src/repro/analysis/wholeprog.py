"""Whole-program rapidslint rules (RPD113–RPD116).

These are the rules the single-file pass structurally cannot express:

* :class:`LockOrderRule` (RPD113) — inconsistent lock acquisition order
  across call paths.  Two threads taking the same pair of locks in
  opposite orders is the classic deadlock; the rule builds a
  held-before graph from every ``with <lock>:`` nesting (including
  locks acquired transitively by callees while a lock is held) and
  reports every 2-cycle.
* :class:`ResourceLifecycleRule` (RPD114) — path-sensitive
  leak detection over the CFG: every ``SharedArena.lease``, worker-side
  shm attach, spool/tile-source construction, and ``__init__``-owned
  file handle must be released/closed on every path out of the
  function, *including the exception edges*.
* :class:`ChaosCoverageRule` (RPD115) — raw file/metadata I/O in the
  storage seams must be reachable only through functions that consult
  the :class:`~repro.chaos.injector.FaultInjector`, and every consulted
  site string must be declared in ``chaos/plan.py``.  New I/O seams
  that silently escape fault injection are exactly the ones the chaos
  suite can never exercise.
* :class:`SolverReachabilityRule` (RPD116) — nondeterminism sources
  (wall clocks, unseeded RNG) *transitively* reachable from the FT
  solver and placement paths.  RPD104 flags direct calls inside solver
  modules; this closes the loophole of hiding ``time.time()`` one
  helper-module hop away.

All four run on the :class:`~repro.analysis.callgraph.ModuleSummary` /
:class:`~repro.analysis.callgraph.CallGraph` layer (RPD114 additionally
on per-function CFGs, which it reaches through the normal local-rule
interface).
"""

from __future__ import annotations

import ast
from typing import Iterator, NamedTuple

from .cfg import EDGE_EXC, attr_chain, build_cfg
from .dataflow import ForwardAnalysis, run_forward
from .framework import (
    Finding,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    Severity,
    register,
)

__all__ = [
    "LockOrderRule",
    "ResourceLifecycleRule",
    "ChaosCoverageRule",
    "SolverReachabilityRule",
]

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _short_lock(lock_id: str) -> str:
    path, _, name = lock_id.partition(":")
    return f"{name} ({path.rsplit('/', 1)[-1]})"


def _short_qual(qualname: str) -> str:
    path, _, name = qualname.partition(":")
    return f"{path.rsplit('/', 1)[-1]}:{name}"


@register
class LockOrderRule(ProjectRule):
    """Opposite lock acquisition orders on different call paths.

    An edge A -> B means "B was acquired while A was held", either
    directly (nested ``with`` blocks) or through a call made under A to
    a function that (transitively) takes B.  An A->B plus B->A pair is a
    latent deadlock the moment those paths run on two threads; A->A is
    self-deadlock on a non-reentrant lock.
    """

    rule_id = "RPD113"
    name = "lock-order"
    severity = Severity.ERROR
    description = "inconsistent lock acquisition order across call paths"
    rationale = "opposite nesting orders on two threads deadlock"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        transitive = graph.transitive_locks()
        # edge (held, acquired) -> (path, line, how)
        edges: dict[tuple[str, str], tuple[str, int, str]] = {}

        def record(held: str, acq: str, path: str, line: int, how: str) -> None:
            key = (held, acq)
            if key not in edges:
                edges[key] = (path, line, how)

        for summary in project.summaries.values():
            for fs in summary.functions.values():
                for a in fs.locks:
                    for h in a.held:
                        record(h, a.lock, summary.path, a.lineno, "nested with")
                for callee, site in graph.callees(fs.qualname):
                    if not site.held_locks:
                        continue
                    for t in transitive.get(callee, ()):
                        for h in site.held_locks:
                            record(
                                h, t, summary.path, site.lineno,
                                f"call to {_short_qual(callee)}",
                            )

        reported: set[frozenset[str]] = set()
        for (a, b), (path, line, how) in sorted(edges.items()):
            if a == b:
                yield self.finding_at(
                    path, line,
                    f"lock {_short_lock(a)} re-acquired while already held "
                    f"({how}) — self-deadlock on a non-reentrant lock",
                )
                continue
            if (b, a) not in edges:
                continue
            pair = frozenset((a, b))
            if pair in reported:
                continue
            reported.add(pair)
            o_path, o_line, o_how = edges[(b, a)]
            yield self.finding_at(
                path, line,
                f"lock order inversion: {_short_lock(b)} acquired while "
                f"holding {_short_lock(a)} here ({how}), but "
                f"{o_path}:{o_line} acquires them in the opposite order "
                f"({o_how}) — two threads on these paths can deadlock",
            )


class _Token(NamedTuple):
    """One tracked live resource inside a function."""

    name: str   # binding: "shm" or "self._fh"
    kind: str   # "lease" | "shm" | "handle" | "file"
    line: int
    owner: str  # receiver of .lease(), "" otherwise
    via_self: bool


_KILL_LEAVES = {"close", "release", "unlink", "shutdown", "terminate"}
_SHM_CTORS = {"_attach", "SharedMemory"}
_HANDLE_CTORS = {"TileSource", "_FragmentSpool"}


def _mentions(node: ast.AST, name: str) -> bool:
    """Does ``node`` mention binding ``name`` ("x" or "self.attr")?"""
    if "." in name:
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and attr_chain(n) == name:
                return True
        return False
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id == name:
            return True
    return False


class _LeakAnalysis(ForwardAnalysis):
    """Live-resource dataflow: state = frozenset of :class:`_Token`."""

    def __init__(self, fn: ast.AST, in_init: bool, bound: set[str]) -> None:
        self.fn = fn
        self.in_init = in_init
        self.bound = bound  # names assigned/bound somewhere in this fn

    # -- acquisition matching ---------------------------------------------

    def _acquire(self, value: ast.expr) -> tuple[str, str] | None:
        """(kind, owner) when ``value`` acquires a tracked resource."""
        if not isinstance(value, ast.Call):
            return None
        chain = attr_chain(value.func)
        if not chain:
            return None
        leaf = chain.rsplit(".", 1)[-1]
        if leaf == "lease" and "." in chain:
            owner = chain.split(".", 1)[0]
            if owner == "self" and "." in chain[5:]:
                owner = "self." + chain.split(".")[1]
            return ("lease", owner)
        if leaf in _SHM_CTORS:
            return ("shm", "")
        if leaf in _HANDLE_CTORS:
            return ("handle", "")
        return None

    # -- transfer ----------------------------------------------------------

    def _apply_kills(self, state: frozenset, stmt: ast.stmt) -> frozenset:
        """Releases/escapes that happened *before* any raise matters —
        safe to honour on both the normal and exception edge."""
        if not state:
            return state
        dead: set[_Token] = set()
        for node in ast.walk(stmt):
            if isinstance(node, _FUNC_DEFS + (ast.Lambda,)):
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            leaf = chain.rsplit(".", 1)[-1] if chain else ""
            if leaf not in _KILL_LEAVES:
                continue
            recv = chain[: -(len(leaf) + 1)] if "." in chain else ""
            for tok in state:
                if recv and (recv == tok.name or recv == tok.owner):
                    dead.add(tok)
                    continue
                # self.close() from __init__ cleans up instance-owned
                # handles (the cleanup method closes what it stores).
                if recv == "self" and tok.via_self:
                    dead.add(tok)
                    continue
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if _mentions(arg, tok.name):
                        dead.add(tok)
                        break
        return state - frozenset(dead)

    def transfer_exc(self, state: frozenset, stmt: ast.stmt) -> frozenset:
        return self._apply_kills(state, stmt)

    def transfer_stmt(self, state: frozenset, stmt: ast.stmt) -> frozenset:
        state = self._apply_kills(state, stmt)
        gen: _Token | None = None

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            acq = self._acquire(stmt.value)
            if acq is not None:
                kind, owner = acq
                if isinstance(target, ast.Name):
                    # A lease from a closure-captured arena is cleaned up
                    # by the *enclosing* function's with-block; only track
                    # owners bound in this scope.
                    if not (kind == "lease" and owner and
                            owner not in self.bound and
                            not owner.startswith("self.")):
                        gen = _Token(
                            target.id, kind, stmt.lineno, owner, False
                        )
                elif (
                    self.in_init
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    gen = _Token(
                        f"self.{target.attr}", kind, stmt.lineno, "", True
                    )
            elif (
                self.in_init
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(stmt.value, ast.Call)
                and attr_chain(stmt.value.func) == "open"
            ):
                gen = _Token(
                    f"self.{target.attr}", "file", stmt.lineno, "", True
                )

        # Rebinding and escapes (ownership moves out of this frame).
        dead: set[_Token] = set()
        for tok in state:
            if tok.via_self:
                continue  # the instance attribute *is* the storage
            if isinstance(stmt, ast.Assign):
                if any(
                    isinstance(t, ast.Name) and t.id == tok.name
                    for t in stmt.targets
                ):
                    dead.add(tok)
                    continue
                stored = any(
                    not (isinstance(t, ast.Name) and t.id == tok.name)
                    for t in stmt.targets
                )
                if stored and _mentions(stmt.value, tok.name):
                    dead.add(tok)
                    continue
            if isinstance(stmt, (ast.Return,)) and stmt.value is not None:
                if _mentions(stmt.value, tok.name):
                    dead.add(tok)
                    continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)
            ):
                if _mentions(stmt.value, tok.name):
                    dead.add(tok)
                    continue
            # Bare handle passed to another call: assume the callee
            # takes ownership (factory/registry patterns).  Attribute
            # projections like shm.buf / shm.name stay tracked.
            for node in ast.walk(stmt):
                if isinstance(node, _FUNC_DEFS + (ast.Lambda,)):
                    continue
                if isinstance(node, ast.Call):
                    for arg in list(node.args) + [
                        k.value for k in node.keywords
                    ]:
                        if isinstance(arg, ast.Name) and arg.id == tok.name:
                            dead.add(tok)
                            break
                        if isinstance(arg, ast.Starred) and _mentions(
                            arg, tok.name
                        ):
                            dead.add(tok)
                            break
                    if tok in dead:
                        break
        state = state - frozenset(dead)
        if gen is not None:
            state = frozenset(
                t for t in state if t.name != gen.name
            ) | {gen}
        return state

    def transfer_synthetic(self, state: frozenset, block) -> frozenset:
        if not block.with_items or not state:
            return state
        dead = set()
        for chain, asname in block.with_items:
            root = chain.split(".", 1)[0] if chain else ""
            for tok in state:
                if asname and asname in (tok.name, tok.owner):
                    dead.add(tok)
                elif chain and chain in (tok.name, tok.owner):
                    dead.add(tok)
                elif root and root == tok.owner:
                    dead.add(tok)
        return state - frozenset(dead)


_KIND_FIX = {
    "lease": "release it (or let its arena's with-block clean up)",
    "shm": "call .close() on it",
    "handle": "call .close() on it",
    "file": "close it",
}


@register
class ResourceLifecycleRule(Rule):
    """Path-sensitive leak check for arena leases, shm handles, spools.

    Runs the live-resource dataflow over each function's CFG; a token
    still live at the normal exit (or, worse, only on the exception
    edges) is a leak the with-block discipline missed.  ``__init__``
    methods get the inverted check: a handle stored on ``self`` is fine
    on the normal path, but if ``__init__`` raises *after* acquiring it
    the instance is discarded and nothing can ever close it.
    """

    rule_id = "RPD114"
    name = "resource-lifecycle"
    severity = Severity.ERROR
    description = "resource not released/closed on every path"
    rationale = "leaked shm segments and handles survive the process"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, _FUNC_DEFS):
                continue
            yield from self._check_fn(module, fn)

    def _check_fn(self, module: ModuleContext, fn) -> Iterator[Finding]:
        bound = self._bound_names(fn)
        analysis = _LeakAnalysis(fn, fn.name == "__init__", bound)
        if not self._has_acquires(fn, analysis):
            return
        cfg = build_cfg(fn)
        states = run_forward(cfg, analysis)
        at_exit = states.get(cfg.exit.idx, frozenset())
        at_exc = states.get(cfg.exc_exit.idx, frozenset())
        seen: set[tuple[str, int]] = set()
        for tok in sorted(at_exit | at_exc, key=lambda t: (t.line, t.name)):
            key = (tok.name, tok.line)
            if key in seen:
                continue
            seen.add(key)
            on_exit = tok in at_exit and not tok.via_self
            on_exc = tok in at_exc
            if tok.via_self:
                if not on_exc:
                    continue
                yield Finding(
                    self.rule_id, self.severity, module.path, tok.line, 0,
                    f"{tok.name} acquired in __init__ leaks if a later "
                    "statement raises — the half-built instance is "
                    "discarded; close it in an except block and re-raise",
                )
                continue
            if not on_exit and not on_exc:
                continue
            where = (
                "on any path" if on_exit and on_exc
                else "on an exception path"
                if on_exc else "on a normal path"
            )
            yield Finding(
                self.rule_id, self.severity, module.path, tok.line, 0,
                f"{tok.kind} {tok.name!r} (line {tok.line}) is not "
                f"released {where} out of {fn.name}() — "
                f"{_KIND_FIX[tok.kind]} on every path, including "
                "exception edges (try/finally or a with-block)",
            )

    @staticmethod
    def _bound_names(fn) -> set[str]:
        bound: set[str] = set()
        args = fn.args
        for a in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            bound.add(a.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        bound.add(item.optional_vars.id)
        return bound

    @staticmethod
    def _has_acquires(fn, analysis: _LeakAnalysis) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and analysis._acquire(node.value):
                return True
            if (
                analysis.in_init
                and isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and attr_chain(node.value.func) == "open"
            ):
                return True
        return False


_IO_SCOPE = ("/storage/", "/metadata/", "/formats/", "parallel/procpipe")


@register
class ChaosCoverageRule(ProjectRule):
    """Raw I/O seams must sit behind declared fault-injection sites.

    A function in the storage seams that does raw file/metadata I/O and
    is reachable from the project's entry points without any
    ``FaultInjector`` consult on the way (including its own body and its
    direct callees) is I/O the chaos suite can never fail — the exact
    blind spot the degraded-restore guarantees rely on not having.
    Separately, a consult for a site string missing from
    ``chaos/plan.py``'s ``SITES`` can never be scheduled by a plan.
    """

    rule_id = "RPD115"
    name = "chaos-site-coverage"
    severity = Severity.WARNING
    description = "raw I/O reachable without a declared FaultInjector site"
    rationale = "I/O outside injection seams escapes the chaos suite"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        plan = next(
            (
                s for s in project.summaries.values()
                if s.path.endswith("chaos/plan.py")
            ),
            None,
        )
        if plan is None:
            return
        declared = set(plan.string_sets.get("SITES", []))
        if not declared:
            return
        graph = project.graph

        in_scope = {
            fs.qualname
            for s in project.summaries.values()
            if "repro/" in s.path and "/analysis/" not in s.path
            for fs in s.functions.values()
        }

        def consults(q: str) -> bool:
            fs = graph.functions.get(q)
            if fs is None:
                return False
            if fs.injector_sites:
                return True
            return any(
                graph.functions[c].injector_sites
                for c, _ in graph.callees(q)
                if c in graph.functions
            )

        # Undeclared site strings can never be driven by a chaos plan.
        for s in project.summaries.values():
            for fs in s.functions.values():
                for site, line in fs.injector_sites:
                    if site not in declared:
                        yield self.finding_at(
                            s.path, line,
                            f"fault-injector consult for site {site!r} "
                            "which is not declared in chaos/plan.py SITES — "
                            "no chaos plan can ever schedule it",
                        )

        # Forward "reached unguarded" fixpoint from the in-scope roots.
        callers = graph.callers()
        roots = [
            q for q in in_scope
            if not any(c in in_scope for c, _ in callers.get(q, []))
        ]
        unguarded: set[str] = set()
        work = [q for q in roots if not consults(q)]
        while work:
            q = work.pop()
            if q in unguarded:
                continue
            unguarded.add(q)
            for callee, _ in graph.callees(q):
                if callee in in_scope and callee not in unguarded \
                        and not consults(callee):
                    work.append(callee)

        for s in sorted(project.summaries.values(), key=lambda m: m.path):
            if not any(f in s.path for f in _IO_SCOPE):
                continue
            for key in sorted(s.functions):
                fs = s.functions[key]
                if not fs.raw_io or fs.qualname not in unguarded:
                    continue
                io_chain, line = fs.raw_io[0]
                yield self.finding_at(
                    s.path, line,
                    f"raw I/O ({io_chain}) in {key} is reachable without "
                    "any FaultInjector consult on the call path — route it "
                    "through a site declared in chaos/plan.py so the chaos "
                    "suite can exercise this seam",
                )


_SOLVER_SCOPE = (
    "/optimize/", "core/ft_optimizer", "core/gathering", "storage/placement",
)


@register
class SolverReachabilityRule(ProjectRule):
    """Nondeterminism transitively reachable from solver/placement code.

    RPD104 flags wall-clock/unseeded-RNG calls written *inside* the
    solver modules; this rule walks the call graph so a helper living
    anywhere else can't smuggle them back in.  Reported at the solver
    function's own call site, with the full chain, so the fix (inject a
    clock/Generator) lands where the policy applies.
    """

    rule_id = "RPD116"
    name = "solver-nondeterminism-reach"
    severity = Severity.ERROR
    description = "nondeterminism reachable from solver/placement paths"
    rationale = "irreproducible solves invalidate published plans"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph

        def in_solver(path: str) -> bool:
            return any(f in path for f in _SOLVER_SCOPE)

        nondet_fns = {
            fs.qualname: fs.nondet[0]
            for s in project.summaries.values()
            if not in_solver(s.path)  # direct in-scope calls are RPD104's
            for fs in s.functions.values()
            if fs.nondet
        }
        if not nondet_fns:
            return

        for s in sorted(project.summaries.values(), key=lambda m: m.path):
            if not in_solver(s.path):
                continue
            for key in sorted(s.functions):
                root = s.functions[key]
                reach = graph.reachable_from([root.qualname])
                for target in sorted(reach & set(nondet_fns)):
                    if target == root.qualname:
                        continue
                    chain = graph.call_chain(root.qualname, target)
                    if chain is None or len(chain) < 2:
                        continue
                    # Blame the call site of the first hop.
                    site = next(
                        (
                            cs for c, cs in graph.callees(root.qualname)
                            if c == chain[1]
                        ),
                        None,
                    )
                    src, line = nondet_fns[target]
                    rendered = " -> ".join(_short_qual(q) for q in chain)
                    yield self.finding_at(
                        s.path,
                        site.lineno if site else root.lineno,
                        f"solver path reaches nondeterministic {src}() via "
                        f"{rendered} — pass a seeded Generator/clock in "
                        "instead of calling it downstream",
                    )
