"""The rapidslint rule set — project-specific checks for this codebase.

Every rule exists because this repository has a class of bug that is
*silent* when it happens: GF(256) arithmetic done with integer operators
produces plausible-looking wrong fragments; dtype upcasts on the EC path
change bytes without an exception; a ``thread_map`` callable that
mutates shared state corrupts results only under load.  The rules:

========  =======================  ========================================
id        name                     catches
========  =======================  ========================================
RPD101    gf256-raw-arith          ``*``/``**``/``+``/``-`` applied to
                                   values produced by :mod:`repro.ec.gf256`
RPD102    ec-astype-copy           ``.astype`` on an EC path without an
                                   explicit ``copy=`` intent
RPD103    threadmap-shared-state   worker callables mutating closure /
                                   global / ``self`` state without a lock
RPD104    solver-nondeterminism    ``time.time`` / unseeded or legacy RNG
                                   inside solver & optimizer modules
RPD105    broad-except             bare ``except`` or ``except Exception``
                                   that swallows instead of re-raising
RPD106    all-drift                ``__all__`` out of sync with public defs
RPD107    mutable-default          mutable default argument values
RPD108    open-no-ctx              ``open()`` outside a ``with`` block
RPD109    ec-implicit-dtype        EC buffers created without ``dtype=``
RPD110    unlocked-global-cache    ``global`` rebinds and module-dict
                                   fill-on-first-use without a lock
                                   (racy under ``thread_map``)
RPD111    unverified-payload       fragment ``.payload`` consumed in a
                                   scope with no ``verify``/``crc32``
                                   call (corrupt bytes reach the decoder)
RPD112    procpool-callable        lambdas / nested functions / bound
                                   methods submitted to a
                                   ``ProcessPoolExecutor`` (not picklable
                                   by reference; break under ``spawn``)
RPD115    chaos-site-coverage      raw I/O in a ``storage/`` / ``metadata/``
                                   function that never consults the
                                   ``FaultInjector``; consults of sites
                                   missing from ``chaos.plan.SITES``
RPD117    service-blocking-no-     unbounded blocking calls (queue get,
          deadline                 ``.wait()``, future ``.result()``,
                                   lock ``.acquire()``, fsync) inside
                                   ``repro.service`` handlers that never
                                   consult the request deadline
RPD118    unused-import            a module-level import whose name the
                                   module never uses (``__init__.py``
                                   and ``__future__`` exempt)
========  =======================  ========================================

(``RPD100`` is reserved by the framework for malformed / unused
suppression comments.)
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator

from ..chaos.plan import SITES
from .framework import Finding, ModuleContext, Rule, Severity, register

__all__ = [
    "GFRawArithRule",
    "ECAstypeCopyRule",
    "ThreadMapSharedStateRule",
    "SolverNondeterminismRule",
    "BroadExceptRule",
    "AllDriftRule",
    "MutableDefaultRule",
    "OpenNoContextRule",
    "ECImplicitDtypeRule",
    "UnlockedGlobalCacheRule",
    "UnverifiedPayloadRule",
    "ProcessPoolCallableRule",
    "ChaosSeamRule",
    "ServiceBlockingNoDeadlineRule",
    "UnusedImportRule",
]

#: Public callables of :mod:`repro.ec.gf256` that return field elements.
_GF_API = {
    "add", "mul", "div", "inv", "full_mul_table", "pair_mul_table",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` id of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _attr_chain(node: ast.AST) -> str:
    """Render ``a.b.c`` chains; empty string for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_lock_name(text: str) -> bool:
    low = text.lower()
    return "lock" in low or "mutex" in low or "sem" in low


def _walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's nodes without descending into nested function
    scopes (class bodies are transparent; methods are not)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _tainted_names(
    nodes: Iterable[ast.AST],
    seeds: Callable[[ast.expr], bool],
    *,
    propagate: Callable[[ast.expr], bool] | None = None,
) -> set[str]:
    """Flow-insensitive taint fixpoint over the assignments in ``nodes``.

    A name becomes tainted when it is assigned from an expression for
    which ``seeds`` returns True, or which mentions an already-tainted
    name.  ``propagate`` restricts which value-expression shapes carry
    taint onward (default: any expression mentioning a tainted name);
    a sanitizer such as ``bytes(x)`` is a ``propagate`` that rejects it.
    The transfer is monotone, so the fixpoint terminates; taint flows
    through chains regardless of statement order.
    """
    flows = [
        (n.value, {t.id for tgt in n.targets for t in ast.walk(tgt)
                   if isinstance(t, ast.Name)})
        for n in nodes
        if isinstance(n, ast.Assign)
    ]
    tainted: set[str] = set()

    def expr_tainted(expr: ast.expr) -> bool:
        if seeds(expr):
            return True
        if propagate is not None and not propagate(expr):
            return False
        return any(
            isinstance(n, ast.Name) and n.id in tainted for n in ast.walk(expr)
        )

    changed = True
    while changed:
        changed = False
        for value, names in flows:
            if not names <= tainted and expr_tainted(value):
                tainted |= names
                changed = True
    return tainted


@register
class GFRawArithRule(Rule):
    """Integer arithmetic on GF(256) values.

    ``a * b`` on arrays holding field elements is the canonical silent
    EC bug: NumPy happily multiplies the byte values as integers and the
    parity fragments come out wrong with no exception.  Any value
    produced by the :mod:`repro.ec.gf256` API must be combined with
    ``gf256.mul`` / ``gf256.add`` (XOR), never with ``*``, ``**``, ``+``
    or ``-``.
    """

    rule_id = "RPD101"
    name = "gf256-raw-arith"
    severity = Severity.ERROR
    description = "raw */**/+/- applied to GF(256) field elements"
    rationale = (
        "integer arithmetic on field elements silently corrupts fragments"
    )

    _OPS = {ast.Mult: "*", ast.Pow: "**", ast.Add: "+", ast.Sub: "-"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        mod_aliases, fn_aliases = self._gf_imports(module.tree)
        if not mod_aliases and not fn_aliases:
            return
        scopes: list[ast.AST] = [module.tree]
        scopes += [n for n in ast.walk(module.tree) if isinstance(n, _SCOPES[:2])]
        for scope in scopes:
            tainted = self._tainted_names(scope, mod_aliases, fn_aliases)
            if not tainted:
                continue
            for node in _walk_scope(scope):
                if not isinstance(node, ast.BinOp):
                    continue
                op = self._OPS.get(type(node.op))
                if op is None:
                    continue
                for side in (node.left, node.right):
                    name = _root_name(side)
                    if name in tainted or self._is_gf_call(
                        side, mod_aliases, fn_aliases
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"raw '{op}' on GF(256) value "
                            f"{name or 'expression'!r} — use gf256.mul/"
                            "add (XOR) instead of integer arithmetic",
                        )
                        break

    @staticmethod
    def _gf_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
        """Names bound to the gf256 module / to its field functions."""
        mods: set[str] = set()
        fns: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.endswith("gf256"):
                        mods.add(a.asname or a.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                for a in node.names:
                    if a.name == "gf256":
                        mods.add(a.asname or "gf256")
                    elif mod.endswith("gf256") and a.name in _GF_API:
                        fns.add(a.asname or a.name)
        return mods, fns

    @staticmethod
    def _is_gf_call(node: ast.AST, mods: set[str], fns: set[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Name) and f.id in fns:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr in _GF_API
            and isinstance(f.value, ast.Name)
            and f.value.id in mods
        ):
            return True
        return False

    def _tainted_names(
        self, scope: ast.AST, mods: set[str], fns: set[str]
    ) -> set[str]:
        """Names assigned (anywhere in the scope) from gf256 API calls,
        propagated to any fixpoint through names/subscripts of tainted
        names — :func:`_tainted_names` with gf256 calls as seeds."""
        assigns = [
            n
            for n in _walk_scope(scope)
            if isinstance(n, ast.Assign)
            and len(n.targets) == 1
            and isinstance(n.targets[0], ast.Name)
        ]
        return _tainted_names(
            assigns,
            seeds=lambda v: self._is_gf_call(v, mods, fns),
            propagate=lambda v: isinstance(v, (ast.Subscript, ast.Name)),
        )


@register
class ECAstypeCopyRule(Rule):
    """``.astype`` without explicit ``copy=`` on EC modules.

    On the EC path an ``astype`` is either a deliberate widening for an
    intermediate (``copy=True`` is the safe default but costs an
    allocation on a hot path) or a free view-cast (``copy=False``).
    Forcing the keyword makes the overflow/aliasing intent visible at
    the call site.
    """

    rule_id = "RPD102"
    name = "ec-astype-copy"
    severity = Severity.WARNING
    description = ".astype without explicit copy= on an EC path"
    rationale = "implicit copies hide aliasing and overflow intent"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package("/ec/"):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and not any(k.arg == "copy" for k in node.keywords)
            ):
                yield self.finding(
                    module,
                    node,
                    ".astype(...) on an EC path without copy= — state the "
                    "copy/overflow intent explicitly",
                )


@register
class ThreadMapSharedStateRule(Rule):
    """Worker callables that write shared state without a lock.

    A callable handed to ``thread_map`` / ``pool.map`` / ``pool.submit``
    runs concurrently; any write it makes to a closure variable, a
    module global, or ``self`` is a data race unless it happens under a
    lock (or the writes are provably disjoint — in which case suppress
    with a justification, and pass ``allow_shared_writes`` to the
    runtime sanitizer).
    """

    rule_id = "RPD103"
    name = "threadmap-shared-state"
    severity = Severity.ERROR
    description = "thread_map callable mutates shared state without a lock"
    rationale = "unsynchronized writes corrupt results only under load"

    _MUTATORS = {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "write",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        reported: set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fn_arg = self._worker_callable(node)
            if fn_arg is None:
                continue
            target = self._resolve(fn_arg, node, parents)
            if target is None or target in reported:
                continue
            reported.add(target)
            yield from self._scan_callable(module, target)

    @staticmethod
    def _worker_callable(call: ast.Call) -> ast.AST | None:
        f = call.func
        if isinstance(f, ast.Name) and f.id == "thread_map" and call.args:
            return call.args[0]
        if (
            isinstance(f, ast.Attribute)
            and f.attr in {"map", "submit"}
            and call.args
        ):
            root = _root_name(f.value) or ""
            if any(s in root.lower() for s in ("pool", "executor", "ex")):
                return call.args[0]
        return None

    @staticmethod
    def _resolve(
        node: ast.AST, call: ast.Call, parents: dict
    ) -> ast.AST | None:
        """Find the def a worker-callable reference points at, searching
        the call's enclosing scopes innermost-first so same-named defs in
        other scopes don't shadow the real one."""
        if isinstance(node, ast.Lambda):
            return node
        if isinstance(node, ast.Name):
            wanted = node.id
        elif isinstance(node, ast.Attribute):
            wanted = node.attr
        else:
            return None
        scope: ast.AST | None = call
        while scope is not None:
            scope = parents.get(scope)
            if scope is None or not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module,
                        ast.ClassDef)
            ):
                continue
            for n in _walk_scope(scope):
                if (
                    isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.name == wanted
                ):
                    return n
            if isinstance(scope, ast.Module):
                break
        # methods referenced as attributes (self.work / obj.work) may
        # live in any class of the module
        for n in parents:
            if (
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name == wanted
                and isinstance(parents.get(n), ast.ClassDef)
            ):
                return n
        return None

    def _scan_callable(
        self, module: ModuleContext, fn: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(fn, ast.Lambda):
            return  # lambdas cannot contain statements, nothing to mutate
        local = {a.arg for a in fn.args.args}
        local |= {a.arg for a in fn.args.posonlyargs}
        local |= {a.arg for a in fn.args.kwonlyargs}
        if fn.args.vararg:
            local.add(fn.args.vararg.arg)
        if fn.args.kwarg:
            local.add(fn.args.kwarg.arg)
        declared: set[str] = set()
        for n in ast.walk(fn):
            if isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
            elif isinstance(n, ast.Assign):
                for t in n.targets:
                    if isinstance(t, ast.Name):
                        local.add(t.id)
            elif isinstance(n, (ast.For, ast.comprehension)):
                t = n.target
                if isinstance(t, ast.Name):
                    local.add(t.id)
        local -= declared
        yield from self._scan_body(module, fn.body, fn.name, local, declared,
                                   locked=False)

    @staticmethod
    def _holds_lock(stmt: ast.With) -> bool:
        for item in stmt.items:
            ctx = item.context_expr
            chain = _attr_chain(ctx)
            if not chain and isinstance(ctx, ast.Call):
                chain = _attr_chain(ctx.func)
            if chain and _is_lock_name(chain):
                return True
        return False

    def _stmt_exprs(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """The statement itself plus its expression-level nodes, not
        descending into nested statement bodies."""
        yield stmt
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody", "handlers"):
                continue
            values = value if isinstance(value, list) else [value]
            for v in values:
                if isinstance(v, ast.AST):
                    yield from ast.walk(v)

    def _scan_body(
        self, module, stmts, fn_name, local, declared, *, locked
    ) -> Iterator[Finding]:
        for stmt in stmts:
            now_locked = locked or (
                isinstance(stmt, ast.With) and self._holds_lock(stmt)
            )
            for node in self._stmt_exprs(stmt):
                yield from self._check_node(
                    module, node, fn_name, local, declared, now_locked
                )
            for sub in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, sub, None)
                if inner:
                    yield from self._scan_body(
                        module, inner, fn_name, local, declared,
                        locked=now_locked,
                    )
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._scan_body(
                    module, handler.body, fn_name, local, declared,
                    locked=now_locked,
                )

    def _check_node(
        self, module, node, fn_name, local, declared, locked
    ) -> Iterator[Finding]:
        if locked:
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _root_name(t)
                    if root is not None and (root == "self" or root not in local):
                        yield self.finding(
                            module, node,
                            f"worker callable {fn_name!r} writes shared "
                            f"state {root!r} without a lock",
                        )
                elif isinstance(t, ast.Name) and t.id in declared:
                    yield self.finding(
                        module, node,
                        f"worker callable {fn_name!r} rebinds "
                        f"{t.id!r} (global/nonlocal) without a lock",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self._MUTATORS:
                root = _root_name(node.func.value)
                if root is not None and (root == "self" or root not in local):
                    yield self.finding(
                        module, node,
                        f"worker callable {fn_name!r} calls "
                        f".{node.func.attr}() on shared {root!r} "
                        "without a lock",
                    )


@register
class SolverNondeterminismRule(Rule):
    """Nondeterminism inside solver / optimizer modules.

    The gathering and FT solvers must be replayable: a result that
    cannot be reproduced cannot be debugged or benchmarked.  Wall-clock
    *budgets* use ``time.perf_counter`` (allowed); ``time.time``,
    legacy ``np.random.*`` calls, the stdlib ``random`` module, and
    ``default_rng()`` with no seed argument are flagged.
    """

    rule_id = "RPD104"
    name = "solver-nondeterminism"
    severity = Severity.ERROR
    description = "time.time / unseeded or legacy RNG in solver code"
    rationale = "solver results must be replayable for debugging and benches"

    _SCOPED = ("/optimize/", "core/ft_optimizer", "core/gathering")
    _LEGACY_NP = {
        "rand", "randn", "randint", "random", "choice", "shuffle",
        "permutation", "seed", "uniform", "normal", "random_sample",
    }
    _STDLIB_RANDOM = {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "seed", "gauss",
    }

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package(*self._SCOPED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain.endswith("default_rng") or chain == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "default_rng() with no seed — thread the caller's "
                        "seed through so solver runs are replayable",
                    )
            elif chain == "time.time":
                yield self.finding(
                    module, node,
                    "time.time() in solver code — use time.perf_counter() "
                    "for budgets and keep results seed-deterministic",
                )
            elif chain.startswith(("np.random.", "numpy.random.")):
                attr = chain.rsplit(".", 1)[1]
                if attr in self._LEGACY_NP:
                    yield self.finding(
                        module, node,
                        f"legacy global-state RNG {chain}() — use a seeded "
                        "np.random.default_rng(seed) Generator",
                    )
            elif chain.split(".", 1)[0] == "random" and "." in chain:
                if chain.split(".", 1)[1] in self._STDLIB_RANDOM:
                    yield self.finding(
                        module, node,
                        f"stdlib {chain}() in solver code — use a seeded "
                        "np.random.default_rng(seed) Generator",
                    )


@register
class BroadExceptRule(Rule):
    """Bare or overly broad exception handlers that swallow errors.

    On the prepare/restore pipeline a swallowed exception turns a loud
    failure into silently missing fragments.  ``except Exception`` is
    allowed only when the handler re-raises.
    """

    rule_id = "RPD105"
    name = "broad-except"
    severity = Severity.WARNING
    description = "bare except / except Exception without re-raise"
    rationale = "swallowed errors become silent data loss on pipeline paths"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or any(
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                for t in (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                if t is not None
            )
            if not broad:
                continue
            reraises = any(
                isinstance(n, ast.Raise) for n in ast.walk(node)
            )
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' — name the exceptions you expect",
                )
            elif not reraises:
                yield self.finding(
                    module, node,
                    "broad 'except Exception' without re-raise — name the "
                    "exceptions or re-raise after handling",
                )


@register
class AllDriftRule(Rule):
    """``__all__`` drifting away from the module's public definitions.

    Checked both ways: every ``__all__`` entry must resolve to a
    top-level definition, and every public top-level ``def``/``class``
    must appear in ``__all__`` (or be renamed ``_private``).

    Export hygiene only (star-imports, API docs): the surface gate
    (``tests/test_surface.py``) enumerates public top-level functions,
    constants and classes from the AST, so no reach check depends on
    ``__all__`` or on this rule.
    """

    rule_id = "RPD106"
    name = "all-drift"
    severity = Severity.WARNING
    description = "__all__ out of sync with public top-level definitions"
    rationale = "drifting exports break star-imports and API docs"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        tree = module.tree
        all_node, exported = self._find_all(tree)
        if all_node is None:
            return
        defined, public_defs = set(), {}
        self._collect(tree.body, defined, public_defs)
        for name in exported:
            if name not in defined:
                yield self.finding(
                    module, all_node,
                    f"__all__ exports {name!r} which is not defined at "
                    "module top level",
                )
        for name, node in public_defs.items():
            if name not in exported:
                yield self.finding(
                    module, node,
                    f"public {type(node).__name__.replace('Def', '').lower()}"
                    f" {name!r} is missing from __all__",
                )

    @staticmethod
    def _find_all(tree: ast.Module):
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                names = [
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                return node, set(names)
        return None, set()

    def _collect(self, stmts, defined: set, public_defs: dict) -> None:
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
                if not node.name.startswith("_"):
                    public_defs.setdefault(node.name, node)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        defined.add(t.id)
                    elif isinstance(t, ast.Tuple):
                        defined.update(
                            e.id for e in t.elts if isinstance(e, ast.Name)
                        )
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defined.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    defined.add(a.asname or a.name.split(".")[0])
            elif isinstance(node, (ast.If, ast.Try)):
                for sub in ("body", "orelse", "finalbody"):
                    self._collect(getattr(node, sub, []) or [], defined,
                                  public_defs)
                for h in getattr(node, "handlers", []) or []:
                    self._collect(h.body, defined, public_defs)


@register
class MutableDefaultRule(Rule):
    """Mutable default argument values — shared across every call."""

    rule_id = "RPD107"
    name = "mutable-default"
    severity = Severity.ERROR
    description = "mutable default argument ([], {}, set(), ...)"
    rationale = "defaults are evaluated once and shared between calls"

    _CTORS = {"list", "dict", "set", "bytearray"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp,
                                        ast.SetComp)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._CTORS
                ):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {name!r} — use None "
                        "and create inside the function",
                    )


@register
class OpenNoContextRule(Rule):
    """``open()`` whose handle is not managed by a ``with`` block.

    A leaked handle on the storage path keeps fragment files locked on
    some platforms and loses buffered writes on crash.  Long-lived
    handles that are closed elsewhere must be suppressed with a
    justification naming where they are closed.
    """

    rule_id = "RPD108"
    name = "open-no-ctx"
    severity = Severity.WARNING
    description = "open() call outside a with-statement"
    rationale = "leaked handles lose buffered writes and lock files"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        with_exprs = {
            id(item.context_expr)
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and id(node) not in with_exprs
            ):
                yield self.finding(
                    module, node,
                    "open() outside a 'with' — use a context manager, or "
                    "suppress stating where the handle is closed",
                )


@register
class ECImplicitDtypeRule(Rule):
    """EC buffers created without an explicit ``dtype``.

    ``np.zeros(n)`` is float64; on the EC path every buffer is
    ``uint8``/``uint16`` and an implicit float buffer silently corrupts
    the byte math the first time it is mixed in.  (``arange`` is exempt:
    index arrays legitimately default to the platform int.)
    """

    rule_id = "RPD109"
    name = "ec-implicit-dtype"
    severity = Severity.WARNING
    description = "np.zeros/ones/empty/full without dtype= on an EC path"
    rationale = "default float64 buffers silently corrupt GF(256) byte math"

    _CTORS = {"zeros", "ones", "empty", "full"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package("/ec/"):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._CTORS
                and _root_name(node.func) in ("np", "numpy")
                and not any(k.arg == "dtype" for k in node.keywords)
                # dtype may also be positional: arg 2 for zeros/ones/empty,
                # arg 3 for full(shape, fill_value, dtype).
                and len(node.args) < (3 if node.func.attr == "full" else 2)
            ):
                yield self.finding(
                    module, node,
                    f"np.{node.func.attr}(...) without dtype= on an EC "
                    "path — the float64 default corrupts byte math",
                )


@register
class UnlockedGlobalCacheRule(Rule):
    """Module-level cache populated without a lock.

    Since PR 1 every hot path may run under ``thread_map``; the
    fill-on-first-use pattern then has a check-then-act race.  Even when
    the computation is idempotent, redundant rebuilds waste work and the
    pattern breaks the moment the cached value is mutable.

    Two shapes are caught:

    * rebinding a module global (``global X`` + ``X = ...``) outside a
      lock, and
    * filling a module-level dict cache by subscript
      (``_CACHE[key] = ...``) outside a lock, in a function that first
      *checks* the dict (``_CACHE.get(...)`` or ``key in _CACHE``) —
      the check is what makes it check-then-act rather than a benign
      import-time registry write.
    """

    rule_id = "RPD110"
    name = "unlocked-global-cache"
    severity = Severity.WARNING
    description = (
        "fill-on-first-use of module-level cache without holding a lock"
    )
    rationale = "check-then-act on module state races under thread_map"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        module_dicts = self._module_dicts(module.tree)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            globals_declared: set[str] = set()
            for n in ast.walk(fn):
                if isinstance(n, ast.Global):
                    globals_declared.update(n.names)
            checked_dicts = self._checked_dicts(fn, module_dicts)
            if not globals_declared and not checked_dicts:
                continue
            yield from self._scan(module, fn.body, fn.name, globals_declared,
                                  checked_dicts, locked=False)

    @staticmethod
    def _module_dicts(tree: ast.Module) -> set[str]:
        """Names bound at module level to a dict literal or ``dict()``."""
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            is_dict = isinstance(value, ast.Dict) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "dict"
            )
            if not is_dict:
                continue
            for t in targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        return names

    @staticmethod
    def _checked_dicts(fn: ast.AST, module_dicts: set[str]) -> set[str]:
        """Module dicts this function reads via ``.get`` or ``in`` first."""
        checked: set[str] = set()
        if not module_dicts:
            return checked
        for n in ast.walk(fn):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "get"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id in module_dicts
            ):
                checked.add(n.func.value.id)
            elif isinstance(n, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in n.ops
            ):
                for comp in n.comparators:
                    if isinstance(comp, ast.Name) and comp.id in module_dicts:
                        checked.add(comp.id)
        return checked

    def _scan(self, module, stmts, fn_name, names, dict_names, *, locked):
        for stmt in stmts:
            now_locked = locked
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    ctx = item.context_expr
                    chain = _attr_chain(ctx) or _attr_chain(
                        getattr(ctx, "func", None) or ast.Name(id="")
                    )
                    if chain and _is_lock_name(chain):
                        now_locked = True
            if isinstance(stmt, (ast.Assign, ast.AugAssign)) and not now_locked:
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for t in targets:
                    if isinstance(t, ast.Name) and t.id in names:
                        yield self.finding(
                            module, stmt,
                            f"{fn_name!r} assigns global {t.id!r} without "
                            "holding a lock — guard the fill-on-first-use "
                            "with threading.Lock",
                        )
                    elif (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in dict_names
                    ):
                        yield self.finding(
                            module, stmt,
                            f"{fn_name!r} fills module-level cache "
                            f"{t.value.id!r} by subscript after an unlocked "
                            "get/containment check — guard the "
                            "fill-on-first-use with threading.Lock",
                        )
            for sub in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, sub, None)
                if inner:
                    yield from self._scan(module, inner, fn_name, names,
                                          dict_names, locked=now_locked)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._scan(module, handler.body, fn_name, names,
                                      dict_names, locked=now_locked)


@register
class UnverifiedPayloadRule(Rule):
    """Fragment payloads consumed without checksum verification in scope.

    The integrity contract: corrupt bytes never reach the erasure
    decoder (or any other consumer) silently.  Every scope that *reads*
    a fragment's ``.payload`` must either verify it (``verify(...)``,
    ``get_verified(...)``, ``fetch(..., crc=...)``), be the producer
    stamping its checksum (``crc32(...)``), or carry a
    suppression explaining why verification already happened upstream —
    e.g. the payload came from :meth:`StorageSystem.get`, which raises
    :class:`~repro.storage.system.CorruptFragmentError` on mismatch.

    ``x.payload is None``-style presence checks are not consumption and
    are exempt; so are stores (``frag.payload = ...``).
    """

    rule_id = "RPD111"
    name = "unverified-payload"
    severity = Severity.WARNING
    description = (
        "fragment .payload consumed in a scope without a "
        "verify()/crc32() call"
    )
    rationale = "unverified fragment bytes silently corrupt decoded data"

    _BLESSING = {"verify", "crc32", "get_verified"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package("/repro/"):
            return
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            n for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            use = self._first_unchecked_use(scope)
            if use is None:
                continue
            where = getattr(scope, "name", "<module>")
            yield self.finding(
                module, use,
                f"{where!r} consumes a fragment .payload with no "
                "verify()/crc32() call in scope — corrupt bytes pass "
                "through undetected",
            )

    def _first_unchecked_use(self, scope: ast.AST) -> ast.AST | None:
        exempt: set[int] = set()
        uses: list[ast.Attribute] = []
        blessed = False
        for node in _walk_scope(scope):
            if isinstance(node, ast.Call):
                fname = (
                    node.func.id if isinstance(node.func, ast.Name)
                    else node.func.attr if isinstance(node.func, ast.Attribute)
                    else None
                )
                if fname in self._BLESSING or (
                    fname == "fetch"
                    and any(kw.arg == "crc" for kw in node.keywords)
                ):
                    blessed = True
            elif isinstance(node, ast.Compare):
                # `x.payload is None` / `is not None`: presence check,
                # not consumption.
                operands = [node.left, *node.comparators]
                if any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in operands
                ):
                    exempt.update(
                        id(o) for o in operands
                        if isinstance(o, ast.Attribute)
                        and o.attr == "payload"
                    )
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "payload"
                and isinstance(node.ctx, ast.Load)
            ):
                uses.append(node)
        if blessed:
            return None
        for use in sorted(uses, key=lambda n: (n.lineno, n.col_offset)):
            if id(use) not in exempt:
                return use
        return None


@register
class ProcessPoolCallableRule(Rule):
    """Non-module-level callables submitted to a process pool.

    A ``ProcessPoolExecutor`` pickles the callable by *reference*
    (module + qualified name): lambdas and nested functions fail at
    submission under ``spawn`` — and, worse, appear to work under
    ``fork`` until the start method changes — while bound methods drag
    their whole instance through the pickle on every call, exactly the
    bulk-data-on-the-hot-path traffic the shared-memory transport
    exists to avoid.  Stage callables must be module-level functions
    (see ``repro.parallel.procpipe``'s ``_prepare_tile_worker``).
    """

    rule_id = "RPD112"
    name = "procpool-callable"
    severity = Severity.ERROR
    description = (
        "lambda / nested function / bound method submitted to a "
        "ProcessPoolExecutor"
    )
    rationale = (
        "only module-level functions pickle by reference portably; "
        "anything else breaks under spawn or ships bulk state per call"
    )

    _SUBMITTERS = {"submit", "map"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        pools = self._pool_names(module.tree)
        nested = self._nested_defs(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._SUBMITTERS
                and node.args
            ):
                continue
            receiver = node.func.value
            direct = (
                isinstance(receiver, ast.Call)
                and self._is_pool_ctor(receiver)
            )
            named = (
                isinstance(receiver, ast.Name) and receiver.id in pools
            )
            if not (direct or named):
                continue
            target = node.args[0]
            problem = self._describe_problem(target, nested)
            if problem is not None:
                yield self.finding(
                    module, target,
                    f"{problem} submitted to process pool "
                    f"'{getattr(receiver, 'id', 'ProcessPoolExecutor()')}' "
                    "— use a module-level function (pickled by "
                    "reference; no per-call state shipping)",
                )

    @staticmethod
    def _is_pool_ctor(call: ast.Call) -> bool:
        func = call.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        return name == "ProcessPoolExecutor"

    def _pool_names(self, tree: ast.AST) -> set[str]:
        """Names bound to process pools via assignment or ``with``."""
        pools: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Call) and self._is_pool_ctor(
                    node.value
                ):
                    pools.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and self._is_pool_ctor(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        pools.add(item.optional_vars.id)
        return pools

    @staticmethod
    def _nested_defs(tree: ast.AST) -> set[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return nested

    @staticmethod
    def _describe_problem(target: ast.AST, nested: set[str]) -> str | None:
        if isinstance(target, ast.Lambda):
            return "lambda"
        if isinstance(target, ast.Name) and target.id in nested:
            return f"nested function '{target.id}'"
        if isinstance(target, ast.Attribute):
            root = _root_name(target)
            if root == "self":
                return f"bound method 'self.{target.attr}'"
        return None


@register
class ChaosSeamRule(Rule):
    """Raw I/O in the storage seams without a fault-injection consult.

    The degraded-restore guarantees are tested only through the
    :class:`~repro.chaos.injector.FaultInjector` seams, so every
    function under ``storage/`` or ``metadata/`` that does raw file I/O
    must consult the injector (``.check`` / ``.filter_payload`` /
    ``.latency`` with a dotted site literal) in its own body; otherwise
    the chaos suite can never fail that I/O.  Raw I/O is ``open``, the
    ``os`` file calls, ``Path.read_*`` / ``write_*`` and the
    ``formats.container`` fragment-file helpers.  Separately, a consult
    anywhere for a site missing from :data:`repro.chaos.plan.SITES` can
    never be scheduled by a plan.
    """

    rule_id = "RPD115"
    name = "chaos-site-coverage"
    severity = Severity.WARNING
    description = "raw I/O in a storage seam without a FaultInjector consult"
    rationale = "I/O outside injection seams escapes the chaos suite"

    _SCOPED = ("/storage/", "/metadata/")
    _OS_CALLS = {
        "os.replace", "os.remove", "os.rename", "os.unlink", "os.fsync",
    }
    _LEAF_CALLS = {
        "read_bytes", "write_bytes", "read_text", "write_text",
        "read_fragment_header", "read_fragment_file", "write_fragment_file",
    }
    _CONSULTS = {"check", "filter_payload", "latency"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        scoped = module.in_package(*self._SCOPED)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            raw: list[tuple[ast.Call, str]] = []
            consulted = False
            for node in _walk_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                site = self._site(node)
                if site is not None:
                    consulted = True
                    if site not in SITES:
                        yield self.finding(
                            module, node,
                            f"fault-injector consult for site {site!r} "
                            "which is not declared in chaos/plan.py SITES — "
                            "no chaos plan can ever schedule it",
                        )
                elif scoped and (io := self._raw_io(node)) is not None:
                    raw.append((node, io))
            if raw and not consulted:
                node, io = min(
                    raw, key=lambda r: (r[0].lineno, r[0].col_offset)
                )
                yield self.finding(
                    module, node,
                    f"raw I/O ({io}) in {fn.name!r} without a FaultInjector "
                    "consult in the same function — route it through a "
                    "site declared in chaos/plan.py so the chaos suite can "
                    "exercise this seam",
                )

    def _site(self, call: ast.Call) -> str | None:
        """The site literal of an injector consult, if ``call`` is one."""
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self._CONSULTS
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
            and "." in call.args[0].value
        ):
            return call.args[0].value
        return None

    def _raw_io(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open" or func.id in self._LEAF_CALLS:
                return func.id
        elif isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain in self._OS_CALLS or func.attr in self._LEAF_CALLS:
                return chain or f".{func.attr}"
        return None


@register
class ServiceBlockingNoDeadlineRule(Rule):
    """Unbounded blocking calls in service handlers that ignore deadlines.

    The archive service's contract is that every request carries a
    deadline and every stage boundary honours it: a handler that parks
    on ``queue.get()``, ``future.result()``, ``event.wait()``,
    ``lock.acquire()`` or an fsync with no bound can absorb a request
    past its deadline — the caller sees neither a result nor a typed
    rejection, which is exactly the hang the service exists to prevent.
    A blocking call is fine when it passes an explicit ``timeout=`` (the
    bound usually derives from ``deadline.remaining()``), or when its
    enclosing function consults the request deadline and so owns the
    budget explicitly.
    """

    rule_id = "RPD117"
    name = "service-blocking-no-deadline"
    severity = Severity.WARNING
    description = (
        "unbounded blocking call in a repro.service handler that never "
        "consults the request deadline"
    )
    rationale = (
        "a handler parked without a bound absorbs requests past their "
        "deadline with neither a result nor a typed rejection"
    )

    #: Attribute calls that block indefinitely by default.  ``get`` /
    #: ``wait`` / ``result`` / ``acquire`` only count with *zero*
    #: positional arguments (``d.get(key)`` is a dict lookup,
    #: ``ev.wait(5)`` is already bounded); ``fsync`` always blocks on
    #: durability regardless of its fd argument.
    _BLOCKING = {"get", "wait", "result", "acquire"}
    _ALWAYS_BLOCKING = {"fsync"}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package("/service/"):
            return
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if self._consults_deadline(fn):
                continue
            for node in _walk_scope(fn):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                attr = node.func.attr
                if attr in self._ALWAYS_BLOCKING:
                    blocking = True
                elif attr in self._BLOCKING:
                    blocking = not node.args
                else:
                    continue
                if not blocking or self._has_timeout(node):
                    continue
                yield self.finding(
                    module, node,
                    f"'.{attr}()' can block past the request deadline — "
                    "pass timeout= (e.g. from deadline.remaining()) or "
                    f"consult the deadline in '{fn.name}'",
                )

    @staticmethod
    def _has_timeout(call: ast.Call) -> bool:
        return any(kw.arg == "timeout" for kw in call.keywords)

    @staticmethod
    def _consults_deadline(fn: ast.AST) -> bool:
        """Does this function's own scope touch the request deadline —
        a ``deadline``-named binding or a ``.remaining()``/``.expired``
        consultation?"""
        for node in _walk_scope(fn):
            if isinstance(node, ast.Attribute):
                if node.attr in ("remaining", "expired"):
                    return True
                if "deadline" in node.attr.lower():
                    return True
            elif isinstance(node, ast.Name):
                if "deadline" in node.id.lower():
                    return True
        return False


@register
class UnusedImportRule(Rule):
    """A module-level import whose name the module never uses.

    A name counts as used when it is read anywhere in the module, named
    in a string annotation (``"Path | None"``) or listed in ``__all__``.
    Package ``__init__.py`` files re-export by importing, so they are
    not checked; an import kept for its side effect needs a suppression
    that says which.
    """

    rule_id = "RPD118"
    name = "unused-import"
    severity = Severity.WARNING
    description = "module-level import whose name is never used"
    rationale = (
        "a dead import hides what a module depends on and keeps a "
        "deleted name looking alive"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.posix_path.endswith("__init__.py"):
            return
        tree = module.tree
        used = set(AllDriftRule._find_all(tree)[1])
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                used |= self._string_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= self._string_names(node.returns)
        for alias in self._imports(tree.body):
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield self.finding(
                    module, alias, f"{bound!r} is imported but never used"
                )

    def _imports(self, stmts) -> Iterator[ast.alias]:
        """Module-level import aliases, including those under a
        top-level ``if`` / ``try``."""
        for node in stmts:
            if isinstance(node, ast.Import):
                yield from node.names
            elif isinstance(node, ast.ImportFrom):
                if node.module != "__future__":
                    yield from (a for a in node.names if a.name != "*")
            elif isinstance(node, (ast.If, ast.Try)):
                for sub in (node.body, node.orelse,
                            getattr(node, "finalbody", [])):
                    yield from self._imports(sub)
                for h in getattr(node, "handlers", []):
                    yield from self._imports(h.body)

    @staticmethod
    def _string_names(annotation: ast.AST | None) -> set[str]:
        """Names read inside the string constants of an annotation."""
        names: set[str] = set()
        if annotation is None:
            return names
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
        return names
