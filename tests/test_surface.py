"""Surface gate: every module, public name, member and option has a caller.

One per-file resolver (:class:`_Resolver`) reads every file of the
product — ``src/``, ``benchmarks/`` and ``perfbench/`` (:data:`PRODUCT`);
tests and examples do not count — and resolves each name a file uses
to the definition it reaches: through imports, package ``__init__``
re-exports and attribute chains, and through the class of ``self``, of
an annotated parameter, of an assigned local or instance attribute, and
of a call's annotated or constructed return value.  Four gates run on
what it finds:

* every module under ``src/repro`` is reached from another file;
* every public top-level function or constant is reached (they are read
  from the AST, not from ``__all__``);
* every public class, and every public method, property, classmethod
  and staticmethod of one, is reached: a class by being named
  (constructed, subclassed, annotated, caught) or handed to a product
  decorator (``@register``); a member as an attribute of a receiver
  typed to its class or to a subclass that inherits it, or because it
  overrides a reached method;
* every defaulted parameter of a public function, method or
  constructor (a dataclass field with a default counts) is set: by
  keyword or position at a call that resolves to it, by an attribute
  assignment on a resolved instance, or by a ``**`` splat — a dict
  whose keys are known sets those keys, an opaque one every parameter
  of the one call it feeds.

Where a receiver's class cannot be resolved (or does not define the
attribute), ``x.m`` reaches every member named ``m`` and ``x.m(k=...)``
sets ``k`` for every method named ``m``: the one name-based fallback.
Dunder methods are exempt.

Anything unreached is deleted together with what only it reaches, or
has a :data:`KEPT` row naming one of four reasons and the file that
shows it (and must itself reach the row's subject).  The examples,
which users copy, reach public names only.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Where a caller may live; tests (``perfbench/tests`` too) and examples
#: do not count.
PRODUCT = ("src", "benchmarks", "perfbench")

SEAM = "test seam: a test substitutes a fake"
UNSEEN = "reach the AST cannot see"
REFERENCE = "reference implementation a test compares against"
ENTRY = "entry point"

#: subject -> (reason, the file that shows it).  A subject is a module
#: (``optimize.bruteforce``), a public name (``module.name``), a class or
#: member (``module.Class.method``) or an option
#: (``module.Owner.method(name=)``; a constructor's owner is its class).
#: The file must reach the subject (set the option); for an unseen reach
#: it must name it.
KEPT = {
    # entry points: the console script, and the examples users run
    "cli": (ENTRY, "pyproject.toml"),
    "cli.main(argv=)": (ENTRY, "tests/test_cli.py"),
    "core.baselines.DuplicationMethod.prepare(p=)": (ENTRY, "examples/cosmology_tradeoff.py"),
    "core.baselines.PlainECMethod.prepare(p=)": (ENTRY, "examples/cosmology_tradeoff.py"),
    "datasets.catalog.get_object": (ENTRY, "examples/campaign_planning.py"),
    "datasets.catalog.DataObject.proxy(seed=)": (ENTRY, "examples/campaign_planning.py"),
    "datasets.synthetic.hurricane_pressure(shape=)": (ENTRY, "examples/climate_archival.py"),
    "datasets.synthetic.scale_pressure(shape=)": (ENTRY, "examples/fragment_repair.py"),
    # the paper's Fig. 1(b) refinement loop
    "core.pipeline.RAPIDS.restore_progressive": (ENTRY, "examples/progressive_analysis.py"),
    # registered by import, reached through the rule registry
    "analysis.rules": (UNSEEN, "src/repro/analysis/__init__.py"),
    # RPD101 names it as the remedy for raw arithmetic on field elements
    "ec.gf256.add": (UNSEEN, "src/repro/analysis/rules.py"),
    # generators called by name: getattr(synthetic, f) / DataObject.generator
    "datasets.synthetic.hurricane_pressure(seed=)": (UNSEEN, "src/repro/datasets/catalog.py"),
    "datasets.synthetic.hurricane_temperature(seed=)": (UNSEEN, "perfbench/workloads.py"),
    "datasets.synthetic.nyx_velocity(seed=)": (UNSEEN, "perfbench/workloads.py"),
    "datasets.synthetic.scale_pressure(seed=)": (UNSEEN, "perfbench/workloads.py"),
    "datasets.synthetic.scale_temperature(seed=)": (UNSEEN, "src/repro/datasets/catalog.py"),
    # the exhaustive oracle ACO and GA are compared against
    "optimize.bruteforce": (REFERENCE, "tests/test_optimize.py"),
    "optimize.bruteforce.exhaustive_gathering": (REFERENCE, "tests/test_optimize.py"),
    "optimize.bruteforce.exhaustive_gathering(limit=)": (REFERENCE, "tests/test_optimize.py"),
    # ground truth the adaptive tests drift against
    "transfer.network": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DiurnalBandwidthModel": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel.step": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DiurnalBandwidthModel(amplitude=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DiurnalBandwidthModel(period=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DiurnalBandwidthModel(seed=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel(ceiling=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel(floor=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel(seed=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel(sigma=)": (REFERENCE, "tests/test_adaptive.py"),
    "transfer.network.DriftingBandwidthModel.observe(noise=)": (REFERENCE, "tests/test_adaptive.py"),
    # synthetic logs with known means: what the estimator test recovers
    "transfer.logs.generate_transfer_logs(transfers_per_endpoint=)": (REFERENCE, "tests/test_transfer.py"),
    # fakes: seeded plans, scripted faults, spies, crafted payloads, tiny segments
    "chaos.injector.FaultInjector(trace=)": (SEAM, "tests/test_chaos.py"),
    "chaos.plan.FaultPlan.outages(extra=)": (SEAM, "tests/test_chaos.py"),
    "chaos.plan.FaultPlan.random(metadata_faults=)": (SEAM, "tests/test_chaos.py"),
    "control.migration.LiveMigrator.migrate(checkpoint=)": (SEAM, "tests/test_control.py"),
    "metadata.kvstore.KVStore(segment_bytes=)": (SEAM, "tests/test_kvstore.py"),
    "refactor.refactorer.Refactorer.reconstruct(payloads=)": (SEAM, "tests/test_lossless_codec.py"),
    "sim.campaign.run_campaign(record_trajectory=)": (SEAM, "tests/test_scenarios.py"),
}


def _module_id(path: Path) -> str:
    """``src/repro/a/b.py`` -> ``a.b`` (a package's ``__init__`` -> ``a``);
    any other file -> its dotted path from the repository root."""
    if SRC in path.parents:
        parts = path.relative_to(SRC).parts
    else:
        parts = path.relative_to(ROOT).parts
    return ".".join(p.removesuffix(".py") for p in parts if p != "__init__.py")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(d).split("(")[0] for d in node.decorator_list
    )


def _decorators(node) -> set[str]:
    return {ast.unparse(d).split("(")[0].split(".")[-1]
            for d in node.decorator_list}


def _spelled(func) -> str | None:
    """The name a call is spelled with: ``f`` of ``f()`` or ``x.f()``."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _local_nodes(body):
    """The nodes of ``body`` outside nested functions, classes and lambdas."""
    todo = list(body)
    while todo:
        node = todo.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Lambda)):
                todo.append(child)


#: The binding of a local whose value is unknown (a loop variable, an
#: unannotated parameter, a nested function).
_OPAQUE = ("opaque", None)

#: Methods that fill a container in place.
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault"}


class _Module:
    def __init__(self, mid: str, path: Path, source: str | None = None) -> None:
        self.id, self.path = mid, path
        self.tree = ast.parse(path.read_text() if source is None else source)
        self.package = path.name == "__init__.py"
        self.in_src = SRC in path.parents
        #: top-level name -> value (see :meth:`_Resolver.ev`)
        self.defs: dict[str, tuple] = {}
        #: bound name -> (module id, attribute or None); every import in
        #: the file counts, function-local ones too.
        self.imports: dict[str, tuple[str, str | None]] = {}


class _Class:
    def __init__(self, key: tuple, node: ast.ClassDef, module: _Module) -> None:
        self.key, self.node, self.module = key, node, module
        self.dataclass = _is_dataclass(node)
        self.methods = {
            n.name: n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        #: class-level annotated names (a dataclass's fields)
        self.fields = {
            n.target.id: n for n in node.body
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
            and not ast.unparse(n.annotation).startswith(("ClassVar", "typing.ClassVar"))
        }
        #: ``self.x = ...`` in any method: x -> [(value, method)]
        self.attrs: dict[str, list] = {}
        for fn in self.methods.values():
            for n in _local_nodes(fn.body):
                targets = (n.targets if isinstance(n, ast.Assign)
                           else [n.target] if isinstance(n, ast.AnnAssign) else [])
                for t in targets:
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self" and n.value is not None):
                        self.attrs.setdefault(t.attr, []).append((n.value, fn))


class _Scope:
    """Names bound in one function (or a module's top level)."""

    def __init__(self, module: _Module, parent=None, cls=None) -> None:
        self.module, self.parent, self.cls = module, parent, cls
        #: name -> [("expr", node) | ("ann", node) | ("val", value)]
        self.binds: dict[str, list] = {}
        #: name -> extra dict keys set by ``name["key"] = ...``
        self.keys: dict[str, set | None] = {}

    def enclosing_class(self):
        s = self
        while s is not None and not s.cls:
            s = s.parent
        return s.cls if s else None


class _Resolver:
    """Resolves every product file's names to the definitions they reach.

    Values are tuples: ``("mod", id)``, ``("cls", id, qual)``,
    ``("inst", id, qual)``, ``("fn", id, qual, bound)``,
    ``("const", id, qual)`` and ``("super", id, qual)``.
    """

    def __init__(self, dirs=PRODUCT, sources=None) -> None:
        """Read every file under ``dirs``, plus ``sources`` (path -> text,
        files that need not exist)."""
        self.mods: dict[str, _Module] = {}
        for d in dirs:
            for path in sorted((ROOT / d).rglob("*.py")):
                if d != "tests" and "tests" in path.relative_to(ROOT / d).parts:
                    continue  # perfbench's own tests are tests
                m = _Module(_module_id(path), path)
                self.mods[m.id] = m
        for path, text in (sources or {}).items():
            m = _Module(_module_id(path), path, text)
            self.mods[m.id] = m
        self.classes: dict[tuple, _Class] = {}
        #: classes defined at a module's top level or in such a class
        self.declared: set[tuple] = set()
        self.nodes: dict[tuple, ast.AST] = {}
        for m in self.mods.values():
            self._index(m)
        self._mro: dict[tuple, list] = {}
        self._scopes: dict[int, _Scope] = {}
        self._busy: set = set()
        #: definition key -> ids of the files that reach it
        self.reached: dict[tuple, set[str]] = {}
        #: module id -> ids of the files that reach it
        self.mod_reached: dict[str, set[str]] = {}
        #: (owner key, parameter) -> ids of the files that set it
        self.set: dict[tuple, set[str]] = {}
        #: attribute -> ids of the files that use it on a receiver whose
        #: class they cannot resolve (it reaches every member so named)
        self.named: dict[str, set[str]] = {}
        for m in self.mods.values():
            self.visit_file(m)
        self._close_overrides()

    # -- index ---------------------------------------------------------------

    def _index(self, m: _Module) -> None:
        def walk_top(body):
            for node in body:
                if isinstance(node, (ast.If, ast.Try)):
                    walk_top(node.body)
                    walk_top(getattr(node, "orelse", []))
                    for h in getattr(node, "handlers", []):
                        walk_top(h.body)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    m.defs[node.name] = ("fn", m.id, node.name, False)
                    self.nodes[m.id, node.name] = node
                elif isinstance(node, ast.ClassDef):
                    self._index_class(m, node, node.name, declared=True)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    for t in targets:
                        if isinstance(t, ast.Name):
                            m.defs.setdefault(t.id, ("const", m.id, t.id))
                            self.nodes.setdefault((m.id, t.id), node)

        walk_top(m.tree.body)
        package = m.id if m.package else m.id.rpartition(".")[0]
        for node in ast.walk(m.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = self._absolute(m, alias.name)
                    if alias.asname:
                        m.imports.setdefault(alias.asname, (target, None))
                    else:
                        head = alias.name.split(".")[0]
                        m.imports.setdefault(
                            head, (self._absolute(m, head), None))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package.split(".") if package else []
                    base = base[: len(base) - (node.level - 1)]
                    target = ".".join(base + ([node.module] if node.module else []))
                else:
                    target = self._absolute(m, node.module or "")
                for alias in node.names:
                    m.imports.setdefault(alias.asname or alias.name,
                                         (target, alias.name))

    def _absolute(self, m: _Module, name: str) -> str:
        """Module id of an absolute import of ``name`` from ``m``."""
        if name == "repro" or name.startswith("repro."):
            return name[6:]
        if not m.in_src:
            sibling = m.path.parent / (name.replace(".", "/") + ".py")
            if sibling.is_file():
                return _module_id(sibling)
        return "<ext>." + name

    def _index_class(self, m: _Module, node: ast.ClassDef, qual: str,
                     declared: bool = False) -> None:
        key = (m.id, qual)
        self.classes[key] = _Class(key, node, m)
        self.nodes[key] = node
        if declared:
            self.declared.add(key)
        if "." not in qual:
            m.defs.setdefault(qual, ("cls", m.id, qual))
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nodes[m.id, f"{qual}.{child.name}"] = child
            elif isinstance(child, ast.ClassDef):
                self._index_class(m, child, f"{qual}.{child.name}", declared)

    # -- resolution ------------------------------------------------------------

    def lookup(self, mid: str, name: str):
        """What ``name`` is in module ``mid``'s namespace."""
        m = self.mods.get(mid)
        if m is None or (mid, name) in self._busy:
            return None
        if name in m.defs:
            return m.defs[name]
        if name in m.imports:
            self._busy.add((mid, name))
            try:
                return self.imported(*m.imports[name])
            finally:
                self._busy.discard((mid, name))
        sub = f"{mid}.{name}" if mid else name
        if m.package and sub in self.mods:
            return ("mod", sub)
        return None

    def imported(self, target: str, attr: str | None):
        if attr is None:
            return ("mod", target) if target in self.mods else None
        sub = f"{target}.{attr}" if target else attr
        if sub in self.mods:
            return ("mod", sub)
        return self.lookup(target, attr)

    def mro(self, key: tuple) -> list[tuple]:
        if key not in self._mro:
            self._mro[key] = [key]
            cls = self.classes[key]
            scope = self.module_scope(cls.module)
            out = [key]
            for base in cls.node.bases:
                v = self.ev(base, scope)
                if v and v[0] == "cls":
                    out += [k for k in self.mro(v[1:]) if k not in out]
            self._mro[key] = out
        return self._mro[key]

    def member(self, base, attr: str):
        kind = base[0]
        if kind == "mod":
            return self.lookup(base[1], attr)
        if kind not in ("cls", "inst", "super"):
            return None
        keys = self.mro(base[1:3])
        if kind == "super":
            keys = keys[1:]
        for key in keys:
            cls = self.classes[key]
            mid, qual = key
            if attr in cls.methods:
                fn = cls.methods[attr]
                decos = _decorators(fn)
                if "property" in decos or "cached_property" in decos:
                    return self.returns(("fn", mid, f"{qual}.{attr}", True))
                bound = kind != "cls" or "classmethod" in decos
                return ("fn", mid, f"{qual}.{attr}", bound)
            if (mid, f"{qual}.{attr}") in self.classes:
                return ("cls", mid, f"{qual}.{attr}")
            if kind != "cls" and attr in cls.fields:
                return self.ann(cls.fields[attr].annotation, self.module_scope(cls.module))
            if kind != "cls" and attr in cls.attrs:
                for value, fn in cls.attrs[attr]:
                    v = self.ev(value, self.fn_scope(fn, cls.module, key))
                    if v is not None:
                        return v
                return None
        return None

    def returns(self, callee):
        """The value a call of ``callee`` returns, when it is a class."""
        if callee is None:
            return None
        if callee[0] == "cls":
            return ("inst",) + callee[1:]
        if callee[0] != "fn":
            return None
        fn = self.nodes.get(callee[1:3])
        if fn is None or ("ret",) + callee[1:3] in self._busy:
            return None
        self._busy.add(("ret",) + callee[1:3])
        try:
            cls = self._owner(callee[1], callee[2])
            scope = self.fn_scope(fn, self.mods[callee[1]], cls)
            if fn.returns is not None:
                return self.ann(fn.returns, scope)
            for node in _local_nodes(fn.body):
                if isinstance(node, ast.Return) and node.value is not None:
                    v = self.ev(node.value, scope)
                    if v and v[0] == "inst":
                        return v
            return None
        finally:
            self._busy.discard(("ret",) + callee[1:3])

    def item(self, node, index: int, scope):
        """Element ``index`` of the tuple a call returns."""
        if not isinstance(node, ast.Call):
            return None
        callee = self.ev(node.func, scope)
        if not callee or callee[0] != "fn" or ("item",) + callee[1:3] in self._busy:
            return None
        fn = self.nodes.get(callee[1:3])
        self._busy.add(("item",) + callee[1:3])
        try:
            inner = self.fn_scope(fn, self.mods[callee[1]], self._owner(*callee[1:3]))
            for n in _local_nodes(fn.body):
                if (isinstance(n, ast.Return) and isinstance(n.value, ast.Tuple)
                        and index < len(n.value.elts)):
                    v = self.ev(n.value.elts[index], inner)
                    if v is not None:
                        return v
            return None
        finally:
            self._busy.discard(("item",) + callee[1:3])

    def _owner(self, mid: str, qual: str):
        owner = (mid, qual.rpartition(".")[0])
        return owner if owner in self.classes else None

    def defining(self, base, attr: str):
        """The key of the method or nested class ``attr`` of ``base`` (a
        class, instance or ``super()``); ``"data"`` for a field or an
        instance attribute; None when its classes do not define it."""
        keys = self.mro(base[1:3])
        for key in keys[1:] if base[0] == "super" else keys:
            cls = self.classes[key]
            member = (key[0], f"{key[1]}.{attr}")
            if attr in cls.methods or member in self.classes:
                return member
            if attr in cls.fields or attr in cls.attrs:
                return "data"
        return None

    def ann(self, node, scope):
        """The instance an annotation describes (its first class)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp):
            return self.ann(node.left, scope) or self.ann(node.right, scope)
        if isinstance(node, ast.Subscript):
            inner = node.slice
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for e in elts:
                v = self.ann(e, scope)
                if v:
                    return v
            return None
        v = self.ev(node, scope)
        return ("inst",) + v[1:] if v and v[0] == "cls" else None

    def ev(self, node, scope, depth: int = 0):
        """The value ``node`` evaluates to, or None when unknown."""
        if depth > 20:
            return None
        if isinstance(node, ast.Name):
            return self.name(node.id, scope)
        if isinstance(node, ast.Attribute):
            base = self.ev(node.value, scope, depth + 1)
            return self.member(base, node.attr) if base else None
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "super"
                    and scope.cls):
                return ("super",) + scope.cls
            callee = self.ev(node.func, scope, depth + 1)
            if callee is None and _spelled(node.func) == "partial" and node.args:
                return self.ev(node.args[0], scope, depth + 1)  # its function
            return self.returns(callee)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                v = self.ev(value, scope, depth + 1)
                if v:
                    return v
            return None
        if isinstance(node, ast.IfExp):
            return (self.ev(node.body, scope, depth + 1)
                    or self.ev(node.orelse, scope, depth + 1))
        if isinstance(node, ast.NamedExpr):
            return self.ev(node.value, scope, depth + 1)
        return None

    def name(self, name: str, scope):
        s = scope
        while s is not None:
            if name in s.binds:
                key = (id(s), name)
                if key in self._busy:
                    return None
                self._busy.add(key)
                try:
                    return self._bound(s.binds[name], s)
                finally:
                    self._busy.discard(key)
            s = s.parent
        return self.lookup(scope.module.id, name)

    def _bound(self, binds: list, scope: _Scope):
        """A local's value: its annotation, else what every binding
        agrees on (``None`` placeholders aside)."""
        for kind, what in binds:
            if kind == "ann":
                v = self.ann(what, scope)
                if v is not None:
                    return v
        values = []
        for kind, what in binds:
            if kind == "ann" or (
                kind == "expr" and isinstance(what, ast.Constant) and what.value is None
            ):
                continue
            if kind == "val":
                v = what
            elif kind == "item":
                v = self.item(*what, scope)
            else:
                v = self.ev(what, scope) if kind == "expr" else None
            if v is None:
                return None
            values.append(v)
        return values[0] if values and values.count(values[0]) == len(values) else None

    # -- scopes --------------------------------------------------------------

    def module_scope(self, m: _Module) -> _Scope:
        if id(m) not in self._scopes:
            self._scopes[id(m)] = _Scope(m)
        return self._scopes[id(m)]

    def fn_scope(self, fn, m: _Module, cls=None, parent=None) -> _Scope:
        if id(fn) in self._scopes:
            return self._scopes[id(fn)]
        s = _Scope(m, parent, cls)
        self._scopes[id(fn)] = s
        args = fn.args
        positional = args.posonlyargs + args.args
        for a in positional + args.kwonlyargs:
            s.binds[a.arg] = [("ann", a.annotation) if a.annotation else _OPAQUE]
        for a in (args.vararg, args.kwarg):
            if a is not None:
                s.binds[a.arg] = [_OPAQUE]
        if cls and positional and not isinstance(fn, ast.Lambda):
            decos = _decorators(fn)
            if "staticmethod" not in decos:
                kind = "cls" if "classmethod" in decos else "inst"
                s.binds[positional[0].arg] = [("val", (kind,) + cls)]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        for node in _local_nodes(body):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for t in targets:
                    if isinstance(t, ast.Tuple) and node.value is not None:
                        for i, e in enumerate(t.elts):
                            if isinstance(e, ast.Name):
                                s.binds.setdefault(e.id, []).append(
                                    ("item", (node.value, i)))
                    if isinstance(t, ast.Name) and node.value is not None:
                        if isinstance(node, ast.AnnAssign):
                            s.binds.setdefault(t.id, []).append(("ann", node.annotation))
                        s.binds.setdefault(t.id, []).append(("expr", node.value))
                    elif (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)):
                        k = t.slice
                        keys = s.keys.setdefault(t.value.id, set())
                        if keys is not None and isinstance(k, ast.Constant):
                            keys.add(k.value)
                        else:
                            s.keys[t.value.id] = None
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                s.binds.setdefault(node.optional_vars.id, []).append(
                    ("expr", node.context_expr))
            elif isinstance(node, (ast.For, ast.comprehension)):
                for t in ast.walk(node.target):
                    if isinstance(t, ast.Name):
                        s.binds.setdefault(t.id, []).append(_OPAQUE)
        for node in body:
            for n in ast.walk(node) if not isinstance(node, ast.FunctionDef) else [node]:
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    s.binds.setdefault(n.name, []).append(_OPAQUE)
        return s

    # -- visiting ------------------------------------------------------------

    def visit_file(self, m: _Module) -> None:
        self._file = m.id
        scope = self.module_scope(m)
        for node in m.tree.body:
            self.visit(node, scope, None, None)

    def visit(self, node, scope: _Scope, cls, current) -> None:
        """Walk ``node``; ``current`` is the top-level definition it is in."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for d in getattr(node, "decorator_list", []):
                self.visit(d, scope, None, current)
            for d in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                self.visit(d, scope, None, current)
            if current is None and not isinstance(node, ast.Lambda):
                current = (scope.module.id, f"{cls[1]}.{node.name}" if cls else node.name)
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    self.visit_ann(a.annotation, scope, current)
            if getattr(node, "returns", None) is not None:
                self.visit_ann(node.returns, scope, current)
            parent = scope if scope is not self.module_scope(scope.module) else None
            inner = self.fn_scope(node, scope.module, cls, parent)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self.visit(child, inner, None, current)
            return
        if isinstance(node, ast.ClassDef):
            qual = f"{cls[1]}.{node.name}" if cls else node.name
            key = (scope.module.id, qual)
            if key not in self.classes:  # a class defined in a function
                self._index_class(scope.module, node, qual)
            for b in node.bases + node.decorator_list:
                self.visit(b, scope, None, current)
            for d in node.decorator_list:
                deco = self.ev(d.func if isinstance(d, ast.Call) else d, scope)
                if deco and deco[0] == "fn":  # a registry is handed the class
                    self.reach(("cls",) + key, None)
            for child in node.body:
                self.visit(child, scope, key, current or key)
            return
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            self.reach(self.ev(node, scope), current)
            if isinstance(node, ast.Attribute):
                self.reach_member(node.value, node.attr, scope, current)
        elif isinstance(node, ast.Call):
            self.call(node, scope)
            if (_spelled(node.func) in ("getattr", "hasattr") and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                self.reach_member(node.args[0], node.args[1].value, scope, current)
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Attribute)):
                self.assign(func.value, scope, fields_only=True)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign):
                self.visit_ann(node.annotation, scope, current)
            targets = getattr(node, "targets", None) or [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute):
                    self.assign(t.value, scope, fields_only=True)
                if isinstance(t, ast.Attribute):
                    self.assign(t, scope)
        for child in ast.iter_child_nodes(node):
            self.visit(child, scope, cls, current)

    def visit_ann(self, node, scope: _Scope, current) -> None:
        """An annotation names the classes in it, quoted ones too."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return
        for n in ast.walk(node):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                self.reach(self.ev(n, scope), current)
            elif isinstance(n, ast.Constant) and n is not node:
                self.visit_ann(n, scope, current)

    def reach_member(self, receiver, attr: str, scope: _Scope, current) -> None:
        """``receiver.attr`` reaches the member its class defines or
        inherits; on a receiver whose class is unknown, or whose classes
        do not define it, every member named ``attr``."""
        if not isinstance(attr, str) or attr.startswith("__"):
            return
        base = self.ev(receiver, scope)
        if base and base[0] == "mod":
            return
        if base and base[0] in ("cls", "inst", "super"):
            member = self.defining(base, attr)
            if member == "data":
                return
            if member is not None:
                self.reach(("fn",) + member, current)
                return
        self.named.setdefault(attr, set()).add(self._file)

    def reach(self, v, current) -> None:
        if v is None:
            return
        if v[0] == "mod":
            self.mod_reached.setdefault(v[1], set()).add(self._file)
            return
        key = v[1:3]
        if key == current or v[0] == "inst":
            return
        self.reached.setdefault(key, set()).add(self._file)
        self.mod_reached.setdefault(key[0], set()).add(self._file)

    # -- options -------------------------------------------------------------

    def signature(self, v) -> list[tuple] | None:
        """``[(owner key, name, positional)]`` of what a call of ``v`` binds."""
        if v is None:
            return None
        if v[0] == "cls":
            for key in self.mro(v[1:3]):
                cls = self.classes[key]
                if "__init__" in cls.methods:
                    return self._params(cls.methods["__init__"], key, True)
            out = []
            for key in reversed(self.mro(v[1:3])):
                cls = self.classes[key]
                if cls.dataclass:
                    out += [(key, f, True) for f in cls.fields]
            return out
        if v[0] == "fn":
            fn = self.nodes.get(v[1:3])
            if fn is None:
                return None
            decos = _decorators(fn)
            bound = v[3] and "staticmethod" not in decos
            return self._params(fn, v[1:3], bound)
        return None

    @staticmethod
    def _params(fn, key, bound) -> list[tuple]:
        if key[1].endswith(".__init__"):  # a constructor's owner is its class
            key = (key[0], key[1].removesuffix(".__init__"))
        args = fn.args
        positional = args.posonlyargs + args.args
        if bound:
            positional = positional[1:]
        out = [(key, a.arg, True) for a in positional]
        return out + [(key, a.arg, False) for a in args.kwonlyargs]

    def call(self, node: ast.Call, scope: _Scope) -> None:
        func, args = node.func, list(node.args)
        spelled = _spelled(func)
        callee = self.ev(func, scope)
        if callee is None and spelled in ("replace", "partial") and args:
            first = self.ev(args[0], scope)
            if first and spelled == "replace" and first[0] == "inst":
                callee, args = ("cls",) + first[1:], []
            elif first and spelled == "partial":
                callee, args = first, args[1:]
        sigs = [self.signature(callee)] if callee else []
        if callee is None and isinstance(func, ast.Attribute):
            sigs = [self.signature(("fn",) + key + (True,))
                    for key in self.methods_named(func.attr)]
        for sig in sigs:
            if sig:
                self.bind(sig, args, node.keywords, scope)

    def methods_named(self, name: str):
        return [(cls.key[0], f"{cls.key[1]}.{name}")
                for cls in self.classes.values() if name in cls.methods]

    def bind(self, sig, args, keywords, scope) -> None:
        positional = [p for p in sig if p[2]]
        for i, a in enumerate(args):
            if isinstance(a, ast.Starred):
                for p in positional[i:]:
                    self.mark(p[0], p[1])
                break
            if i < len(positional):
                self.mark(*positional[i][:2])
        names = {p[1]: p[0] for p in sig}
        for kw in keywords:
            if kw.arg is not None:
                if kw.arg in names:
                    self.mark(names[kw.arg], kw.arg)
                continue
            keys = self.dict_keys(kw.value, scope)
            if keys is None:
                keys = set(names)
            for k in keys & set(names):
                self.mark(names[k], k)

    def dict_keys(self, node, scope, depth: int = 0) -> set | None:
        """The keys of the dict ``node`` builds, or None when unknown."""
        if depth > 10:
            return None
        if isinstance(node, ast.Dict):
            out: set = set()
            for k, v in zip(node.keys, node.values):
                if k is None:
                    inner = self.dict_keys(v, scope, depth + 1)
                    if inner is None:
                        return None
                    out |= inner
                elif isinstance(k, ast.Constant):
                    out.add(k.value)
                else:
                    return None
            return out
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "dict" and self.name("dict", scope) is None):
            out = {kw.arg for kw in node.keywords if kw.arg}
            for part in node.args + [kw.value for kw in node.keywords if not kw.arg]:
                inner = self.dict_keys(part, scope, depth + 1)
                if inner is None:
                    return None
                out |= inner
            return out
        if isinstance(node, ast.IfExp):
            a = self.dict_keys(node.body, scope, depth + 1)
            b = self.dict_keys(node.orelse, scope, depth + 1)
            return None if a is None or b is None else a | b
        if isinstance(node, ast.Name):
            s = scope
            while s is not None and node.id not in s.binds:
                s = s.parent
            binds = [b for b in s.binds[node.id] if b[0] != "ann"] if s else []
            if not binds or s.keys.get(node.id, set()) is None:
                return None
            out = set(s.keys.get(node.id, ()))
            for kind, what in binds:
                inner = self.dict_keys(what, s, depth + 1) if kind == "expr" else None
                if inner is None:
                    return None
                out |= inner
            return out
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self" and scope.enclosing_class()):
            cls = self.classes[scope.enclosing_class()]
            found = cls.attrs.get(node.attr)
            if not found:
                return None
            out = set()
            for value, fn in found:
                inner = self.dict_keys(value, self.fn_scope(fn, cls.module, cls.key), depth + 1)
                if inner is None:
                    return None
                out |= inner
            return out
        return None

    def assign(self, target: ast.Attribute, scope: _Scope, fields_only=False) -> None:
        """``x.a = ...`` sets dataclass field ``a`` of x's class, and
        constructor parameter ``a`` when x is not ``self``; filling a
        container field in place (``x.a.append(...)``, ``x.a[k] = ...``)
        sets the field."""
        base = self.ev(target.value, scope)
        if not base or base[0] != "inst":
            return
        is_self = isinstance(target.value, ast.Name) and target.value.id == "self"
        for key in self.mro(base[1:3]):
            cls = self.classes[key]
            if cls.dataclass and target.attr in cls.fields:
                self.mark(key, target.attr)
            init = cls.methods.get("__init__")
            if init is not None and not is_self and not fields_only:
                if target.attr in {a.arg for a in init.args.args + init.args.kwonlyargs}:
                    self.mark(key, target.attr)

    def mark(self, owner: tuple, name: str) -> None:
        self.set.setdefault((owner, name), set()).add(self._file)

    def _close_overrides(self) -> None:
        """A parameter set on a method is set on its overrides too, and a
        method reached is reached on its overrides."""
        subclasses: dict[tuple, list] = {}
        for key in self.classes:
            for base in self.mro(key)[1:]:
                subclasses.setdefault(base, []).append(key)
        for (mid, qual), files in list(self.reached.items()):
            cls_key = self._owner(mid, qual)
            meth = qual.rpartition(".")[2]
            if cls_key is None or meth not in self.classes[cls_key].methods:
                continue
            for sub in subclasses.get(cls_key, ()):
                if meth in self.classes[sub].methods:
                    self.reached.setdefault(
                        (sub[0], f"{sub[1]}.{meth}"), set()).update(files)
        for (owner, name), files in list(self.set.items()):
            if owner not in self.nodes or owner in self.classes:
                continue
            cls_key = self._owner(*owner)
            if cls_key is None:
                continue
            meth = owner[1].rpartition(".")[2]
            for sub in subclasses.get(cls_key, ()):
                if meth in self.classes[sub].methods:
                    self.set.setdefault(
                        ((sub[0], f"{sub[1]}.{meth}"), name), set()
                    ).update(files)

    # -- what the gates check ------------------------------------------------

    def src_modules(self) -> dict[str, _Module]:
        return {mid: m for mid, m in self.mods.items() if m.in_src and not m.package}

    def members(self) -> dict[str, tuple]:
        """Every public class under ``src/`` and every public method,
        property, classmethod and staticmethod of one, as ``subject ->
        key``."""
        out = {}
        for key in self.declared:
            mid, qual = key
            if not self.mods[mid].in_src or any(p.startswith("_") for p in qual.split(".")):
                continue
            out[f"{mid}.{qual}"] = key
            for name in self.classes[key].methods:
                if not name.startswith("_"):
                    out[f"{mid}.{qual}.{name}"] = (mid, f"{qual}.{name}")
        return out

    def member_reached(self, key: tuple) -> set[str]:
        """The files that reach a class or member: by its key, or (a
        member) through a receiver the resolver could not type."""
        files = set(self.reached.get(key, ()))
        if "." in key[1]:
            files |= self.named.get(key[1].rpartition(".")[2], set())
        return files

    def options(self) -> dict[str, tuple]:
        """Every defaulted parameter of a public callable under ``src/``,
        as ``subject -> (owner key, name)``."""
        out = {}

        def add(owner, label, fn, bound):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for a in defaulted:
                out[f"{owner[0]}.{label}({a.arg}=)"] = (owner, a.arg)

        for m in self.src_modules().values():
            for node in m.tree.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    add((m.id, node.name), node.name, node, False)
            for key, cls in self.classes.items():
                if key[0] != m.id or any(p.startswith("_") for p in key[1].split(".")):
                    continue
                for name, fn in cls.methods.items():
                    if name == "__init__":
                        add(key, key[1], fn, True)
                    elif not name.startswith("_"):
                        add((m.id, f"{key[1]}.{name}"), f"{key[1]}.{name}", fn, True)
                if cls.dataclass and "__init__" not in cls.methods:
                    for f, node in cls.fields.items():
                        if (node.value is not None and not f.startswith("_")
                                and "init=False" not in ast.unparse(node.value)):
                            out[f"{m.id}.{key[1]}({f}=)"] = (key, f)
        return out


@pytest.fixture(scope="module")
def surface():
    return _Resolver()


@pytest.fixture(scope="module")
def everything():
    """The same resolution over the examples and tests too: what a
    :data:`KEPT` row's file reaches."""
    return _Resolver(PRODUCT + ("examples", "tests"))


def _unreached(surface) -> dict[str, set[str]]:
    """What each gate finds unreached, by kind."""
    modules = surface.src_modules()
    names = {
        f"{mid}.{name}"
        for mid, m in modules.items()
        for name, v in m.defs.items()
        if v[0] in ("fn", "const") and not name.startswith("_")
        and not surface.reached.get((mid, name))
    }
    return {
        "module": {
            mid for mid in modules
            if not surface.mod_reached.get(mid, set()) - {mid}
        },
        "name": names,
        "option": {
            subject for subject, opt in surface.options().items()
            if opt not in surface.set
        },
        "member": {
            subject for subject, key in surface.members().items()
            if not surface.member_reached(key)
        },
    }


def _split(subject: str) -> tuple[str, str]:
    """``core.gathering.GatheringModel.cost`` -> (``core.gathering``,
    ``GatheringModel.cost``)."""
    parts = subject.split("(")[0].split(".")
    for i in range(len(parts) - 1, 0, -1):
        path = SRC.joinpath(*parts[:i])
        if path.with_suffix(".py").is_file() or (path / "__init__.py").is_file():
            return ".".join(parts[:i]), ".".join(parts[i:])
    raise ValueError(f"no module under src/repro holds {subject}")


def _kind(subject: str) -> str:
    if "(" in subject:
        return "option"
    if (SRC / (subject.replace(".", "/") + ".py")).is_file():
        return "module"
    mid, qual = _split(subject)
    path = SRC.joinpath(*mid.split("."))
    path = path.with_suffix(".py") if path.with_suffix(".py").is_file() else path / "__init__.py"
    classes = {n.name for n in ast.parse(path.read_text()).body if isinstance(n, ast.ClassDef)}
    return "member" if "." in qual or qual in classes else "name"


def _gate(surface, kind: str) -> None:
    unreached = _unreached(surface)[kind]
    kept = {s for s in KEPT if _kind(s) == kind}
    unjustified = sorted(unreached - kept)
    assert not unjustified, (
        f"nothing under {', '.join(PRODUCT)} reaches the {kind}s "
        f"{unjustified}: give each a caller, delete it, or justify it in KEPT"
    )
    stale = sorted(kept - unreached)
    assert not stale, f"{stale} are reached again (or gone): drop their KEPT rows"


def test_every_module_has_a_caller(surface):
    _gate(surface, "module")


def test_every_public_name_has_a_caller(surface):
    _gate(surface, "name")


def test_every_option_has_a_caller(surface):
    _gate(surface, "option")


def test_every_public_member_has_a_caller(surface):
    _gate(surface, "member")


#: A two-file product: what the member gate reports and what it reaches.
_TOY = {
    SRC / "toy" / "shapes.py": """
from .registry import register


class Shape:
    def area(self) -> float:
        return 0.0

    def unused(self) -> None:
        pass


class Square(Shape):
    def area(self) -> float:
        return self.side() ** 2

    def side(self) -> float:
        return 1.0


class Orphan:
    pass


@register
class Registered:
    pass


class Built:
    def made(self) -> int:
        return 1


class Loose:
    def loose(self) -> int:
        return 2
""",
    SRC / "toy" / "registry.py": """
from .shapes import Built, Loose, Shape, Square


def register(cls):
    return cls


def total(shape: Shape) -> float:
    return shape.area()


def square() -> Shape:
    return Square()


def build() -> int:
    b = Built()
    return b.made()


def anything(x) -> int:
    return x.loose() if x else Loose()
""",
}


def test_member_gate_on_a_toy_product():
    """An unused method and an unused class are reported; members reached
    through ``self``, an annotated parameter, a constructed local, a
    subclass override, an untyped receiver and a registering decorator
    are not."""
    toy = _Resolver(dirs=(), sources=_TOY)
    assert _unreached(toy)["member"] == {"toy.shapes.Shape.unused", "toy.shapes.Orphan"}
    assert len(toy.members()) == 12


def test_traced_methods_stay_on_their_classes():
    """``perfbench/trace.py`` wraps ``owner.__dict__[attr]``: each of its
    pairs must stay defined on that exact class, not inherited."""
    spec = importlib.util.spec_from_file_location("trace", ROOT / "perfbench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    moved = [f"{owner.__name__}.{attr}" for owner, attr, *_ in trace._targets()
             if attr not in owner.__dict__]
    assert not moved, f"perfbench/trace.py wraps {moved}, no longer defined there"


def _shown_by(surface, everything, subject: str) -> None:
    reason, where = KEPT[subject]
    assert reason in (SEAM, UNSEEN, REFERENCE, ENTRY), f"{subject}: {reason!r}"
    path = ROOT / where
    assert path.is_file(), f"{where} (justifies {subject}) is gone"
    if path.suffix != ".py":  # the entry-point declaration
        assert f"repro.{subject}:" in path.read_text()
        return
    fid = _module_id(path)
    kind = _kind(subject)
    if reason == UNSEEN:  # the file names what it reaches
        name = subject.split("(")[0].rsplit(".", 1)[-1]
        named = {
            getattr(n, "id", None) or getattr(n, "attr", None)
            or getattr(n, "name", None) or getattr(n, "value", None)
            for n in ast.walk(everything.mods[fid].tree)
        }
        assert name in named, f"{where} no longer names {subject}"
        return
    if kind == "option":
        files = everything.set.get(surface.options()[subject], set())
    elif kind == "module":
        files = everything.mod_reached.get(subject, set())
        files |= {
            fid for target, attr in everything.mods[fid].imports.values()
            if everything.imported(target, attr) == ("mod", subject)
        }
    elif kind == "member":
        files = everything.member_reached(_split(subject))
    else:
        files = everything.reached.get(tuple(subject.rsplit(".", 1)), set())
    assert fid in files, f"{where} no longer reaches {subject}"


@pytest.mark.parametrize("module", sorted(s for s in KEPT if _kind(s) == "module"))
def test_kept_module_is_used_by_its_justification(surface, everything, module):
    _shown_by(surface, everything, module)


@pytest.mark.parametrize("subject", sorted(s for s in KEPT if _kind(s) != "module"))
def test_kept_row_is_shown_by_its_file(surface, everything, subject):
    _shown_by(surface, everything, subject)


def test_examples_use_only_public_names():
    """An example is what a user copies: it reaches no private attribute."""
    private = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted((ROOT / "examples").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]
    assert not private, f"examples reach private attributes: {private}"


def test_src_never_imports_scipy():
    """SciPy is a test and bench oracle only (``tests/test_import_floor.py``
    checks the same at run time)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"src/ imports scipy: {found}"


def test_pools_are_built_only_in_repro_parallel():
    """Every thread or process pool is built under ``repro.parallel``,
    where ``auto_workers`` decides whether one is worth starting."""
    pools = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.is_relative_to(SRC / "parallel"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in pools:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"pool built outside src/repro/parallel/: {found}"


@pytest.mark.parametrize(
    "package",
    ["repro"] + sorted(
        info.name.removeprefix("repro.")
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ),
)
def test_package_all_is_importable(package):
    """Every package's ``__all__``, so a deletion cannot leave a stale
    re-export behind."""
    name = package if package == "repro" else f"repro.{package}"
    pkg = importlib.import_module(name)
    missing = [n for n in pkg.__all__ if not hasattr(pkg, n)]
    assert not missing, f"{name}.__all__ names {missing}"
