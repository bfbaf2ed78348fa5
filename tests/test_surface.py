"""Surface gate: every module under ``src/repro`` has a caller.

A module is *live* when some other non-``__init__`` module under
``src/repro`` imports it or one of its public names (a name imported
through a package counts for the module that defines it).  Anything
else must be a key of :data:`KEPT`, whose value is the file that
justifies keeping it and must itself import the module (or, for the CLI,
declare it as the entry point).  Adding a module
nothing calls — or deleting the last caller of one — fails here with the
module's name.  The examples, which users copy, reach public names only.

The same holds one level down for the options of the pipeline surface:
every keyword of ``RAPIDS`` and its phases, and every ``ServiceConfig``
field, is set somewhere in the product (see :data:`PRODUCT`).
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: module (relative to ``repro``) -> the file that justifies keeping it.
KEPT = {
    # entry point / registered by import
    "cli": "pyproject.toml",
    "analysis.rules": "src/repro/analysis/__init__.py",
    # paper models, reproduced by their bench
    "core.baselines": "benchmarks/bench_table4_preparation.py",
    "core.related": "benchmarks/bench_related_zebra.py",
    "datasets.catalog": "benchmarks/bench_table2_datasets.py",
    "optimize.genetic": "benchmarks/bench_ablation_solvers.py",
    "parallel.gpu": "benchmarks/bench_fig7_gpu.py",
    "parallel.scaling": "benchmarks/harness.py",
    # example-only: ROADMAP 9(c)'s backlog
    "core.planner": "examples/campaign_planning.py",
    "datasets.timeseries": "examples/timeseries_archive.py",
    "optimize.bruteforce": "examples/gathering_optimization.py",
    # ground truth the adaptive tests drift against
    "transfer.network": "tests/test_adaptive.py",
}


def _dotted(path: Path) -> str:
    """``src/repro/a/b.py`` -> ``a.b``; a package's ``__init__`` -> ``a``."""
    parts = path.relative_to(SRC).parts
    return ".".join(p.removesuffix(".py") for p in parts if p != "__init__.py")


def _imports(path: Path) -> list[tuple[str, str | None, str | None]]:
    """Every import of ``repro`` in ``path`` as ``(target, name, bound)``.

    ``target`` is dotted relative to ``repro`` (``""`` is the top
    package), ``name`` what is imported from it (``None`` for a plain
    ``import``) and ``bound`` the name it gets in the importer.
    Relative imports resolve only for files inside the package.
    """
    inside = SRC in path.parents
    package = _dotted(path.parent) if inside else ""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [
                (alias.name[6:], None, None)
                for alias in node.names
                if alias.name.startswith("repro.")
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and inside:
                base = package.split(".") if package else []
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([module] if module else []))
            elif not node.level and (module + ".").startswith("repro."):
                target = module[6:]
            else:
                continue
            out += [
                (target, alias.name, alias.asname or alias.name)
                for alias in node.names
            ]
    return out


class _Surface:
    def __init__(self) -> None:
        files = list(SRC.rglob("*.py"))
        self.modules = {
            _dotted(p): p for p in files if p.name != "__init__.py"
        }
        #: package -> {bound name: (target, name)} of its ``__init__``
        self.packages = {
            _dotted(p): {b: (t, n) for t, n, b in _imports(p) if n}
            for p in files
            if p.name == "__init__.py"
        }

    def definer(self, target: str, name: str | None) -> str | None:
        """The module an import of ``name`` from ``target`` reaches."""
        if target in self.modules:
            return target
        if target not in self.packages or name is None:
            return None
        sub = f"{target}.{name}" if target else name
        if sub in self.modules:
            return sub
        hop = self.packages[target].get(name)
        return self.definer(*hop) if hop else None

    def used_by(self, path: Path) -> set[str]:
        found = {self.definer(t, n) for t, n, _ in _imports(path)}
        return found - {None}


@pytest.fixture(scope="module")
def surface():
    return _Surface()


def test_every_module_has_a_caller(surface):
    live: set[str] = set()
    for module, path in surface.modules.items():
        live |= surface.used_by(path) - {module}
    orphans = set(surface.modules) - live
    unjustified = sorted(orphans - set(KEPT))
    assert not unjustified, (
        f"no module under src/repro imports {unjustified}: give each a "
        "caller, delete it, or justify it in KEPT"
    )
    stale = sorted(set(KEPT) - orphans)
    assert not stale, f"{stale} are live again (or gone): drop their KEPT rows"


@pytest.mark.parametrize("module", sorted(KEPT))
def test_kept_module_is_used_by_its_justification(surface, module):
    path = ROOT / KEPT[module]
    assert path.is_file(), f"{KEPT[module]} (justifies {module}) is gone"
    if path.suffix == ".py":
        used = module in surface.used_by(path)
    else:  # the entry-point declaration
        used = f"repro.{module}:" in path.read_text()
    assert used, f"{KEPT[module]} no longer uses repro.{module}"


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


#: Where an option's caller may live; tests and examples do not count.
PRODUCT = ("src", "benchmarks", "perfbench")


def _options() -> list[tuple[str, str]]:
    """``(owner, name)`` per option of the pipeline surface.

    The options are the keyword-only parameters of ``RAPIDS`` and its
    phases and the fields of ``ServiceConfig``; ``owner`` is the name a
    call to the function defining the option is spelled with.
    """
    from repro.core import RAPIDS
    from repro.service import ServiceConfig

    out = [("ServiceConfig", f.name) for f in dataclasses.fields(ServiceConfig)]
    for fn in (RAPIDS.__init__, RAPIDS.prepare, RAPIDS.restore,
               RAPIDS.restore_progressive):
        owner = "RAPIDS" if fn.__name__ == "__init__" else fn.__name__
        out += [
            (owner, p.name)
            for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ]
    return out


def _set_options() -> set[tuple[str, str]]:
    """Every ``(owner, name)`` the product sets, by name.

    A call spelled ``owner(...)`` or ``x.owner(...)`` sets its
    keywords for ``owner``; a ``dict(...)`` keyword (splatted into such
    a call) and an attribute assignment on anything but ``self`` (the
    CLI's ``rapids.p = args.p``) set the name for every owner.  Like the
    import scan this is name-based: a collision hides an unused option.
    """
    found: set[tuple[str, str]] = set()
    for path in (p for d in PRODUCT for p in sorted((ROOT / d).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                found |= {(callee, kw.arg) for kw in node.keywords if kw.arg}
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                found |= {
                    ("*", t.attr)
                    for t in targets
                    if isinstance(t, ast.Attribute)
                    and not (isinstance(t.value, ast.Name) and t.value.id == "self")
                }
    return found


def test_every_option_has_a_caller():
    found = _set_options()
    unused = [
        f"{owner}: {name}"
        for owner, name in _options()
        if not {(owner, name), ("dict", name), ("*", name)} & found
    ]
    assert not unused, (
        f"nothing under {', '.join(PRODUCT)} sets {unused}: give each a "
        "caller or delete it"
    )


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
    "package", ["parallel", "ec", "transfer", "metadata", "refactor"]
)
def test_package_all_is_importable(package):
    pkg = importlib.import_module(f"repro.{package}")
    missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
    assert not missing, f"repro.{package}.__all__ names {missing}"
