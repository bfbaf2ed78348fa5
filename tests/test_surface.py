"""Surface gate: every module under ``src/repro`` has a caller.

A module is *live* when some other non-``__init__`` module under
``src/repro`` imports it or one of its public names (a name imported
through a package counts for the module that defines it).  Anything
else must be a key of :data:`KEPT`, whose value is the file that
justifies keeping it and must itself import the module (or, for the CLI,
declare it as the entry point).  Adding a module
nothing calls — or deleting the last caller of one — fails here with the
module's name.  The examples, which users copy, reach public names only.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: module (relative to ``repro``) -> the file that justifies keeping it.
KEPT = {
    # entry point / registered by import
    "cli": "pyproject.toml",
    "analysis.rules": "src/repro/analysis/__init__.py",
    "analysis.wholeprog": "src/repro/analysis/__init__.py",
    # paper models, reproduced by their bench
    "core.baselines": "benchmarks/bench_table4_preparation.py",
    "core.related": "benchmarks/bench_related_zebra.py",
    "datasets.catalog": "benchmarks/bench_table2_datasets.py",
    "optimize.genetic": "benchmarks/bench_ablation_solvers.py",
    "parallel.gpu": "benchmarks/bench_fig7_gpu.py",
    "parallel.scaling": "benchmarks/harness.py",
    "refactor.retrieval": "benchmarks/bench_compressor_baselines.py",
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


@pytest.mark.parametrize(
    "package", ["parallel", "ec", "transfer", "metadata", "refactor"]
)
def test_package_all_is_importable(package):
    pkg = importlib.import_module(f"repro.{package}")
    missing = [name for name in pkg.__all__ if not hasattr(pkg, name)]
    assert not missing, f"repro.{package}.__all__ names {missing}"
