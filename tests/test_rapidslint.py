"""Unit tests for the rapidslint static-analysis subsystem.

Each rule gets at least one positive (fires) and one negative (stays
quiet) case; the suppression machinery gets its own section.  Sources
are analyzed as strings with a fake path, since several rules are
path-scoped (EC / solver modules).
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    META_RULE_ID,
    Analyzer,
    Severity,
    all_rules,
    run_lint,
)
from repro.analysis.rules import _tainted_names

EC_PATH = "src/repro/ec/somemod.py"
SOLVER_PATH = "src/repro/optimize/somesolver.py"


def lint(source, *, path="src/repro/mod.py", select=None):
    analyzer = Analyzer(select=select)
    return analyzer.check_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestRegistry:
    def test_at_least_eight_rules_registered(self):
        assert len(all_rules()) >= 8

    def test_registered_rule_ids(self):
        ids = {r.rule_id for r in all_rules()}
        assert ids == {f"RPD{n}" for n in range(101, 113)} | {
            "RPD115", "RPD117", "RPD118"
        }

    def test_rules_have_metadata(self):
        for rule in all_rules():
            assert rule.rule_id.startswith("RPD")
            assert rule.name
            assert rule.description
            assert rule.rationale
            assert isinstance(rule.severity, Severity)

    def test_get_rule(self):
        rules = {rule.rule_id: rule for rule in all_rules()}
        assert rules["RPD101"].name == "gf256-raw-arith"

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError):
            Analyzer(select=["RPD999"])


class TestGFRawArith:
    def test_positive_star_on_gf_result(self):
        findings = lint(
            """
            from repro.ec import gf256
            def parity(a, b):
                prod = gf256.mul(a, b)
                return prod * 2
            """,
            select=["RPD101"],
        )
        assert rule_ids(findings) == ["RPD101"]

    def test_positive_direct_import_and_chain(self):
        findings = lint(
            """
            from repro.ec.gf256 import mul
            def f(a, b):
                x = mul(a, b)
                y = x[1:]
                return y + b
            """,
            select=["RPD101"],
        )
        assert rule_ids(findings) == ["RPD101"]

    def test_negative_gf_add_used(self):
        findings = lint(
            """
            from repro.ec import gf256
            def parity(a, b):
                prod = gf256.mul(a, b)
                return gf256.add(prod, b)
            """,
            select=["RPD101"],
        )
        assert findings == []

    def test_negative_module_without_gf_import(self):
        findings = lint(
            """
            def scale(prod, b):
                return prod * b
            """,
            select=["RPD101"],
        )
        assert findings == []


class TestECAstypeCopy:
    def test_positive_astype_without_copy(self):
        findings = lint(
            "def f(a):\n    return a.astype('uint16')\n",
            path=EC_PATH,
            select=["RPD102"],
        )
        assert rule_ids(findings) == ["RPD102"]

    def test_negative_with_copy_or_outside_ec(self):
        clean = "def f(a):\n    return a.astype('uint16', copy=False)\n"
        assert lint(clean, path=EC_PATH, select=["RPD102"]) == []
        dirty = "def f(a):\n    return a.astype('uint16')\n"
        assert lint(dirty, path="src/repro/core/x.py", select=["RPD102"]) == []


class TestThreadMapSharedState:
    def test_positive_append_to_closure(self):
        findings = lint(
            """
            def run(items):
                results = []
                def work(item):
                    results.append(item * 2)
                thread_map(work, items, workers=4)
                return results
            """,
            select=["RPD103"],
        )
        assert rule_ids(findings) == ["RPD103"]

    def test_positive_self_write_via_pool(self):
        findings = lint(
            """
            class Job:
                def work(self, item):
                    self.done += 1
                def run(self, pool, items):
                    pool.map(self.work, items)
            """,
            select=["RPD103"],
        )
        assert rule_ids(findings) == ["RPD103"]

    def test_negative_write_under_lock(self):
        findings = lint(
            """
            def run(items, lock):
                results = []
                def work(item):
                    with lock:
                        results.append(item * 2)
                thread_map(work, items, workers=4)
                return results
            """,
            select=["RPD103"],
        )
        assert findings == []

    def test_negative_pure_callable(self):
        findings = lint(
            """
            def run(items):
                def work(item):
                    local = [item]
                    local.append(item)
                    return item * 2
                return thread_map(work, items, workers=4)
            """,
            select=["RPD103"],
        )
        assert findings == []


class TestSolverNondeterminism:
    def test_positive_time_time(self):
        findings = lint(
            "import time\ndef solve():\n    return time.time()\n",
            path=SOLVER_PATH,
            select=["RPD104"],
        )
        assert rule_ids(findings) == ["RPD104"]

    def test_positive_unseeded_default_rng(self):
        findings = lint(
            "import numpy as np\ndef solve():\n"
            "    rng = np.random.default_rng()\n    return rng\n",
            path=SOLVER_PATH,
            select=["RPD104"],
        )
        assert rule_ids(findings) == ["RPD104"]

    def test_positive_legacy_np_random(self):
        findings = lint(
            "import numpy as np\ndef solve():\n"
            "    return np.random.shuffle([1, 2])\n",
            path=SOLVER_PATH,
            select=["RPD104"],
        )
        assert rule_ids(findings) == ["RPD104"]

    def test_negative_seeded_and_perf_counter(self):
        findings = lint(
            """
            import time
            import numpy as np
            def solve(seed):
                rng = np.random.default_rng(seed)
                start = time.perf_counter()
                return rng, start
            """,
            path=SOLVER_PATH,
            select=["RPD104"],
        )
        assert findings == []

    def test_negative_outside_solver_scope(self):
        findings = lint(
            "import time\ndef now():\n    return time.time()\n",
            path="src/repro/transfer/x.py",
            select=["RPD104"],
        )
        assert findings == []


class TestBroadExcept:
    def test_positive_bare_except(self):
        findings = lint(
            "def f():\n    try:\n        g()\n    except:\n        pass\n",
            select=["RPD105"],
        )
        assert rule_ids(findings) == ["RPD105"]

    def test_positive_swallowed_exception(self):
        findings = lint(
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        pass\n",
            select=["RPD105"],
        )
        assert rule_ids(findings) == ["RPD105"]

    def test_negative_reraise_or_narrow(self):
        reraise = (
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        cleanup()\n        raise\n"
        )
        assert lint(reraise, select=["RPD105"]) == []
        narrow = (
            "def f():\n    try:\n        g()\n"
            "    except (ValueError, KeyError):\n        pass\n"
        )
        assert lint(narrow, select=["RPD105"]) == []


class TestAllDrift:
    def test_positive_missing_definition(self):
        findings = lint(
            '__all__ = ["gone"]\n\ndef here():\n    pass\n',
            select=["RPD106"],
        )
        assert set(rule_ids(findings)) == {"RPD106"}
        assert any("gone" in f.message for f in findings)

    def test_positive_public_def_not_exported(self):
        findings = lint(
            '__all__ = ["a"]\n\ndef a():\n    pass\n\ndef b():\n    pass\n',
            select=["RPD106"],
        )
        assert rule_ids(findings) == ["RPD106"]
        assert "b" in findings[0].message

    def test_negative_in_sync(self):
        source = (
            '__all__ = ["a", "CONST"]\n\nCONST = 3\n\n'
            "def a():\n    pass\n\ndef _private():\n    pass\n"
        )
        assert lint(source, select=["RPD106"]) == []

    def test_negative_no_all(self):
        assert lint("def a():\n    pass\n", select=["RPD106"]) == []


class TestMutableDefault:
    def test_positive_list_literal(self):
        findings = lint("def f(x, acc=[]):\n    return acc\n",
                        select=["RPD107"])
        assert rule_ids(findings) == ["RPD107"]

    def test_positive_dict_call(self):
        findings = lint("def f(x, acc=dict()):\n    return acc\n",
                        select=["RPD107"])
        assert rule_ids(findings) == ["RPD107"]

    def test_negative_none_default(self):
        assert lint("def f(x, acc=None):\n    return acc\n",
                    select=["RPD107"]) == []


class TestOpenNoContext:
    def test_positive_loose_open(self):
        findings = lint("def f(p):\n    fh = open(p)\n    return fh.read()\n",
                        select=["RPD108"])
        assert rule_ids(findings) == ["RPD108"]

    def test_negative_with_block(self):
        source = (
            "def f(p):\n    with open(p) as fh:\n        return fh.read()\n"
        )
        assert lint(source, select=["RPD108"]) == []


class TestECImplicitDtype:
    def test_positive_float_default(self):
        findings = lint(
            "import numpy as np\ndef f(n):\n    return np.zeros(n)\n",
            path=EC_PATH,
            select=["RPD109"],
        )
        assert rule_ids(findings) == ["RPD109"]

    def test_negative_explicit_dtype_or_outside_ec(self):
        clean = (
            "import numpy as np\n"
            "def f(n):\n    return np.zeros(n, dtype=np.uint8)\n"
        )
        assert lint(clean, path=EC_PATH, select=["RPD109"]) == []
        dirty = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert lint(dirty, path="src/repro/sim/x.py", select=["RPD109"]) == []


class TestUnlockedGlobalCache:
    def test_positive_unguarded_fill(self):
        findings = lint(
            """
            _CACHE = None
            def table():
                global _CACHE
                if _CACHE is None:
                    _CACHE = build()
                return _CACHE
            """,
            select=["RPD110"],
        )
        assert rule_ids(findings) == ["RPD110"]

    def test_negative_guarded_fill(self):
        findings = lint(
            """
            import threading
            _CACHE = None
            _CACHE_LOCK = threading.Lock()
            def table():
                global _CACHE
                if _CACHE is None:
                    with _CACHE_LOCK:
                        if _CACHE is None:
                            _CACHE = build()
                return _CACHE
            """,
            select=["RPD110"],
        )
        assert findings == []

    def test_positive_dict_subscript_fill(self):
        findings = lint(
            """
            _CACHE = {}
            def table(n):
                if n not in _CACHE:
                    _CACHE[n] = build(n)
                return _CACHE[n]
            """,
            select=["RPD110"],
        )
        assert rule_ids(findings) == ["RPD110"]

    def test_positive_dict_get_fill(self):
        findings = lint(
            """
            _CACHE = {}
            def table(n):
                hit = _CACHE.get(n)
                if hit is None:
                    _CACHE[n] = hit = build(n)
                return hit
            """,
            select=["RPD110"],
        )
        assert rule_ids(findings) == ["RPD110"]

    def test_negative_dict_fill_under_lock(self):
        findings = lint(
            """
            import threading
            _CACHE = {}
            _LOCK = threading.Lock()
            def table(n):
                if n not in _CACHE:
                    with _LOCK:
                        if n not in _CACHE:
                            _CACHE[n] = build(n)
                return _CACHE[n]
            """,
            select=["RPD110"],
        )
        assert findings == []

    def test_negative_dict_fill_without_membership_check(self):
        # Registry pattern: unconditional subscript assignment with no
        # get/containment check first is not fill-on-first-use.
        findings = lint(
            """
            _REGISTRY = {}
            def register(name, value):
                _REGISTRY[name] = value
                return value
            """,
            select=["RPD110"],
        )
        assert findings == []


class TestUnverifiedPayload:
    def test_positive_payload_consumed_without_check(self):
        findings = lint(
            """
            import numpy as np
            def rebuild(cluster, name, level, idx):
                frag = cluster.fetch(name, level, idx)
                return np.frombuffer(frag.payload, dtype=np.uint8)
            """,
            select=["RPD111"],
        )
        assert rule_ids(findings) == ["RPD111"]
        assert ".payload" in findings[0].message

    def test_one_finding_per_scope_at_first_use(self):
        findings = lint(
            """
            def gather(a, b):
                return a.payload + b.payload
            """,
            select=["RPD111"],
        )
        assert len(findings) == 1

    def test_negative_verify_in_scope(self):
        findings = lint(
            """
            from repro.formats.checksum import verify
            def read(frag, expected):
                verify(frag.payload, expected)
                return frag.payload
            """,
            select=["RPD111"],
        )
        assert findings == []

    def test_negative_crc32_in_scope(self):
        findings = lint(
            """
            from zlib import crc32
            def read(frag, expected):
                if crc32(frag.payload) != expected:
                    raise ValueError("rot")
                return frag.payload
            """,
            select=["RPD111"],
        )
        assert findings == []

    def test_negative_verified_read_in_scope(self):
        # the storage layer's verified reads check the record's CRC; a
        # fetch without ``crc=`` does not (the positive case above)
        findings = lint(
            """
            import numpy as np
            def home_read(cluster, name, level, idx, home, crc):
                frag = cluster.fetch(name, level, idx, home=home, crc=crc)
                return np.frombuffer(frag.payload, dtype=np.uint8)
            def at_rest(system, name, level, idx, crc):
                return system.get_verified(name, level, idx, crc).payload
            """,
            select=["RPD111"],
        )
        assert findings == []

    def test_negative_none_comparison_only(self):
        findings = lint(
            """
            def simulated(frag):
                return frag.payload is None
            """,
            select=["RPD111"],
        )
        assert findings == []

    def test_negative_outside_repro_package(self):
        findings = lint(
            "def f(frag):\n    return frag.payload\n",
            path="tools/scratch.py",
            select=["RPD111"],
        )
        assert findings == []

    def test_nested_function_is_its_own_scope(self):
        # a verify() in the outer scope does not bless a closure that
        # consumes the payload unchecked
        findings = lint(
            """
            def outer(frag, expected):
                verify(b"", expected)
                def attempt():
                    return frag.payload
                return attempt()
            """,
            select=["RPD111"],
        )
        assert rule_ids(findings) == ["RPD111"]

    def test_suppression_with_justification(self):
        findings = lint(
            """
            def rot(frag):
                # rapidslint: disable-next=RPD111 -- damage site: rot is deliberate
                return frag.payload[::-1]
            """,
            select=["RPD111"],
        )
        assert findings == []


class TestSuppressions:
    DIRTY = "def f(x, acc=[]):  # rapidslint: disable=RPD107 -- test fixture\n    return acc\n"

    def test_inline_suppression_silences(self):
        assert lint(self.DIRTY, select=["RPD107"]) == []

    def test_disable_next_silences(self):
        source = (
            "# rapidslint: disable-next=RPD107 -- test fixture\n"
            "def f(x, acc=[]):\n    return acc\n"
        )
        assert lint(source, select=["RPD107"]) == []

    def test_disable_file_silences(self):
        source = (
            "# rapidslint: disable-file=RPD107 -- test fixture\n"
            "def f(x, acc=[]):\n    return acc\n"
            "def g(x, acc={}):\n    return acc\n"
        )
        assert lint(source, select=["RPD107"]) == []

    def test_suppression_without_justification_is_reported(self):
        source = (
            "# rapidslint: disable-next=RPD107\n"
            "def f(x, acc=[]):\n    return acc\n"
        )
        findings = lint(source, select=["RPD107"])
        ids = rule_ids(findings)
        # the malformed suppression is reported AND does not silence
        assert META_RULE_ID in ids and "RPD107" in ids

    def test_unknown_rule_id_is_reported(self):
        source = "x = 1  # rapidslint: disable=RPD999 -- whatever\n"
        findings = lint(source)
        assert rule_ids(findings) == [META_RULE_ID]
        assert "unknown rule" in findings[0].message

    def test_unused_suppression_is_reported(self):
        source = "x = 1  # rapidslint: disable=RPD107 -- stale\n"
        findings = lint(source, select=["RPD107"])
        assert rule_ids(findings) == [META_RULE_ID]
        assert "unused" in findings[0].message

    def test_docstring_example_is_not_a_suppression(self):
        source = (
            '"""Docs.\n\n    # rapidslint: disable=RPD107 -- example\n"""\n'
            "def f(x, acc=[]):\n    return acc\n"
        )
        findings = lint(source, select=["RPD107"])
        assert rule_ids(findings) == ["RPD107"]

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO


class TestAnalyzerDriver:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint("def f(:\n")
        assert rule_ids(findings) == [META_RULE_ID]
        assert findings[0].severity == Severity.ERROR

    def test_check_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(
            "def f(x, acc=[]):\n    return acc\n"
        )
        (tmp_path / "pkg" / "good.py").write_text("X = 1\n")
        analyzer = Analyzer(select=["RPD107"])
        findings = analyzer.check_paths([tmp_path])
        assert rule_ids(findings) == ["RPD107"]
        assert findings[0].path.endswith("bad.py")

    def test_repo_tree_is_clean(self):
        """The acceptance gate: rapidslint exits 0 on the whole tree."""
        repo = Path(__file__).resolve().parent.parent
        findings = Analyzer().check_paths([repo / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCLI:
    def _run(self, *argv):
        import os

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *argv],
            capture_output=True,
            text=True,
            cwd=repo,
            env=env,
        )

    def test_lint_src_exits_zero(self):
        proc = self._run("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_lint_reports_finding_and_exits_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x, acc=[]):\n    return acc\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "RPD107" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        assert "RPD101" in proc.stdout and "gf256-raw-arith" in proc.stdout

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x, acc=[]):\n    return acc\n")
        proc = self._run(str(bad), "--format", "json")
        import json

        findings = json.loads(proc.stdout[: proc.stdout.rindex("]") + 1])
        assert findings[0]["rule"] == "RPD107"


class TestProcessPoolCallable:
    def test_positive_lambda_to_submit(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor

        def run(items):
            with ProcessPoolExecutor(max_workers=2) as pool:
                return [pool.submit(lambda x: x + 1, i) for i in items]
        """
        findings = lint(source, select=["RPD112"])
        assert rule_ids(findings) == ["RPD112"]
        assert "lambda" in findings[0].message

    def test_positive_nested_function_to_map(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor

        def run(items):
            def worker(x):
                return x * 2
            pool = ProcessPoolExecutor()
            return list(pool.map(worker, items))
        """
        findings = lint(source, select=["RPD112"])
        assert rule_ids(findings) == ["RPD112"]
        assert "worker" in findings[0].message

    def test_positive_bound_method(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor

        class Engine:
            def _work(self, x):
                return x

            def run(self, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(self._work, items))
        """
        findings = lint(source, select=["RPD112"])
        assert rule_ids(findings) == ["RPD112"]
        assert "self._work" in findings[0].message

    def test_positive_direct_constructor_call(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor

        def run(items):
            return ProcessPoolExecutor().map(lambda x: x, items)
        """
        assert rule_ids(lint(source, select=["RPD112"])) == ["RPD112"]

    def test_negative_module_level_worker(self):
        source = """
        from concurrent.futures import ProcessPoolExecutor

        def _worker(x):
            return x + 1

        def run(items):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(_worker, items))
        """
        assert lint(source, select=["RPD112"]) == []

    def test_negative_thread_pool_lambda_allowed(self):
        # Thread pools share the interpreter: no pickling, RPD103 owns
        # their safety story.
        source = """
        from concurrent.futures import ThreadPoolExecutor

        def run(items):
            with ThreadPoolExecutor() as pool:
                return list(pool.map(lambda x: x + 1, items))
        """
        assert lint(source, select=["RPD112"]) == []

    def test_negative_unrelated_submit_method(self):
        source = """
        def run(queue, items):
            return [queue.submit(lambda x: x, i) for i in items]
        """
        assert lint(source, select=["RPD112"]) == []


class TestChaosCoverage:
    STORAGE = "src/repro/storage/blob.py"

    def test_positive_fragment_helper_without_consult(self):
        # The shape of the one true positive the rule has found: a
        # header read in a storage method that never consults the
        # injector, so no chaos plan can fail it.
        findings = lint(
            """
            from repro.formats.container import read_fragment_header

            class FileSystem:
                def fragment_keys(self):
                    return [read_fragment_header(p) for p in self.paths()]
            """,
            path=self.STORAGE,
            select=["RPD115"],
        )
        assert rule_ids(findings) == ["RPD115"]
        assert "read_fragment_header" in findings[0].message
        assert "'fragment_keys'" in findings[0].message

    def test_positive_unguarded_raw_io_in_storage_scope(self):
        findings = lint(
            """
            def read_blob(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """,
            path="src/repro/metadata/blob.py",
            select=["RPD115"],
        )
        assert rule_ids(findings) == ["RPD115"]
        assert "raw I/O (open)" in findings[0].message

    def test_positive_undeclared_site_string(self):
        findings = lint(
            """
            def write_blob(injector, path, data):
                injector.check("storage.flush", path=str(path))
                path.write_bytes(data)
            """,
            path=self.STORAGE,
            select=["RPD115"],
        )
        assert rule_ids(findings) == ["RPD115"]
        assert "storage.flush" in findings[0].message
        assert "not declared" in findings[0].message

    def test_positive_consult_only_in_a_helper(self):
        # The consult must sit in the function that does the I/O: a
        # helper's consult does not cover its caller's open.
        findings = lint(
            """
            def _consult(injector, path):
                injector.check("storage.read", path=str(path))

            def read_blob(injector, path):
                _consult(injector, path)
                with open(path, "rb") as fh:
                    return fh.read()
            """,
            path=self.STORAGE,
            select=["RPD115"],
        )
        assert rule_ids(findings) == ["RPD115"]
        assert "'read_blob'" in findings[0].message

    def test_negative_guarded_io(self):
        findings = lint(
            """
            import os

            def replace_blob(injector, tmp, path):
                injector.check("storage.write", path=str(path))
                os.replace(tmp, path)
            """,
            path=self.STORAGE,
            select=["RPD115"],
        )
        assert findings == []

    def test_negative_io_outside_storage_seams(self):
        findings = lint(
            """
            from repro.formats.container import read_fragment_header

            def dump(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
                return read_fragment_header(path)
            """,
            path="src/repro/core/report.py",
            select=["RPD115"],
        )
        assert findings == []


class TestTaintedNames:
    @staticmethod
    def calls(name):
        return lambda v: (
            isinstance(v, ast.Call)
            and isinstance(v.func, ast.Name)
            and v.func.id == name
        )

    def test_chain_propagates_regardless_of_order(self):
        # y is assigned from x BEFORE x becomes tainted: the fixpoint
        # must still catch it.
        scope = ast.parse(
            textwrap.dedent(
                """
                def f():
                    y = x
                    x = seed()
                    z = y
                """
            )
        )
        names = _tainted_names(ast.walk(scope), seeds=self.calls("seed"))
        assert {"x", "y", "z"} <= names

    def test_sanitizer_blocks_flow_and_terminates(self):
        # A sanitizer is a ``propagate`` that rejects its call: the
        # sanitized assignment adds nothing, so the fixpoint terminates.
        scope = ast.parse(
            textwrap.dedent(
                """
                def f():
                    x = seed()
                    y = clean(x)
                    z = y
                """
            )
        )
        names = _tainted_names(
            ast.walk(scope),
            seeds=self.calls("seed"),
            propagate=lambda v: not self.calls("clean")(v),
        )
        assert "x" in names
        assert "y" not in names
        assert "z" not in names


# ---------------------------------------------------------------------------
# changed-file scoping


_DRIFTED = '__all__ = ["nope"]\n'


class TestChangedFileScoping:
    def test_changed_base_lints_only_changed_files(
        self, tmp_path, monkeypatch
    ):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text("X = 1\n")
        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "base")
        # All three files have findings, but b.py's is committed: only
        # a.py (modified) and new.py (untracked) differ from HEAD.
        (tmp_path / "b.py").write_text(_DRIFTED)
        git("commit", "-q", "-am", "drift b")
        (tmp_path / "a.py").write_text(_DRIFTED)
        (tmp_path / "new.py").write_text(_DRIFTED)  # untracked counts
        monkeypatch.chdir(tmp_path)
        out = []
        assert run_lint(["."], output=out.append, changed_base="HEAD") == 1
        reported = {line.split(":")[0] for line in out[:-1]}
        assert reported == {"a.py", "new.py"}
        out.clear()
        assert run_lint(["b.py"], output=out.append, changed_base="HEAD") == 0
        assert out == []


class TestServiceBlockingNoDeadline:
    SERVICE_PATH = "src/repro/service/handlers.py"

    def lint_svc(self, source):
        return lint(source, path=self.SERVICE_PATH, select=["RPD117"])

    # -- true positives ---------------------------------------------------

    def test_positive_bare_queue_get(self):
        findings = self.lint_svc(
            """
            def handle_next(queue):
                req = queue.get()
                return req
            """
        )
        assert rule_ids(findings) == ["RPD117"]
        assert ".get()" in findings[0].message

    def test_positive_future_result_and_fsync(self):
        findings = self.lint_svc(
            """
            import os
            def persist(future, fd):
                out = future.result()
                os.fsync(fd)
                return out
            """
        )
        assert rule_ids(findings) == ["RPD117", "RPD117"]

    def test_positive_event_wait_without_bound(self):
        findings = self.lint_svc(
            """
            def await_completion(event):
                event.wait()
            """
        )
        assert rule_ids(findings) == ["RPD117"]

    # -- false-positive guards (must stay quiet) --------------------------

    def test_negative_timeout_from_deadline(self):
        findings = self.lint_svc(
            """
            def handle_next(queue, deadline):
                req = queue.get(timeout=deadline.remaining())
                return req
            """
        )
        assert findings == []

    def test_negative_dict_get_is_a_lookup(self):
        findings = self.lint_svc(
            """
            def quota_for(quotas, tenant):
                return quotas.get(tenant, 2)
            """
        )
        assert findings == []

    def test_negative_function_consults_deadline(self):
        findings = self.lint_svc(
            """
            def run(request, future):
                if request.deadline is not None and request.deadline.expired:
                    return None
                return future.result()
            """
        )
        assert findings == []

    def test_negative_outside_service_package(self):
        findings = lint(
            """
            def handle_next(queue):
                return queue.get()
            """,
            path="src/repro/core/handlers.py",
            select=["RPD117"],
        )
        assert findings == []

    def test_own_service_package_is_clean(self):
        import pathlib

        analyzer = Analyzer(select=["RPD117"])
        service_dir = pathlib.Path("src/repro/service")
        for path in sorted(service_dir.glob("*.py")):
            findings = analyzer.check_source(path.read_text(), str(path))
            assert findings == [], f"{path}: {findings}"


class TestUnusedImport:
    def lint(self, source, path="src/repro/mod.py"):
        return lint(source, path=path, select=["RPD118"])

    def test_positive_unused_module(self):
        findings = self.lint("import numpy as np\nimport os\n\nos.getcwd()\n")
        assert rule_ids(findings) == ["RPD118"]
        assert "'np'" in findings[0].message and findings[0].line == 1

    def test_positive_one_name_of_a_from_import(self):
        findings = self.lint(
            "from dataclasses import (\n    dataclass,\n    field,\n)\n\n"
            "@dataclass\nclass A:\n    x: int = 0\n"
        )
        assert rule_ids(findings) == ["RPD118"]
        assert "'field'" in findings[0].message and findings[0].line == 3

    def test_positive_under_top_level_try(self):
        source = "try:\n    import json\nexcept ImportError:\n    pass\n"
        assert rule_ids(self.lint(source)) == ["RPD118"]

    def test_negative_used_attribute_root(self):
        assert self.lint("import os.path\n\nos.path.join('a')\n") == []

    def test_negative_string_annotation(self):
        source = (
            "from pathlib import Path\nfrom typing import Iterator\n\n"
            "def f(p: \"str | Path\") -> \"Iterator[int]\":\n    yield 1\n"
        )
        assert self.lint(source) == []

    def test_negative_listed_in_all(self):
        source = "from os import getcwd\n\n__all__ = [\"getcwd\"]\n"
        assert self.lint(source) == []

    def test_negative_future_and_package_init(self):
        assert self.lint("from __future__ import annotations\n") == []
        source = "from .mod import thing\n"
        assert self.lint(source, path="src/repro/pkg/__init__.py") == []

    def test_negative_function_level_import_not_checked(self):
        assert self.lint("def f():\n    import os\n") == []

    def test_side_effect_import_needs_a_justified_suppression(self):
        bare = "import readline\n"
        justified = (
            "import readline  # rapidslint: disable=RPD118 -- "
            "importing it enables line editing in input()\n"
        )
        assert rule_ids(self.lint(bare)) == ["RPD118"]
        assert self.lint(justified) == []
