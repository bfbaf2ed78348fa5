"""Import floor: the runtime never loads SciPy or the linter.

Every availability number comes from one failure-count pmf
(``core.heterogeneous.poisson_binomial_pmf``), so nothing the product
runs needs SciPy, whose ``stats`` package alone is ~70 MiB resident and
~1 s of import in every process.  Nor does it need ``repro.analysis``
(rapidslint), which only ``rapids lint`` imports.  The guard counts
loaded modules in a fresh interpreter after the product's entry points
have been imported and exercised once, a pooled ``thread_map``
included; it never reads the clock.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DRIVE = textwrap.dedent(
    """
    import sys

    import numpy as np

    import repro
    import repro.chaos
    import repro.cli
    import repro.healing
    import repro.service
    from repro.core import RAPIDS, FTProblem, heuristic
    from repro.metadata import MetadataCatalog
    from repro.parallel import thread_map
    from repro.refactor import Refactorer
    from repro.storage import StorageCluster
    from repro.transfer import paper_bandwidth_profile

    data = np.random.default_rng(0).standard_normal((17, 17, 17))
    with MetadataCatalog(sys.argv[1]) as catalog:
        rapids = RAPIDS(
            StorageCluster(paper_bandwidth_profile(16)), catalog,
            refactorer=Refactorer(4), omega=0.5,
        )
        rep = rapids.prepare("obj", data)
        rapids.restore("obj")
    heuristic(FTProblem(
        n=16, p=0.01, sizes=tuple(rep.level_sizes),
        errors=tuple(rep.level_errors), original_size=data.nbytes, omega=0.5,
    ))
    thread_map(abs, [-1, -2], workers=2)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    print(sorted(m for m in sys.modules if m.startswith("repro.analysis")))
    """
)


def test_product_never_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVE, str(tmp_path / "meta")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    scipy, linter = proc.stdout.splitlines()
    assert scipy == "[]", f"SciPy loaded: {scipy}"
    # The linter is a development tool: a pooled thread_map (whose
    # sanitizer hook lives in repro.parallel) must not import it.
    assert linter == "[]", f"linter loaded at runtime: {linter}"
