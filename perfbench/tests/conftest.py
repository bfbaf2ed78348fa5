"""Harness self-tests: ``python -m pytest perfbench/tests -q``.

Not part of tier-1 (``testpaths`` is ``tests``).  The benchmark's modules
are plain scripts next to ``run.py``; put them and ``src`` on the path
the way ``run.py`` does for its worker.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
for path in (PERFBENCH.parent / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
