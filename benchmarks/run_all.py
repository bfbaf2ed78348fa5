"""Run every bench module's report generator and collect the output.

``python benchmarks/run_all.py [outfile]`` executes each
``bench_*.py`` as a script (its ``__main__`` block prints the
reproduced table/figure) and concatenates the reports — the quickest
way to regenerate the full EXPERIMENTS.md evidence in one command.
"""

from __future__ import annotations

import runpy
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).parent
#: Report order: paper artifacts first, then validations and ablations.
ORDER = [
    "bench_table2_datasets",
    "bench_fig2_quality_vs_overhead",
    "bench_fig3_distribution_latency",
    "bench_table3_heuristic",
    "bench_fig4_gathering",
    "bench_fig5_preparation_ops",
    "bench_fig6_restoration_ops",
    "bench_table4_preparation",
    "bench_table5_restoration",
    "bench_fig7_gpu",
    "bench_validation_montecarlo",
    "bench_related_zebra",
    "bench_compressor_baselines",
    "bench_heterogeneous",
    "bench_ablation_l2",
    "bench_ablation_grouping",
    "bench_ablation_initializer",
    "bench_ablation_solvers",
    "bench_ablation_contention",
    "bench_local_scaling",
    "bench_implementation_scaling",
    "bench_kernels",
]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    out_path = Path(argv[1]) if len(argv) > 1 else None
    chunks: list[str] = []
    for name in ORDER:
        path = HERE / f"{name}.py"
        if not path.exists():
            print(f"!! missing bench module {name}", file=sys.stderr)
            continue
        t0 = time.perf_counter()
        buf = StringIO()
        # Each script parses its own command line (bench_kernels has
        # flags), so it must not see this script's [outfile] argument.
        sys.argv = [str(path)]
        with redirect_stdout(buf):
            runpy.run_path(str(path), run_name="__main__")
        elapsed = time.perf_counter() - t0
        chunks.append(buf.getvalue())
        print(f"{name}: done in {elapsed:.1f}s", file=sys.stderr)
    report = "\n".join(chunks)
    if out_path is not None:
        out_path.write_text(report)
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
