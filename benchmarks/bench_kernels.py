"""Kernel micro-benchmarks: the hot paths identified by profiling.

Not a paper artifact — a performance-regression harness for the
vectorised kernels everything else is built on, following the
profile-first workflow of the optimisation guides: GF(256) matrix
multiply (erasure coding's inner loop), the planned/chunked EC kernels
that replaced it on the hot paths, the 1-D multilevel transform,
bitplane extraction, and the end-to-end refactor/reconstruct rates that
feed the Fig. 5/6 calibration.

Run as a script for the seed-vs-planned before/after comparison::

    python benchmarks/bench_kernels.py            # full: 64 MiB payload
    python benchmarks/bench_kernels.py --smoke    # CI: reduced sizes

Both modes verify byte-identical output and write a ``BENCH_kernels.json``
artifact via :func:`harness.write_bench_artifact`.
"""

import time

import numpy as np

from repro.datasets import nyx_temperature
from repro.ec import RSCode, matrix, planned_matmul
from repro.ec.reed_solomon import pad_to_fragments, unpad
from repro.refactor import Refactorer, transform
from repro.refactor.bitplane import decode_planes, encode_planes

FIELD = nyx_temperature((49, 49, 49))


def _seed_encode(code: RSCode, payload: bytes) -> list:
    """The seed (pre-kernel) encode path, reproduced exactly: pad, then
    one ``matrix.matmul`` over the parity rows of the generator."""
    shards = pad_to_fragments(payload, code.k)
    parity = matrix.matmul(code.generator[code.k :], shards)
    return [shards[i] for i in range(code.k)] + [
        parity[i] for i in range(code.m)
    ]


def _seed_decode(code: RSCode, fragments: dict) -> bytes:
    """The seed decode path: per-call np.stack + invert + matmul."""
    idx = sorted(fragments)[: code.k]
    rows = np.stack(
        [np.frombuffer(memoryview(fragments[i]), dtype=np.uint8) for i in idx]
    )
    if idx == list(range(code.k)):
        shards = rows
    else:
        shards = matrix.solve(code.generator[idx], rows)
    return unpad(shards)


def _best_of(fn, reps: int = 3) -> tuple[float, object]:
    """Minimum wall time over ``reps`` runs (noise-robust) + last result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def compare_seed_vs_planned(
    payload_mib: int = 64, k: int = 8, m: int = 4, reps: int = 3
) -> dict:
    """Measure seed-path vs planned-kernel encode/decode throughput.

    Returns a dict of MB/s figures and speedups; verifies the planned
    kernels produce byte-identical fragments and decodes.
    """
    rng = np.random.default_rng(0)
    payload = rng.integers(
        0, 256, size=payload_mib << 20, dtype=np.uint8
    ).tobytes()
    code = RSCode(k, m)
    nbytes = len(payload)

    t_seed_enc, seed_frags = _best_of(lambda: _seed_encode(code, payload), reps)
    t_new_enc, new_frags = _best_of(lambda: code.encode(payload), reps)
    identical_encode = len(seed_frags) == len(new_frags) and all(
        np.array_equal(a, b) for a, b in zip(seed_frags, new_frags)
    )

    # Erasure pattern forcing the matrix-solve path: drop m data fragments.
    available = {i: new_frags[i] for i in range(m, k + m)}
    t_seed_dec, seed_out = _best_of(lambda: _seed_decode(code, available), reps)
    t_new_dec, new_out = _best_of(lambda: code.decode(available), reps)
    identical_decode = seed_out == payload and new_out == payload

    return {
        "k": k,
        "m": m,
        "payload_mib": payload_mib,
        "identical_encode": bool(identical_encode),
        "identical_decode": bool(identical_decode),
        "encode_seed_mbps": nbytes / t_seed_enc / 1e6,
        "encode_planned_mbps": nbytes / t_new_enc / 1e6,
        "encode_speedup": t_seed_enc / t_new_enc,
        "decode_seed_mbps": nbytes / t_seed_dec / 1e6,
        "decode_planned_mbps": nbytes / t_new_dec / 1e6,
        "decode_speedup": t_seed_dec / t_new_dec,
    }


def test_planned_kernels_beat_seed_path():
    """Acceptance: >= 3x encode and >= 2x decode-with-erasures vs the
    seed ``matrix.matmul`` path at (k=8, m=4) over a 64 MiB payload,
    byte-identical output."""
    r = compare_seed_vs_planned(payload_mib=64, k=8, m=4)
    assert r["identical_encode"], "planned encode diverged from seed path"
    assert r["identical_decode"], "planned decode diverged from seed path"
    assert r["encode_speedup"] >= 3.0, r
    assert r["decode_speedup"] >= 2.0, r


def test_bench_gf_matmul(benchmark):
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
    b = rng.integers(0, 256, size=(12, 1 << 16), dtype=np.uint8)
    out = benchmark(matrix.matmul, a, b)
    assert out.shape == (16, 1 << 16)


def test_bench_gf_matmul_planned(benchmark):
    """The planned/chunked kernel on the same shapes as the reference."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(16, 12), dtype=np.uint8)
    b = rng.integers(0, 256, size=(12, 1 << 16), dtype=np.uint8)
    out = benchmark(planned_matmul, a, b)
    assert out.shape == (16, 1 << 16)
    assert np.array_equal(out, matrix.matmul(a, b))


def test_bench_gf_invert(benchmark):
    rng = np.random.default_rng(1)
    while True:
        m = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        try:
            matrix.invert(m)
            break
        except np.linalg.LinAlgError:
            continue
    benchmark(matrix.invert, m)


def test_bench_rs_encode(benchmark):
    code = RSCode(12, 4)
    payload = FIELD.tobytes()
    frags = benchmark(code.encode, payload)
    assert len(frags) == 16


def test_bench_rs_decode_with_erasures(benchmark):
    """Decode with parity substitution (the matrix-solve path, not the
    all-data-present memcpy fast path)."""
    code = RSCode(12, 4)
    payload = FIELD.tobytes()
    frags = code.encode(payload)
    available = {i: frags[i] for i in list(range(2, 14)) + [15]}

    def run():
        return code.decode(available)

    assert benchmark(run) == payload


def test_bench_transform_decompose(benchmark):
    u = FIELD.astype(np.float64)
    mallat, plans = benchmark(transform.decompose, u)
    assert mallat.shape == u.shape


def test_bench_transform_recompose(benchmark):
    u = FIELD.astype(np.float64)
    mallat, plans = transform.decompose(u)
    out = benchmark(transform.recompose, mallat, plans)
    assert out.shape == u.shape


def test_bench_bitplane_encode(benchmark):
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=200_000)
    ps = benchmark(encode_planes, coeffs, 22)
    assert ps.num_planes == 22


def test_bench_bitplane_decode(benchmark):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=200_000)
    ps = encode_planes(coeffs, 22)
    out = benchmark(decode_planes, ps)
    assert out.size == 200_000


def test_bench_refactor_end_to_end(benchmark):
    r = Refactorer(4, num_planes=22)
    obj = benchmark(r.refactor, FIELD, measure_errors=False)
    assert obj.num_components == 4


def test_bench_reconstruct_end_to_end(benchmark):
    r = Refactorer(4, num_planes=22)
    obj = r.refactor(FIELD, measure_errors=False)
    out = benchmark(r.reconstruct, obj)
    assert out.shape == FIELD.shape


def main(argv=None) -> None:
    import argparse

    from harness import print_table, write_bench_artifact

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI: verifies equivalence, skips the "
        "speedup assertions (shared runners are too noisy to gate on)",
    )
    parser.add_argument("--payload-mib", type=int, default=None)
    args = parser.parse_args(argv)

    payload_mib = args.payload_mib or (4 if args.smoke else 64)
    result = compare_seed_vs_planned(payload_mib=payload_mib, k=8, m=4)
    if not (result["identical_encode"] and result["identical_decode"]):
        raise SystemExit(f"planned kernels diverged from seed path: {result}")
    print_table(
        f"GF(256) EC kernels, (k=8, m=4), {payload_mib} MiB payload",
        ["op", "seed MB/s", "planned MB/s", "speedup"],
        [
            [
                "encode",
                f"{result['encode_seed_mbps']:.1f}",
                f"{result['encode_planned_mbps']:.1f}",
                f"{result['encode_speedup']:.2f}x",
            ],
            [
                "decode (erasures)",
                f"{result['decode_seed_mbps']:.1f}",
                f"{result['decode_planned_mbps']:.1f}",
                f"{result['decode_speedup']:.2f}x",
            ],
        ],
    )

    nbytes = FIELD.nbytes
    r = Refactorer(4, num_planes=22)
    r.refactor(FIELD, measure_errors=False)  # warm caches
    t0 = time.perf_counter()
    obj = r.refactor(FIELD, measure_errors=False)
    t_rf = time.perf_counter() - t0
    t0 = time.perf_counter()
    r.reconstruct(obj)
    t_rc = time.perf_counter() - t0
    print(f"\nrefactor    {nbytes / t_rf / 1e6:6.1f} MB/s")
    print(f"reconstruct {nbytes / t_rc / 1e6:6.1f} MB/s")

    result["refactor_mbps"] = nbytes / t_rf / 1e6
    result["reconstruct_mbps"] = nbytes / t_rc / 1e6
    result["mode"] = "smoke" if args.smoke else "full"
    path = write_bench_artifact("kernels", result)
    print(f"\nwrote {path}")

    if not args.smoke:
        if result["encode_speedup"] < 3.0 or result["decode_speedup"] < 2.0:
            raise SystemExit(
                "kernel speedup regressed below the 3x encode / 2x decode "
                f"floor: {result['encode_speedup']:.2f}x / "
                f"{result['decode_speedup']:.2f}x"
            )


if __name__ == "__main__":
    main()
