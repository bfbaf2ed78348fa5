"""The four benchmark workloads, each against a real on-disk stack.

Every workload is a closed loop driven by one generator thread; the only
concurrency is what the library itself starts.  All inputs derive from
``seed``.  Restores use ``strategy="naive"`` (a deterministic plan): the
library default, ``"optimized"``, spends ``solver_budget`` *wall* seconds
in the ACO solver whatever the machine's speed, so it would add a
constant to every sample.

Each operation is verified where it happens; a miss is counted in
``failed`` and described in ``failures`` — nothing is retried or hidden.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

import stats
from repro.chaos import FaultPlan, FaultSpec, inflict_at_rest
from repro.core.gathering import optimized_strategy
from repro.core.pipeline import RAPIDS
from repro.datasets import synthetic
from repro.healing import scrub_and_repair
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer
from repro.service import (
    ArchiveService,
    ServiceConfig,
    ServiceRejected,
    ServiceRequest,
    synthetic_field,
)
from repro.storage import FileStorageCluster
from repro.transfer import paper_bandwidth_profile

__all__ = ["WORKLOADS", "Budget", "make_workload", "service_schedule"]

#: Relative slack when comparing a measured error with the recorded one.
ERROR_SLACK = 1e-6


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).data)


def _rel_linf(source: np.ndarray, restored: np.ndarray, source_max: float) -> float:
    """max|x - x^| / max|x|, in slabs so a memory-mapped source stays on disk."""
    worst = 0.0
    step = max(1, (8 << 20) // max(1, source[0].nbytes))
    for lo in range(0, source.shape[0], step):
        diff = np.abs(source[lo : lo + step] - restored[lo : lo + step])
        worst = max(worst, float(diff.max()))
    return worst / source_max


def _build_stack(workdir: Path, systems: int, refactorer: Refactorer, omega=0.25):
    cluster = FileStorageCluster(
        workdir / "cluster", bandwidths=paper_bandwidth_profile(systems)
    )
    catalog = MetadataCatalog(workdir / "catalog")
    return RAPIDS(cluster, catalog, refactorer=refactorer, omega=omega)


class Budget:
    """When the measured loop stops: after ``cycles``, or — when that is
    ``None`` — once another cycle of average length would overrun
    ``seconds``.  At least one cycle always runs."""

    def __init__(self, seconds: float, cycles: int | None = None) -> None:
        self.seconds, self.cycles = seconds, cycles
        self.t0 = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.cycles is not None:
            return done < self.cycles
        if done == 0:
            return True
        elapsed = time.perf_counter() - self.t0
        return elapsed + elapsed / done <= self.seconds


class Workload:
    """Shared bookkeeping: timed operations, verification, failure counts."""

    name = ""
    #: Which operation feeds ``write_p50_ms`` / ``read_p50_ms``.
    write_op = "prepare"
    read_op = "restore"
    #: Measured cycles of a ``--smoke`` run.
    smoke_cycles = 1

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed, self.workdir, self.smoke = seed, Path(workdir), smoke
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.rapids: RAPIDS | None = None
        #: max over full restores of the relative L-infinity error.
        self.worst_error = 0.0
        #: Size of the one object every operation moves (0: sizes vary).
        self.object_bytes = 0
        self._next_cycle = 0

    # -- bookkeeping -----------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def timed(self, op: str, fn, *args, **kwargs):
        """Run one operation, record its latency; ``None`` if it raised."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
            span = tracer.begin(f"op.{op}")
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # boundary: count the failure, keep measuring
            self.fail(f"{op} raised {exc!r}")
            return None
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
                tracer.enabled = False
        self.samples[op].append(dt)
        return out

    def check_restore(
        self, op, report, source, source_max, *, levels, full=True, crc=None
    ):
        """Verify a restore against its source; returns the data's CRC."""
        if report is None:
            return None
        if report.data is None or report.levels_used != levels:
            self.fail(f"{op}: used {report.levels_used} levels, wanted {levels}")
            return None
        err = _rel_linf(source, report.data, source_max)
        if full:
            self.worst_error = max(self.worst_error, err)
        self.check(
            err <= report.achieved_error * (1 + ERROR_SLACK),
            f"{op}: error {err:.3e} above the recorded {report.achieved_error:.3e}",
        )
        got = _crc(report.data)
        self.check(crc is None or got == crc, f"{op}: restored bytes changed")
        return got

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, i: int) -> None:
        raise NotImplementedError

    def run(self, budget: Budget) -> dict:
        """The measured loop.  Returns this part's latency samples per
        operation type, its cycle count, the time spent in timed
        operations, and one throughput sample (operations / time in
        them) per cycle."""
        self.samples = defaultdict(list)
        done, ops, busy, rates = 0, 0, 0.0, []
        while budget.more(done):
            self.cycle(self._next_cycle)
            self._next_cycle += 1
            done += 1
            ops_now = sum(len(v) for v in self.samples.values())
            busy_now = sum(sum(v) for v in self.samples.values())
            if ops_now > ops:
                rates.append((ops_now - ops) / (busy_now - busy))
            ops, busy = ops_now, busy_now
        return {"samples": dict(self.samples), "cycles": done, "busy_s": busy,
                "rates": rates}

    def warm_up(self) -> None:
        """One full cycle whose latencies are thrown away."""
        self.cycle(self._next_cycle)
        self._next_cycle += 1
        self.samples = defaultdict(list)

    def finish(self) -> None:
        """Final verification after the measured loop."""

    def resident(self) -> tuple[int, int]:
        """``(stored fragment bytes, original bytes)`` of resident objects."""
        raise NotImplementedError

    def facts(self) -> dict:
        """Per-layer metrics the workload reads off results itself, after
        the traced part (no wrapper needed)."""
        return {}

    def schedule(self) -> object:
        """Every seeded decision of this workload, for the schedule digest."""
        raise NotImplementedError

    def schedule_digest(self) -> str:
        return _digest(self.schedule())

    def op_rates(self, ops: dict) -> dict:
        """Each operation type's throughput: object bytes / median latency."""
        if not self.object_bytes:
            return {}
        return {
            f"op.{op}_MBps": self.object_bytes / s["p50"] / 1e6
            for op, s in ops.items()
        }

    def close(self) -> None:
        if self.rapids is not None:
            self.rapids.catalog.close()


# -- bulk_archive ----------------------------------------------------------------

class BulkArchive(Workload):
    name = "bulk_archive"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.shape = (64, 32, 32) if smoke else (512, 128, 128)
        # Full size picks the process engine by itself (>= 32 MiB); the
        # smoke size has to ask for it.
        self.prepare_kwargs = (
            {"parallelism": "process", "tile_planes": 16} if smoke else {}
        )
        self.names = [f"bulk{k}" for k in range(4)]
        self.used: set[str] = set()
        self.crc = None

    def schedule(self):
        return {"shape": self.shape, "field_seed": self.seed}

    def setup(self):
        field = synthetic.nyx_temperature(self.shape, seed=self.seed)
        field = field.astype(np.float64)
        self.object_bytes = field.nbytes
        self.source_max = float(np.abs(field).max())
        self.path = self.workdir / "bulk.npy"
        np.save(self.path, field)
        del field
        self.source = np.load(self.path, mmap_mode="r")
        self.rapids = _build_stack(
            self.workdir, 16, Refactorer(4, num_planes=22)
        )
        self.warm_up()

    def cycle(self, i):
        name = self.names[i % len(self.names)]
        rep = self.timed(
            "prepare", self.rapids.prepare, name, self.path, **self.prepare_kwargs
        )
        if rep is None:
            return
        self.used.add(name)
        pp = rep.extra.get("procpipe", {})
        self.check(pp.get("mode") == "process", "prepare did not use the process engine")
        self.check(pp.get("arena_leaked") == [], f"arena leaked {pp.get('arena_leaked')}")
        levels = len(rep.ft_config)
        out = self.timed("restore", self.rapids.restore, name, strategy="naive")
        crc = self.check_restore(
            "restore", out, self.source, self.source_max, levels=levels, crc=self.crc
        )
        if self.crc is None:
            self.crc = crc

    def resident(self):
        return self.rapids.cluster.total_stored_bytes(), len(self.used) * self.object_bytes


# -- midsize_thread --------------------------------------------------------------

class MidsizeThread(Workload):
    name = "midsize_thread"
    FIELDS = ("hurricane_temperature", "scale_pressure", "nyx_velocity")

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.shape = (32, 32, 32) if smoke else (128, 128, 128)
        self.crcs: dict[int, int] = {}
        self.used: set[int] = set()

    def _outage_ids(self, i: int, down: int) -> list[int]:
        """``down`` = min(m_j) systems out of the largest level's
        data-fragment range: every level loses data fragments, so decode
        has to invert, yet every level stays recoverable."""
        ids = _rng(self.seed, 2, i).choice(16 - down, size=down, replace=False)
        return sorted(int(s) for s in ids)

    def schedule(self):
        return {
            "shape": self.shape,
            "fields": [[f, self.seed + k] for k, f in enumerate(self.FIELDS)],
            # min(m_j) is only known once an object is prepared; 6 at HEAD
            "outages": [self._outage_ids(i, 6) for i in range(8)],
        }

    def setup(self):
        self.fields = [
            getattr(synthetic, f)(self.shape, seed=self.seed + k).astype(np.float64)
            for k, f in enumerate(self.FIELDS)
        ]
        self.maxes = [float(np.abs(f).max()) for f in self.fields]
        self.object_bytes = self.fields[0].nbytes
        self.rapids = _build_stack(
            self.workdir, 16, Refactorer(4, num_planes=22)
        )
        self.warm_up()

    def cycle(self, i):
        k = i % len(self.fields)
        name, field, fmax = f"mid{k}", self.fields[k], self.maxes[k]
        rep = self.timed("prepare", self.rapids.prepare, name, field)
        if rep is None:
            return
        self.used.add(k)
        levels = len(rep.ft_config)
        restore = self.rapids.restore

        out = self.timed("restore", restore, name, strategy="naive")
        clean = self.check_restore(
            "restore", out, field, fmax, levels=levels, crc=self.crcs.get(k)
        )
        if clean is not None:
            self.crcs.setdefault(k, clean)

        out = self.timed(
            "restore_prefix", restore, name, strategy="naive",
            target_error=rep.level_errors[1],
        )
        self.check_restore(
            "restore_prefix", out, field, fmax, levels=2, full=False
        )

        self.rapids.cluster.fail(self._outage_ids(i, min(rep.ft_config)))
        try:
            out = self.timed("restore_outage", restore, name, strategy="naive")
        finally:
            self.rapids.cluster.restore_all()
        # Erasure decoding is exact: same bytes as the clean restore.
        self.check_restore(
            "restore_outage", out, field, fmax, levels=levels, crc=clean
        )

    def resident(self):
        return (
            self.rapids.cluster.total_stored_bytes(),
            sum(self.fields[k].nbytes for k in self.used),
        )

    def facts(self):
        """Rate of the ACO gather solver on this workload's object, by
        direct call with a fixed iteration count.  Nothing end to end
        depends on it: see the README's known gaps."""
        rec = self.rapids.catalog.get_object("mid0")
        iterations = 30 if self.smoke else 300
        t0 = time.perf_counter()
        optimized_strategy(
            [float(s) for s in rec.level_sizes], rec.ft_config,
            self.rapids.cluster.bandwidths, [],
            time_budget=float("inf"), max_iterations=iterations, seed=self.seed,
        )
        return {"gathering.aco_iters_per_s": iterations / (time.perf_counter() - t0)}


# -- service_small ---------------------------------------------------------------

TENANTS = (("alpha", 0.5), ("beta", 0.3), ("gamma", 0.2))
WORKING_SET = 32
#: A duplicate of a keyed prepare is scheduled at least this many
#: requests after the original, so with 2 requests outstanding the
#: original has committed and the duplicate must come back ``cached``
#: (never coalesced onto a live ticket: that would depend on timing).
DUPLICATE_GAP = 16


def _pareto_size(rng, alpha=1.3, lo=1 << 10, hi=1 << 16) -> int:
    """Bounded-Pareto element count (1 Ki - 64 Ki float32 = 4 - 256 KiB)."""
    u = rng.random()
    return int(lo / (1.0 - u * (1.0 - (lo / hi) ** alpha)) ** (1.0 / alpha))


def service_schedule(seed: int, count: int, prefix: str = "obj") -> list[dict]:
    """``count`` requests: 70 % restores of the working set, 30 % prepares
    of new names (bounded-Pareto sizes), half of the prepares keyed, one
    keyed prepare in ten a duplicate of an earlier one."""
    rng = _rng(seed, 3)
    names = [t for t, _ in TENANTS]
    weights = [w for _, w in TENANTS]
    out: list[dict] = []
    keyed: list[int] = []
    for i in range(count):
        tenant = names[int(rng.choice(len(names), p=weights))]
        if rng.random() < 0.7:
            out.append({"op": "restore", "tenant": tenant, "expect": "ok",
                        "name": f"ws{int(rng.integers(WORKING_SET)):02d}"})
            continue
        is_keyed = rng.random() < 0.5
        old = [j for j in keyed if j <= i - DUPLICATE_GAP]
        if is_keyed and old and rng.random() < 0.1:
            out.append({**out[old[int(rng.integers(len(old)))]], "expect": "cached"})
            continue
        if is_keyed:
            keyed.append(i)
        out.append({
            "op": "prepare", "tenant": tenant, "expect": "ok",
            "name": f"{tenant}/{prefix}{i:05d}", "size": _pareto_size(rng),
            "payload_seed": int(rng.integers(2**31)),
            "key": f"{prefix}-key-{i:05d}" if is_keyed else None,
        })
    return out


class ServiceSmall(Workload):
    name = "service_small"
    smoke_cycles = 40  # a cycle is one request here
    OUTSTANDING = 2

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        # More requests than any run gets through in its time.
        self.requests = service_schedule(seed, 80 if smoke else 3000)
        self.warm = service_schedule(seed + 1, DUPLICATE_GAP, prefix="warm")
        self.payloads: dict[str, np.ndarray] = {}
        self.position = 0
        self.service: ArchiveService | None = None
        self.user_bytes = 0
        self.results: list = []
        self.settled_at: list[float] = []

    def schedule(self):
        return {"requests": self.requests, "warm": self.warm}

    def setup(self):
        self.rapids = _build_stack(self.workdir, 8, Refactorer(4), omega=0.3)
        rng = _rng(self.seed, 4)
        for k in range(WORKING_SET):
            data = synthetic_field(int(rng.integers(2**31)), _pareto_size(rng))
            self.rapids.prepare(f"ws{k:02d}", data)
            self.user_bytes += data.nbytes
        for req in self.requests + self.warm:
            if req["op"] == "prepare" and req["name"] not in self.payloads:
                self.payloads[req["name"]] = synthetic_field(
                    req["payload_seed"], req["size"]
                )
        # Rates high enough never to shed; no deadlines, which would make
        # the work done depend on timing.
        self.service = ArchiveService(self.rapids, config=ServiceConfig(
            workers=2, bulkhead_slots=2, queue_capacity=64,
            rate=1e6, burst=1e6, default_deadline=None,
        ))
        self.service.start()
        self._drive(self.warm, Budget(0.0, len(self.warm)))
        self.samples = defaultdict(list)

    def _settle(self, req, ticket) -> None:
        res = ticket.result(timeout=0)
        self.results.append(res)
        self.settled_at.append(time.perf_counter())
        if res.status != req["expect"]:
            self.fail(f"{req['op']} {req['name']}: status {res.status} ({res.error})")
        elif req["op"] == "restore":
            self.check(res.levels_used == 4,
                       f"restore {req['name']}: {res.levels_used} levels")
            self.samples["restore"].append(res.elapsed)
        elif res.status == "cached":
            self.samples["prepare_cached"].append(res.elapsed)
        else:
            self.samples["prepare"].append(res.elapsed)
            self.user_bytes += self.payloads[req["name"]].nbytes

    def _drive(self, requests, budget: Budget) -> tuple[int, float]:
        """Keep OUTSTANDING requests in flight; returns (submitted, wall)."""
        pending: list[tuple[dict, object]] = []
        submitted = 0
        t0 = time.perf_counter()

        def reap() -> None:
            try:  # wait on the oldest, but notice the other finishing first
                pending[0][1].result(timeout=0.002)
            except TimeoutError:
                pass
            for item in [p for p in pending if p[1].done]:
                pending.remove(item)
                self._settle(*item)

        while submitted < len(requests) and budget.more(submitted):
            req = requests[submitted]
            submitted += 1
            self.attempted += 1
            try:
                ticket = self.service.submit(ServiceRequest(
                    tenant=req["tenant"], op=req["op"], name=req["name"],
                    data=self.payloads.get(req["name"]),
                    idempotency_key=req.get("key"),
                ))
            except ServiceRejected as exc:
                self.fail(f"{req['op']} {req['name']} shed: {exc.reason}")
                continue
            pending.append((req, ticket))
            while len(pending) >= self.OUTSTANDING:
                reap()
        while pending:
            reap()
        return submitted, time.perf_counter() - t0

    #: Requests per throughput sample.
    WINDOW = 50

    def run(self, budget):
        self.samples = defaultdict(list)
        self.results, self.settled_at = [], []
        if self.tracer is not None:
            self.tracer.enabled = True  # requests span threads: no op span
        submitted, wall = self._drive(self.requests[self.position:], budget)
        if self.tracer is not None:
            self.tracer.enabled = False
        self.position += submitted
        t = self.settled_at
        rates = [
            self.WINDOW / (t[i + self.WINDOW] - t[i])
            for i in range(0, len(t) - self.WINDOW, self.WINDOW)
        ] or [len(t) / wall]
        return {"samples": dict(self.samples), "cycles": submitted,
                "busy_s": wall, "rates": rates}

    def resident(self):
        return self.rapids.cluster.total_stored_bytes(), self.user_bytes

    def facts(self):
        snap = self.service.snapshot()
        n = len(self.results)
        latencies = [r.elapsed for r in self.results]
        return {
            "service.queue_wait_s": sum(r.queue_wait for r in self.results) / n,
            "service.service_time_s": sum(r.service_time for r in self.results) / n,
            "service.cached": sum(r.status == "cached" for r in self.results) / n,
            "service.coalesced": snap["coalesced"] / n,
            "service.shed": sum(snap["shed"].values()) / n,
            "service.request_p95_ms": 1e3 * stats.percentile(latencies, 95),
            "service.request_p99_ms": 1e3 * stats.percentile(latencies, 99),
        }

    def close(self):
        if self.service is not None:
            self.service.stop(drain=True)
        super().close()


# -- heal_repair -----------------------------------------------------------------

class HealRepair(Workload):
    name = "heal_repair"
    write_op = "heal"
    read_op = "scrub"
    FIELDS = ("hurricane_temperature", "scale_pressure", "nyx_velocity",
              "nyx_temperature")

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.shape = (32, 32, 32) if smoke else (128, 128, 128)
        self.reference: dict[str, int] = {}
        self.user_bytes = 0
        #: Fragments each round damages: 3 systems x every stripe.
        self.expected_damage = 0

    def _fault_plan(self, i: int) -> FaultPlan:
        a, b, c = (int(s) for s in _rng(self.seed, 5, i).choice(16, 3, replace=False))
        # Probability 1 on every fragment of three systems: three damaged
        # fragments per stripe, within every level's m_j.
        return FaultPlan(seed=self.seed + i, specs=(
            FaultSpec("storage.read", "corrupt", where={"system_id": a}),
            FaultSpec("storage.read", "corrupt", where={"system_id": b}),
            FaultSpec("storage.read", "error", where={"system_id": c}),
        ))

    def schedule(self):
        return {
            "shape": self.shape,
            "fields": [[f, self.seed + k] for k, f in enumerate(self.FIELDS)],
            "faults": [[s.where["system_id"] for s in self._fault_plan(i).specs]
                       for i in range(8)],
        }

    def setup(self):
        self.rapids = _build_stack(
            self.workdir, 16, Refactorer(4, num_planes=22)
        )
        for k, f in enumerate(self.FIELDS):
            field = getattr(synthetic, f)(self.shape, seed=self.seed + k)
            field = field.astype(np.float64)
            name = f"heal{k}"
            # Per-prefix errors are not used by this workload.
            rep = self.rapids.prepare(name, field, measure_errors=False)
            self.attempted += 1
            out = self.rapids.restore(name, strategy="naive")
            self.reference[name] = self.check_restore(
                "reference restore", out, field, float(np.abs(field).max()),
                levels=len(rep.ft_config),
            )
            self.user_bytes += field.nbytes
            self.expected_damage += 3 * len(rep.ft_config)
        self.warm_up()

    def _heal(self):
        return scrub_and_repair(
            self.rapids.cluster, self.rapids.catalog, ledger=self.rapids.ledger
        )

    def cycle(self, i):
        inflicted = inflict_at_rest(self._fault_plan(i), self.rapids.cluster)
        self.check(len(inflicted) == self.expected_damage,
                   f"round {i}: inflicted {len(inflicted)} faults")
        out = self.timed("heal", self._heal)
        if out is not None:
            scrub, repair = out
            repaired = repair.repaired if repair is not None else 0
            self.check(
                len(scrub.damage) == self.expected_damage
                and repaired == self.expected_damage
                and not repair.failures,
                f"round {i}: found {len(scrub.damage)}, repaired {repaired}",
            )
        out = self.timed("scrub", self._heal)
        if out is not None:
            self.check(out[0].clean and out[1] is None,
                       f"round {i}: second scrub still found damage")

    def op_rates(self, ops):
        out = {}
        if "heal" in ops:
            out["op.heal_fragments_per_s"] = self.expected_damage / ops["heal"]["mean"]
        if "scrub" in ops:
            stored = self.rapids.cluster.total_stored_bytes()
            out["op.scrub_MBps"] = stored / ops["scrub"]["p50"] / 1e6
        return out

    def finish(self):
        for name, crc in self.reference.items():
            self.attempted += 1
            try:
                out = self.rapids.restore(name, strategy="naive")
            except Exception as exc:  # boundary: a broken object is a failed op
                self.fail(f"final restore of {name} raised {exc!r}")
                continue
            self.check(out.data is not None and _crc(out.data) == crc,
                       f"{name} differs from its reference after healing")

    def resident(self):
        return self.rapids.cluster.total_stored_bytes(), self.user_bytes


WORKLOADS = {
    w.name: w for w in (BulkArchive, MidsizeThread, ServiceSmall, HealRepair)
}


def make_workload(name: str, seed: int, workdir, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, workdir, smoke)
