"""Hypothesis stateful (model-based) testing of the KV store.

Drives random interleavings of put/get/delete/reopen against a dict
model — the strongest correctness evidence for the storage engine,
because segment rollover and recovery interact with every other
operation.

The chaos rules interleave *injected* crashes with the normal workload:
torn appends (power cut mid-write) and fsync failures (write durable but
un-acked).  The invariants stay the same —
committed keys must survive every one of them.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, InjectedFault
from repro.metadata import KVStore

KEYS = st.binary(min_size=1, max_size=12)
VALUES = st.binary(max_size=64)


class KVStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="kvsm-"))
        # small segments force frequent rollover during the run
        self.store = KVStore(self.dir / "db", segment_bytes=2048)
        self.model: dict[bytes, bytes] = {}

    keys = Bundle("keys")

    @rule(target=keys, key=KEYS)
    def new_key(self, key):
        return key

    @rule(key=keys, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        assert self.store.get(key) == self.model.get(key)

    @rule(key=keys)
    def delete(self, key):
        existed = self.store.delete(key)
        assert existed == (key in self.model)
        self.model.pop(key, None)

    @rule()
    def reopen(self):
        """Simulate a clean process restart."""
        self.store.close()
        self.store = KVStore(self.dir / "db", segment_bytes=2048)

    # -- injected-fault rules (repro.chaos seam) -------------------------

    @staticmethod
    def _one_shot(site: str, effect: str, magnitude: float = 0.5) -> FaultInjector:
        return FaultInjector(FaultPlan(seed=1, specs=(
            FaultSpec(site=site, effect=effect, max_fires=1,
                      scope="site", magnitude=magnitude),
        )))

    @rule(key=keys, value=VALUES, magnitude=st.floats(0.0, 1.0))
    def torn_put_crashes_then_recovers(self, key, value, magnitude):
        """A power cut mid-append loses the un-acked put, nothing else."""
        self.store.attach_injector(self._one_shot("kvstore.put", "torn", magnitude))
        try:
            with pytest.raises(InjectedFault):
                self.store.put(key, value)
        finally:
            self.store.attach_injector(None)
        # the store is crashed: every op refuses until reopened
        with pytest.raises(RuntimeError):
            self.store.get(key)
        with pytest.raises(RuntimeError):
            self.store.put(key, value)
        self.reopen()
        # replay truncated the torn tail: committed keys intact, the
        # un-acknowledged put is gone
        assert self.store.get(key) == self.model.get(key)

    @rule(key=keys, value=VALUES)
    def fsync_failure_is_ambiguous_until_reopen(self, key, value):
        """A write that fails *after* hitting the disk: invisible to the
        live index (the put was never acked), surfaced by recovery."""
        self.store.attach_injector(self._one_shot("kvstore.fsync", "error"))
        try:
            with pytest.raises(InjectedFault):
                self.store.put(key, value)
        finally:
            self.store.attach_injector(None)
        # live view: un-acked write invisible, store still serving
        assert self.store.get(key) == self.model.get(key)
        # recovery view: the record was durable, so replay surfaces it —
        # the classic fsync ambiguity, resolved deterministically here
        self.reopen()
        assert self.store.get(key) == value
        self.model[key] = value

    @invariant()
    def length_matches(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def scan_matches(self):
        assert dict(self.store.scan()) == self.model

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)


KVStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestKVStoreStateful = KVStoreMachine.TestCase
