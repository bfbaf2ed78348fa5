"""Fragment-integrity tests: bit rot detected via checksums is handled
as an erasure (substitute a clean fragment), never as silent corruption."""

import numpy as np
import pytest

from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import relative_linf_error
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile


def smooth(n=33, seed=0):
    x = np.linspace(0, 1, n)
    rng = np.random.default_rng(seed)
    ph = rng.uniform(0, 2 * np.pi, 3)
    return (
        np.sin(4 * x + ph[0])[:, None, None]
        * np.cos(3 * x + ph[1])[None, :, None]
        * np.sin(2 * x + ph[2])[None, None, :]
    ).astype(np.float32)


@pytest.fixture
def rapids(tmp_path):
    cluster = StorageCluster(paper_bandwidth_profile(16))
    catalog = MetadataCatalog(tmp_path / "meta")
    system = RAPIDS(cluster, catalog, omega=0.3)
    yield system
    catalog.close()


def _corrupt(cluster, name, level, index):
    # Poke the resident fragment directly: get() now verifies the store
    # CRC, and at-rest rot does not go through the read path.
    sf = cluster[index]._store[(name, level, index)]
    payload = bytearray(sf.payload)
    payload[len(payload) // 2] ^= 0xFF
    sf.payload = bytes(payload)


class TestChecksumsRecorded:
    def test_prepare_records_checksums(self, rapids):
        rapids.prepare("obj", smooth())
        rec = rapids.catalog.get_object("obj")
        assert rec.checksums[0][0] != 0
        from repro.formats import verify

        sf = rapids.cluster[0].get("obj", 0, 0)
        assert verify(sf.payload, rec.checksums[0][0])


class TestCorruptionHandling:
    def test_single_corruption_recovered_exactly(self, rapids):
        data = smooth()
        rapids.prepare("obj", data)
        _corrupt(rapids.cluster, "obj", 1, 3)
        res = rapids.restore("obj", strategy="naive")
        assert res.levels_used == 4
        err = relative_linf_error(data, res.data)
        rec = rapids.catalog.get_object("obj")
        assert err <= rec.level_errors[-1] + 1e-12

    def test_multiple_corruptions_within_parity(self, rapids):
        data = smooth()
        prep = rapids.prepare("obj", data)
        m_top = prep.ft_config[0]
        for idx in range(min(3, m_top)):
            _corrupt(rapids.cluster, "obj", 0, idx)
        res = rapids.restore("obj", strategy="naive")
        err = relative_linf_error(data, res.data)
        assert err <= prep.level_errors[res.levels_used - 1] + 1e-12

    def test_corruption_plus_failures(self, rapids):
        data = smooth()
        prep = rapids.prepare("obj", data)
        _corrupt(rapids.cluster, "obj", 0, 15)
        rapids.cluster.fail([0, 1])
        res = rapids.restore("obj", strategy="naive")
        assert res.levels_used >= 1
        assert np.all(np.isfinite(res.data))

    def test_too_much_corruption_degrades_or_raises(self, rapids):
        data = smooth()
        prep = rapids.prepare("obj", data)
        # corrupt every fragment of the bottom level
        for idx in range(16):
            _corrupt(rapids.cluster, "obj", 3, idx)
        # restore degrades to the clean three-level prefix and says why
        res = rapids.restore("obj", strategy="naive")
        assert res.levels_used == 3
        assert res.degraded is not None
        assert res.degraded.abandoned_levels == [3]
        (failure,) = res.degraded.failures
        assert (failure.level, failure.stage) == (3, "gather")
        assert "lost" in failure.error
        assert res.degraded.corrupt_fragments == 16
        err = relative_linf_error(data, res.data)
        assert err <= prep.level_errors[2] + 1e-12

    def test_corruption_never_silently_propagates(self, rapids):
        """Whatever the corruption pattern, restored data matches the
        recorded error: corruption can reduce availability, not
        accuracy."""
        data = smooth()
        prep = rapids.prepare("obj", data)
        rng = np.random.default_rng(1)
        for _ in range(6):
            level = int(rng.integers(0, 4))
            idx = int(rng.integers(0, 16))
            _corrupt(rapids.cluster, "obj", level, idx)
        try:
            res = rapids.restore("obj", strategy="naive")
        except RuntimeError:
            return  # refusing is acceptable; lying is not
        err = relative_linf_error(data, res.data)
        assert err <= prep.level_errors[res.levels_used - 1] + 1e-12
