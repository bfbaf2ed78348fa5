"""Edge-case hardening tests across the stack."""

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, relative_linf_error, transform
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile


class TestRefactorerInputs:
    def test_rejects_nan(self):
        data = np.ones((9, 9), dtype=np.float32)
        data[3, 3] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            Refactorer(2).refactor(data)

    def test_rejects_inf(self):
        data = np.ones((9, 9), dtype=np.float64)
        data[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            Refactorer(2).refactor(data)

    def test_constant_field(self):
        data = np.full((17, 17), 7.25, dtype=np.float32)
        r = Refactorer(2)
        obj = r.refactor(data)
        back = r.reconstruct(obj)
        assert relative_linf_error(data, back) < 1e-6

    def test_all_zero_field(self):
        data = np.zeros((17, 17), dtype=np.float32)
        r = Refactorer(2)
        obj = r.refactor(data)
        back = r.reconstruct(obj)
        assert np.all(back == 0)
        assert obj.data_max == 0.0

    def test_negative_only_field(self):
        data = -np.abs(
            np.random.default_rng(0).normal(size=(17, 17))
        ).astype(np.float32) - 1.0
        r = Refactorer(3)
        obj = r.refactor(data)
        back = r.reconstruct(obj)
        assert relative_linf_error(data, back) < 1e-5

    def test_tiny_magnitudes(self):
        data = (1e-30 * np.random.default_rng(1).normal(size=(17, 17))).astype(
            np.float64
        )
        r = Refactorer(2, num_planes=20)
        obj = r.refactor(data)
        back = r.reconstruct(obj)
        assert relative_linf_error(data, back) < 1e-4

    def test_huge_magnitudes(self):
        data = (1e30 * np.random.default_rng(2).normal(size=(17, 17))).astype(
            np.float64
        )
        r = Refactorer(2, num_planes=20)
        back = r.reconstruct(r.refactor(data))
        assert relative_linf_error(data, back) < 1e-4


class TestTransformLayouts:
    def test_fortran_order_input(self):
        u = np.asfortranarray(np.random.default_rng(0).normal(size=(17, 9)))
        mallat, plans = transform.decompose(u)
        back = transform.recompose(mallat, plans)
        np.testing.assert_allclose(back, u, atol=1e-10)

    def test_non_contiguous_view(self):
        base = np.random.default_rng(1).normal(size=(34, 18))
        u = base[::2, ::2]  # strided view, shape (17, 9)
        mallat, plans = transform.decompose(u)
        back = transform.recompose(mallat, plans)
        np.testing.assert_allclose(back, u, atol=1e-10)

    def test_refactor_does_not_mutate_input(self):
        data = np.random.default_rng(3).normal(size=(17, 17)).astype(np.float32)
        copy = data.copy()
        Refactorer(2).refactor(data)
        np.testing.assert_array_equal(data, copy)


class TestPipelineEdges:
    @pytest.fixture
    def rapids(self, tmp_path):
        cluster = StorageCluster(paper_bandwidth_profile(16))
        catalog = MetadataCatalog(tmp_path / "meta")
        system = RAPIDS(cluster, catalog, omega=0.3)
        yield system
        catalog.close()

    @staticmethod
    def _field(seed=0):
        rng = np.random.default_rng(seed)
        x = np.linspace(0, 1, 33)
        ph = rng.uniform(0, 2 * np.pi, 3)
        return (
            np.sin(4 * x + ph[0])[:, None, None]
            * np.cos(3 * x + ph[1])[None, :, None]
            * np.sin(2 * x + ph[2])[None, None, :]
        ).astype(np.float32)

    def test_re_prepare_overwrites(self, rapids):
        a = self._field(0)
        b = self._field(1)
        rapids.prepare("obj", a)
        rapids.prepare("obj", b)
        res = rapids.restore("obj", strategy="naive")
        assert relative_linf_error(b, res.data) < 1e-4
        assert relative_linf_error(a, res.data) > 1e-2

    def test_unicode_object_names(self, rapids):
        data = self._field()
        name = "simulación:θ/φ"
        rapids.prepare(name, data)
        res = rapids.restore(name, strategy="naive")
        assert relative_linf_error(data, res.data) < 1e-4

    def test_progressive_restore(self, rapids):
        data = self._field()
        prep = rapids.prepare("obj", data)
        reports = list(rapids.restore_progressive("obj"))
        assert [r.levels_used for r in reports] == [1, 2, 3, 4]
        errs = [relative_linf_error(data, r.data) for r in reports]
        assert errs == sorted(errs, reverse=True)
        latencies = [r.gathering_latency for r in reports]
        assert latencies[0] < latencies[-1]

    def test_progressive_restore_under_failures(self, rapids):
        data = self._field()
        prep = rapids.prepare("obj", data)
        n_fail = prep.ft_config[-1] + 1
        injector = FaultInjector(FaultPlan.outages(range(n_fail)))
        rapids.attach_injector(injector)
        injector.apply_outages(rapids.cluster)
        reports = list(rapids.restore_progressive("obj"))
        assert len(reports) < 4
        assert reports[-1].levels_used == len(reports)

    @pytest.mark.parametrize("case", ["hurricane", "constant"])
    def test_progressive_restore_reaches_an_exact_level(self, rapids, case):
        """A level whose recorded error is 0 is still delivered."""
        from repro.datasets import hurricane_pressure

        data = (
            hurricane_pressure((17, 33, 33)) if case == "hurricane"
            else np.full((17, 17, 17), 3.5, dtype=np.float32)
        )
        prep = rapids.prepare("obj", data)
        assert prep.level_errors[-1] == 0.0
        used = [r.levels_used for r in rapids.restore_progressive("obj")]
        assert used == sorted(set(used))
        assert used[-1] == 4
        if case == "hurricane":
            assert used == [1, 2, 3, 4]

    def test_progressive_restore_stops_where_headroom_is_lost(self, rapids):
        """A level the scrubber knows to be lost caps every later yield:
        the prefix below it is yielded once, not once per level."""
        from repro.datasets import nyx_temperature

        prep = rapids.prepare("obj", nyx_temperature((32, 32, 32)))
        assert min(prep.level_errors) > 0
        rapids.ledger.set_headroom(rapids.ledger.get("obj", 2), -1)
        reports = list(rapids.restore_progressive("obj"))
        assert [r.levels_used for r in reports] == [1, 2]
