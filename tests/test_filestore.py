"""Tests for the file-backed storage cluster and CLI workflows on it."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import RAPIDS
from repro.metadata import MetadataCatalog
from repro.refactor import relative_linf_error
from repro.storage import (
    FileStorageCluster,
    StorageCluster,
    StoredFragment,
    UnavailableError,
)

from .test_storage import place


@pytest.fixture
def cluster(tmp_path):
    return FileStorageCluster(tmp_path / "cl", bandwidths=[1e9] * 6)


class TestFileSystemBackend:
    def test_put_get_roundtrip(self, cluster):
        cluster[0].put(StoredFragment("obj:a", 1, 2, 5, b"hello"))
        got = cluster[0].get("obj:a", 1, 2)
        assert got.payload == b"hello"
        assert got.object_name == "obj:a"
        assert got.level == 1 and got.index == 2

    def test_requires_payload(self, cluster):
        with pytest.raises(ValueError):
            cluster[0].put(StoredFragment("o", 0, 0, 10, None))

    def test_missing_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster[0].get("ghost", 0, 0)
        with pytest.raises(KeyError):
            cluster[0].delete("ghost", 0, 0)

    def test_availability_marker(self, cluster):
        cluster[1].put(StoredFragment("o", 0, 0, 1, b"x"))
        cluster.fail([1])
        assert cluster.failed_ids() == [1]
        with pytest.raises(UnavailableError):
            cluster[1].get("o", 0, 0)
        cluster.restore_all()
        assert cluster[1].get("o", 0, 0).payload == b"x"

    def test_persistence_across_reopen(self, tmp_path):
        c1 = FileStorageCluster(tmp_path / "p", bandwidths=[1e9, 2e9])
        place(c1, "obj", 0, [b"a", b"b"])
        c1.fail([0])
        c2 = FileStorageCluster(tmp_path / "p")  # reopen from cluster.json
        assert c2.n == 2
        assert c2.bandwidths[1] == 2e9
        assert c2.failed_ids() == [0]
        assert c2.fetch("obj", 0, 1).payload == b"b"

    def test_open_missing_without_config(self, tmp_path):
        with pytest.raises(ValueError):
            FileStorageCluster(tmp_path / "nope")

    def test_locate_skips_failed_systems(self, cluster):
        place(cluster, "obj", 2, [b"x"] * 6)
        assert cluster.locate("obj", 2) == {i: i for i in range(6)}
        cluster.fail([0, 1])
        assert cluster.locate("obj", 2) == {i: i for i in range(2, 6)}

    def test_used_bytes(self, cluster):
        assert cluster.total_stored_bytes() == 0
        place(cluster, "obj", 0, [b"abcd"] * 3)
        assert cluster.total_stored_bytes() > 0


class TestNamesOnlyInventory:
    """The file name is the inventory; the header is the self-description."""

    def test_a_torn_file_does_not_poison_other_lookups(self, cluster):
        place(cluster, "a", 0, [b"aaaa"] * 6)
        place(cluster, "b", 0, [b"bbbb"] * 6)
        path = cluster[1].root / "a.l0.f01.rdc"
        path.write_bytes(path.read_bytes()[:20])
        assert cluster.locate("b", 0) == {i: i for i in range(6)}
        # The torn file is resident, as has() says; reading it is what
        # finds the damage.
        assert cluster.locate("a", 0) == {i: i for i in range(6)}
        assert cluster[1].has("a", 0, 1)
        with pytest.raises(ValueError):
            cluster[1].get("a", 0, 1)
        assert ("a", 0, 1) not in cluster[1].fragment_keys()
        assert ("b", 0, 1) in cluster[1].fragment_keys()

    def test_fragment_keys_are_the_unsanitised_names(self, cluster):
        for name in ("__tmp__/x", "x@g1", "run:7/T[0]*?.l3.f01"):
            cluster[2].put(StoredFragment(name, 3, 104, 2, b"hi"))
        assert sorted(cluster[2].fragment_keys()) == [
            ("__tmp__/x", 3, 104), ("run:7/T[0]*?.l3.f01", 3, 104),
            ("x@g1", 3, 104),
        ]
        # Listing never opens a file; it sees the stored (sanitised) names.
        (cluster[2].root / "notes.txt").write_text("not a fragment")
        (cluster[2].root / "x.l1.f001.rdc").write_text("has() cannot ask")
        sizes = {p.name: p.stat().st_size for p in cluster[2].root.glob("*.rdc")}
        assert cluster[2].resident() == [
            ("__tmp___x", 3, 104, sizes["__tmp___x.l3.f104.rdc"]),
            ("run_7_T[0]*?.l3.f01", 3, 104,
             sizes["run_7_T[0]*?.l3.f01.l3.f104.rdc"]),
            ("x@g1", 3, 104, sizes["x@g1.l3.f104.rdc"]),
        ]
        assert cluster.locate("run:7/T[0]*?.l3.f01", 3) == {104: 2}
        assert cluster.locate("run:7/T[0]*?", 3) == {}


    def test_header_reads_go_through_the_read_seam(self, cluster):
        from repro.chaos import FaultInjector, FaultPlan, FaultSpec, InjectedFault

        place(cluster, "obj", 0, [b"abcd"] * 6)
        for effect, where in (("corrupt", {}), ("error", {"system_id": 2})):
            cluster.attach_injector(FaultInjector(FaultPlan(seed=0, specs=(
                FaultSpec(site="filestore.read", effect=effect, where=where),
            ))))
            # No payload is read, so there is nothing to corrupt ...
            assert cluster[1].fragment_keys() == [("obj", 0, 1)]
        # ... but a plan can fail the read itself.
        with pytest.raises(InjectedFault):
            cluster[2].fragment_keys()


@pytest.mark.parametrize("on_files", [False, True], ids=["memory", "files"])
def test_inventory_locate_and_has_agree(tmp_path, on_files):
    """One answer to "who holds what", whichever way it is asked: with
    a system down and a duplicate copy on a second system."""
    bandwidths = [1e9] * 6
    cluster = (
        FileStorageCluster(tmp_path / "cl", bandwidths=bandwidths)
        if on_files else StorageCluster(bandwidths)
    )
    place(cluster, "obj:a", 1, [b"0123456789"] * 6)
    place(cluster, "other", 1, [b"xy"] * 4)
    cluster[4].put(StoredFragment("obj:a", 1, 2, 10, b"0123456789"))
    cluster[5].delete("obj:a", 1, 5)
    cluster.fail([3])

    inv = cluster.inventory()
    assert inv.available == set(cluster.available_ids()) == {0, 1, 2, 4, 5}
    assert inv.used_bytes == {s.system_id: s.used_bytes for s in cluster.systems}
    assert sum(inv.used_bytes.values()) == cluster.total_stored_bytes()
    for name, width in (("obj:a", 6), ("other", 4), ("ghost", 0)):
        holders = inv.holders(name, 1)
        probed = {
            idx: [s.system_id for s in cluster.systems
                  if s.available and s.has(name, 1, idx)]
            for idx in range(6)
        }
        assert holders == {i: sids for i, sids in probed.items() if sids}
        assert cluster.locate(name, 1) == {
            idx: sids[-1] for idx, sids in holders.items()
        }
        assert len(inv.holders(name, 1)) <= width
    assert inv.holders("obj:a", 1) == {0: [0], 1: [1], 2: [2, 4], 4: [4]}
    assert inv.holders("obj:a", 0) == {}

    # A snapshot does not follow the store; refresh() re-probes one key.
    cluster[4].delete("obj:a", 1, 2)
    assert inv.holders("obj:a", 1)[2] == [2, 4]
    inv.refresh(cluster[4], "obj:a", 1, 2)
    assert inv.holders("obj:a", 1)[2] == [2]
    assert inv.used_bytes[4] == cluster[4].used_bytes


class TestPipelineOnFiles:
    def test_full_prepare_restore(self, tmp_path):
        x = np.linspace(0, 1, 33)
        data = (
            np.sin(3 * x)[:, None, None]
            * np.cos(2 * x)[None, :, None]
            * np.sin(4 * x)[None, None, :]
        ).astype(np.float32)
        from repro.transfer import paper_bandwidth_profile

        cluster = FileStorageCluster(
            tmp_path / "cl16", bandwidths=paper_bandwidth_profile(16)
        )
        with MetadataCatalog(tmp_path / "meta") as catalog:
            rapids = RAPIDS(cluster, catalog, omega=0.3)
            prep = rapids.prepare("obj", data)
            cluster.fail([0, 2])
            res = rapids.restore("obj", strategy="naive")
            assert res.levels_used == 4
            err = relative_linf_error(data, res.data)
            assert err <= prep.level_errors[-1] + 1e-12


class TestCLIWorkflows:
    def test_prepare_then_restore(self, tmp_path, capsys):
        x = np.linspace(0, 1, 33)
        data = np.outer(np.sin(5 * x), np.cos(3 * x)).astype(np.float32)
        np.save(tmp_path / "field.npy", data)
        ws = str(tmp_path / "ws")
        rc = main([
            "prepare", str(tmp_path / "field.npy"), "demo:field",
            "--workspace", ws, "--omega", "0.3",
        ])
        assert rc == 0
        assert "expected relative error" in capsys.readouterr().out

        out = tmp_path / "back.npy"
        rc = main([
            "restore", "demo:field", str(out),
            "--workspace", ws, "--failed", "1,4,7",
        ])
        assert rc == 0
        back = np.load(out)
        assert back.shape == data.shape
        assert relative_linf_error(data, back) < 1e-3

    def test_restore_with_target_error(self, tmp_path, capsys):
        x = np.linspace(0, 1, 33)
        data = np.outer(np.sin(5 * x), np.cos(3 * x)).astype(np.float32)
        np.save(tmp_path / "f.npy", data)
        ws = str(tmp_path / "ws")
        main(["prepare", str(tmp_path / "f.npy"), "o", "--workspace", ws])
        capsys.readouterr()
        rc = main([
            "restore", "o", str(tmp_path / "o.npy"),
            "--workspace", ws, "--target-error", "0.5",
        ])
        assert rc == 0
        assert "levels used 1" in capsys.readouterr().out

    @staticmethod
    def _field(tmp_path):
        x = np.linspace(0, 1, 33)
        data = np.outer(np.sin(5 * x), np.cos(3 * x)).astype(np.float32)
        data = np.broadcast_to(data, (33, 33, 33)).copy()
        np.save(tmp_path / "f.npy", data)

    def test_restore_under_catastrophe(self, tmp_path, capsys):
        self._field(tmp_path)
        ws = str(tmp_path / "ws")
        assert main(
            ["prepare", str(tmp_path / "f.npy"), "o", "--workspace", ws]
        ) == 0
        rc = main([
            "restore", "o", str(tmp_path / "o.npy"),
            "--workspace", ws, "--failed", ",".join(str(i) for i in range(15)),
        ])
        assert rc == 2

    def test_restore_unknown_object(self, tmp_path, capsys):
        self._field(tmp_path)
        ws = str(tmp_path / "ws")
        assert main(
            ["prepare", str(tmp_path / "f.npy"), "o", "--workspace", ws]
        ) == 0
        rc = main(["restore", "ghost", "x.npy", "--workspace", ws])
        assert rc == 1
