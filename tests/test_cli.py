"""Tests for the rapids CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import FTProblem, brute_force


@pytest.fixture
def array_file(tmp_path):
    x = np.linspace(0, 1, 33)
    data = np.outer(np.sin(3 * x), np.cos(2 * x)).astype(np.float32)
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


class TestRefactorReconstruct:
    def test_roundtrip(self, tmp_path, array_file, capsys):
        path, data = array_file
        outdir = tmp_path / "refactored"
        assert main(["refactor", str(path), str(outdir), "--components", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 components" in out
        assert (outdir / "manifest.rdc").exists()
        assert len(list(outdir.glob("component-*.bin"))) == 3

        result = tmp_path / "back.npy"
        assert main(["reconstruct", str(outdir), str(result)]) == 0
        back = np.load(result)
        assert back.shape == data.shape
        np.testing.assert_allclose(back, data, atol=1e-5 * np.abs(data).max())

    def test_partial_reconstruct(self, tmp_path, array_file):
        path, data = array_file
        outdir = tmp_path / "r"
        main(["refactor", str(path), str(outdir)])
        out1 = tmp_path / "lossy.npy"
        out4 = tmp_path / "full.npy"
        assert main(["reconstruct", str(outdir), str(out1), "--upto", "1"]) == 0
        assert main(["reconstruct", str(outdir), str(out4)]) == 0
        err1 = np.abs(np.load(out1) - data).max()
        err4 = np.abs(np.load(out4) - data).max()
        assert err4 <= err1

    def test_missing_components_fail(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["reconstruct", str(tmp_path / "empty"), "x.npy"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fast_mode(self, tmp_path, array_file, capsys):
        path, _ = array_file
        assert main(["refactor", str(path), str(tmp_path / "o"), "--fast"]) == 0

    def test_info(self, tmp_path, array_file, capsys):
        path, _ = array_file
        outdir = tmp_path / "r"
        main(["refactor", str(path), str(outdir)])
        capsys.readouterr()
        assert main(["info", str(outdir)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["components"] == 4
        assert info["shape"] == [33, 33]


class TestOptimizeFT:
    def test_heuristic(self, capsys):
        rc = main([
            "optimize-ft", "--sizes", "1e9,5e9,2.5e10,1.25e11",
            "--errors", "4e-3,5e-4,6e-5,1e-7",
            "--original-size", "6e11", "--omega", "0.25",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal m_j" in out

    def test_brute_force_agrees(self, capsys):
        main([
            "optimize-ft", "--sizes", "1e9,5e9,2.5e10,1.25e11",
            "--errors", "4e-3,5e-4,6e-5,1e-7",
            "--original-size", "6e11", "--omega", "0.25",
        ])
        first = capsys.readouterr().out.splitlines()[0]
        sol = brute_force(FTProblem(
            n=16, p=0.01, sizes=(1e9, 5e9, 2.5e10, 1.25e11),
            errors=(4e-3, 5e-4, 6e-5, 1e-7), original_size=6e11, omega=0.25,
        ))
        assert first == f"optimal m_j = {sol.ms}"

    def test_infeasible(self, capsys):
        rc = main([
            "optimize-ft", "--sizes", "1e11", "--errors", "1e-3",
            "--original-size", "1e11", "--omega", "0.0001",
        ])
        assert rc == 1


class TestBandwidth:
    def test_estimate(self, capsys):
        assert main(["estimate-bandwidth", "--endpoints", "4"]) == 0
        out = capsys.readouterr().out
        assert "gcs-00" in out and "GB/s" in out


class TestSimulate:
    def test_campaign(self, capsys):
        assert main(["simulate", "--epochs", "500", "--p-fail", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "mean relative error" in out

    def test_campaign_validation_error(self, capsys):
        assert main(["simulate", "--ms", "2,2,1,1"]) == 1


class TestValidate:
    def test_monte_carlo_agrees(self, capsys):
        rc = main(["validate", "--trials", "20000", "--p", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "z-score" in out

    def test_bad_config(self, capsys):
        assert main(["validate", "--ms", "1,2"]) == 1


class TestChaosPlan:
    @pytest.mark.parametrize("where", [{}, {"system_id": 99}],
                             ids=["no-id", "out-of-range"])
    def test_outage_of_no_real_system_is_an_error(self, tmp_path, capsys,
                                                   where):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 0, "specs": [
            {"site": "system.outage", "effect": "outage", "where": where},
        ]}))
        assert main(["chaos", "--plan", str(plan), "--systems", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "system" in err
