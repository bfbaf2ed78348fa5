"""Tests for refactored-object serialization (directory layout)."""

import numpy as np
import pytest

from repro.refactor import (
    Refactorer,
    load_directory,
    relative_linf_error,
    save_directory,
)


@pytest.fixture(scope="module")
def obj_and_data():
    x = np.linspace(0, 1, 33)
    data = (
        np.sin(3 * x)[:, None] * np.cos(5 * x)[None, :]
    ).astype(np.float32)
    return Refactorer(3, num_planes=24).refactor(data), data


class TestDirectory:
    def test_roundtrip(self, tmp_path, obj_and_data):
        obj, data = obj_and_data
        save_directory(obj, tmp_path / "out")
        back = load_directory(tmp_path / "out")
        assert back.shape == obj.shape
        assert back.payloads == obj.payloads
        assert back.errors == obj.errors
        r = Refactorer(3)
        assert relative_linf_error(data, r.reconstruct(back)) < 1e-5

    def test_partial_directory_loads(self, tmp_path, obj_and_data):
        """A directory missing trailing components (not yet gathered)
        still loads as a valid prefix."""
        obj, data = obj_and_data
        save_directory(obj, tmp_path / "p")
        (tmp_path / "p" / "component-02.bin").unlink()
        back = load_directory(tmp_path / "p")
        assert len(back.payloads) == 2
        r = Refactorer(3)
        err = relative_linf_error(data, r.reconstruct(back))
        assert err == pytest.approx(obj.errors[1], abs=1e-12)

    def test_upto(self, tmp_path, obj_and_data):
        obj, _ = obj_and_data
        save_directory(obj, tmp_path / "u")
        back = load_directory(tmp_path / "u", upto=1)
        assert len(back.payloads) == 1

    def test_empty_raises(self, tmp_path, obj_and_data):
        obj, _ = obj_and_data
        save_directory(obj, tmp_path / "e")
        for j in range(3):
            (tmp_path / "e" / f"component-{j:02d}.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_directory(tmp_path / "e")

