"""Serialisation of refactored objects.

A :class:`~repro.refactor.refactorer.RefactoredObject` round-trips to a
directory: one file per component plus a manifest — the layout fragments
ship in, so a partially gathered directory still loads.  The manifest is
a self-describing container, so the artifact identifies itself.
"""

from __future__ import annotations

from pathlib import Path

from ..formats import Container
from .grid import LevelPlan
from .refactorer import RefactoredObject

__all__ = [
    "save_directory",
    "load_directory",
]


def _manifest_attrs(obj: RefactoredObject) -> dict:
    return {
        "shape": list(obj.shape),
        "dtype": obj.dtype,
        "plans": [
            [list(p.fine_shape), list(p.coarse_shape), list(p.coarsened_axes)]
            for p in obj.plans
        ],
        "errors": obj.errors,
        "bounds": obj.bounds,
        "data_max": obj.data_max,
        "correction": obj.correction,
        "num_components": obj.num_components,
    }


def _object_from_attrs(attrs: dict, payloads: list[bytes]) -> RefactoredObject:
    return RefactoredObject(
        shape=tuple(attrs["shape"]),
        dtype=attrs["dtype"],
        plans=[
            LevelPlan(tuple(f), tuple(c), tuple(a))
            for f, c, a in attrs["plans"]
        ],
        payloads=payloads,
        errors=attrs["errors"][: len(payloads)],
        bounds=attrs["bounds"][: len(payloads)],
        data_max=attrs["data_max"],
        correction=attrs["correction"],
    )


# -- directory layout -------------------------------------------------------


def save_directory(obj: RefactoredObject, outdir: str | Path) -> None:
    """Write ``manifest.rdc`` plus one ``component-XX.bin`` per component."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    Container(_manifest_attrs(obj)).write(outdir / "manifest.rdc")
    for j, payload in enumerate(obj.payloads):
        (outdir / f"component-{j:02d}.bin").write_bytes(payload)


def load_directory(
    indir: str | Path, *, upto: int | None = None
) -> RefactoredObject:
    """Load a refactored object; tolerates a missing component suffix.

    ``upto`` loads only the first N components even when more exist.
    """
    indir = Path(indir)
    manifest = Container.read(indir / "manifest.rdc")
    total = manifest.attrs["num_components"]
    limit = total if upto is None else min(upto, total)
    payloads = []
    for j in range(limit):
        path = indir / f"component-{j:02d}.bin"
        if not path.exists():
            break
        payloads.append(path.read_bytes())
    if not payloads:
        raise FileNotFoundError(f"no components found under {indir}")
    return _object_from_attrs(manifest.attrs, payloads)

