"""The lossless stage: predicted raw, level 1 for what compresses.

The encoder decides per blob, from ``sign_offsets`` and two counts over
the new signs, whether zlib is asked at all.  Pinned here:

* every payload round-trips bit-identically and no blob is ever stored
  larger than raw + its marker, on any data;
* what *not asking* costs against "level 6 on every blob" (the parent's
  rule, kept below as :func:`deflate6`) on the perfbench fields, the
  golden object and degenerate data;
* payloads written by the parent's rule still decode;
* a short or mis-marked blob is an error, not silently wrong signs.
"""

import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RAPIDS
from repro.datasets import hurricane_temperature, synthetic
from repro.metadata import MetadataCatalog
from repro.refactor import Refactorer, components, kernels
from repro.refactor.bitplane import PlaneSet, decode_planes, encode_planes
from repro.storage import StorageCluster
from repro.transfer import paper_bandwidth_profile

PERFBENCH_FIELDS = (
    "hurricane_temperature", "scale_pressure", "nyx_velocity",
    "nyx_temperature",
)


def deflate6(payload: bytes) -> bytes:
    """The parent commit's blob rule: level 6 on everything, raw if the
    result is no smaller."""
    z = zlib.compress(payload, 6)
    return b"\x01" + z if len(z) < len(payload) else b"\x00" + payload


def rewrite(payload: bytes, edit) -> bytes:
    """Re-serialise a component with every plane's ``(bits_blob,
    sign_blob)`` pair replaced by ``edit(bits_blob, sign_blob)``."""
    index, entries = components.component_from_bytes(payload)
    comp, metas = components.Component(index), {}
    for ref, blob, meta in entries:
        metas[ref.group] = PlaneSet(*meta)
        comp.entries.append(
            (ref, kernels.frame(*edit(*kernels.unframe(blob))))
        )
    return components.component_to_bytes(comp, metas)


def blob_sizes(obj):
    """``(stored, level-6, raw-stored, level-6 of those)`` blob bytes."""
    stored = six = raw = raw_six = 0
    for payload in obj.payloads:
        for _ref, blob, _meta in components.component_from_bytes(payload)[1]:
            for part in kernels.unframe(blob):
                ref6 = len(deflate6(kernels.inflate(part)))
                stored += len(part)
                six += ref6
                if part[:1] == b"\x00":
                    raw += len(part)
                    raw_six += ref6
    return stored, six, raw, raw_six


def convex(n=40, dtype=np.float64):
    """Every detail coefficient has the same sign."""
    ax = np.linspace(-1.0, 1.0, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return (x**2 + 2 * y**2 + z**2 + 3.0).astype(dtype)


# -- (a) round trip and the never-larger guarantee -------------------------


@st.composite
def coefficient_arrays(draw):
    size = draw(st.sampled_from([1, 2, 7, 8, 9, 95, 96, 1000, 4097, 10_000]))
    kind = draw(st.sampled_from(
        ["noise", "smooth", "one-signed", "constant", "zero", "sparse"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.linspace(0.0, 1.0, size)
    if kind == "noise":
        c = rng.normal(size=size)
    elif kind == "smooth":
        c = np.sin(7.0 * t + rng.uniform(0, 6)) * np.exp(-3.0 * t)
    elif kind == "one-signed":
        c = -np.exp(-5.0 * t) * rng.uniform(0.5, 1.0, size)
    elif kind == "constant":
        c = np.full(size, rng.normal())
    elif kind == "zero":
        c = np.zeros(size)
    else:
        c = rng.normal(size=size) * (rng.random(size) < 0.02)
    return c.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(c=coefficient_arrays(), num_planes=st.integers(1, 60))
    def test_any_data_round_trips_and_is_never_stored_larger(
        self, c, num_planes
    ):
        qg = kernels.quantise(c, num_planes)
        ps = encode_planes(c, num_planes=num_planes)
        want = kernels.dequantise(qg.decoded())
        assert decode_planes(ps).tobytes() == want.tobytes()
        for i, blob in enumerate(ps.planes):
            new = int(qg.sign_offsets[i + 1] - qg.sign_offsets[i])
            raw = (qg.count + 7) // 8 + (new + 7) // 8
            assert len(blob) <= raw + 2 + 4  # two markers, the frame length


# -- (b) what predicting costs --------------------------------------------


def _cost_cases():
    for k, name in enumerate(PERFBENCH_FIELDS):
        yield name, lambda name=name, k=k: getattr(synthetic, name)(
            (64, 64, 64), seed=7 + k
        ).astype(np.float64)
    yield "golden", lambda: hurricane_temperature((48, 48, 48), seed=5)


class TestCostOfPredicting:
    @pytest.mark.parametrize(
        "make", [pytest.param(m, id=n) for n, m in _cost_cases()]
    )
    def test_within_a_percent_of_level_6_everywhere(self, make):
        obj = Refactorer(4, num_planes=22).refactor(
            make(), measure_errors=False
        )
        stored, six, raw, raw_six = blob_sizes(obj)
        total = sum(obj.sizes)
        # Blobs stored raw (unasked, or asked and no smaller): what a
        # level-6 attempt would have saved on them.
        assert raw - raw_six <= 0.002 * total
        assert total <= 1.01 * (total - stored + six)


# -- (c) degenerate data ---------------------------------------------------


class TestDegenerateData:
    """One-signed detail and constant fields: the sign guard keeps their
    signs compressing, and nothing that level 6 would shrink is stored
    raw.  What is left is level 1's own price on planes that are almost
    empty — 17 % and 7 % here, of objects 60x smaller than their
    input."""

    @pytest.mark.parametrize("data", [
        pytest.param(convex(), id="convex"),
        pytest.param(convex(dtype=np.float32), id="convex-f32"),
        pytest.param(np.full((33, 33, 33), 5.0), id="constant"),
        pytest.param(np.zeros((20, 20, 20)), id="zero"),
    ])
    def test_nothing_compressible_is_stored_raw(self, data):
        obj = Refactorer(4, num_planes=22).refactor(data)
        stored, six, raw, raw_six = blob_sizes(obj)
        total = sum(obj.sizes)
        assert raw - raw_six <= 0.002 * total
        assert total <= 1.25 * (total - stored + six)

    def test_one_signed_signs_are_asked_and_compress(self):
        qg = kernels.quantise(-np.linspace(1.0, 1.9, 4000), 12)
        assert qg.sign_offsets[1] == 4000  # all significant in plane 0
        assert kernels.signs_compressible(qg.sign)
        blob = kernels._plane_blob_job((qg, 0))
        assert kernels.unframe(blob)[1][:1] == b"\x01"

    def test_coherent_signs_are_asked_random_ones_are_not(self):
        t = np.arange(4000)
        assert kernels.signs_compressible((t // 500) % 2 == 1)  # long runs
        rng = np.random.default_rng(0)
        assert not kernels.signs_compressible(rng.random(4000) < 0.5)
        assert kernels.signs_compressible(rng.random(4000) < 0.2)  # lopsided
        assert not kernels.signs_compressible(np.zeros(0, dtype=bool))


# -- (d) payloads of the parent's encoder still decode ----------------------


class TestBackwardCompatibility:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec", [
        pytest.param(deflate6, id="level-6"),
        pytest.param(lambda raw: b"\x00" + raw, id="all-raw"),
    ])
    def test_other_codec_choices_reconstruct_identically(self, codec, dtype):
        """The decoder reads the marker; which blobs the writer chose to
        zlib, and at what level, is not its business."""
        data = hurricane_temperature((30, 31, 32), seed=9).astype(dtype)
        ref = Refactorer(4, num_planes=22)
        obj = ref.refactor(data)
        old = [
            rewrite(p, lambda bits, signs: (
                codec(kernels.inflate(bits)), codec(kernels.inflate(signs)),
            ))
            for p in obj.payloads
        ]
        assert old != obj.payloads
        for upto in (1, 2, 4):
            assert (
                ref.reconstruct(obj, upto=upto, payloads=old).tobytes()
                == ref.reconstruct(obj, upto=upto).tobytes()
            )


# -- malformed blobs are errors --------------------------------------------


def _cut_a_sign_blob(bits, signs):
    """Drop the last byte of a raw sign blob that has at least two."""
    if signs[:1] == b"\x00" and len(signs) > 2:
        return bits, signs[:-1]
    return bits, signs


def _flip_a_marker(bits, signs):
    return b"\x02" + bits[1:], signs


TAMPERS = [
    pytest.param(_cut_a_sign_blob, "does not hold .* sign bits", id="cut-signs"),
    pytest.param(_flip_a_marker, "unknown codec marker", id="flipped-marker"),
]


def _tampered(payload, tamper):
    """``payload`` with ``tamper`` applied to the first plane it changes."""
    done = []

    def once(bits, signs):
        out = (bits, signs) if done else tamper(bits, signs)
        if out != (bits, signs):
            done.append(True)
        return out

    bad = rewrite(payload, once)
    assert done
    return bad


class TestMalformedBlobs:
    def test_inflate_rejects_unknown_and_missing_markers(self):
        assert kernels.inflate(b"\x00abc") == b"abc"
        for blob in (b"", b"\x02abc", b"\xffabc"):
            with pytest.raises(ValueError, match="unknown codec marker"):
                kernels.inflate(blob)

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_reconstruct_raises(self, tamper, message):
        data = hurricane_temperature((24, 25, 26), seed=4)
        ref = Refactorer(4, num_planes=22)
        obj = ref.refactor(data)
        payloads = obj.payloads[:3] + [_tampered(obj.payloads[3], tamper)]
        with pytest.raises(ValueError, match=message):
            ref.reconstruct(obj, payloads=payloads)
        # the prefix before the bad component is untouched
        assert (
            ref.reconstruct(obj, upto=3, payloads=payloads).tobytes()
            == ref.reconstruct(obj, upto=3).tobytes()
        )

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_restore_degrades_to_the_shorter_prefix(
        self, tmp_path, monkeypatch, tamper, message
    ):
        """A deepest-level payload that passes EC and CRC but holds a
        malformed blob costs that level, not the signs of the result."""
        data = hurricane_temperature((24, 25, 26), seed=4)
        catalog = MetadataCatalog(tmp_path / "meta")
        try:
            rapids = RAPIDS(
                StorageCluster(paper_bandwidth_profile(16)), catalog,
                refactorer=Refactorer(4, num_planes=22), omega=0.25,
            )
            rep = rapids.prepare("obj", data)
            clean = rapids.restore(
                "obj", strategy="naive", target_error=rep.level_errors[2]
            )
            real = rapids._decode_levels

            def decode_levels(*args, **kwargs):
                rows = real(*args, **kwargs)
                rows[-1] = [_tampered(p, tamper) for p in rows[-1]]
                return rows

            monkeypatch.setattr(rapids, "_decode_levels", decode_levels)
            res = rapids.restore("obj", strategy="naive")
            assert res.levels_used == 3 == clean.levels_used
            (failure,) = res.degraded.failures
            assert (failure.level, failure.stage) == (3, "pipeline")
            assert failure.error.startswith("ValueError(")
            assert re.search(message, failure.error)
            assert res.data.tobytes() == clean.data.tobytes()
        finally:
            catalog.close()
