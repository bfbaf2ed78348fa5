"""Direct unit tests for the fragment-level ErasureCodec API."""

import numpy as np
import pytest

from repro.ec import ECConfig, ErasureCodec


class TestECConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ECConfig(4, 4)
        with pytest.raises(ValueError):
            ECConfig(4, -1)

    def test_derived_quantities(self):
        cfg = ECConfig(16, 4)
        assert cfg.k == 12


class TestErasureCodec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErasureCodec(1)
        with pytest.raises(ValueError):
            ErasureCodec(300)

    def test_encode_decode_level(self):
        codec = ErasureCodec(8)
        payload = np.random.default_rng(0).bytes(500)
        enc = codec.encode_level(payload, m=3, level_index=2)
        assert len(enc.fragments) == 8
        assert enc.level_index == 2
        assert enc.payload_size == 500
        assert enc.fragment_nbytes > 0
        assert codec.decode_level(
            config=enc.config, fragments=dict(enumerate(enc.fragments))
        ) == payload

    def test_decode_from_fragment_map(self):
        codec = ErasureCodec(8)
        payload = b"level payload" * 20
        enc = codec.encode_level(payload, m=3)
        subset = {i: enc.fragments[i] for i in (0, 2, 4, 5, 7)}
        out = codec.decode_level(config=enc.config, fragments=subset)
        assert out == payload

    def test_decode_requires_args(self):
        codec = ErasureCodec(4)
        with pytest.raises(TypeError):
            codec.decode_level()

    def test_decode_insufficient(self):
        codec = ErasureCodec(6)
        enc = codec.encode_level(b"x" * 60, m=2)
        with pytest.raises(ValueError):
            codec.decode_level(
                config=enc.config,
                fragments={0: enc.fragments[0], 1: enc.fragments[1]},
            )

    def test_repair_fragment(self):
        codec = ErasureCodec(6)
        enc = codec.encode_level(bytes(range(100)), m=2)
        available = {i: enc.fragments[i] for i in (0, 1, 3, 5)}
        for target in range(6):
            rebuilt = codec.repair_fragment(enc.config, available, target)
            assert np.array_equal(rebuilt, enc.fragments[target])

    def test_numpy_payload(self):
        codec = ErasureCodec(5)
        arr = np.arange(64, dtype=np.float32)
        enc = codec.encode_level(arr.tobytes(), m=2)
        assert enc.payload_size == arr.nbytes
        payload = codec.decode_level(
            config=enc.config, fragments=dict(enumerate(enc.fragments))
        )
        back = np.frombuffer(payload, dtype=np.float32)
        np.testing.assert_array_equal(back, arr)

    def test_zero_parity_level(self):
        codec = ErasureCodec(4)
        enc = codec.encode_level(b"no redundancy", m=0)
        assert len(enc.fragments) == 4
        assert codec.decode_level(
            config=enc.config, fragments=dict(enumerate(enc.fragments))
        ) == b"no redundancy"

    def test_codes_cached(self):
        from repro.ec.codec import _code

        a = _code(4, 2)
        b = _code(4, 2)
        assert a is b
