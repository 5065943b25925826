import struct

import numpy as np
import pytest

from gradpipe.compression import (
    Codec,
    CompressedBlock,
    HEADER_BYTES,
    compress,
    decompress,
    deserialize_block,
    payload_size,
    serialize_block,
    wire_size,
)
from gradpipe.errors import CodecError, CorruptBlockError

MIN_NORMAL = np.float32(2.0**-126)
MAX_FINITE = np.float32(np.finfo(np.float32).max)


def roundtrip(vec, codec):
    return decompress(compress(np.asarray(vec, np.float32), codec))


def trunc16_oracle(x):
    """Bit-level oracle: round the low halfword, ties to even, clamp inf."""
    bits = np.float32(x).view(np.uint32) if isinstance(x, np.float32) else np.array([x], "<f4").view("<u4")[0]
    bits = int(np.array([x], "<f4").view("<u4")[0])
    half, low = bits >> 16, bits & 0xFFFF
    if low > 0x8000 or (low == 0x8000 and half & 1):
        half += 1
    if (half & 0x7FFF) == 0x7F80:
        half -= 1
    return np.array([half << 16], "<u4").view("<f4")[0]


class TestTrunc16:
    def test_one_is_exact(self):
        block = compress(np.array([1.0], np.float32), Codec.TRUNC16)
        (halfword,) = struct.unpack("<H", block.payload)
        assert halfword == 0x3F80
        assert decompress(block)[0] == 1.0

    def test_pi_truncates_to_3_140625(self):
        pi = np.float32(np.pi)  # bits 0x40490FDB
        block = compress(np.array([pi], np.float32), Codec.TRUNC16)
        (halfword,) = struct.unpack("<H", block.payload)
        assert halfword == 0x4049
        assert decompress(block)[0] == np.float32(3.140625)

    def test_matches_bitlevel_oracle(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [
                rng.normal(0, 1, 500),
                rng.normal(0, 1e4, 250),
                rng.normal(0, 1e-4, 250),
            ]
        ).astype(np.float32)
        got = roundtrip(values, Codec.TRUNC16)
        want = np.array([trunc16_oracle(v) for v in values], np.float32)
        assert np.array_equal(got, want)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(1)
        values = (rng.normal(0, 1, 20_000) * 10.0 ** rng.integers(-20, 20, 20_000))
        values = values.astype(np.float32)
        values = values[np.abs(values) >= float(MIN_NORMAL)]
        out = roundtrip(values, Codec.TRUNC16)
        rel = np.abs(out.astype(np.float64) - values.astype(np.float64)) / np.abs(
            values.astype(np.float64)
        )
        assert rel.max() <= 2.0**-8

    def test_edge_values(self):
        edges = np.array(
            [0.0, MIN_NORMAL, -MIN_NORMAL, MAX_FINITE, -MAX_FINITE], np.float32
        )
        out = roundtrip(edges, Codec.TRUNC16)
        assert np.isfinite(out).all()
        assert out[0] == 0.0
        assert out[1] == MIN_NORMAL and out[2] == -MIN_NORMAL
        rel = np.abs(out[3:].astype(np.float64) - edges[3:].astype(np.float64)) / np.abs(
            edges[3:].astype(np.float64)
        )
        assert rel.max() <= 2.0**-8


class TestQuant8:
    def test_spec_example_vector(self):
        block = compress(np.array([0.0, 1.0, -1.0, 0.5], np.float32), Codec.QUANT8)
        codes = np.frombuffer(block.payload, np.int8)
        assert list(codes) == [0, 127, -127, 64]
        assert block.scale == pytest.approx(1 / 127, rel=1e-4)
        out = decompress(block)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0, rel=1e-4)
        assert out[2] == pytest.approx(-1.0, rel=1e-4)
        assert out[3] == pytest.approx(0.50394, rel=1e-3)

    def test_half_step_error_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = (rng.normal(0, 1, 256) * 10.0 ** rng.integers(-3, 4)).astype(np.float32)
            out = roundtrip(v, Codec.QUANT8)
            bound = np.abs(v).max() / 254.0
            assert np.abs(out.astype(np.float64) - v.astype(np.float64)).max() <= bound

    def test_zero_vector_exact(self):
        block = compress(np.zeros(33, np.float32), Codec.QUANT8)
        assert block.scale == 0.0
        assert np.array_equal(decompress(block), np.zeros(33, np.float32))

    def test_scale_positive_iff_nonzero(self):
        assert compress(np.array([0.0, 0.0], np.float32), Codec.QUANT8).scale == 0.0
        assert compress(np.array([0.0, 1e-30], np.float32), Codec.QUANT8).scale > 0.0

    def test_rounding_half_away_from_zero(self):
        # max=127 makes the snapped scale exactly 1.0: values at .5 steps.
        v = np.array([127.0, 2.5, -2.5, 0.5, -0.5], np.float32)
        codes = np.frombuffer(compress(v, Codec.QUANT8).payload, np.int8)
        assert list(codes) == [127, 3, -3, 1, -1]


class TestProperties:
    @pytest.mark.parametrize("codec", [Codec.TRUNC16, Codec.QUANT8])
    def test_idempotent_reencoding(self, codec):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = (rng.normal(0, 1, 97) * 10.0 ** rng.integers(-6, 7)).astype(np.float32)
            once = roundtrip(v, codec)
            twice = roundtrip(once, codec)
            assert np.array_equal(once, twice)

    @pytest.mark.parametrize("codec", list(Codec))
    def test_zero_vector_roundtrips_exactly(self, codec):
        v = np.zeros(19, np.float32)
        assert np.array_equal(roundtrip(v, codec), v)

    @pytest.mark.parametrize("codec", list(Codec))
    def test_sign_and_zero_preservation(self, codec):
        rng = np.random.default_rng(4)
        v = rng.normal(0, 1, 1000).astype(np.float32)
        v[::10] = 0.0
        out = roundtrip(v, codec)
        assert np.array_equal(out[::10], np.zeros(100, np.float32))
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(v[nonzero]))

    def test_none_roundtrip_bit_exact(self):
        rng = np.random.default_rng(5)
        v = rng.normal(0, 1, 4099).astype(np.float32)
        assert np.array_equal(roundtrip(v, Codec.NONE), v)

    def test_nonfinite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(CodecError):
                compress(np.array([1.0, bad], np.float32), Codec.TRUNC16)

    def test_empty_vector(self):
        for codec in Codec:
            block = compress(np.zeros(0, np.float32), codec)
            assert block.n_elems == 0 and block.payload == b""
            assert decompress(block).size == 0

    @pytest.mark.parametrize("codec", list(Codec))
    def test_decode_into_out_matches_fresh_decode(self, codec):
        rng = np.random.default_rng(6)
        block = compress(rng.normal(0, 3, 257).astype(np.float32), codec)
        acc = np.full(300, np.nan, np.float32)
        got = decompress(block, out=acc[20:277])
        assert np.shares_memory(got, acc)
        assert np.array_equal(acc[20:277].view(np.uint32), decompress(block).view(np.uint32))
        assert np.isnan(acc[:20]).all() and np.isnan(acc[277:]).all()

    @pytest.mark.parametrize("codec", list(Codec))
    def test_decode_into_wrong_out_rejected(self, codec):
        block = compress(np.ones(8, np.float32), codec)
        for out in (np.empty(7, np.float32), np.empty(8, np.float64)):
            with pytest.raises(CodecError):
                decompress(block, out=out)


class TestWire:
    def test_wire_size_examples(self):
        assert wire_size(Codec.NONE, 1024) == 1024 * 4 + HEADER_BYTES
        assert wire_size(Codec.TRUNC16, 1024) == 1024 * 2 + HEADER_BYTES
        assert wire_size(Codec.QUANT8, 1024) == 1024 * 1 + HEADER_BYTES

    @pytest.mark.parametrize("n", [0, 1, 7, 1024])
    @pytest.mark.parametrize("codec", list(Codec))
    def test_serialized_size_matches(self, codec, n):
        v = np.random.default_rng(n).normal(0, 1, n).astype(np.float32)
        wire = serialize_block(compress(v, codec))
        assert len(wire) == wire_size(codec, n)
        assert len(wire) - HEADER_BYTES == payload_size(codec, n)

    @pytest.mark.parametrize("codec", list(Codec))
    def test_serialize_roundtrip(self, codec):
        v = np.random.default_rng(8).normal(0, 1, 321).astype(np.float32)
        block = compress(v, codec)
        back = deserialize_block(serialize_block(block))
        assert back == block
        assert np.array_equal(decompress(back), decompress(block))

    def test_header_layout_little_endian(self):
        block = compress(np.array([2.0], np.float32), Codec.QUANT8)
        wire = serialize_block(block)
        tag, n_elems, scale = struct.unpack("<BIf", wire[:HEADER_BYTES])
        assert tag == 2 and n_elems == 1
        assert scale == pytest.approx(block.scale)

    def test_corrupt_payload_rejected(self):
        wire = serialize_block(compress(np.ones(4, np.float32), Codec.TRUNC16))
        with pytest.raises(CorruptBlockError):
            deserialize_block(wire[:-1])

    def test_bad_tag_rejected(self):
        wire = bytearray(serialize_block(compress(np.ones(2, np.float32), Codec.NONE)))
        wire[0] = 77
        with pytest.raises(CorruptBlockError):
            deserialize_block(bytes(wire))

    def test_block_invariant_enforced(self):
        with pytest.raises(CorruptBlockError):
            CompressedBlock(Codec.QUANT8, 3, 0.5, b"\x00" * 5)

    def test_codec_parse(self):
        assert Codec.parse("quant8") is Codec.QUANT8
        assert Codec.parse(" NONE ") is Codec.NONE
        with pytest.raises(CodecError):
            Codec.parse("topk")
