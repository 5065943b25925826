"""Differential test: the codecs against the float64 reference they replaced.

The oracle below is a verbatim copy of the earlier, float64-based
`_quant_scale`, `compress` and `decompress` (only renamed). The codecs in
`gradpipe.compression` must reproduce its payload bytes, scale and
decoded values bit for bit, on arbitrary finite vectors and on the
inputs where a float32 shortcut is most likely to go wrong: quant8 tie
points and trunc16 rounding boundaries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradpipe.compression import (
    Codec,
    CompressedBlock,
    compress,
    decompress,
    serialize_block,
)
from gradpipe.errors import CodecError

MAX32 = float(np.finfo(np.float32).max)
TINY_SUBNORMAL = float(np.float32(2.0**-149))

# ---- oracle: the earlier implementation, copied verbatim ----------------


def oracle_quant_scale(vmax: float) -> np.float32:
    """max|v|/127 snapped down to 17 significant bits.

    With a 17-bit mantissa, scale * code (|code| <= 127, 7 bits) has at
    most 24 significant bits and is therefore exact in float32. Snapping
    *down* guarantees scale <= max|v|/127, hence half-step <= max|v|/254.
    """
    s = np.float32(vmax / 127.0)
    bits = s.view(np.uint32) & np.uint32(0xFFFFFF80)
    s = bits.view(np.float32)
    if float(s) * 127.0 > vmax and bits >= np.uint32(0x100):
        bits = bits - np.uint32(0x80)
        s = bits.view(np.float32)
    return s[()] if isinstance(s, np.ndarray) else s


def oracle_compress(vec: np.ndarray, codec: Codec) -> CompressedBlock:
    """Encode a float32 vector under the given codec."""
    vec = np.ascontiguousarray(vec, dtype=np.float32)
    if vec.ndim != 1:
        raise CodecError("can only compress 1-D vectors")
    if not np.isfinite(vec).all():
        raise CodecError("refusing to compress non-finite values")

    if codec == Codec.NONE:
        return CompressedBlock(codec, vec.size, 0.0, vec.astype("<f4").tobytes())

    if codec == Codec.TRUNC16:
        bits = vec.view(np.uint32)
        low = bits & np.uint32(0xFFFF)
        half = (bits >> np.uint32(16)).astype(np.uint32)
        round_up = (low > 0x8000) | ((low == 0x8000) & ((half & 1) == 1))
        half = half + round_up.astype(np.uint32)
        overflow = (half & np.uint32(0x7FFF)) == np.uint32(0x7F80)
        half = np.where(overflow, half - 1, half)
        return CompressedBlock(
            codec, vec.size, 0.0, half.astype("<u2").tobytes()
        )

    if codec == Codec.QUANT8:
        if vec.size == 0:
            return CompressedBlock(codec, 0, 0.0, b"")
        vmax = float(np.max(np.abs(vec)))
        if vmax == 0.0:
            return CompressedBlock(codec, vec.size, 0.0, bytes(vec.size))
        scale = oracle_quant_scale(vmax)
        q = vec.astype(np.float64) / float(scale)
        codes = np.sign(q) * np.floor(np.abs(q) + 0.5)  # half away from zero
        codes = np.clip(codes, -127, 127).astype(np.int8)
        return CompressedBlock(codec, vec.size, float(scale), codes.tobytes())

    raise CodecError(f"unknown codec {codec!r}")


def oracle_decompress(block: CompressedBlock) -> np.ndarray:
    """Reconstruct the float32 vector a block encodes."""
    if block.codec == Codec.NONE:
        return np.frombuffer(block.payload, dtype="<f4").astype(np.float32)
    if block.codec == Codec.TRUNC16:
        half = np.frombuffer(block.payload, dtype="<u2").astype(np.uint32)
        return (half << np.uint32(16)).view(np.float32).copy()
    if block.codec == Codec.QUANT8:
        codes = np.frombuffer(block.payload, dtype=np.int8)
        return codes.astype(np.float32) * np.float32(block.scale)
    raise CodecError(f"unknown codec {block.codec!r}")


# ---- comparison ---------------------------------------------------------


def assert_matches_oracle(vec, codec):
    vec = np.asarray(vec, np.float32)
    with np.errstate(all="ignore"):  # the oracle divides by a zero scale
        want = oracle_compress(vec, codec)
        got = compress(vec, codec)
        want_out, got_out = oracle_decompress(want), decompress(got)
    assert bytes(got.payload) == want.payload
    assert got.scale == want.scale
    assert bytes(serialize_block(got)) == bytes(serialize_block(want))
    assert got_out.dtype == np.float32
    assert got_out.tobytes() == want_out.tobytes()


finite_vectors = hnp.arrays(
    np.float32,
    st.integers(0, 64),
    elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
@settings(max_examples=300, deadline=None)
@given(vec=finite_vectors)
@example(vec=np.zeros(0, np.float32))
@example(vec=np.zeros(1, np.float32))
@example(vec=np.zeros(17, np.float32))
@example(vec=np.array([MAX32, -MAX32, 1.0], np.float32))
@example(vec=np.array([TINY_SUBNORMAL, -3 * TINY_SUBNORMAL, 0.0], np.float32))
@example(vec=np.array([1e-39, -5e-40, 2e-45], np.float32))
def test_matches_oracle(codec, vec):
    assert_matches_oracle(vec, codec)


def quant8_tie_points(vmax):
    """vmax, then every (k + 0.5) * scale with |.| <= vmax and its +-3
    float32 neighbours."""
    vmax = np.float32(vmax)
    scale = float(oracle_quant_scale(float(vmax)))
    points = [vmax]
    for k in range(-128, 128):
        tie = np.float32((k + 0.5) * scale)
        below = above = tie
        points.append(tie)
        for _ in range(3):
            below = np.nextafter(below, np.float32(-np.inf))
            above = np.nextafter(above, np.float32(np.inf))
            points += [below, above]
    points = np.array(points, np.float32)
    return points[np.abs(points) <= vmax]


@pytest.mark.parametrize("vmax", [127.0, 1.0, 3.3e-5, 1e30, 7.1e-38])
def test_quant8_tie_points_match_oracle(vmax):
    vec = quant8_tie_points(vmax)
    assert vec.size > 1500
    assert_matches_oracle(vec, Codec.QUANT8)


def test_trunc16_rounding_boundaries_match_oracle():
    high = np.arange(1 << 16, dtype=np.uint32) << 16
    low = np.array([0x0000, 0x7FFF, 0x8000, 0x8001, 0xFFFF], np.uint32)
    vec = (high[:, None] | low[None, :]).ravel().view(np.float32)
    vec = vec[np.isfinite(vec)]
    assert_matches_oracle(vec, Codec.TRUNC16)


@pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_rejected_like_oracle(codec, bad):
    vec = np.array([1.0, bad, -2.0], np.float32)
    for encode in (oracle_compress, compress):
        with pytest.raises(CodecError):
            encode(vec, codec)
