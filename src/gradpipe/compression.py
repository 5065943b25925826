"""Lossy gradient codecs, applied only on the wire.

The collectives encode every vector they send and decode every vector
they receive; the engine and the models only ever see float32 vectors.
Ring AllReduce encodes per block at each hop, the parameter-server
gather encodes each worker's whole vector once.

Three codecs:

* ``none``    — raw float32 payload, 4 bytes/element.
* ``trunc16`` — keeps the top halfword of each IEEE-754 single (sign,
  exponent, 7 mantissa bits), 2 bytes/element. The dropped 16 bits are
  rounded to nearest (ties to even on the kept halfword), so the
  round-trip error is at most half an ulp of the 7-bit mantissa,
  i.e. 2^-8 relative for normal floats. Rounding that would overflow
  into the infinity pattern is clamped to the largest finite halfword.
  Encoding is one uint32 pass, ``(bits + 0x7FFF + kept_lsb) >> 16``;
  the clamp runs only when max|v| is large enough to need it.
* ``quant8``  — symmetric 8-bit scalar quantization with codes in
  [-127, 127] and scale = max|v|/127, 1 byte/element. The scale is
  snapped down onto a 17-significant-bit grid so that code * scale is
  exact in float32; this makes re-encoding a reconstructed vector
  lossless (exact idempotence) and keeps the elementwise round-trip
  error at or below max|v|/254. The codes are the float64 quotient
  v/scale rounded half away from zero; decoding is one float32
  multiply, code * scale, exact by the snapping above.

How quant8 gets those codes from a float32 quotient: IEEE division is
correctly rounded and therefore monotonic, and every half-integer
k + 0.5 below 2^23 is a float32. So when the quotient lies strictly on
one side of k + 0.5, its float32 rounding lies on the same side or on
k + 0.5 itself, and rounding the float32 quotient gives the same code
unless it landed exactly on a half-integer. Those few elements are
re-rounded from the float64 quotient. A subnormal scale (max|v| below
~1.5e-36) takes the float64 path throughout. The NaN/inf check rides
on the max/min reduction that max|v| needs anyway.

Encoding writes header and payload into one buffer, so serializing an
encoded block copies nothing; deserializing returns a memoryview of the
received bytes, and decoding ``none`` returns a view of the payload.
Decoding can also write straight into a caller's vector (``out=``).

Wire layout of a serialized block (little-endian):
u8 codec tag | u32 n_elems | f32 scale | payload bytes.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CodecError, CorruptBlockError

HEADER = struct.Struct("<BIf")
HEADER_BYTES = HEADER.size  # 9


class Codec(enum.IntEnum):
    """Closed codec enumeration; numeric values are the wire tags."""

    NONE = 0
    TRUNC16 = 1
    QUANT8 = 2

    @classmethod
    def parse(cls, name: str) -> "Codec":
        try:
            return _CODEC_NAMES[name.strip().lower()]
        except KeyError:
            raise CodecError(f"unknown codec {name!r}") from None

    @property
    def bytes_per_elem(self) -> int:
        return _WIRE_DTYPES[self].itemsize


_CODEC_NAMES = {"none": Codec.NONE, "trunc16": Codec.TRUNC16, "quant8": Codec.QUANT8}
_WIRE_DTYPES = {
    Codec.NONE: np.dtype("<f4"),
    Codec.TRUNC16: np.dtype("<u2"),
    Codec.QUANT8: np.dtype(np.int8),
}

# Smallest magnitude whose trunc16 rounding carries into the infinity
# pattern: bits 0x7F7F8000, an odd kept halfword with a dropped half of
# exactly 0x8000.
_TRUNC16_CLAMP_FROM = float(np.uint32(0x7F7F8000).view(np.float32))
_FLOAT32_TINY = float(np.finfo(np.float32).tiny)


@dataclass(frozen=True)
class CompressedBlock:
    codec: Codec
    n_elems: int
    scale: float  # quant8 only; 0.0 otherwise
    payload: bytes | bytearray | memoryview
    # The whole serialized block (header, then payload) when the payload
    # lives inside it; serialize_block returns it without copying.
    wire: memoryview | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        expected = self.n_elems * self.codec.bytes_per_elem
        if len(self.payload) != expected:
            raise CorruptBlockError(
                f"{self.codec.name} block of {self.n_elems} elems needs "
                f"{expected} payload bytes, got {len(self.payload)}"
            )


def payload_size(codec: Codec, n_elems: int) -> int:
    """Codec payload bytes for n_elems, excluding the block header."""
    if n_elems < 0:
        raise CodecError(f"negative element count {n_elems}")
    return n_elems * codec.bytes_per_elem


def wire_size(codec: Codec, n_elems: int) -> int:
    """Exact serialized size of a block, header included."""
    return HEADER_BYTES + payload_size(codec, n_elems)


def _quant_scale(vmax: float) -> np.float32:
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


def _finite_absmax(vec: np.ndarray) -> float:
    """max|v| from a max and a min reduction; NaN or inf raises CodecError."""
    if vec.size == 0:
        return 0.0
    hi, lo = float(vec.max()), float(vec.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise CodecError("refusing to compress non-finite values")
    return max(hi, -lo)


def _encode_trunc16(vec: np.ndarray, vmax: float, out: np.ndarray) -> None:
    bits = vec.view(np.uint32)
    half = np.right_shift(bits, 16)
    np.bitwise_and(half, 1, out=half)  # a tie rounds up only onto an even halfword
    np.add(half, 0x7FFF, out=half)
    np.add(half, bits, out=half)
    np.right_shift(half, 16, out=out, casting="unsafe")
    if vmax >= _TRUNC16_CLAMP_FROM:
        out[(out & 0x7FFF) == 0x7F80] -= 1


def _round_half_away(vec: np.ndarray, scale: np.float32) -> np.ndarray:
    """Reference quant8 rounding of the float64 quotient."""
    q = vec.astype(np.float64) / float(scale)
    codes = np.sign(q) * np.floor(np.abs(q) + 0.5)
    return np.clip(codes, -127, 127).astype(np.int8)


def _encode_quant8(vec: np.ndarray, vmax: float, out: np.ndarray) -> float:
    if vmax == 0.0:
        out[:] = 0
        return 0.0
    scale = _quant_scale(vmax)
    if scale < _FLOAT32_TINY:
        out[:] = _round_half_away(vec, scale)
        return float(scale)
    # |q| <= 127 * (1 + 2^-15), so rint lands in [-127, 127].
    q = np.divide(vec, scale, dtype=np.float32)
    np.rint(q, out=out, casting="unsafe")
    # rint breaks ties to even; re-round every exact float32 tie.
    np.subtract(q, out, out=q)
    ties = np.flatnonzero(np.abs(q, out=q) == 0.5)
    if ties.size:
        out[ties] = _round_half_away(vec[ties], scale)
    return float(scale)


def compress(vec: np.ndarray, codec: Codec) -> CompressedBlock:
    """Encode a float32 vector under the given codec.

    Header and payload are written into one buffer, kept as the block's
    `wire`, so `serialize_block` hands it out without copying.
    """
    vec = np.ascontiguousarray(vec, dtype=np.float32)
    if vec.ndim != 1:
        raise CodecError("can only compress 1-D vectors")
    if codec not in _WIRE_DTYPES:
        raise CodecError(f"unknown codec {codec!r}")
    vmax = _finite_absmax(vec)
    frame = np.empty(wire_size(codec, vec.size), np.uint8)
    out = frame[HEADER_BYTES:].view(_WIRE_DTYPES[codec])
    scale = 0.0
    if codec == Codec.NONE:
        out[:] = vec
    elif codec == Codec.TRUNC16:
        _encode_trunc16(vec, vmax, out)
    else:
        scale = _encode_quant8(vec, vmax, out)
    HEADER.pack_into(frame, 0, int(codec), vec.size, scale)
    wire = memoryview(frame)
    return CompressedBlock(codec, vec.size, scale, wire[HEADER_BYTES:], wire)


def decompress(block: CompressedBlock, out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the float32 vector a block encodes.

    With `out` (a contiguous float32 vector of the block's length) the
    values are written into it and `out` is returned. Without it, codec
    none returns a view of the payload, not a copy, and the lossy codecs
    return a new array.
    """
    if out is not None and (out.dtype != np.float32 or out.shape != (block.n_elems,)):
        raise CodecError(
            f"out is {out.dtype} {out.shape}, block has {block.n_elems} float32 elems"
        )
    if block.codec == Codec.NONE:
        values = np.frombuffer(block.payload, dtype="<f4")
        if out is None:
            return values
        out[:] = values
        return out
    if block.codec == Codec.TRUNC16:
        half = np.frombuffer(block.payload, dtype="<u2")
        if out is None:
            return np.left_shift(half, 16, dtype=np.uint32).view(np.float32)
        np.left_shift(half, 16, out=out.view(np.uint32), dtype=np.uint32)
        return out
    if block.codec == Codec.QUANT8:
        codes = np.frombuffer(block.payload, dtype=np.int8)
        return np.multiply(codes, np.float32(block.scale), out=out, dtype=np.float32)
    raise CodecError(f"unknown codec {block.codec!r}")


def serialize_block(block: CompressedBlock) -> memoryview | bytearray:
    if block.wire is not None:
        return block.wire
    wire = bytearray(HEADER_BYTES + len(block.payload))
    HEADER.pack_into(wire, 0, int(block.codec), block.n_elems, block.scale)
    wire[HEADER_BYTES:] = block.payload
    return wire


def deserialize_block(buf: bytes | bytearray | memoryview) -> CompressedBlock:
    """Parse a serialized block; the payload is a view of `buf`, not a copy."""
    view = memoryview(buf).cast("B")
    if len(view) < HEADER_BYTES:
        raise CorruptBlockError(f"block of {len(view)} bytes is shorter than header")
    tag, n_elems, scale = HEADER.unpack_from(view)
    try:
        codec = Codec(tag)
    except ValueError:
        raise CorruptBlockError(f"unknown codec tag {tag}") from None
    payload = view[HEADER_BYTES:]
    if len(payload) != payload_size(codec, n_elems):
        raise CorruptBlockError(
            f"{codec.name} block advertises {n_elems} elems but carries "
            f"{len(payload)} payload bytes"
        )
    return CompressedBlock(codec, n_elems, scale, payload, view)
