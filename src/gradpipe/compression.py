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
* ``quant8``  — symmetric 8-bit scalar quantization with codes in
  [-127, 127] and scale = max|v|/127, 1 byte/element. The scale is
  snapped down onto a 17-significant-bit grid so that code * scale is
  exact in float32; this makes re-encoding a reconstructed vector
  lossless (exact idempotence) and keeps the elementwise round-trip
  error at or below max|v|/254. Rounding is half-away-from-zero.

Wire layout of a serialized block (little-endian):
u8 codec tag | u32 n_elems | f32 scale | payload bytes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

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
        return {Codec.NONE: 4, Codec.TRUNC16: 2, Codec.QUANT8: 1}[self]


_CODEC_NAMES = {"none": Codec.NONE, "trunc16": Codec.TRUNC16, "quant8": Codec.QUANT8}


@dataclass(frozen=True)
class CompressedBlock:
    codec: Codec
    n_elems: int
    scale: float  # quant8 only; 0.0 otherwise
    payload: bytes

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


def compress(vec: np.ndarray, codec: Codec) -> CompressedBlock:
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
        scale = _quant_scale(vmax)
        q = vec.astype(np.float64) / float(scale)
        codes = np.sign(q) * np.floor(np.abs(q) + 0.5)  # half away from zero
        codes = np.clip(codes, -127, 127).astype(np.int8)
        return CompressedBlock(codec, vec.size, float(scale), codes.tobytes())

    raise CodecError(f"unknown codec {codec!r}")


def decompress(block: CompressedBlock) -> np.ndarray:
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


def serialize_block(block: CompressedBlock) -> bytes:
    return HEADER.pack(int(block.codec), block.n_elems, block.scale) + block.payload


def deserialize_block(buf: bytes) -> CompressedBlock:
    if len(buf) < HEADER_BYTES:
        raise CorruptBlockError(f"block of {len(buf)} bytes is shorter than header")
    tag, n_elems, scale = HEADER.unpack_from(buf)
    try:
        codec = Codec(tag)
    except ValueError:
        raise CorruptBlockError(f"unknown codec tag {tag}") from None
    payload = buf[HEADER_BYTES:]
    if len(payload) != payload_size(codec, n_elems):
        raise CorruptBlockError(
            f"{codec.name} block advertises {n_elems} elems but carries "
            f"{len(payload)} payload bytes"
        )
    return CompressedBlock(codec, n_elems, scale, payload)
