"""Collectives over a point-to-point transport.

Callers pass and receive plain float32 vectors; the codec is applied
here, to every vector that goes on the wire, and nowhere else.

Ring AllReduce runs (p-1) "transmit-and-reduce" steps (reduce-scatter)
followed by (p-1) allgather steps; every rank sends exactly 2(p-1)
block messages. Under a lossy codec each reduce-scatter hop receives a
compressed block, decompresses, adds its local block, and re-encodes
with a freshly computed scale before forwarding. The allgather phase
forwards the fully reduced compressed blocks verbatim, so all ranks
decode byte-identical payloads and return bit-identical results; the
owner of a block decodes its own encoding too, for the same reason.

The parameter-server gather encodes each worker's whole vector once
under the codec; the root adds the decoded vectors in rank order.
Broadcast always sends raw float32, so replicas stay bit-identical.

Every collective receives through one path, `_recv`: it waits for the
next message from one peer, checks its type, iteration and block, and
turns any failure into a CollectiveError that names the receiving rank,
the iteration and the step. `_recv_block` adds the length check and
the decode for the collectives that receive vectors; a block of the
wrong length, or one that does not decode, fails the same way.

Every collective works in the vector its caller passes, a writeable,
contiguous, 1-D float32 vector, and returns that vector: the ring sums
into it, the gather's root sums into it, a broadcast receiver decodes
into it. No collective allocates its result, so a result never shares
memory with a wire buffer; a block is encoded straight into the buffer
that goes on the wire, and a received block is only added into, or
decoded into, the caller's vector.
"""

from __future__ import annotations

import numpy as np

from .compression import (
    Codec,
    compress,
    decompress,
    deserialize_block,
    serialize_block,
)
from .errors import CodecError, CollectiveError, TransportError
from .transport import Buffer, Endpoint, MSG_BARRIER, MSG_DATA, Message


def partition_blocks(n_elems: int, p: int) -> list[tuple[int, int]]:
    """p contiguous (offset, length) blocks covering [0, n_elems).

    Lengths differ by at most one; the first n_elems % p blocks take the
    extra element. No padding: when p does not divide n_elems the byte
    accounting stays exact.
    """
    base, extra = divmod(n_elems, p)
    blocks = []
    offset = 0
    for i in range(p):
        length = base + (1 if i < extra else 0)
        blocks.append((offset, length))
        offset += length
    return blocks


def _error(endpoint: Endpoint, iteration: int, step: str, detail: object) -> CollectiveError:
    return CollectiveError(f"rank {endpoint.rank}, iteration {iteration}, {step}: {detail}")


def _recv(
    endpoint: Endpoint, src: int, msg_type: int, iteration: int, block_index: int, step: str
) -> Message:
    """The next message from src, which must carry the given header."""
    try:
        msg = endpoint.recv(src)
    except TransportError as err:
        raise _error(endpoint, iteration, step, err) from err
    if (msg.msg_type, msg.iteration, msg.block_index) != (msg_type, iteration, block_index):
        raise _error(
            endpoint, iteration, step,
            f"expected type={msg_type} iter={iteration} block={block_index}, "
            f"got type={msg.msg_type} iter={msg.iteration} block={msg.block_index}",
        )
    return msg


def _recv_block(
    endpoint: Endpoint,
    src: int,
    iteration: int,
    block_index: int,
    n_elems: int,
    step: str,
    out: np.ndarray | None = None,
) -> tuple[Buffer, np.ndarray]:
    """The wire bytes and decoded values of the next block from src.

    The block must hold n_elems values. With `out` the values are
    decoded straight into it.
    """
    wire = _recv(endpoint, src, MSG_DATA, iteration, block_index, step).payload
    try:
        block = deserialize_block(wire)
        if block.n_elems != n_elems:
            raise _error(
                endpoint, iteration, step,
                f"block {block_index} from rank {src} has {block.n_elems} elems, "
                f"expected {n_elems} (unequal vector lengths across ranks?)",
            )
        return wire, decompress(block, out=out)
    except CodecError as err:
        raise _error(
            endpoint, iteration, step, f"block {block_index} from rank {src}: {err}"
        ) from err


def _check_rank_args(
    rank: int, p: int, endpoint: Endpoint, vector: np.ndarray | None = None
) -> None:
    if endpoint.rank != rank or endpoint.world_size != p:
        raise CollectiveError(
            f"endpoint is rank {endpoint.rank}/{endpoint.world_size}, "
            f"caller claims {rank}/{p}"
        )
    if vector is not None and not (
        vector.ndim == 1 and vector.dtype == np.float32
        and vector.flags.c_contiguous and vector.flags.writeable
    ):
        raise CollectiveError(
            f"collectives work in a writeable contiguous 1-D float32 vector, got {vector.dtype} "
            f"{vector.shape} {vector.flags.c_contiguous=} {vector.flags.writeable=}"
        )


def ring_allreduce(
    local: np.ndarray,
    rank: int,
    p: int,
    endpoint: Endpoint,
    codec: Codec = Codec.NONE,
    iteration: int = 0,
) -> np.ndarray:
    """Sums all ranks' vectors into `local`, bit-identical on every rank,
    and returns `local`."""
    _check_rank_args(rank, p, endpoint, local)
    if p == 1:
        return local
    succ, pred = (rank + 1) % p, (rank - 1) % p
    views = [local[off : off + length] for off, length in partition_blocks(local.size, p)]

    def recv_block(
        idx: int, step: str, into: np.ndarray | None = None
    ) -> tuple[Buffer, np.ndarray]:
        return _recv_block(endpoint, pred, iteration, idx, views[idx].size, step, into)

    # Reduce-scatter: each received block is decoded, summed with the
    # local block, and re-encoded for the next hop.
    for step in range(p - 1):
        send_idx, recv_idx = (rank - step) % p, (rank - step - 1) % p
        wire = serialize_block(compress(views[send_idx], codec))
        endpoint.send(succ, wire, MSG_DATA, iteration, send_idx)
        _, incoming = recv_block(recv_idx, f"reduce-scatter step {step}")
        views[recv_idx] += incoming

    # Allgather: the owner encodes its fully reduced block once; everyone
    # forwards that encoding verbatim and decodes the same bytes into local.
    own_idx = (rank + 1) % p
    wire = serialize_block(compress(views[own_idx], codec))
    decompress(deserialize_block(wire), out=views[own_idx])
    for step in range(p - 1):
        send_idx, recv_idx = (rank + 1 - step) % p, (rank - step) % p
        endpoint.send(succ, wire, MSG_DATA, iteration, send_idx)
        wire, _ = recv_block(recv_idx, f"allgather step {step}", views[recv_idx])
    return local


def gather_to_root(
    local: np.ndarray,
    root: int,
    rank: int,
    p: int,
    endpoint: Endpoint,
    codec: Codec = Codec.NONE,
    iteration: int = 0,
) -> np.ndarray | None:
    """The root sums the others' vectors into its own `local`, in rank
    order, and returns it; the others send theirs and return None.

    Each non-root vector travels encoded under `codec`; the root's own
    vector never leaves it.
    """
    _check_rank_args(rank, p, endpoint, local)
    if rank != root:
        endpoint.send(root, serialize_block(compress(local, codec)), MSG_DATA, iteration, 0)
        return None
    for src in range(p):  # fixed rank order keeps the sum deterministic
        if src != root:
            step = f"gather from rank {src}"
            local += _recv_block(endpoint, src, iteration, 0, local.size, step)[1]
    return local


def broadcast_from_root(
    vector: np.ndarray,
    root: int,
    rank: int,
    p: int,
    endpoint: Endpoint,
    iteration: int = 0,
) -> np.ndarray:
    """The root's vector, bit-exact, in every rank's `vector`, which is
    returned; the others' vectors must have the root's length."""
    _check_rank_args(rank, p, endpoint, vector)
    if rank != root:
        step = f"broadcast from root {root}"
        return _recv_block(endpoint, root, iteration, 0, vector.size, step, vector)[1]
    wire = serialize_block(compress(vector, Codec.NONE))
    for dst in range(p):
        if dst != root:
            endpoint.send(dst, wire, MSG_DATA, iteration, 0)
    return vector


def barrier(rank: int, p: int, endpoint: Endpoint, generation: int = 0) -> None:
    """Dissemination barrier: no rank returns before all have entered."""
    _check_rank_args(rank, p, endpoint)
    distance = 1
    while distance < p:
        endpoint.send((rank + distance) % p, b"", MSG_BARRIER, generation, distance)
        _recv(
            endpoint, (rank - distance) % p, MSG_BARRIER, generation, distance,
            f"barrier distance {distance}",
        )
        distance *= 2
