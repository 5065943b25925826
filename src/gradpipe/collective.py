"""Collectives over a point-to-point transport.

Callers pass and receive plain float32 vectors; the codec is applied
here, to every vector that goes on the wire, and nowhere else.

Ring AllReduce runs (p-1) "transmit-and-reduce" steps (reduce-scatter)
followed by (p-1) allgather steps; every rank sends exactly 2(p-1)
block messages. Under a lossy codec each reduce-scatter hop receives a
compressed block, decompresses, adds its local block, and re-encodes
with a freshly computed scale before forwarding. The allgather phase
forwards the fully reduced compressed blocks verbatim, so all ranks
decode byte-identical payloads and return bit-identical results.

The parameter-server gather encodes each worker's whole vector once
under the codec; the root adds the decoded vectors in rank order.
Broadcast always sends raw float32, so replicas stay bit-identical.
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
from .errors import CollectiveError, TransportError
from .transport import Endpoint, MSG_BARRIER, MSG_DATA, Message


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


def _expect(
    msg: Message, msg_type: int, iteration: int, block_index: int, context: str
) -> None:
    if (
        msg.msg_type != msg_type
        or msg.iteration != iteration
        or msg.block_index != block_index
    ):
        raise CollectiveError(
            f"{context}: expected type={msg_type} iter={iteration} "
            f"block={block_index}, got type={msg.msg_type} iter={msg.iteration} "
            f"block={msg.block_index}"
        )


def _check_rank_args(local: np.ndarray, rank: int, p: int, endpoint: Endpoint) -> None:
    if endpoint.rank != rank or endpoint.world_size != p:
        raise CollectiveError(
            f"endpoint is rank {endpoint.rank}/{endpoint.world_size}, "
            f"caller claims {rank}/{p}"
        )
    if local.ndim != 1:
        raise CollectiveError("collectives operate on 1-D vectors")


def ring_allreduce(
    local: np.ndarray,
    rank: int,
    p: int,
    endpoint: Endpoint,
    codec: Codec = Codec.NONE,
    iteration: int = 0,
) -> np.ndarray:
    """Elementwise sum of all ranks' vectors, identical on every rank."""
    _check_rank_args(local, rank, p, endpoint)
    if p == 1:
        return np.array(local, dtype=np.float32, copy=True)
    succ, pred = (rank + 1) % p, (rank - 1) % p

    def recv(context: str) -> Message:
        try:
            return endpoint.recv(pred)
        except TransportError as err:
            raise CollectiveError(f"{context}: {err}") from err

    blocks = partition_blocks(local.size, p)
    acc = np.array(local, dtype=np.float32, copy=True)

    def block_view(i: int) -> np.ndarray:
        off, length = blocks[i]
        return acc[off : off + length]

    # Reduce-scatter: each received block is decoded, summed with the
    # local block, and re-encoded for the next hop.
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        endpoint.send(
            succ,
            serialize_block(compress(block_view(send_idx), codec)),
            MSG_DATA,
            iteration,
            send_idx,
        )
        msg = recv(f"reduce-scatter step {step} (rank {rank} <- {pred})")
        _expect(msg, MSG_DATA, iteration, recv_idx, f"reduce-scatter step {step}")
        incoming = decompress(deserialize_block(msg.payload))
        if incoming.size != blocks[recv_idx][1]:
            raise CollectiveError(
                f"reduce-scatter step {step}: block {recv_idx} has "
                f"{incoming.size} elems, expected {blocks[recv_idx][1]} "
                "(unequal vector lengths across ranks?)"
            )
        block_view(recv_idx)[:] += incoming

    # Allgather: the owner encodes its fully reduced block once; everyone
    # forwards that encoding verbatim and decodes the same bytes.
    out = np.empty_like(acc)
    own_idx = (rank + 1) % p
    wire = serialize_block(compress(block_view(own_idx), codec))
    off, length = blocks[own_idx]
    out[off : off + length] = decompress(deserialize_block(wire))

    for step in range(p - 1):
        send_idx = (rank + 1 - step) % p
        recv_idx = (rank - step) % p
        endpoint.send(succ, wire, MSG_DATA, iteration, send_idx)
        msg = recv(f"allgather step {step} (rank {rank} <- {pred})")
        _expect(msg, MSG_DATA, iteration, recv_idx, f"allgather step {step}")
        wire = msg.payload
        incoming = decompress(deserialize_block(wire))
        off, length = blocks[recv_idx]
        if incoming.size != length:
            raise CollectiveError(
                f"allgather step {step}: block {recv_idx} has {incoming.size} "
                f"elems, expected {length}"
            )
        out[off : off + length] = incoming
    return out


def gather_to_root(
    local: np.ndarray,
    root: int,
    rank: int,
    p: int,
    endpoint: Endpoint,
    codec: Codec = Codec.NONE,
    iteration: int = 0,
) -> np.ndarray | None:
    """Root returns the elementwise sum of all inputs; others return None.

    Each non-root vector travels encoded under `codec`; the root's own
    vector never leaves it and is summed as is.
    """
    _check_rank_args(local, rank, p, endpoint)
    if p == 1:
        return np.array(local, dtype=np.float32, copy=True)
    if rank != root:
        endpoint.send(
            root,
            serialize_block(compress(local, codec)),
            MSG_DATA,
            iteration,
            0,
        )
        return None
    acc = np.array(local, dtype=np.float32, copy=True)
    for src in range(p):  # fixed rank order keeps the sum deterministic
        if src == root:
            continue
        try:
            msg = endpoint.recv(src)
        except TransportError as err:
            raise CollectiveError(f"gather: waiting for rank {src}: {err}") from err
        _expect(msg, MSG_DATA, iteration, 0, f"gather from rank {src}")
        contribution = decompress(deserialize_block(msg.payload))
        if contribution.size != acc.size:
            raise CollectiveError(
                f"gather: rank {src} sent {contribution.size} elems, "
                f"expected {acc.size}"
            )
        acc += contribution
    return acc


def broadcast_from_root(
    value: np.ndarray | None,
    root: int,
    rank: int,
    p: int,
    endpoint: Endpoint,
    iteration: int = 0,
) -> np.ndarray:
    """Bit-exact copy of the root's vector on every rank."""
    if endpoint.rank != rank or endpoint.world_size != p:
        raise CollectiveError("endpoint does not match caller's rank/size")
    if rank == root:
        if value is None:
            raise CollectiveError("broadcast root has no value")
        value = np.ascontiguousarray(value, dtype=np.float32)
        wire = serialize_block(compress(value, Codec.NONE))
        for dst in range(p):
            if dst != root:
                endpoint.send(dst, wire, MSG_DATA, iteration, 0)
        return value.copy()
    try:
        msg = endpoint.recv(root)
    except TransportError as err:
        raise CollectiveError(f"broadcast: waiting for root {root}: {err}") from err
    _expect(msg, MSG_DATA, iteration, 0, "broadcast")
    return decompress(deserialize_block(msg.payload))


def barrier(rank: int, p: int, endpoint: Endpoint, generation: int = 0) -> None:
    """Dissemination barrier: no rank returns before all have entered."""
    if endpoint.rank != rank or endpoint.world_size != p:
        raise CollectiveError("endpoint does not match caller's rank/size")
    distance = 1
    while distance < p:
        endpoint.send((rank + distance) % p, b"", MSG_BARRIER, generation, distance)
        try:
            msg = endpoint.recv((rank - distance) % p)
        except TransportError as err:
            raise CollectiveError(
                f"barrier distance {distance}: {err}"
            ) from err
        _expect(msg, MSG_BARRIER, generation, distance, "barrier")
        distance *= 2
