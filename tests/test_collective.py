import contextlib
import socket
import struct
import threading
import time

import numpy as np
import pytest

from gradpipe.collective import (
    barrier,
    broadcast_from_root,
    gather_to_root,
    partition_blocks,
    ring_allreduce,
)
from gradpipe.compression import (
    Codec,
    compress,
    decompress,
    payload_size,
    serialize_block,
)
from gradpipe.errors import CollectiveError, TransportError
from gradpipe.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MSG_BARRIER,
    MSG_DATA,
    InProcTransport,
    TcpEndpoint,
)
from helpers import assert_sum_close, free_ports, run_ranks


def random_inputs(p, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, n).astype(np.float32) for _ in range(p)]


class TestPartition:
    def test_covers_and_balances(self):
        for n in (0, 1, 7, 16, 4099):
            for p in (1, 2, 3, 4, 8):
                blocks = partition_blocks(n, p)
                assert len(blocks) == p
                assert sum(length for _, length in blocks) == n
                lengths = [length for _, length in blocks]
                assert max(lengths) - min(lengths) <= 1
                cursor = 0
                for offset, length in blocks:
                    assert offset == cursor
                    cursor += length


class TestRingAllReduce:
    def test_two_party_sum(self):
        inputs = [np.array([1.0, 2.0], np.float32), np.array([3.0, 4.0], np.float32)]
        outs = run_ranks(2, lambda r, ep: ring_allreduce(inputs[r], r, 2, ep))
        for out in outs:
            assert np.array_equal(out, np.array([4.0, 6.0], np.float32))

    def test_matches_direct_sum(self):
        inputs = random_inputs(4, 1024, seed=0)
        want = np.sum(np.stack(inputs).astype(np.float64), axis=0)
        outs = run_ranks(4, lambda r, ep: ring_allreduce(inputs[r], r, 4, ep))
        for out in outs:
            assert_sum_close(out, want)

    def test_zeros_survive_quant8(self):
        zero = np.zeros(64, np.float32)
        outs = run_ranks(
            4, lambda r, ep: ring_allreduce(zero, r, 4, ep, Codec.QUANT8)
        )
        for out in outs:
            assert np.array_equal(out, zero)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 7, 1024, 4099])
    def test_sum_correctness_all_shapes(self, p, n):
        inputs = random_inputs(p, n, seed=p * 10_000 + n)
        want = np.sum(np.stack(inputs).astype(np.float64), axis=0)
        outs = run_ranks(p, lambda r, ep: ring_allreduce(inputs[r], r, p, ep))
        for out in outs:
            assert_sum_close(out, want)

    def test_all_ranks_bit_identical_lossy(self):
        for codec in (Codec.TRUNC16, Codec.QUANT8):
            inputs = random_inputs(4, 131, seed=7)
            outs = run_ranks(
                4, lambda r, ep: ring_allreduce(inputs[r], r, 4, ep, codec)
            )
            for out in outs[1:]:
                assert np.array_equal(out, outs[0])

    def test_quant8_error_envelope(self):
        p, n = 4, 512
        inputs = random_inputs(p, n, seed=11)
        want = np.sum(np.stack(inputs).astype(np.float64), axis=0)
        outs = run_ranks(
            p, lambda r, ep: ring_allreduce(inputs[r], r, p, ep, Codec.QUANT8)
        )
        envelope = p * max(np.abs(v).max() for v in inputs) / 64.0
        assert np.abs(outs[0].astype(np.float64) - want).max() <= envelope

    def test_message_and_byte_accounting(self):
        for p in (2, 4, 8):
            for codec in (Codec.NONE, Codec.TRUNC16, Codec.QUANT8):
                n = 1024  # divisible by every p tested

                def op(rank, ep):
                    vec = np.full(n, rank + 1.0, np.float32)
                    ring_allreduce(vec, rank, p, ep, codec)
                    return ep.stats.snapshot()

                stats = run_ranks(p, op)
                for s in stats:
                    assert s.messages == 2 * (p - 1)
                    assert s.payload_bytes == 2 * (p - 1) // 1 * payload_size(codec, n // p)
                    assert s.payload_bytes == int(
                        2 * ((p - 1) / p) * payload_size(codec, n)
                    )

    def test_timeout_produces_diagnostic(self):
        # Rank 1 never joins: rank 0's first receive times out.
        transport = InProcTransport(2, timeout_s=0.2)
        vec = np.ones(8, np.float32)
        with pytest.raises(CollectiveError, match="reduce-scatter step 0"):
            ring_allreduce(vec, 0, 2, transport.endpoint(0))

    def test_single_rank_is_identity(self):
        transport = InProcTransport(1)
        vec = np.array([5.0, -1.0], np.float32)
        out = ring_allreduce(vec, 0, 1, transport.endpoint(0), Codec.QUANT8)
        assert np.array_equal(out, vec)


class TestStarCollectives:
    def test_gather_unit_vectors(self):
        eye = np.eye(3, dtype=np.float32)
        outs = run_ranks(3, lambda r, ep: gather_to_root(eye[r], 0, r, 3, ep))
        assert np.array_equal(outs[0], np.ones(3, np.float32))
        assert outs[1] is None and outs[2] is None

    def test_gather_single_rank(self):
        transport = InProcTransport(1)
        vec = np.array([2.0], np.float32)
        out = gather_to_root(vec, 0, 0, 1, transport.endpoint(0))
        assert np.array_equal(out, vec)

    def test_gather_matches_direct_sum(self):
        inputs = random_inputs(4, 257, seed=5)
        want = np.sum(np.stack(inputs).astype(np.float64), axis=0)
        outs = run_ranks(4, lambda r, ep: gather_to_root(inputs[r], 2, r, 4, ep))
        assert_sum_close(outs[2], want)

    @pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
    def test_gather_wire_accounting(self, codec):
        p, n, root = 4, 257, 2
        inputs = random_inputs(p, n, seed=5)

        def op(rank, ep):
            out = gather_to_root(inputs[rank], root, rank, p, ep, codec)
            return out, ep.stats.snapshot()

        outs = run_ranks(p, op)
        want = inputs[root].copy()  # the root's own vector never goes on the wire
        for src in range(p):
            if src != root:
                want += decompress(compress(inputs[src], codec))
        assert np.array_equal(outs[root][0], want)
        for rank, (_, stats) in enumerate(outs):
            sent = 0 if rank == root else 1
            assert stats.messages == sent
            assert stats.payload_bytes == sent * payload_size(codec, n)

    def test_broadcast_small(self):
        value = np.array([1.5, -2.5], np.float32)
        outs = run_ranks(
            2,
            lambda r, ep: broadcast_from_root(value if r == 0 else None, 0, r, 2, ep),
        )
        for out in outs:
            assert np.array_equal(out, value)

    def test_broadcast_large_bit_exact(self):
        value = np.random.default_rng(6).normal(0, 1, 1_000_000).astype(np.float32)
        digest = value.tobytes()
        outs = run_ranks(
            8,
            lambda r, ep: broadcast_from_root(value if r == 0 else None, 0, r, 8, ep),
        )
        for out in outs:
            assert out.tobytes() == digest

    def test_broadcast_nonzero_root(self):
        value = np.arange(5, dtype=np.float32)
        outs = run_ranks(
            4,
            lambda r, ep: broadcast_from_root(value if r == 3 else None, 3, r, 4, ep),
        )
        for out in outs:
            assert np.array_equal(out, value)


class TestBarrier:
    def test_single_rank_returns_immediately(self):
        transport = InProcTransport(1)
        t0 = time.perf_counter()
        barrier(0, 1, transport.endpoint(0))
        assert time.perf_counter() - t0 < 0.05

    def test_all_wait_for_slowest(self):
        delay = 0.05

        def op(rank, ep):
            if rank == 3:
                time.sleep(delay)
            t0 = time.perf_counter()
            barrier(rank, 4, ep)
            return time.perf_counter() - t0, rank

        entered = time.perf_counter()
        outs = run_ranks(4, op)
        total = time.perf_counter() - entered
        assert total >= delay
        for waited, rank in outs:
            if rank != 3:
                assert waited >= delay * 0.8

    def test_repeated_barriers_no_deadlock(self):
        def op(rank, ep):
            for generation in range(100):
                barrier(rank, 4, ep, generation)
            return True

        assert all(run_ranks(4, op))


def run_tcp_ranks(p, fn, timeout_s=10.0, latency_s=0.0):
    roster = [("127.0.0.1", port) for port in free_ports(p)]
    results = [None] * p
    errors = []

    def runner(rank):
        endpoint = None
        try:
            endpoint = TcpEndpoint(rank, roster, latency_s=latency_s, timeout_s=timeout_s)
            results[rank] = fn(rank, endpoint)
        except BaseException as err:
            errors.append(err)
        finally:
            if endpoint is not None:
                endpoint.close()

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]
    return results


class TestTcpTransport:
    def test_allreduce_over_tcp(self):
        p = 3
        inputs = random_inputs(p, 515, seed=9)
        want = np.sum(np.stack(inputs).astype(np.float64), axis=0)
        outs = run_tcp_ranks(
            p, lambda r, ep: ring_allreduce(inputs[r], r, p, ep, Codec.TRUNC16)
        )
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
        np.testing.assert_allclose(outs[0], want, rtol=0.01, atol=0.01)

    def test_broadcast_and_barrier_over_tcp(self):
        value = np.arange(40, dtype=np.float32)

        def op(rank, ep):
            barrier(rank, 3, ep)
            out = broadcast_from_root(value if rank == 1 else None, 1, rank, 3, ep)
            barrier(rank, 3, ep, generation=1)
            return out

        for out in run_tcp_ranks(3, op):
            assert np.array_equal(out, value)

    def test_frame_larger_than_socket_buffer_over_tcp(self):
        # 8 MB outgrows the kernel's send buffer, so sendmsg returns short
        # and the rest of the frame must still follow it.
        value = np.random.default_rng(13).normal(0, 1, 2_000_000).astype(np.float32)
        outs = run_tcp_ranks(
            2,
            lambda r, ep: broadcast_from_root(value if r == 0 else None, 0, r, 2, ep),
        )
        for out in outs:
            assert out.tobytes() == value.tobytes()

    def test_message_accounting_over_tcp(self):
        p, n = 2, 64

        def op(rank, ep):
            ring_allreduce(np.ones(n, np.float32), rank, p, ep)
            return ep.stats.snapshot()

        for s in run_tcp_ranks(p, op):
            assert s.messages == 2 * (p - 1)
            assert s.payload_bytes == 2 * (p - 1) * payload_size(Codec.NONE, n // p)

    def test_short_frame_length_rejected(self):
        # The length field cannot even cover the fields that follow it.
        with _endpoint_facing_raw_peer(FRAME_HEADER.pack(3, 0, 0, 0)) as endpoint:
            with pytest.raises(TransportError, match="rank 0.*rank 1.*length 3"):
                endpoint.recv(1)

    def test_oversized_frame_length_rejected(self):
        # A corrupt length must fail before anything of that size is allocated.
        length = MAX_FRAME_BYTES + 1
        with _endpoint_facing_raw_peer(FRAME_HEADER.pack(length, 0, 0, 0)) as endpoint:
            with pytest.raises(TransportError, match=f"rank 0.*rank 1.*length {length}"):
                endpoint.recv(1)

    @pytest.mark.parametrize(
        "claims", [[7], [0], [1, 1]], ids=["out-of-range", "own-rank", "duplicate"]
    )
    def test_bad_inbound_peer_rejected(self, claims):
        roster = [("127.0.0.1", port) for port in free_ports(3)]
        peers = [
            threading.Thread(target=_raw_peer, args=(roster[0], struct.pack("<I", c)))
            for c in claims
        ]
        for peer in peers:
            peer.start()
        with pytest.raises(TransportError, match=f"rank 0: inbound peer claims rank {claims[-1]}"):
            TcpEndpoint(0, roster, timeout_s=5)
        for peer in peers:
            peer.join(timeout=10)
            assert not peer.is_alive()


def _raw_peer(addr, data):
    """Connect to addr, send data, and hold the connection until it closes."""
    deadline = time.monotonic() + 10
    while True:
        try:
            sock = socket.create_connection(addr, timeout=5)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    with sock:
        sock.sendall(data)
        try:
            sock.recv(1)
        except OSError:
            pass


@contextlib.contextmanager
def _endpoint_facing_raw_peer(frame):
    """Rank 0 of a 2-rank mesh whose rank 1 is a raw socket that completes
    the rank handshake and then sends `frame`."""
    roster = [("127.0.0.1", port) for port in free_ports(2)]
    peer = threading.Thread(
        target=_raw_peer, args=(roster[0], struct.pack("<I", 1) + frame)
    )
    peer.start()
    endpoint = TcpEndpoint(0, roster, timeout_s=5)
    try:
        yield endpoint
    finally:
        endpoint.close()
    peer.join(timeout=10)
    assert not peer.is_alive()


def _record_wire(endpoint):
    """Keep every payload the endpoint sends or receives."""
    wires = []
    send, recv = endpoint.send, endpoint.recv

    def recording_send(dst, payload, *args, **kwargs):
        wires.append(payload)
        return send(dst, payload, *args, **kwargs)

    def recording_recv(src, *args, **kwargs):
        msg = recv(src, *args, **kwargs)
        wires.append(msg.payload)
        return msg

    endpoint.send, endpoint.recv = recording_send, recording_recv
    return wires


class TestOwnedResults:
    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("codec", list(Codec), ids=lambda c: c.name.lower())
    def test_results_own_writeable_memory(self, codec, transport):
        p, n = 3, 301
        inputs = random_inputs(p, n, seed=12)

        def op(rank, ep):
            wires = _record_wire(ep)
            outs = [
                ring_allreduce(inputs[rank], rank, p, ep, codec),
                gather_to_root(inputs[rank], 0, rank, p, ep, codec),
                broadcast_from_root(inputs[0] if rank == 0 else None, 0, rank, p, ep),
            ]
            return [out for out in outs if out is not None], wires

        run = run_ranks if transport == "inproc" else run_tcp_ranks
        results = run(p, op)
        everything = [np.frombuffer(w, np.uint8) for _, wires in results for w in wires]
        everything += inputs
        for outs, _ in results:
            for out in outs:
                assert out.flags.writeable
                for other in everything:
                    assert not np.shares_memory(out, other)


# Receive sites at p=2 with an 8-element vector, keyed by site. Each
# entry: the rank that detects the fault, the rank whose messages are
# faked, the detecting rank's call, the messages that reach the site
# intact and then the one it expects, each as (msg_type, block_index,
# n_elems or None for an empty payload), and the step the error names.
_ITER = 5
_ONES = np.ones(8, np.float32)
_SITES = {
    "reduce-scatter": (
        0, 1, lambda ep: ring_allreduce(_ONES, 0, 2, ep, iteration=_ITER),
        [], (MSG_DATA, 1, 4), "reduce-scatter step 0",
    ),
    "allgather": (
        0, 1, lambda ep: ring_allreduce(_ONES, 0, 2, ep, iteration=_ITER),
        [(MSG_DATA, 1, 4)], (MSG_DATA, 0, 4), "allgather step 0",
    ),
    "gather": (
        0, 1, lambda ep: gather_to_root(_ONES, 0, 0, 2, ep, iteration=_ITER),
        [], (MSG_DATA, 0, 8), "gather from rank 1",
    ),
    "broadcast": (
        1, 0, lambda ep: broadcast_from_root(None, 0, 1, 2, ep, iteration=_ITER),
        [], (MSG_DATA, 0, None), "broadcast from root 0",
    ),
    "barrier": (
        0, 1, lambda ep: barrier(0, 2, ep, generation=_ITER),
        [], (MSG_BARRIER, 1, None), "barrier distance 1",
    ),
}
# What each cause does to the expected message, and what the error says.
_CAUSES = {
    "silent": (None, "timed out waiting for rank"),
    "iteration": (lambda t, b, n: (t, b, n, _ITER + 1), f"got type=\\d+ iter={_ITER + 1} "),
    "length": (lambda t, b, n: (t, b, n - 1, _ITER), "elems, expected"),
    "corrupt": (lambda t, b, n: (t, b, b"\x00\x01\x02", _ITER), "shorter than header"),
}
# Only a receiver that knows the vector's length can check it, which a
# broadcast receiver does not; only a data message is decoded, which a
# barrier message is not.
_FAULTS = [
    (site, cause)
    for site, entry in _SITES.items()
    for cause in _CAUSES
    if (cause != "length" or entry[4][2] is not None)
    and (cause != "corrupt" or entry[4][0] == MSG_DATA)
]


def _fake_send(endpoint, dst, msg_type, block_index, body, iteration):
    """Send an empty payload (body None), a block of `body` ones, or raw bytes."""
    if isinstance(body, bytes):
        payload = body
    else:
        payload = b"" if body is None else serialize_block(
            compress(np.ones(body, np.float32), Codec.NONE)
        )
    endpoint.send(dst, payload, msg_type, iteration, block_index)


class TestReceiveFaults:
    """Every receive site fails with a CollectiveError that names the
    detecting rank, the iteration and the step."""

    @pytest.mark.parametrize("site,cause", _FAULTS, ids=["-".join(f) for f in _FAULTS])
    def test_fault_names_rank_iteration_step(self, site, cause):
        rank, peer, call, intact, expected, step = _SITES[site]
        corrupt, says = _CAUSES[cause]
        transport = InProcTransport(2, timeout_s=0.2)
        fake = transport.endpoint(peer)
        for msg in intact:
            _fake_send(fake, rank, *msg, _ITER)
        if corrupt is not None:
            _fake_send(fake, rank, *corrupt(*expected))
        with pytest.raises(CollectiveError, match=f"^rank {rank}, iteration {_ITER}, {step}: .*{says}"):
            call(transport.endpoint(rank))
