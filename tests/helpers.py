"""Shared helpers for the tests: in-process rank groups, free loopback
ports and the engine's batch sequence."""

import socket
import threading

import numpy as np

from gradpipe.data import sample_from_shard
from gradpipe.transport import InProcTransport


def run_ranks(p, fn, latency_s=0.0, byte_time_s=0.0, timeout_s=10.0):
    """Run fn(rank, endpoint) on p threads; re-raise the first failure."""
    transport = InProcTransport(p, latency_s, byte_time_s, timeout_s)
    results = [None] * p
    errors = []

    def runner(rank):
        try:
            results[rank] = fn(rank, transport.endpoint(rank))
        except BaseException as err:
            errors.append(err)

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    if errors:
        raise errors[0]
    return results


def free_ports(count):
    """count loopback ports that were free a moment ago."""
    socks = []
    ports = []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        ports.append(s.getsockname()[1])
        socks.append(s)
    for s in socks:
        s.close()
    return ports


def assert_sum_close(out, want, rtol=1e-6):
    """1e-6 relative with a magnitude-scaled absolute floor for zero crossings."""
    atol = rtol * max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(out, want, rtol=rtol, atol=atol)


def engine_batches(data, rank, workers, batch_size, seed, count):
    """Replicate the engine's per-worker batch sequence."""
    rng = np.random.default_rng([seed, rank])
    shard = data.shard(rank, workers)
    return [sample_from_shard(shard, batch_size, rng) for _ in range(count)]
