"""The injected network delay, on a fake clock.

A message is ready latency + bytes * byte_time after its transfer
starts. In-process, a transfer starts when the message is sent; over
TCP, when its frame has been read. A receiver's inbound link carries
one message at a time, so a transfer never starts before the link's
previous message is ready.
"""

import threading

import pytest

from gradpipe import transport
from gradpipe.transport import InProcTransport, TcpEndpoint
from helpers import free_ports

DELAY = 0.05


class FakeClock:
    """perf_counter and sleep over a clock that only sleeping advances."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(transport, "time", fake)
    return fake


class TestInProcDelay:
    def test_prompt_receiver_waits_the_whole_delay(self, clock):
        net = InProcTransport(2, latency_s=DELAY)
        net.endpoint(0).send(1, b"x")
        net.endpoint(1).recv(0)
        assert clock.sleeps == [pytest.approx(DELAY)]

    def test_late_receiver_waits_only_the_rest(self, clock):
        net = InProcTransport(2, latency_s=DELAY)
        net.endpoint(0).send(1, b"x")
        clock.now += 0.4 * DELAY
        net.endpoint(1).recv(0)
        assert clock.sleeps == [pytest.approx(0.6 * DELAY)]

    def test_receiver_after_ready_does_not_wait(self, clock):
        net = InProcTransport(2, latency_s=DELAY)
        net.endpoint(0).send(1, b"x")
        clock.now += 2 * DELAY
        net.endpoint(1).recv(0)
        assert clock.sleeps == []

    def test_byte_time_charges_every_byte(self, clock):
        net = InProcTransport(2, latency_s=DELAY, byte_time_s=1e-3)
        net.endpoint(0).send(1, bytes(10))
        net.endpoint(1).recv(0)
        assert clock.sleeps == [pytest.approx(DELAY + 10e-3)]

    def test_inbound_transfers_are_serialised(self, clock):
        # Two workers send to one server at the same moment: the second
        # transfer starts when the first is ready.
        net = InProcTransport(3, latency_s=DELAY)
        start = clock.now
        net.endpoint(1).send(0, b"x")
        net.endpoint(2).send(0, b"x")
        server = net.endpoint(0)
        server.recv(1)
        assert clock.now == pytest.approx(start + DELAY)
        server.recv(2)
        assert clock.now == pytest.approx(start + 2 * DELAY)

    def test_links_to_different_receivers_run_side_by_side(self, clock):
        net = InProcTransport(3, latency_s=DELAY)
        start = clock.now
        net.endpoint(0).send(1, b"x")
        net.endpoint(0).send(2, b"x")
        clock.now += DELAY
        net.endpoint(1).recv(0)
        net.endpoint(2).recv(0)
        assert clock.sleeps == [] and clock.now == pytest.approx(start + DELAY)


def test_tcp_delay_runs_from_the_frame_read(monkeypatch):
    # TCP frames carry no send time: each recv waits the whole delay after
    # reading its frame, however long the frame sat in the socket.
    roster = [("127.0.0.1", port) for port in free_ports(2)]
    endpoints = [None, None]

    def connect(rank):
        endpoints[rank] = TcpEndpoint(rank, roster, latency_s=DELAY, timeout_s=10.0)

    threads = [threading.Thread(target=connect, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    sender, receiver = endpoints
    try:
        clock = FakeClock()
        monkeypatch.setattr(transport, "time", clock)
        sender.send(1, b"x")
        sender.send(1, b"y")
        clock.now += 2 * DELAY
        assert bytes(receiver.recv(0).payload) == b"x"
        assert bytes(receiver.recv(0).payload) == b"y"
        assert clock.sleeps == [pytest.approx(DELAY), pytest.approx(DELAY)]
    finally:
        for endpoint in endpoints:
            if endpoint is not None:
                endpoint.close()
