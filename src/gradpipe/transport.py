"""Point-to-point transports: shared-memory queues and a TCP mesh.

Both transports present the same endpoint interface: ``send(dst, ...)``
and a blocking ``recv(src)`` with FIFO, exactly-once delivery per
(src, dst) channel. Synthetic network conditions are modeled by an
optional per-message latency (seconds) and per-byte transfer time
(seconds/byte) applied as a sleep at the receiver after dequeue, which
makes one ring step cost latency + bytes * byte_time on top of real
overheads.

Every endpoint counts its outgoing data traffic: message count, codec
payload bytes (excluding the 9-byte block header), and framed bytes.

TCP wire frame (little-endian):
u32 frame_length | u8 msg_type | u32 iteration | u16 block_index | payload
where frame_length counts everything after itself. Rank r listens on the
roster's r-th host:port; each rank dials every lower rank, so the full
mesh exists before any collective starts.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .compression import HEADER_BYTES
from .errors import ConfigError, TransportError

MSG_DATA = 0
MSG_BARRIER = 1

FRAME_HEADER = struct.Struct("<IBIH")
_FRAME_TAIL = struct.Struct("<BIH")  # msg_type, iteration, block_index

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_CONNECT_TIMEOUT_S = 30.0


@dataclass
class Message:
    msg_type: int
    iteration: int
    block_index: int
    payload: bytes


@dataclass
class TrafficStats:
    """Outgoing-traffic counters for one endpoint (data messages only)."""

    messages: int = 0
    payload_bytes: int = 0
    frame_bytes: int = 0

    def snapshot(self) -> "TrafficStats":
        return TrafficStats(self.messages, self.payload_bytes, self.frame_bytes)


class Endpoint:
    """Common bookkeeping for both transport flavors."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        latency_s: float = 0.0,
        byte_time_s: float = 0.0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        if not 0 <= rank < world_size:
            raise ConfigError(f"rank {rank} outside [0, {world_size})")
        self.rank = rank
        self.world_size = world_size
        self.latency_s = latency_s
        self.byte_time_s = byte_time_s
        self.timeout_s = timeout_s
        self.stats = TrafficStats()
        self._stats_lock = threading.Lock()

    def _count_send(self, msg_type: int, payload: bytes) -> None:
        if msg_type != MSG_DATA:
            return
        with self._stats_lock:
            self.stats.messages += 1
            self.stats.payload_bytes += max(0, len(payload) - HEADER_BYTES)
            self.stats.frame_bytes += FRAME_HEADER.size + len(payload)

    def _injected_delay(self, payload: bytes) -> None:
        delay = self.latency_s + len(payload) * self.byte_time_s
        if delay > 0:
            time.sleep(delay)

    # subclasses implement send / recv / close
    def send(
        self, dst: int, payload: bytes, msg_type: int = MSG_DATA,
        iteration: int = 0, block_index: int = 0,
    ) -> None:
        raise NotImplementedError

    def recv(self, src: int, timeout_s: float | None = None) -> Message:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InProcEndpoint(Endpoint):
    def __init__(self, transport: "InProcTransport", rank: int):
        super().__init__(
            rank,
            transport.world_size,
            transport.latency_s,
            transport.byte_time_s,
            transport.timeout_s,
        )
        self._transport = transport

    def send(self, dst, payload, msg_type=MSG_DATA, iteration=0, block_index=0):
        if not 0 <= dst < self.world_size:
            raise TransportError(f"rank {self.rank}: bad destination {dst}")
        self._count_send(msg_type, payload)
        self._transport.queues[(self.rank, dst)].put(
            Message(msg_type, iteration, block_index, payload)
        )

    def recv(self, src, timeout_s=None):
        if not 0 <= src < self.world_size:
            raise TransportError(f"rank {self.rank}: bad source {src}")
        try:
            msg = self._transport.queues[(src, self.rank)].get(
                timeout=self.timeout_s if timeout_s is None else timeout_s
            )
        except queue.Empty:
            raise TransportError(
                f"rank {self.rank}: timed out waiting for rank {src}"
            ) from None
        self._injected_delay(msg.payload)
        return msg


class InProcTransport:
    """Shared-memory mesh for p workers living in one process."""

    def __init__(
        self,
        world_size: int,
        latency_s: float = 0.0,
        byte_time_s: float = 0.0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        if world_size < 1:
            raise ConfigError(f"world size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.latency_s = latency_s
        self.byte_time_s = byte_time_s
        self.timeout_s = timeout_s
        self.queues: dict[tuple[int, int], queue.Queue] = {
            (s, d): queue.Queue()
            for s in range(world_size)
            for d in range(world_size)
        }
        self._endpoints = [InProcEndpoint(self, r) for r in range(world_size)]

    def endpoint(self, rank: int) -> InProcEndpoint:
        return self._endpoints[rank]


def _recv_exact(sock: socket.socket, n: int, who: str) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TransportError(f"{who}: connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TcpEndpoint(Endpoint):
    """One rank of a TCP full mesh; typically one per process.

    Connection setup: listen on roster[rank], dial every lower rank, and
    accept from every higher rank; a 4-byte rank handshake identifies
    each inbound peer.
    """

    def __init__(
        self,
        rank: int,
        roster: list[tuple[str, int]],
        latency_s: float = 0.0,
        byte_time_s: float = 0.0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        connect_timeout_s: float | None = None,
    ):
        super().__init__(rank, len(roster), latency_s, byte_time_s, timeout_s)
        if connect_timeout_s is None:
            connect_timeout_s = DEFAULT_CONNECT_TIMEOUT_S
        self._socks: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._recv_locks: dict[int, threading.Lock] = {}
        if self.world_size == 1:
            self._listener = None
            return

        host, port = roster[rank]
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(self.world_size)
        listener.settimeout(connect_timeout_s)
        self._listener = listener

        deadline = time.monotonic() + connect_timeout_s
        for peer in range(rank):
            self._socks[peer] = self._dial(roster[peer], deadline)
        for _ in range(rank + 1, self.world_size):
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                raise TransportError(
                    f"rank {rank}: timed out accepting mesh connections"
                ) from None
            (peer,) = struct.unpack("<I", _recv_exact(conn, 4, f"rank {rank}"))
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks[peer] = conn
        for peer, sock in self._socks.items():
            self._send_locks[peer] = threading.Lock()
            self._recv_locks[peer] = threading.Lock()
            sock.settimeout(self.timeout_s)

    def _dial(self, addr: tuple[str, int], deadline: float) -> socket.socket:
        last_err: Exception | None = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(addr, timeout=2.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(struct.pack("<I", self.rank))
                return sock
            except OSError as err:  # peer not listening yet
                last_err = err
                time.sleep(0.05)
        raise TransportError(
            f"rank {self.rank}: could not reach {addr[0]}:{addr[1]} ({last_err})"
        )

    def send(self, dst, payload, msg_type=MSG_DATA, iteration=0, block_index=0):
        if dst == self.rank or dst not in self._socks:
            raise TransportError(f"rank {self.rank}: bad destination {dst}")
        frame = FRAME_HEADER.pack(
            _FRAME_TAIL.size + len(payload), msg_type, iteration, block_index
        ) + payload
        self._count_send(msg_type, payload)
        with self._send_locks[dst]:
            try:
                self._socks[dst].sendall(frame)
            except OSError as err:
                raise TransportError(f"rank {self.rank}: send to {dst}: {err}") from err

    def recv(self, src, timeout_s=None):
        if src == self.rank or src not in self._socks:
            raise TransportError(f"rank {self.rank}: bad source {src}")
        sock = self._socks[src]
        with self._recv_locks[src]:
            if timeout_s is not None:
                sock.settimeout(timeout_s)
            try:
                head = _recv_exact(sock, FRAME_HEADER.size, f"rank {self.rank}")
                length, msg_type, iteration, block_index = FRAME_HEADER.unpack(head)
                if length < _FRAME_TAIL.size:
                    raise TransportError(
                        f"rank {self.rank}: frame from rank {src} declares length "
                        f"{length}, shorter than its {_FRAME_TAIL.size}-byte header"
                    )
                payload = _recv_exact(
                    sock, length - _FRAME_TAIL.size, f"rank {self.rank}"
                )
            except socket.timeout:
                raise TransportError(
                    f"rank {self.rank}: timed out waiting for rank {src}"
                ) from None
            except OSError as err:
                raise TransportError(f"rank {self.rank}: recv from {src}: {err}") from err
            finally:
                if timeout_s is not None:
                    sock.settimeout(self.timeout_s)
        self._injected_delay(payload)
        return Message(msg_type, iteration, block_index, payload)

    def close(self):
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass
        if self._listener is not None:
            self._listener.close()


def parse_roster(text: str) -> list[tuple[str, int]]:
    """host:port per line; blank lines and #-comments ignored."""
    roster = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        host, sep, port = line.rpartition(":")
        if not sep or not port.isdigit():
            raise ConfigError(f"roster line {lineno}: expected host:port, got {line!r}")
        roster.append((host, int(port)))
    if not roster:
        raise ConfigError("roster is empty")
    return roster
