"""Point-to-point transports: shared-memory queues and a TCP mesh.

Both transports present the same endpoint interface: ``send(dst, ...)``
and a blocking ``recv(src)`` with FIFO, exactly-once delivery per
(src, dst) channel. Synthetic network conditions are modeled by an
optional per-message latency (seconds) and per-byte transfer time
(seconds/byte): a message is ready latency + bytes * byte_time after
its transfer starts, and the receiver sleeps until then after dequeue.
A receiver's inbound link carries one message at a time, so a transfer
starts when the message is sent (in-process; on TCP, when its frame
has been read) or when the link's previous message is ready, whichever
is later. One ring step then costs latency + bytes * byte_time on top
of real overheads, and a peer that sent early does not pay its wait
again as latency.

Every endpoint counts its outgoing data traffic: message count, codec
payload bytes (excluding the 9-byte block header), and framed bytes.

TCP wire frame (little-endian):
u32 frame_length | u8 msg_type | u32 iteration | u16 block_index | payload
where frame_length counts everything after itself and may not exceed
MAX_FRAME_BYTES. A frame goes out as one `sendmsg` of the header and the
caller's payload buffer, and comes in through `recv_into` a buffer of
the declared size, so neither side copies the payload. Rank r listens
on the roster's r-th host:port; each rank dials every lower rank, so
the full mesh exists before any collective starts.
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

# Upper bound on frame_length: a corrupt length field must not make the
# receiver allocate up to 4 GiB.
MAX_FRAME_BYTES = 1 << 30

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_CONNECT_TIMEOUT_S = 30.0
# A dial that finds no listener yet retries after a pause that starts
# here and doubles up to the cap, until the connect deadline.
DIAL_RETRY_FIRST_S = 0.001
DIAL_RETRY_MAX_S = 0.05

Buffer = bytes | bytearray | memoryview


@dataclass
class Message:
    msg_type: int
    iteration: int
    block_index: int
    payload: Buffer
    sent_at: float | None = None  # time.perf_counter() at send, in-process only


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
        self._link_free_at = 0.0  # when the inbound link's last message is ready
        self._link_lock = threading.Lock()

    def _count_send(self, msg_type: int, payload: Buffer) -> None:
        if msg_type != MSG_DATA:
            return
        with self._stats_lock:
            self.stats.messages += 1
            self.stats.payload_bytes += max(0, len(payload) - HEADER_BYTES)
            self.stats.frame_bytes += FRAME_HEADER.size + len(payload)

    def _injected_delay(self, payload: Buffer, sent_at: float | None = None) -> None:
        delay = self.latency_s + len(payload) * self.byte_time_s
        if delay <= 0:
            return
        now = time.perf_counter()
        with self._link_lock:
            start = max(now if sent_at is None else sent_at, self._link_free_at)
            ready = self._link_free_at = start + delay
        if ready > now:
            time.sleep(ready - now)

    # subclasses implement send / recv / close
    def send(
        self, dst: int, payload: Buffer, msg_type: int = MSG_DATA,
        iteration: int = 0, block_index: int = 0,
    ) -> None:
        raise NotImplementedError

    def recv(self, src: int) -> Message:
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
            Message(msg_type, iteration, block_index, payload, time.perf_counter())
        )

    def recv(self, src):
        if not 0 <= src < self.world_size:
            raise TransportError(f"rank {self.rank}: bad source {src}")
        try:
            msg = self._transport.queues[(src, self.rank)].get(timeout=self.timeout_s)
        except queue.Empty:
            raise TransportError(
                f"rank {self.rank}: timed out waiting for rank {src}"
            ) from None
        self._injected_delay(msg.payload, msg.sent_at)
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


def _recv_exact(sock: socket.socket, n: int, who: str) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        count = sock.recv_into(view[got:])
        if not count:
            raise TransportError(f"{who}: connection closed mid-frame")
        got += count
    return buf


def _send_parts(sock: socket.socket, head: bytes, payload: Buffer) -> None:
    sent = sock.sendmsg([head, payload])
    if sent < len(head):  # the kernel took less than the header
        sock.sendall(head[sent:])
        sent = len(head)
    if sent - len(head) < len(payload):
        sock.sendall(memoryview(payload)[sent - len(head) :])


class TcpEndpoint(Endpoint):
    """One rank of a TCP full mesh; typically one per process.

    Connection setup: listen on roster[rank], dial every lower rank, and
    accept from every higher rank; a 4-byte rank handshake identifies
    each inbound peer. A peer that claims a rank outside the higher ranks,
    or one already connected, fails the set-up, and a failed set-up closes
    every socket it opened.
    """

    def __init__(
        self,
        rank: int,
        roster: list[tuple[str, int]],
        latency_s: float = 0.0,
        byte_time_s: float = 0.0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        super().__init__(rank, len(roster), latency_s, byte_time_s, timeout_s)
        self._socks: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._recv_locks: dict[int, threading.Lock] = {}
        self._listener: socket.socket | None = None
        if self.world_size == 1:
            return

        try:
            self._connect_mesh(roster)
        except BaseException:
            self.close()
            raise
        for peer, sock in self._socks.items():
            self._send_locks[peer] = threading.Lock()
            self._recv_locks[peer] = threading.Lock()
            sock.settimeout(self.timeout_s)

    def _connect_mesh(self, roster: list[tuple[str, int]]) -> None:
        rank = self.rank
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        host, port = roster[rank]
        try:
            self._listener.bind((host, port))
            self._listener.listen(self.world_size)
        except OSError as err:
            raise TransportError(f"rank {rank}: cannot listen on {host}:{port}: {err}") from err
        self._listener.settimeout(DEFAULT_CONNECT_TIMEOUT_S)

        deadline = time.monotonic() + DEFAULT_CONNECT_TIMEOUT_S
        for peer in range(rank):
            self._socks[peer] = self._dial(roster[peer], deadline)
        for _ in range(rank + 1, self.world_size):
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                raise TransportError(
                    f"rank {rank}: timed out accepting mesh connections"
                ) from None
            try:
                conn.settimeout(DEFAULT_CONNECT_TIMEOUT_S)
                (peer,) = struct.unpack("<I", _recv_exact(conn, 4, f"rank {rank}"))
            except (OSError, TransportError) as err:
                conn.close()
                raise TransportError(f"rank {rank}: reading a peer's rank: {err}") from err
            if not rank < peer < self.world_size or peer in self._socks:
                conn.close()
                raise TransportError(
                    f"rank {rank}: inbound peer claims rank {peer}; expected "
                    f"an unconnected rank in ({rank}, {self.world_size})"
                )
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks[peer] = conn

    def _dial(self, addr: tuple[str, int], deadline: float) -> socket.socket:
        last_err: Exception | None = None
        pause = DIAL_RETRY_FIRST_S
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(addr, timeout=2.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(struct.pack("<I", self.rank))
                return sock
            except OSError as err:  # peer not listening yet
                last_err = err
                time.sleep(pause)
                pause = min(2 * pause, DIAL_RETRY_MAX_S)
        raise TransportError(
            f"rank {self.rank}: could not reach {addr[0]}:{addr[1]} ({last_err})"
        )

    def send(self, dst, payload, msg_type=MSG_DATA, iteration=0, block_index=0):
        if dst == self.rank or dst not in self._socks:
            raise TransportError(f"rank {self.rank}: bad destination {dst}")
        head = FRAME_HEADER.pack(
            _FRAME_TAIL.size + len(payload), msg_type, iteration, block_index
        )
        self._count_send(msg_type, payload)
        with self._send_locks[dst]:
            try:
                _send_parts(self._socks[dst], head, payload)
            except OSError as err:
                raise TransportError(f"rank {self.rank}: send to {dst}: {err}") from err

    def recv(self, src):
        if src == self.rank or src not in self._socks:
            raise TransportError(f"rank {self.rank}: bad source {src}")
        sock = self._socks[src]
        with self._recv_locks[src]:
            try:
                head = _recv_exact(sock, FRAME_HEADER.size, f"rank {self.rank}")
                length, msg_type, iteration, block_index = FRAME_HEADER.unpack(head)
                if length < _FRAME_TAIL.size:
                    raise TransportError(
                        f"rank {self.rank}: frame from rank {src} declares length "
                        f"{length}, shorter than its {_FRAME_TAIL.size}-byte header"
                    )
                if length > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"rank {self.rank}: frame from rank {src} declares length "
                        f"{length}, above the {MAX_FRAME_BYTES}-byte limit"
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
        if not (sep and port.isascii() and port.isdigit() and 0 < int(port) < 65536):
            raise ConfigError(
                f"roster line {lineno}: expected host:port with port 1-65535, got {line!r}"
            )
        roster.append((host, int(port)))
    if not roster:
        raise ConfigError("roster is empty")
    return roster
