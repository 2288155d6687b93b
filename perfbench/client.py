"""Keep-alive HTTP/1.1 load client for the serve workloads.

The benchmark drives ``borges serve`` with this client rather than with
``repro.serve.loadgen``: a change to the program's own load generator
must not be able to move the benchmark's numbers.  It speaks raw
HTTP/1.1 over persistent sockets from one process, one thread per
connection, and never opens more connections than the host has cores.

Two loops share the connection code:

* :func:`closed_loop` — each connection sends its next request when the
  previous response has arrived; the request rate measures capacity.
* :func:`open_loop` — requests are due on a fixed schedule regardless of
  how fast answers come back.  Latency is timed from each request's due
  time, so a stall also charges the requests queued behind it, and the
  client reports how late it sent each request.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Response status classes.  A planted unknown ASN answering 404 is the
#: correct answer and classes as ``expected_404``.
OK, EXPECTED_404, SHED, CLIENT_ERROR, SERVER_ERROR, CONN_ERROR = (
    "ok", "expected_404", "shed", "client_error", "server_error", "conn_error",
)
FAILURE_CLASSES = (SHED, CLIENT_ERROR, SERVER_ERROR, CONN_ERROR)


class FramingError(Exception):
    """The server sent bytes that are not a well-formed HTTP/1.1 response."""


@dataclass(frozen=True)
class Request:
    """One pre-encoded request plus what a correct answer looks like."""

    wire: bytes
    #: True for a planted unknown ASN, whose correct answer is 404.
    expect_404: bool = False
    #: Cacheable keys the request asks the server's response cache for.
    cache_keys: int = 1
    #: What is asked, e.g. ``("asn", 64512)``, for checking the answer.
    key: tuple = ()


def get(
    path: str, key: tuple = (), expect_404: bool = False, cache_keys: int = 1
) -> Request:
    wire = f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")
    return Request(wire, expect_404, cache_keys, key)


def post_json(
    path: str, document: object, key: tuple = (), cache_keys: int = 1
) -> Request:
    body = json.dumps(document, separators=(",", ":")).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return Request(head + body, False, cache_keys, key)


def classify(status: int, expect_404: bool) -> str:
    """Map an HTTP status to a response class."""
    if 200 <= status < 300:
        return OK
    if status == 404 and expect_404:
        return EXPECTED_404
    if status == 429:
        return SHED
    if status >= 500:
        return SERVER_ERROR
    return CLIENT_ERROR


class Connection:
    """One persistent HTTP/1.1 connection with response framing.

    *recv* is the socket's ``recv`` by default; tests pass a fake that
    hands bytes back in arbitrary pieces.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        recv: Optional[Callable[[int], bytes]] = None,
        send: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._recv = recv
        self._send = send
        self._buffer = b""

    def _connect(self) -> None:
        sock = socket.create_connection((self._host, self._port), self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._recv = sock.recv
        self._send = sock.sendall
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
            self._recv = None
            self._send = None
        self._buffer = b""

    def _fill(self) -> None:
        chunk = self._recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        """Read exactly one response: status, lower-cased headers, body."""
        while True:
            end = self._buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = self._buffer[:end].decode("latin-1")
        self._buffer = self._buffer[end + 4:]
        lines = head.split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise FramingError(f"bad status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError:
            raise FramingError(f"bad status code {parts[1]!r}") from None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise FramingError(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length")
        if raw_length is None:
            raise FramingError("response without Content-Length")
        try:
            length = int(raw_length)
        except ValueError:
            raise FramingError(f"bad Content-Length {raw_length!r}") from None
        if length < 0:
            raise FramingError(f"negative Content-Length {length}")
        while len(self._buffer) < length:
            self._fill()
        body = self._buffer[:length]
        self._buffer = self._buffer[length:]
        return status, headers, body

    def request(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``.

        Reconnects first when there is no open socket, and closes the
        socket after a response carrying ``Connection: close``.
        """
        if self._send is None:
            self._connect()
        self._send(wire)
        status, headers, body = self.read_response()
        if headers.get("connection", "").lower() == "close" and self._sock:
            self.close()
        return status, body


@dataclass
class LoopReport:
    """What one loop saw: class counts, latencies and client lateness."""

    seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    #: Seconds from each request's due time to its response (open loop).
    latencies: List[float] = field(default_factory=list)
    #: Seconds each request was sent after its due time (open loop).
    lateness: List[float] = field(default_factory=list)
    #: Seconds from the loop's start to each response's arrival.
    done_at: List[float] = field(default_factory=list)
    cache_keys: int = 0
    client_cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return sum(self.counts.get(name, 0) for name in FAILURE_CLASSES)

    def merge(self, other: "LoopReport") -> None:
        self.seconds += other.seconds
        self.client_cpu_s += other.client_cpu_s
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count
        self.latencies.extend(other.latencies)
        self.lateness.extend(other.lateness)
        self.done_at.extend(other.done_at)
        self.cache_keys += other.cache_keys


def _issue(conn: Connection, request: Request, report: LoopReport) -> None:
    try:
        status, _ = conn.request(request.wire)
        kind = classify(status, request.expect_404)
    except (OSError, ConnectionError, FramingError):
        conn.close()
        kind = CONN_ERROR
    report.counts[kind] = report.counts.get(kind, 0) + 1
    report.cache_keys += request.cache_keys


def _run_threads(
    target: Callable[[int, LoopReport], None], connections: int
) -> LoopReport:
    """Run one *target* thread per connection with the cyclic garbage
    collector paused: the loops make no reference cycles, and a full
    collection over the caller's heap would stall the schedule."""
    reports = [LoopReport() for _ in range(connections)]
    threads = [
        threading.Thread(target=target, args=(i, reports[i]), daemon=True)
        for i in range(connections)
    ]
    collecting = gc.isenabled()
    gc.disable()
    try:
        cpu = time.process_time()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        cpu_s = time.process_time() - cpu
    finally:
        if collecting:
            gc.enable()
    total = LoopReport(seconds=elapsed, client_cpu_s=cpu_s)
    for report in reports:
        total.merge(report)
    return total


def closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    seconds: float,
    connections: int,
) -> LoopReport:
    """Send back-to-back requests on each connection for *seconds*.

    Connection *i* walks the request list from position *i* in strides
    of *connections*, so the connections together replay the list in
    order.
    """
    start = time.perf_counter()

    def worker(i: int, report: LoopReport) -> None:
        conn = Connection(host, port)
        position = i
        try:
            while time.perf_counter() - start < seconds:
                _issue(conn, requests[position % len(requests)], report)
                report.done_at.append(time.perf_counter() - start)
                position += connections
        finally:
            conn.close()

    return _run_threads(worker, connections)


def open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    seconds: float,
    rate: float,
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    connect: Optional[Callable[[], Connection]] = None,
) -> LoopReport:
    """Send ``rate × seconds`` requests, each due at ``start + k / rate``.

    Request *k* goes out on connection ``k % connections``.  A connection
    still busy when its next request falls due sends it late; the
    request's latency runs from its due time regardless.  *clock*,
    *sleep* and *connect* exist so tests can drive the schedule.
    """
    total = int(rate * seconds)
    start = clock() + 0.01

    def worker(i: int, report: LoopReport) -> None:
        conn = connect() if connect is not None else Connection(host, port)
        try:
            for k in range(i, total, connections):
                due = start + k / rate
                now = clock()
                if now < due:
                    sleep(due - now)
                    now = clock()
                report.lateness.append(max(0.0, now - due))
                _issue(conn, requests[k % len(requests)], report)
                done = clock()
                report.latencies.append(done - due)
                report.done_at.append(done - start)
        finally:
            conn.close()

    return _run_threads(worker, connections)


# -- key samplers --------------------------------------------------------------


class ZipfSampler:
    """Draw keys with probability ∝ rank^-s over a seeded shuffle of *keys*."""

    def __init__(self, keys: Sequence[int], s: float, rng: random.Random):
        self._keys = list(keys)
        rng.shuffle(self._keys)
        weights = [1.0 / (rank ** s) for rank in range(1, len(self._keys) + 1)]
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            self._cumulative.append(running)
        self._rng = rng

    def draw(self) -> int:
        target = self._rng.random() * self._cumulative[-1]
        index = bisect.bisect_left(self._cumulative, target)
        return self._keys[min(index, len(self._keys) - 1)]


class UniformSampler:
    """Draw keys uniformly from *keys*."""

    def __init__(self, keys: Sequence[int], rng: random.Random):
        self._keys = list(keys)
        self._rng = rng

    def draw(self) -> int:
        return self._keys[self._rng.randrange(len(self._keys))]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]
