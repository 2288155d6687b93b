"""Tests for the benchmark's own load client and metric table.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import run  # noqa: E402


def fake_connection(data: bytes, piece: int) -> client.Connection:
    """A connection whose socket hands *data* back *piece* bytes at a time."""
    chunks = [data[i:i + piece] for i in range(0, len(data), piece)]

    def recv(_size: int) -> bytes:
        return chunks.pop(0) if chunks else b""

    return client.Connection("unused", 0, recv=recv, send=lambda wire: None)


RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 13\r\n\r\n{\"asn\": 6451}"
)


@pytest.mark.parametrize("piece", [1, 2, 7, 64, 4096])
def test_response_framing_survives_split_reads(piece):
    conn = fake_connection(RESPONSE * 2, piece)
    for _ in range(2):
        status, headers, body = conn.read_response()
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"asn": 6451}


def test_body_length_comes_from_content_length():
    data = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK"
    status, _, body = fake_connection(data, 5).read_response()
    assert (status, body) == (404, b"{}")


@pytest.mark.parametrize(
    "data",
    [
        b"HTTP/1.1 200 OK\r\n\r\n",  # no Content-Length
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"garbage\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    ],
)
def test_malformed_responses_raise_framing_error(data):
    with pytest.raises(client.FramingError):
        fake_connection(data, 3).read_response()


def test_truncated_body_is_a_connection_error():
    data = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
    with pytest.raises(ConnectionError):
        fake_connection(data, 4).read_response()


@pytest.mark.parametrize(
    "status, planted, expected",
    [
        (200, False, client.OK),
        (204, False, client.OK),
        (404, True, client.EXPECTED_404),
        (404, False, client.CLIENT_ERROR),
        (200, True, client.OK),
        (400, False, client.CLIENT_ERROR),
        (413, False, client.CLIENT_ERROR),
        (429, False, client.SHED),
        (500, False, client.SERVER_ERROR),
        (503, True, client.SERVER_ERROR),
    ],
)
def test_status_classing(status, planted, expected):
    assert client.classify(status, planted) == expected
    assert (expected in client.FAILURE_CLASSES) == (
        expected not in (client.OK, client.EXPECTED_404)
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class SlowConnection:
    """Answers 200 after *service* seconds of fake time."""

    def __init__(self, clock: FakeClock, service: float) -> None:
        self._clock = clock
        self._service = service

    def request(self, wire: bytes):
        self._clock.now += self._service
        return 200, b"{}"

    def close(self) -> None:
        pass


def test_open_loop_times_latency_from_the_due_time():
    clock = FakeClock()
    requests = [client.get("/v1/asn/1", ("asn", 1))]
    # 10 req/s on one connection whose answers take 0.25 s: request k is
    # due at k/10 but cannot go out before request k-1 has come back.
    report = client.open_loop(
        "unused", 0, requests, seconds=0.5, rate=10.0, connections=1,
        clock=clock, sleep=clock.sleep,
        connect=lambda: SlowConnection(clock, 0.25),
    )
    assert report.attempted == 5 and report.failed == 0
    assert report.lateness == pytest.approx([0.0, 0.15, 0.30, 0.45, 0.60])
    assert report.latencies == pytest.approx([0.25, 0.40, 0.55, 0.70, 0.85])


def test_open_loop_on_time_when_the_server_keeps_up():
    clock = FakeClock()
    requests = [client.get("/v1/asn/1", ("asn", 1))]
    report = client.open_loop(
        "unused", 0, requests, seconds=1.0, rate=20.0, connections=1,
        clock=clock, sleep=clock.sleep,
        connect=lambda: SlowConnection(clock, 0.01),
    )
    assert report.attempted == 20
    assert max(report.lateness) == pytest.approx(0.0)
    assert report.latencies == pytest.approx([0.01] * 20)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert client.percentile(values, 50) == 50
    assert client.percentile(values, 99) == 99
    assert client.percentile(values, 100) == 100
    assert client.percentile([], 99) == 0.0


def test_samplers_are_seeded():
    keys = list(range(1000))

    def draw(seed):
        sampler = client.ZipfSampler(keys, 1.1, random.Random(seed))
        return [sampler.draw() for _ in range(50)]

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)
