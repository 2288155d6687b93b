"""The Borges benchmark workloads.

Every workload walks the chain a user of Borges pays for: generate the
inputs, build the mapping, refresh it over unchanged inputs, publish it
as a compiled snapshot blob, and serve that blob over HTTP.  The first
60% of a run repeats build cycles; the rest serves the last blob.  The
two workloads take opposite sides of both choices that matter:

* ``build_lookup`` — single-shot build cycles (``BorgesPipeline``), then
  single reads of Zipf-distributed ASNs that the server's response cache
  mostly answers, so socket, HTTP parsing and admission dominate the
  serving part.  Partition and reduce do no work.
* ``sharded_bulk`` — the build cycles run ``run_sharded(n_shards=4)``,
  which adds partition, per-shard dataset restriction and re-digest, the
  supervised fan-out and reduce.  Serving sends ``POST /v1/batch`` of 100
  uniformly drawn ASNs, so each HTTP request buys 100 lookups and blob
  decoding plus JSON encoding dominate.

With ``trace`` on, the same run also records per-layer numbers, timed
from here around calls into each module's public functions.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import client

#: The imports whose cost ``setup_s`` includes.
IMPORTS = (
    "import repro.universe.generator, repro.core.pipeline, "
    "repro.serve.index, repro.serve.shm"
)


@dataclass(frozen=True)
class Spec:
    """The two factors the workloads vary."""

    sharded: bool
    #: ``"lookup"`` (single reads) or ``"bulk"`` (100-ASN batches).
    traffic: str
    #: Open-loop rate in requests/s: about 40% of the closed-loop capacity
    #: measured on a 2-core host at the commit that defined the benchmark.
    #: At half of it, requests on the two connections began to queue
    #: behind each other in the server and p50 flipped between ≈0.5 and
    #: ≈3 ms from run to run.
    rate: float


SPECS: Dict[str, Spec] = {
    "build_lookup": Spec(False, "lookup", 1000.0),
    "sharded_bulk": Spec(True, "bulk", 200.0),
}

#: ``UniverseConfig.n_organizations`` — the repository's default
#: universe, ≈14k ASNs.  One 100k-ASN build cycle alone takes ≈35 s.
ORGS = 9_000
#: Share of ``--seconds`` spent on build cycles; the rest serves.  At
#: least MIN_CYCLES cycles run, so their medians mean something.
CYCLE_SHARE = 0.6
MIN_CYCLES = 3
REFRESH_REPEATS = 2
#: Serving: a closed loop, then an open loop twice as long.
CLOSED_SHARE = 1 / 3
#: The closed-loop rate is the median over windows of this many seconds;
#: open-loop p50/p99 are medians over windows of this many responses,
#: so each window's p99 has ten samples beyond it.
RATE_WINDOW_S = 0.25
LATENCY_WINDOW = 1000
N_SHARDS = 4
BATCH_SIZE = 100
ZIPF_S = 1.1
#: Planted unknown ASNs live above every ASN the generator allocates.
UNKNOWN_ASN_BASE = 4_100_000_000
SETUP_REPEATS = 3
CHECK_SAMPLE = 200
PROBE_LOOKUPS = 20_000
PROBE_BATCHES = 200


class Layers:
    """Per-layer accumulators; each span adds its wall time to a name."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)


class Outcome:
    """Attempted/failed accounting plus the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


# -- set-up ---------------------------------------------------------------------


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_imports(root: Path) -> float:
    """Median wall time of a fresh interpreter importing the write path."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORTS], env=child_env(root), check=True
        )
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# -- write path -------------------------------------------------------------------


def mapping_bytes(mapping) -> bytes:
    return json.dumps(mapping.to_json(), sort_keys=True).encode("utf-8")


def generate(seed: int, layers: Optional[Layers]):
    from repro.config import UniverseConfig
    from repro.universe.generator import generate_universe
    from repro.universe.stream import assemble_universe, build_plan, stream_chunks

    config = UniverseConfig(seed=seed, n_organizations=ORGS)
    if layers is None:
        return generate_universe(config)
    with layers.span("universe.plan_s"):
        plan = build_plan(config)
    with layers.span("universe.materialize_s"):
        chunks = list(stream_chunks(plan))
    with layers.span("universe.assemble_s"):
        return assemble_universe(plan, iter(chunks))


def time_digests(universe, layers: Layers) -> None:
    """Time each dataset digest.  The web digest is memoized on the web
    object, so this first call is its one real computation in the cycle."""
    from repro.digest import dataset_digest

    for name in ("whois", "pdb", "web"):
        with layers.span(f"digest.{name}_s"):
            dataset_digest(getattr(universe, name))


def stage_layers(tracer, layers: Layers) -> None:
    """Stage durations and the wall time their union covers."""
    intervals = []
    for span in tracer.all_spans():
        if span.name.startswith("stage."):
            layers.add(span.name + "_s", span.duration)
            intervals.append((span.started_at, span.started_at + span.duration))
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    layers.add("pipeline.dag_s", covered)


def llm_layers(diagnostics: Sequence[dict], layers: Layers) -> None:
    requests = sum(int(d.get("llm_requests", 0)) for d in diagnostics)
    hits = sum(int(d.get("llm_cache", {}).get("hits", 0)) for d in diagnostics)
    misses = sum(int(d.get("llm_cache", {}).get("misses", 0)) for d in diagnostics)
    layers.add("llm.requests", requests)
    layers.add("llm.cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0)


def shard_layers(tracer, result, layers: Layers) -> None:
    for span in tracer.all_spans():
        if span.name == "pipeline.partition":
            layers.add("partition.plan_s", span.duration)
        elif span.name == "pipeline.shard_datasets":
            layers.add("shard.datasets_s", span.duration)
        elif span.name == "pipeline.reduce":
            layers.add("merge.reduce_s", span.duration)
    durations = [
        float(s["duration_seconds"])
        for s in result.diagnostics.get("shards", [])
        if s.get("status") == "ok"
    ]
    if durations:
        layers.add("shard.max_s", max(durations))
        layers.add("shard.skew", max(durations) / statistics.mean(durations))
    layers.add(
        "shard.retries",
        sum(int(r.get("retries", 0)) for r in result.shard_attempts),
    )
    layers.add("shard.quarantined", len(result.failed_shards))


def hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def build_cycle(
    spec: Spec, seed: int, layers: Optional[Layers], outcome: Outcome
):
    """generate → mapping → refresh → publish.

    Returns each phase's timed samples, the universe, the mapping bytes
    and the compiled blob.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.core.pipeline import BorgesPipeline, run_sharded
    from repro.obs.tracer import Tracer
    from repro.serve.index import MappingIndex
    from repro.serve.shm.blob import compile_index

    times: Dict[str, List[float]] = {}
    start = time.perf_counter()
    universe = generate(seed, layers)
    times["generate_s"] = [time.perf_counter() - start]
    if layers is not None:
        time_digests(universe, layers)
    whois, pdb, web = universe.whois, universe.pdb, universe.web
    store = ArtifactStore()
    tracer = Tracer()
    fetches = web.fetch_count

    start = time.perf_counter()
    if spec.sharded:
        cold = run_sharded(
            whois, pdb, web, n_shards=N_SHARDS, tracer=tracer, artifact_store=store
        )
    else:
        init = time.perf_counter()
        pipeline = BorgesPipeline(
            whois, pdb, web, tracer=tracer, artifact_store=store
        )
        if layers is not None:
            layers.add("pipeline.init_s", time.perf_counter() - init)
        cold = pipeline.run()
    times["mapping_s"] = [time.perf_counter() - start]
    if layers is not None:
        stage_layers(tracer, layers)
        if spec.sharded:
            shard_layers(tracer, cold, layers)
            llm_layers([r.diagnostics for r in cold.shard_results], layers)
        else:
            llm_layers([cold.diagnostics], layers)
        layers.add("web.fetches", web.fetch_count - fetches)

    # The refresh is repeated within a cycle: it is short, and more
    # samples give a steadier median on a noisy host.
    times["refresh_s"], warms = [], []
    for _ in range(REFRESH_REPEATS):
        before = store.stats()
        start = time.perf_counter()
        if spec.sharded:
            warm = run_sharded(
                whois, pdb, web, n_shards=N_SHARDS, tracer=Tracer(),
                artifact_store=store,
            )
        else:
            warm = BorgesPipeline(
                whois, pdb, web, tracer=Tracer(), artifact_store=store
            ).run()
        times["refresh_s"].append(time.perf_counter() - start)
        warms.append(warm)
        if layers is not None:
            layers.add(
                "artifacts.hit_ratio",
                hit_ratio(before, store.stats()) / REFRESH_REPEATS,
            )

    start = time.perf_counter()
    index = MappingIndex.build(cold.mapping, whois, pdb)
    built = time.perf_counter()
    blob = compile_index(index)
    times["publish_s"] = [time.perf_counter() - start]
    if layers is not None:
        layers.add("index.build_s", built - start)
        layers.add("blob.compile_s", time.perf_counter() - built)
        layers.add("blob.bytes", len(blob))

    cold_bytes = mapping_bytes(cold.mapping)
    for result, label in [(cold, "cold")] + [(w, "refresh") for w in warms]:
        bad = [
            r["stage"] for r in result.stage_records
            if r.get("status") not in ("ok", "cached")
        ]
        outcome.check(not bad, f"{label} run: stages not ok: {bad}")
        outcome.check(not result.degraded, f"{label} run degraded")
    outcome.check(
        all(mapping_bytes(w.mapping) == cold_bytes for w in warms),
        "refresh mapping differs from the cold mapping",
    )
    if spec.sharded:
        outcome.check(
            not any(r.failed_shards for r in [cold] + warms),
            "sharded run quarantined shards",
        )
    return times, universe, cold_bytes, blob


# -- read path ---------------------------------------------------------------------


class Server:
    """``python -m repro serve`` on an ephemeral port, as a child process."""

    def __init__(self, root: Path, blob_path: Path) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--snapshot", str(blob_path), "--port", "0",
            ],
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = 0
        for line in self.process.stdout:
            if line.startswith("serving on "):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        if not self.port:
            self.stop()
            raise RuntimeError("server exited before it announced its port")
        # Keep reading so the server never blocks on a full stdout pipe.
        self._drain = threading.Thread(
            target=_drain, args=(self.process.stdout,), daemon=True
        )
        self._drain.start()

    def wait_healthy(self, timeout: float = 60.0) -> dict:
        conn = client.Connection("127.0.0.1", self.port)
        deadline = time.perf_counter() + timeout
        try:
            while True:
                try:
                    status, body = conn.request(client.get("/healthz").wire)
                    if status == 200:
                        return json.loads(body)
                except (OSError, ConnectionError, client.FramingError):
                    conn.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=5)


def _drain(stream) -> None:
    for _ in stream:
        pass


def make_requests(
    index, traffic: str, rng: random.Random, count: int
) -> List[client.Request]:
    """The seeded request stream for one traffic mix."""
    from repro.serve.index import tokenize

    asns = index.asns()
    if traffic == "bulk":
        uniform = client.UniformSampler(asns, rng)
        out = []
        for _ in range(count):
            batch = [uniform.draw() for _ in range(BATCH_SIZE)]
            out.append(
                client.post_json(
                    "/v1/batch", {"asns": batch}, ("batch", tuple(batch)),
                    cache_keys=BATCH_SIZE,
                )
            )
        return out
    zipf = client.ZipfSampler(asns, ZIPF_S, rng)
    tokens = sorted(
        {
            token
            for asn in rng.sample(asns, min(2000, len(asns)))
            for token in tokenize(index.lookup_asn(asn).org.name)
        }
    )
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.90:
            asn = zipf.draw()
            out.append(client.get(f"/v1/asn/{asn}", ("asn", asn)))
        elif roll < 0.95:
            a, b = zipf.draw(), zipf.draw()
            out.append(
                client.get(f"/v1/siblings?a={a}&b={b}", ("siblings", a, b),
                           cache_keys=0)
            )
        elif roll < 0.98:
            query = rng.choice(tokens)
            out.append(
                client.get(
                    "/v1/search?q=" + urllib.parse.quote(query), ("search", query)
                )
            )
        else:
            asn = UNKNOWN_ASN_BASE + rng.randrange(1_000_000)
            out.append(client.get(f"/v1/asn/{asn}", ("asn", asn), expect_404=True))
    return out


def expected_answer(index, key: tuple, generation: int) -> Tuple[int, object]:
    """``(status, body)`` the server must give for *key*, from the blob."""
    from repro.errors import UnknownASNError

    def asn_body(asn: int) -> dict:
        return dict(index.lookup_asn(asn).to_json(), generation=generation)

    kind = key[0]
    if kind == "asn":
        try:
            body: object = asn_body(key[1])
        except UnknownASNError:
            return 404, None
    elif kind == "siblings":
        body = {"a": key[1], "b": key[2],
                "siblings": index.are_siblings(key[1], key[2]),
                "generation": generation}
    elif kind == "search":
        body = {"query": key[1],
                "results": [r.to_json() for r in index.search(key[1], limit=10)],
                "generation": generation}
    else:
        body = {"results": [asn_body(asn) for asn in key[1]]}
    return 200, json.loads(json.dumps(body))


def check_answers(
    port: int, index, requests: Sequence[client.Request], generation: int,
    rng: random.Random, outcome: Outcome,
) -> None:
    """Compare a seeded sample of HTTP answers with the blob's own."""
    conn = client.Connection("127.0.0.1", port)
    try:
        for request in rng.sample(list(requests), min(CHECK_SAMPLE, len(requests))):
            want_status, want_body = expected_answer(index, request.key, generation)
            try:
                status, body = conn.request(request.wire)
            except (OSError, ConnectionError, client.FramingError) as exc:
                conn.close()
                outcome.check(False, f"{request.key[:2]}: {exc}")
                continue
            ok = status == want_status and (
                want_body is None or json.loads(body) == want_body
            )
            outcome.check(ok, f"{request.key[:2]}: HTTP {status} != expected")
    finally:
        conn.close()


def scrape_counter(port: int, name: str) -> float:
    conn = client.Connection("127.0.0.1", port)
    try:
        _, body = conn.request(client.get("/metrics").wire)
    finally:
        conn.close()
    total = 0.0
    for line in body.decode("utf-8").splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def service_probes(blob_path: Path, requests: Sequence[client.Request],
                   rng: random.Random, layers: Layers) -> None:
    """In-process costs of the service and reader layers on the same blob."""
    from repro.errors import UnknownASNError
    from repro.serve import QueryService
    from repro.serve.store import SnapshotStore

    store = SnapshotStore()
    index = store.load_from_blob_file(blob_path).index
    service = QueryService(store=store)
    asns = index.asns()
    # Replay the workload's own key stream: its single reads, or the
    # ASNs of its batches; batches are the stream's, or uniform ones.
    singles = [r.key for r in requests if r.key[0] != "batch"] or [
        ("asn", asn) for r in requests for asn in r.key[1]
    ]
    singles = [singles[i % len(singles)] for i in range(PROBE_LOOKUPS)]
    batches = [list(r.key[1]) for r in requests if r.key[0] == "batch"] or [
        [rng.choice(asns) for _ in range(BATCH_SIZE)]
        for _ in range(PROBE_BATCHES)
    ]
    batches = batches[:PROBE_BATCHES]
    start = time.perf_counter()
    for key in singles:
        try:
            if key[0] == "asn":
                service.lookup_asn(key[1])
            elif key[0] == "siblings":
                service.siblings(key[1], key[2])
            else:
                service.search(key[1])
        except UnknownASNError:
            pass
    per_call_us(layers, "service.lookup_us", start, len(singles))

    start = time.perf_counter()
    for batch in batches:
        service.batch_lookup(batch)
    per_call_us(layers, "service.batch_us", start, len(batches))

    keys = [rng.choice(asns) for _ in range(PROBE_LOOKUPS)]
    start = time.perf_counter()
    for asn in keys:
        index.lookup_asn(asn).to_json()
    per_call_us(layers, "index.lookup_us", start, len(keys))


def per_call_us(layers: Layers, name: str, start: float, calls: int) -> None:
    layers.add(name, (time.perf_counter() - start) / calls * 1e6)


def window_rates(done_at: Sequence[float], seconds: float) -> List[float]:
    """Completions/s in each whole RATE_WINDOW_S window of a loop."""
    counts = [0] * int(seconds / RATE_WINDOW_S)
    for t in done_at:
        slot = int(t / RATE_WINDOW_S)
        if slot < len(counts):
            counts[slot] += 1
    return [count / RATE_WINDOW_S for count in counts]


def count_server(server: "Server", counted: Dict[str, float], sign: int) -> None:
    """Subtract (*sign* = -1) a server's cache-hit and shed counters when
    it starts and add them (+1) before it stops, leaving its delta."""
    counted["hits"] += sign * scrape_counter(server.port, "serve_cache_hits_total")
    counted["shed"] += sign * scrape_counter(
        server.port, "serve_admission_shed_total"
    )


def windowed_percentile(report: client.LoopReport, q: float) -> float:
    """Median over consecutive LATENCY_WINDOW responses (by arrival) of
    each window's *q*-th latency percentile, in seconds."""
    latencies = [lat for _, lat in sorted(zip(report.done_at, report.latencies))]
    windows = [
        latencies[i:i + LATENCY_WINDOW]
        for i in range(0, len(latencies) - LATENCY_WINDOW + 1, LATENCY_WINDOW)
    ] or [latencies]
    return statistics.median(client.percentile(w, q) for w in windows)


def serve_phase(
    root: Path, spec: Spec, seconds: float, blob: bytes, blob_path: Path,
    rng: random.Random, metrics: Dict[str, float], layers: Optional[Layers],
    outcome: Outcome,
) -> None:
    """Start the server SETUP_REPEATS times, timing each start and driving
    a short closed loop against each; then an open loop on the last one.

    Spreading the closed loop over three server processes keeps one
    unlucky process from setting the run's ``rps``.
    """
    from repro.serve.shm import BlobIndex

    index = BlobIndex(blob)
    requests = make_requests(
        index, spec.traffic, rng, 4096 if spec.traffic == "bulk" else 65536
    )
    connections = max(1, min(2, os.cpu_count() or 1))
    closed_s = CLOSED_SHARE * seconds / SETUP_REPEATS
    open_s = seconds * (1.0 - CLOSED_SHARE)
    starts: List[float] = []
    rates: List[float] = []
    closed = client.LoopReport()
    # Deltas summed over every server process.
    counted = {"hits": 0.0, "shed": 0.0}
    server_cpu = 0.0
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                count_server(server, counted, +1)
                server.stop()
            start = time.perf_counter()
            server = Server(root, blob_path)
            health = server.wait_healthy()
            starts.append(time.perf_counter() - start)
            count_server(server, counted, -1)
            cpu0 = server.cpu_seconds()
            report = client.closed_loop(
                "127.0.0.1", server.port, requests, closed_s, connections
            )
            server_cpu += server.cpu_seconds() - cpu0
            rates.extend(window_rates(report.done_at, closed_s))
            closed.merge(report)
        opened = client.open_loop(
            "127.0.0.1", server.port, requests, open_s, spec.rate, connections
        )
        count_server(server, counted, +1)
        check_answers(
            server.port, index, requests, int(health["generation"]), rng, outcome
        )
    finally:
        if server is not None:
            server.stop()
    for report in (closed, opened):
        outcome.attempted += report.attempted
        outcome.failed += report.failed
        if report.failed:
            outcome.problems.append(f"HTTP failures: {report.counts}")
    metrics["setup_s"] += statistics.median(starts)
    metrics["rps"] = statistics.median(rates)
    metrics["p50_ms"] = windowed_percentile(opened, 50) * 1e3
    metrics["open_loop_samples"] = len(opened.latencies)
    hits, shed = counted["hits"], counted["shed"]
    if layers is not None:
        cpu_us = server_cpu / max(1, closed.attempted) * 1e6
        layers.add("latency.p99_ms", windowed_percentile(opened, 99) * 1e3)
        layers.add("server.cpu_us_per_req", cpu_us)
        layers.add("loadgen.cpu_share", closed.client_cpu_s / closed.seconds)
        layers.add(
            "loadgen.late_p99_ms", client.percentile(opened.lateness, 99) * 1e3
        )
        layers.add("admission.shed", shed)
        keys = closed.cache_keys + opened.cache_keys
        layers.add("service.cache_hit_ratio", hits / keys if keys else 0.0)
        service_probes(blob_path, requests, rng, layers)
        in_service = layers.values[
            "service.batch_us" if spec.traffic == "bulk" else "service.lookup_us"
        ]
        layers.add("httpd.overhead_us", cpu_us - in_service)


# -- one run ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def run(
    name: str, root: Path, seed: int, seconds: float, trace: bool, workdir: Path
) -> Tuple[Dict[str, float], Dict[str, float], Outcome]:
    """Run workload *name*; returns (end-to-end metrics, layers, outcome).

    With *trace*, one untraced build cycle runs first; the traced cycles'
    extra wall time over it is reported as ``trace.overhead_pct``.
    """
    spec = SPECS[name]
    outcome = Outcome()
    layers = Layers() if trace else None
    rng = random.Random(f"perfbench:{name}:{seed}")
    metrics: Dict[str, float] = {"setup_s": time_imports(root)}

    untraced_s = 0.0
    if trace:
        times = build_cycle(spec, seed, None, outcome)[0]
        untraced_s = sum(map(sum, times.values()))
    cycles: List[Dict[str, List[float]]] = []
    cycle_layers = Layers() if trace else None
    mapping = b""
    started = time.perf_counter()
    while (
        len(cycles) < MIN_CYCLES
        or time.perf_counter() - started < CYCLE_SHARE * seconds
    ):
        universe = blob = None  # let the last cycle's objects go first
        times, universe, cycle_mapping, blob = build_cycle(
            spec, seed, cycle_layers, outcome
        )
        outcome.check(
            not mapping or cycle_mapping == mapping,
            "build cycles of one seed produced different mappings",
        )
        mapping = cycle_mapping
        cycles.append(times)
        gc.collect()
    for key in cycles[0]:
        metrics[key] = statistics.median(t for c in cycles for t in c[key])
    if layers is not None:
        for key, value in cycle_layers.values.items():
            layers.add(key, value / len(cycles))
        traced_s = statistics.median(sum(map(sum, c.values())) for c in cycles)
        layers.add("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0)

    blob_path = workdir / "snapshot.blob"
    blob_path.write_bytes(blob)
    serve_phase(
        root, spec, (1.0 - CYCLE_SHARE) * seconds, blob, blob_path, rng,
        metrics, layers, outcome,
    )
    metrics["peak_rss_mb"] = peak_rss_mb()

    if spec.sharded:
        outcome.check(
            single_shot_mapping(universe) == mapping,
            "sharded mapping differs from the single-shot mapping",
        )
    return metrics, (layers.values if layers else {}), outcome


def single_shot_mapping(universe) -> bytes:
    from repro.core.pipeline import BorgesPipeline
    from repro.obs.tracer import Tracer

    result = BorgesPipeline(
        universe.whois, universe.pdb, universe.web, tracer=Tracer()
    ).run()
    return mapping_bytes(result.mapping)
