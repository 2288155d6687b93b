"""The Borges pipeline: a thin facade over the stage DAG.

:class:`BorgesPipeline` wires the four features (§3) over a WHOIS
dataset + PeeringDB snapshot + web driver, then delegates execution to
the declarative stage graph (:mod:`repro.core.stages`) driven by the
:class:`~repro.core.executor.StageExecutor`: topological order, cached
artifacts, concurrent independent stages, per-stage isolation.  The
result is a :class:`BorgesResult`: per-feature clusters (Table 3's
unit), the final consolidated :class:`~repro.core.mapping.OrgMapping`,
per-stage execution records, and module-level diagnostics.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence

from ..config import (
    TABLE_FEATURE_ORDER,
    BorgesConfig,
    ExecutorConfig,
    ResilienceConfig,
)
from ..digest import dataset_digest, stable_digest
from ..errors import DataError
from ..llm.client import ChatClient
from ..llm.simulated import make_default_client
from ..logutil import get_logger
from ..obs.process import record_peak_rss
from ..obs.registry import DEFAULT_COUNT_BUCKETS, MetricsRegistry, get_registry
from ..obs.tracer import Tracer, get_tracer
from ..peeringdb import PDBSnapshot
from ..resilience.faults import (
    FaultInjector,
    FaultyWeb,
    resolve_fault_profile,
    shard_fault_decision,
)
from ..resilience.policy import RetryPolicy
from ..types import Cluster
from ..web.favicon import FaviconAPI
from ..web.scraper import HeadlessScraper
from ..web.simweb import SimulatedWeb
from ..whois import WhoisDataset
from .artifacts import ArtifactStore
from .executor import ExecutionOutcome, StageExecutor
from .mapping import OrgMapping
from .merge import merge_clusters, reduce_shard_clusters
from .ner import NERModule, NERRecordResult
from .partition import PartitionPlan, partition_universe
from .org_keys import oid_p_clusters, oid_w_clusters  # noqa: F401 - re-export
from .stages import (
    STAGE_FAVICONS,
    STAGE_MERGE,
    STAGE_NER_EXTRACT,
    STAGE_RR,
    STAGE_SCRAPE,
    StageContext,
    build_stage_graph,
    stage_clusters,
)
from .web_inference import (
    _FAVICON_STAT_FIELDS,
    WebInferenceModule,
    WebInferenceResult,
)

_LOG = get_logger("core.pipeline")


@dataclass(frozen=True)
class FeatureClusters:
    """One feature's output, plus the Table-3 accounting."""

    feature: str
    clusters: List[Cluster]

    @cached_property
    def asn_count(self) -> int:
        """Number of distinct ASNs the feature says anything about.

        Cached like :attr:`org_count`: the set union is O(total cluster
        size), and Table 3, the CLI summary and the manifest each read
        it — at 10^6 ASNs the repeated unions dominated profile time.
        """
        members = set()
        for cluster in self.clusters:
            members.update(cluster)
        return len(members)

    @cached_property
    def org_count(self) -> int:
        """Number of organizations after consolidating within the feature.

        Cached: the union-find pass is O(total cluster size) and callers
        (Table 3, the CLI summary, the manifest) read it repeatedly.
        """
        return len(merge_clusters([self.clusters]))


@dataclass
class BorgesResult:
    """Everything one pipeline run produced."""

    mapping: OrgMapping
    features: Dict[str, FeatureClusters] = field(default_factory=dict)
    ner_results: List[NERRecordResult] = field(default_factory=list)
    web_result: Optional[WebInferenceResult] = None
    #: Run-level accounting (LLM cache hits, scraper stats, NER counters)
    #: for the CLI summary and the telemetry manifest.
    diagnostics: Dict[str, object] = field(default_factory=dict)
    #: True when at least one enabled feature failed and the mapping was
    #: consolidated from the survivors only.
    degraded: bool = False
    #: feature name → one-line error, for every feature that failed.
    feature_errors: Dict[str, str] = field(default_factory=dict)
    #: Per-stage execution records (status, cache source, fingerprint,
    #: duration) in graph order — the DAG's own accounting.
    stage_records: List[Dict[str, object]] = field(default_factory=list)

    def feature_table(self) -> List[Dict[str, object]]:
        """Rows shaped like Table 3 (source, #ASes, #orgs).

        Row order comes from the canonical feature order in
        :data:`repro.config.TABLE_FEATURE_ORDER` — the same order that
        drives combo labels — not a second hard-coded list.
        """
        rows = []
        for name in TABLE_FEATURE_ORDER:
            feature = self.features.get(name)
            if feature is None:
                continue
            rows.append(
                {
                    "source": name,
                    "asns": feature.asn_count,
                    "orgs": feature.org_count,
                }
            )
        return rows


class BorgesPipeline:
    """Configured, reusable pipeline front-end.

    ``web`` may be any object accepted by :class:`HeadlessScraper` /
    :class:`FaviconAPI` (the simulated web offline; a real HTTP driver in
    production).  ``client`` defaults to the offline simulated LLM.

    ``artifact_store`` optionally shares one content-addressed cache
    across runs (and across pipelines — the Table-6 sweep reuses the
    scrape and NER artifacts across all 16 feature combinations).  When
    omitted, every :meth:`run` gets a fresh store — or a disk-backed one
    when ``config.executor.artifact_cache_dir`` is set.
    """

    def __init__(
        self,
        whois: WhoisDataset,
        pdb: PDBSnapshot,
        web: SimulatedWeb,
        config: Optional[BorgesConfig] = None,
        client: Optional[ChatClient] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        artifact_store: Optional[ArtifactStore] = None,
        metric_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._whois = whois
        self._pdb = pdb
        self._config = (config or BorgesConfig()).validate()
        # Extra labels stamped on every stage counter/gauge and span
        # this pipeline emits (the sharded runner passes {"shard": i}).
        self._metric_labels: Dict[str, str] = {
            str(k): str(v) for k, v in (metric_labels or {}).items()
        }
        self._tracer = tracer
        # Digests anchor artifact fingerprints; the web digest is taken
        # before any fault wrapper so chaos cannot silently change the
        # address of a clean artifact (the fault salt does that, loudly).
        with self._spans.span("datasets.digest"):
            self._dataset_digests = {
                "whois": dataset_digest(whois),
                "pdb": dataset_digest(pdb),
                "web": dataset_digest(web),
            }
        resilience = self._config.resilience
        self._fault_profile = resolve_fault_profile(resilience.fault_profile)
        self._fault_injector: Optional[FaultInjector] = None
        self._fingerprint_salt: Optional[Dict[str, object]] = None
        if self._fault_profile.active:
            # One shared injector across both flaky surfaces, so the
            # run's chaos is a pure function of (profile, fault_seed) and
            # the diagnostics see every injected fault in one tally.
            self._fault_injector = FaultInjector(
                self._fault_profile,
                seed=resilience.fault_seed,
                registry=registry,
            )
            web = FaultyWeb(web, self._fault_injector)
            # Artifacts computed amid injected faults must not collide
            # with clean ones: mix the chaos identity into every address.
            self._fingerprint_salt = {
                "fault_profile": self._fault_profile.name,
                "fault_seed": resilience.fault_seed,
            }
        self._client = client or make_default_client(
            self._config.llm,
            resilience=resilience,
            registry=registry,
            injector=self._fault_injector,
        )
        self._registry = registry
        self._artifact_store = artifact_store
        self._scraper = HeadlessScraper(
            web, config=self._config.scraper, registry=registry,
            resilience=resilience,
        )
        self._favicon_api = FaviconAPI(web, registry=registry)
        self._ner = NERModule(self._client, self._config)
        self._web_module = WebInferenceModule(
            self._scraper, self._favicon_api, self._client, self._config,
            tracer=tracer, registry=registry,
        )

    @property
    def config(self) -> BorgesConfig:
        return self._config

    @property
    def client(self) -> ChatClient:
        return self._client

    @property
    def _spans(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- DAG plumbing ------------------------------------------------------

    def _stage_context(self) -> StageContext:
        return StageContext(
            whois=self._whois,
            pdb=self._pdb,
            config=self._config,
            client=self._client,
            ner=self._ner,
            web_module=self._web_module,
            tracer=self._tracer,
            registry=self._registry,
            dataset_digests=dict(self._dataset_digests),
        )

    def _run_store(self) -> ArtifactStore:
        if self._artifact_store is not None:
            return self._artifact_store
        cache_dir = self._config.executor.artifact_cache_dir
        if cache_dir:
            return ArtifactStore(root=cache_dir)
        return ArtifactStore()

    def _make_executor(
        self,
        store: ArtifactStore,
        stages: Optional[Sequence[str]] = None,
    ) -> StageExecutor:
        graph = build_stage_graph(self._config, targets=stages)
        # The fault injector's burst state depends on call order, so
        # chaos runs are forced sequential to stay a pure function of
        # (profile, seed).
        max_workers = (
            1
            if self._fault_injector is not None
            else self._config.executor.max_workers
        )
        return StageExecutor(
            graph,
            store,
            self._stage_context(),
            max_workers=max_workers,
            salt=self._fingerprint_salt,
            extra_labels=self._metric_labels,
        )

    def plan(
        self, stages: Optional[Sequence[str]] = None
    ) -> List[Dict[str, object]]:
        """The stage plan — order, dependencies, cache status — without
        executing anything (fingerprints are input-addressed)."""
        return self._make_executor(self._run_store(), stages).plan()

    def explain_plan(self, stages: Optional[Sequence[str]] = None) -> str:
        """Human-readable :meth:`plan`, for the CLI's ``--explain-plan``."""
        rows = self.plan(stages)
        width = max(len(r["stage"]) for r in rows)
        lines = ["stage".ljust(width) + "  cache   deps"]
        for row in rows:
            cached = row["cached"] or "miss"
            deps = ", ".join(row["deps"]) or "-"
            marker = "*" if row["backbone"] else " "
            lines.append(
                f"{row['stage'].ljust(width)}{marker} {cached:<7} {deps}"
                f"  [{row['fingerprint'][:12]}]"
            )
        lines.append("(* = backbone stage; failure aborts the run)")
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------

    def run(self, stages: Optional[Sequence[str]] = None) -> BorgesResult:
        """Execute the stage DAG and consolidate the surviving features.

        *stages* optionally restricts the run to a stage subset plus its
        transitive dependencies and the backbone (the CLI's ``--stages``).
        """
        store = self._run_store()
        executor = self._make_executor(store, stages)
        with self._spans.span(
            "pipeline.run", features=sorted(self._config.features)
        ):
            outcome = executor.execute()
        return self._assemble_result(executor, outcome, store)

    def _assemble_result(
        self,
        executor: StageExecutor,
        outcome: ExecutionOutcome,
        store: ArtifactStore,
    ) -> BorgesResult:
        graph = executor.graph
        features: Dict[str, FeatureClusters] = {}
        failures: Dict[str, str] = {}
        for name, spec in graph.items():
            record = outcome.records[name]
            if spec.feature is None:
                continue
            if record.status in ("ok", "cached"):
                features[spec.feature] = FeatureClusters(
                    spec.feature, stage_clusters(outcome.values[name])
                )
            else:
                failures[spec.feature] = record.error

        ner_value = outcome.values.get(STAGE_NER_EXTRACT)
        ner_results: List[NERRecordResult] = (
            list(ner_value["records"]) if ner_value else []
        )
        web_result = self._assemble_web_result(outcome)
        mapping: OrgMapping = outcome.values[STAGE_MERGE]

        for name, feature in features.items():
            self._metrics.gauge(
                "pipeline_feature_clusters", "clusters emitted per feature",
                **dict(self._metric_labels, feature=name),
            ).set(len(feature.clusters))
        self._metrics.gauge(
            "pipeline_orgs", "organizations after consolidation",
            **self._metric_labels,
        ).set(len(mapping))
        self._metrics.gauge(
            "pipeline_degraded", "1 when the last run lost features",
            **self._metric_labels,
        ).set(1 if failures else 0)

        diagnostics = self._diagnostics(web_result, failures)
        diagnostics["artifact_cache"] = store.stats()
        diagnostics["peak_rss_bytes"] = record_peak_rss(self._metrics)
        return BorgesResult(
            mapping=mapping,
            features=features,
            ner_results=ner_results,
            web_result=web_result,
            diagnostics=diagnostics,
            degraded=bool(failures),
            feature_errors=dict(failures),
            stage_records=[r.to_dict() for r in outcome.records.values()],
        )

    def _assemble_web_result(
        self, outcome: ExecutionOutcome
    ) -> Optional[WebInferenceResult]:
        """Rebuild the legacy :class:`WebInferenceResult` view from the
        scrape/rr/favicons artifacts (diagnostics and evidence consumers
        still read it)."""
        scrape_value = outcome.values.get(STAGE_SCRAPE)
        if scrape_value is None:
            return None
        web_result = WebInferenceResult()
        web_result.final_url_of_asn = dict(scrape_value["final_url_of_asn"])
        for name, value in scrape_value["stats"].items():
            if hasattr(web_result.stats, name):
                setattr(web_result.stats, name, value)
        rr_value = outcome.values.get(STAGE_RR)
        if rr_value is not None:
            web_result.rr_clusters = list(rr_value["clusters"])
            web_result.stats.blocked_final_urls = rr_value["blocked_final_urls"]
        favicon_value = outcome.values.get(STAGE_FAVICONS)
        if favicon_value is not None:
            web_result.favicon_clusters = list(favicon_value["clusters"])
            web_result.decisions = list(favicon_value["decisions"])
            for name in _FAVICON_STAT_FIELDS:
                setattr(
                    web_result.stats, name, getattr(favicon_value["stats"], name)
                )
        return web_result

    def _diagnostics(
        self,
        web_result: Optional[WebInferenceResult],
        failures: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        diagnostics: Dict[str, object] = {
            "llm_cache": self._client.cache_stats(),
            "llm_requests": self._client.request_count,
            "scraper": self._scraper.stats(),
            "ner": dict(vars(self._ner.stats)),
        }
        if web_result is not None:
            diagnostics["web"] = dict(vars(web_result.stats))
        failures = failures or {}
        resilience: Dict[str, object] = {
            "fault_profile": self._fault_profile.name,
            "llm_breaker": self._client.breaker.state,
            "web_breakers": self._scraper.breaker_states(),
            "degraded": bool(failures),
            "feature_errors": dict(failures),
        }
        if self._fault_injector is not None:
            resilience["faults_injected"] = self._fault_injector.stats()
        diagnostics["resilience"] = resilience
        return diagnostics

    def build_mapping(
        self, features: Dict[str, FeatureClusters]
    ) -> OrgMapping:
        """Consolidate feature clusters over the WHOIS universe."""
        all_clusters: List[Cluster] = []
        for feature in features.values():
            all_clusters.extend(feature.clusters)
        org_names = {
            asn: self._whois.org_name_of(asn) for asn in self._whois.asns()
        }
        label = "borges[" + ",".join(sorted(self._config.features)) + "]"
        return OrgMapping(
            universe=self._whois.asns(),
            clusters=all_clusters,
            method=label,
            org_names=org_names,
        )


# -- sharded execution ---------------------------------------------------------


#: Per-attempt watchdog deadline applied when a hang-injecting fault
#: profile is active and the caller did not pick one — without it a
#: sleep-forever shard would block the run for ``shard_hang_seconds``.
DEFAULT_HANG_DEADLINE = 15.0


@dataclass
class ShardedBorgesResult(BorgesResult):
    """A sharded run's combined result.

    Quacks like :class:`BorgesResult` (mapping, features, Table-3 rows,
    diagnostics, stage records — the latter carrying a ``shard`` key per
    record) and additionally exposes the partition plan and every
    shard's own :class:`BorgesResult`, plus the fault posture of the
    run: which shards were quarantined, which were answered from the
    run checkpoint, and what every executed shard's attempts looked
    like.
    """

    partition: Optional[PartitionPlan] = None
    shard_results: List[BorgesResult] = field(default_factory=list)
    #: Shard indices quarantined after exhausting their retry budget;
    #: their ASNs are absent from the (degraded) mapping.
    failed_shards: List[int] = field(default_factory=list)
    #: One record per *executed* shard (ok or quarantined, not resumed):
    #: attempts, retries, exit reason, duration, heartbeats.
    shard_attempts: List[Dict[str, object]] = field(default_factory=list)
    #: Shard indices answered from the run checkpoint instead of executed.
    resumed_shards: List[int] = field(default_factory=list)

    def shard_posture(self) -> Dict[str, object]:
        """Compact fault posture for ``/healthz`` and ``borges top``."""
        total = len(self.partition.shards) if self.partition else 0
        return {
            "shards": total,
            "ok": total - len(self.failed_shards),
            "failed": list(self.failed_shards),
            "resumed": list(self.resumed_shards),
            "retries": sum(
                int(record.get("retries", 0)) for record in self.shard_attempts
            ),
            "degraded": self.degraded,
        }


def run_sharded(
    whois: WhoisDataset,
    pdb: PDBSnapshot,
    web: SimulatedWeb,
    config: Optional[BorgesConfig] = None,
    n_shards: int = 2,
    *,
    stages: Optional[Sequence[str]] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    artifact_store: Optional[ArtifactStore] = None,
    shard_workers: str = "thread",
    shard_retries: int = 1,
    shard_deadline: Optional[float] = None,
    heartbeat_interval: float = 0.2,
    checkpoint_path: Optional[object] = None,
    resume: bool = False,
) -> ShardedBorgesResult:
    """Run the pipeline sharded: partition → N stage DAGs → reduce.

    The dataset is split into closed, balanced shards (see
    :mod:`repro.core.partition`); one :class:`BorgesPipeline` per shard
    runs the ordinary stage DAG over ``whois``/``pdb`` restricted to the
    shard's ASNs (the full web stays shared — it is read-only), all
    shards feeding one :class:`ArtifactStore`.  Restricted-dataset
    digests give every shard its own stage fingerprints, so warm re-runs
    stay incremental per shard.  The final reduce unions the per-shard
    cluster lists (:func:`~repro.core.merge.reduce_shard_clusters` —
    associative, hence exact) into one mapping over the full universe;
    because the partition is closed, that mapping is byte-identical to
    the unsharded one *when every shard succeeded*.

    **Fault tolerance.**  Shards run under the supervised fan-out
    (:func:`~repro.serve.shm.pool.run_supervised`): an attempt that
    raises, crashes its forked child, or outlives *shard_deadline*
    seconds (process mode: SIGKILL; thread mode: the watchdog abandons
    the attempt) is retried up to *shard_retries* more times with
    seeded-jitter backoff.  A shard that exhausts its budget is
    *quarantined*: the run completes ``degraded`` over the survivors,
    whose union is the salvaged mapping — restricted to the surviving
    shards' ASNs, because the run knows nothing about the dead ones.
    Only a run that loses *every* shard raises.

    **Crash-safe resume.**  With *checkpoint_path*, every completed
    shard's cluster lists are journaled as they land (digest-chained,
    fsynced — see :mod:`repro.core.checkpoint`); with *resume* also
    set, shards already journaled for the same run identity are
    answered from the checkpoint instead of executed, so a crashed or
    degraded run converges to the clean byte-identical mapping by
    re-running only what's missing.

    Shards run concurrently, bounded by ``config.executor.max_workers``,
    except under an active fault profile, where shards run sequentially
    (each shard's pipeline is already sequential under chaos) so
    injected faults remain a pure function of the profile and seed.
    Shard-surface chaos (``shard-crash``/``shard-hang``/``shard-flaky``)
    is drawn in the parent via
    :func:`~repro.resilience.faults.shard_fault_decision` and acted out
    inside the shard attempt, identically across both worker modes.

    *shard_workers* selects the concurrency substrate: ``"thread"``
    (default) shares one process; ``"process"`` forks one child per
    shard, escaping the GIL for CPU-bound stages.  The reduce is
    associative and the partition closed, so the combined mapping is
    byte-identical across modes; process mode trades away shard spans
    in the parent tracer and in-memory artifact-cache sharing (a
    disk-backed cache dir is shared fine).
    """
    if shard_workers not in ("thread", "process"):
        raise ValueError(
            "shard_workers must be 'thread' or 'process', "
            f"got {shard_workers!r}"
        )
    if shard_retries < 0:
        raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
    config = (config or BorgesConfig()).validate()
    spans = tracer if tracer is not None else get_tracer()
    metrics = registry if registry is not None else get_registry()
    store = artifact_store
    if store is None:
        cache_dir = config.executor.artifact_cache_dir
        store = ArtifactStore(root=cache_dir) if cache_dir else ArtifactStore()

    from ..serve.shm.pool import run_supervised
    from .checkpoint import RunCheckpoint, run_identity

    profile = resolve_fault_profile(config.resilience.fault_profile)
    fault_active = profile.active
    seed = config.resilience.fault_seed
    if shard_deadline is None and profile.shard_hang > 0.0:
        shard_deadline = DEFAULT_HANG_DEADLINE

    with spans.span("pipeline.sharded", shards=n_shards):
        with spans.span("pipeline.partition"):
            plan = partition_universe(whois, pdb, web, n_shards)
        metrics.gauge(
            "pipeline_shards", "shards in the last sharded run"
        ).set(len(plan.shards))

        # -- checkpoint / resume -------------------------------------------
        checkpoint: Optional[RunCheckpoint] = None
        completed: Dict[int, Dict[str, object]] = {}
        if checkpoint_path is not None:
            # The identity normalises resilience/executor config away:
            # chaos profiles and worker counts change how a run executes,
            # never what it computes, so a checkpoint written under
            # faults is resumable by the clean re-run.
            identity = run_identity(
                {
                    "whois": dataset_digest(whois),
                    "pdb": dataset_digest(pdb),
                    "web": dataset_digest(web),
                },
                stable_digest(
                    dataclasses.replace(
                        config,
                        resilience=ResilienceConfig(),
                        executor=ExecutorConfig(),
                    )
                ),
                len(plan.shards),
                stages or (),
            )
            checkpoint = RunCheckpoint(checkpoint_path)
            if not resume:
                checkpoint.reset()
            completed = {
                index: fields
                for index, fields in checkpoint.begin(
                    identity, len(plan.shards)
                ).items()
                if 0 <= index < len(plan.shards)
            }
        resumed = sorted(completed)
        to_run = [s.index for s in plan.shards if s.index not in completed]

        pipelines: Dict[int, BorgesPipeline] = {}
        for shard in plan.shards:
            if shard.index not in to_run:
                continue
            with spans.span("pipeline.shard_datasets", shard=shard.index):
                shard_whois = whois.restricted_to(shard.asns)
                shard_pdb = pdb.restricted_to(shard.asns)
            pipelines[shard.index] = BorgesPipeline(
                shard_whois,
                shard_pdb,
                web,
                config,
                tracer=tracer,
                registry=registry,
                artifact_store=store,
                metric_labels={"shard": str(shard.index)},
            )

        workers = (
            1
            if fault_active or len(to_run) <= 1
            else min(len(to_run), max(1, config.executor.max_workers))
        )

        def run_one(index: int):
            start = time.perf_counter()
            with spans.span("pipeline.shard", shard=index):
                result = pipelines[index].run(stages=stages)
            return result, time.perf_counter() - start

        def make_thunk(index: int):
            def thunk(attempt: int):
                fault = (
                    shard_fault_decision(profile, seed, index, attempt)
                    if fault_active
                    else None
                )
                if fault == "crash":
                    if shard_workers == "process":
                        # Die the way a real shard dies: no exception, no
                        # report, just a vanished child.
                        os._exit(23)
                    raise RuntimeError(
                        f"shard {index}: injected fault: crashed on "
                        f"attempt {attempt}"
                    )
                if fault == "hang":
                    time.sleep(profile.shard_hang_seconds)
                    raise RuntimeError(
                        f"shard {index}: injected fault: hung on "
                        f"attempt {attempt}"
                    )
                try:
                    return run_one(index)
                except Exception as exc:
                    # Attach the shard index: a bare exception out of a
                    # worker loses which shard raised it.
                    raise RuntimeError(
                        f"shard {index}: {type(exc).__name__}: {exc}"
                    ) from exc

            return thunk

        def on_outcome(outcome) -> None:
            # Journal each completed shard as it lands (not at the end):
            # that is what makes a mid-run crash resumable.
            if checkpoint is None or not outcome.ok:
                return
            shard_index = to_run[outcome.index]
            result, duration = outcome.value
            checkpoint.record_shard(
                shard_index,
                merged=result.mapping.clusters(),
                features={
                    name: feature.clusters
                    for name, feature in result.features.items()
                },
                duration_seconds=duration,
            )

        outcomes = []
        if to_run:
            outcomes = run_supervised(
                [make_thunk(index) for index in to_run],
                max_workers=workers,
                mode=shard_workers,
                deadline=shard_deadline,
                retries=shard_retries,
                retry_policy=RetryPolicy(
                    attempts=shard_retries + 1,
                    base_delay=0.05,
                    max_delay=1.0,
                    seed=seed,
                ),
                heartbeat_interval=heartbeat_interval,
                on_outcome=on_outcome,
            )

        # -- collect outcomes: survivors, quarantine, attempt records ------
        shard_result_map: Dict[int, BorgesResult] = {}
        duration_map: Dict[int, float] = {}
        failed_shards: List[int] = []
        attempt_records: List[Dict[str, object]] = []
        quarantine_notes: Dict[str, str] = {}
        retry_total = 0
        for position, outcome in enumerate(outcomes):
            shard_index = to_run[position]
            record = dict(outcome.to_json(), shard=shard_index)
            record.pop("index", None)
            attempt_records.append(record)
            retry_total += outcome.retries
            if outcome.retries:
                metrics.counter(
                    "pipeline_shard_retries_total",
                    "shard attempts retried after a failure",
                ).inc(outcome.retries)
            metrics.histogram(
                "pipeline_shard_attempts",
                "attempts needed per shard in a sharded run",
                buckets=DEFAULT_COUNT_BUCKETS,
                shard=str(shard_index),
            ).observe(float(outcome.attempts))
            if outcome.ok:
                result, duration = outcome.value
                shard_result_map[shard_index] = result
                duration_map[shard_index] = duration
            else:
                failed_shards.append(shard_index)
                metrics.counter(
                    "pipeline_shard_quarantined_total",
                    "shards quarantined after exhausting their retries",
                ).inc()
                quarantine_notes[f"shard:{shard_index}"] = (
                    f"quarantined after {outcome.attempts} attempts "
                    f"({outcome.exit_reason}): {outcome.error}"
                )
        if not shard_result_map and not completed:
            errors = "; ".join(sorted(quarantine_notes.values())) or "no shards ran"
            raise DataError(
                f"sharded run lost all {len(plan.shards)} shards; "
                f"nothing to salvage ({errors})"
            )

        # -- reduce over survivors + resumed shards ------------------------
        features: Dict[str, FeatureClusters] = {}
        failures: Dict[str, str] = {}
        resumed_features = {
            index: RunCheckpoint.shard_feature_clusters(fields)
            for index, fields in completed.items()
        }
        for name in TABLE_FEATURE_ORDER:
            clusters: List[Cluster] = []
            present = False
            for shard in plan.shards:
                if shard.index in shard_result_map:
                    feature = shard_result_map[shard.index].features.get(name)
                    if feature is not None:
                        present = True
                        clusters.extend(feature.clusters)
                elif shard.index in resumed_features:
                    recorded = resumed_features[shard.index].get(name)
                    if recorded is not None:
                        present = True
                        clusters.extend(recorded)
            if present:
                features[name] = FeatureClusters(name, clusters)
        for shard_index in sorted(shard_result_map):
            for name, error in shard_result_map[shard_index].feature_errors.items():
                note = f"shard {shard_index}: {error}"
                failures[name] = (
                    failures[name] + "; " + note if name in failures else note
                )
        failures.update(quarantine_notes)

        with spans.span("pipeline.reduce"):
            cluster_lists: List[List[Cluster]] = []
            for shard in plan.shards:
                if shard.index in shard_result_map:
                    cluster_lists.append(
                        shard_result_map[shard.index].mapping.clusters()
                    )
                elif shard.index in completed:
                    cluster_lists.append(
                        RunCheckpoint.shard_clusters(completed[shard.index])
                    )
            reduced = reduce_shard_clusters(cluster_lists)
            if failed_shards:
                # Salvage: the mapping covers only the surviving shards'
                # ASNs.  Padding dead shards with singletons would claim
                # knowledge the run does not have.
                failed_set = set(failed_shards)
                universe = sorted(
                    asn
                    for shard in plan.shards
                    if shard.index not in failed_set
                    for asn in shard.asns
                )
            else:
                universe = whois.asns()
            org_names = {asn: whois.org_name_of(asn) for asn in universe}
            label = "borges[" + ",".join(sorted(config.features)) + "]"
            mapping = OrgMapping(
                universe=universe,
                clusters=reduced,
                method=label,
                org_names=org_names,
            )

        metrics.gauge(
            "pipeline_orgs", "organizations after consolidation"
        ).set(len(mapping))
        metrics.gauge(
            "pipeline_degraded", "1 when the last run lost features"
        ).set(1 if failures else 0)
        metrics.gauge(
            "pipeline_shards_failed",
            "shards quarantined in the last sharded run",
        ).set(len(failed_shards))
        metrics.gauge(
            "pipeline_shards_resumed",
            "shards answered from the run checkpoint in the last run",
        ).set(len(resumed))
        if failed_shards:
            metrics.counter(
                "pipeline_shards_salvaged_total",
                "surviving shards reduced into a degraded mapping",
            ).inc(len(cluster_lists))

        # -- per-shard accounting ------------------------------------------
        stage_records: List[Dict[str, object]] = []
        shard_sections: List[Dict[str, object]] = []
        llm_requests = 0
        attempts_by_shard = {
            int(record["shard"]): record for record in attempt_records
        }
        for shard in plan.shards:
            index = shard.index
            section: Dict[str, object] = {
                "shard": index,
                "asns": len(shard),
                "components": shard.components,
            }
            if index in shard_result_map:
                result = shard_result_map[index]
                for record in result.stage_records:
                    stage_records.append(dict(record, shard=index))
                llm_requests += int(result.diagnostics.get("llm_requests", 0))
                section.update(
                    status="ok",
                    duration_seconds=round(duration_map[index], 6),
                    llm_requests=result.diagnostics.get("llm_requests", 0),
                    degraded=result.degraded,
                    attempts=attempts_by_shard.get(index, {}).get("attempts", 1),
                )
            elif index in completed:
                section.update(
                    status="resumed",
                    duration_seconds=float(
                        completed[index].get("duration_seconds", 0.0)
                    ),
                    llm_requests=0,
                    degraded=False,
                    attempts=0,
                )
            else:
                record = attempts_by_shard.get(index, {})
                section.update(
                    status="quarantined",
                    duration_seconds=round(
                        float(record.get("duration_seconds", 0.0)), 6
                    ),
                    llm_requests=0,
                    degraded=True,
                    attempts=record.get("attempts", 0),
                    error=record.get("error", ""),
                )
            shard_sections.append(section)
        fault_tolerance: Dict[str, object] = {
            "profile": profile.name,
            "shard_retries": shard_retries,
            "shard_deadline": shard_deadline,
            "retry_total": retry_total,
            "attempts": attempt_records,
            "failed_shards": sorted(failed_shards),
            "salvaged_shards": (
                sorted(set(shard_result_map) | set(completed))
                if failed_shards
                else []
            ),
            "resumed_shards": resumed,
        }
        if checkpoint is not None:
            fault_tolerance["checkpoint"] = checkpoint.stats()
        diagnostics: Dict[str, object] = {
            "partition": plan.summary(),
            "shards": shard_sections,
            "llm_requests": llm_requests,
            "artifact_cache": store.stats(),
            "peak_rss_bytes": record_peak_rss(metrics),
            "fault_tolerance": fault_tolerance,
        }

    return ShardedBorgesResult(
        mapping=mapping,
        features=features,
        diagnostics=diagnostics,
        degraded=bool(failures),
        feature_errors=failures,
        stage_records=stage_records,
        partition=plan,
        shard_results=[
            shard_result_map[index] for index in sorted(shard_result_map)
        ],
        failed_shards=sorted(failed_shards),
        shard_attempts=attempt_records,
        resumed_shards=resumed,
    )
