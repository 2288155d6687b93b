"""Streaming dataset export: bounded-RSS ``borges generate --stream``.

Writes the same three dataset files as the collect-all path
(:func:`~repro.peeringdb.save_snapshot`,
:func:`~repro.whois.save_as2org_file`,
:meth:`~repro.apnic.ApnicDataset.save_csv`) without ever holding the
:class:`~repro.universe.stream.Universe` in memory: chunks materialize
one at a time, records spool to on-disk section files, and a finalize
step stitches header + sections together with incrementally computed
digests.  The output files are byte-identical to the non-streaming
export (asserted in tests), so downstream consumers cannot tell which
path produced them.

Ordering is the whole trick — the writers emit globally sorted records
(orgs by id, then ASNs ascending) and the exporter may not hold them
all.  Two facts make a streaming sort possible:

* *Seed chunks are monotonic.*  ASN blocks are allocated sequentially
  from :data:`~repro.universe.stream.SYNTHETIC_ASN_BASE` and WHOIS
  handles / PeeringDB org ids embed the global org index, so every seed
  chunk's keys are strictly greater than the previous chunk's.  Sorting
  within a chunk and concatenating across chunks equals one global
  sort; the exporter *asserts* this at every chunk boundary instead of
  trusting it.
* *The canonical bundle is small but scattered.*  Chunk 0 plants the
  paper's scenarios on reserved, non-contiguous ASNs that interleave
  with the seed ranges, so its records go to their own (tiny) section
  files and are heap-merged with the seed stream at finalize.

The only state that survives the pass is O(small): running digests,
counts, and the raw APNIC population accumulator (a few tuples per
access org), which needs the global total for normalization anyway.
"""

from __future__ import annotations

import heapq
import itertools
import json
import tempfile
from pathlib import Path
from typing import (
    IO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..apnic import ApnicDataset, PopulationRecord
from ..config import UniverseConfig
from ..errors import DataError
from ..types import ASN
from ..whois.as2org_file import (
    RELEASE_HEADER_PREFIX,
    RELEASE_HEADER_SCHEMA,
    release_digest,
)
from .stream import UniversePlan, build_plan, materialize_chunk

#: Filenames written into the output directory (same as `borges generate`).
PDB_FILENAME = "peeringdb_snapshot.json"
AS2ORG_FILENAME = "as2org.jsonl"
APNIC_FILENAME = "apnic_population.csv"

ProgressFn = Callable[[int, int, int], None]

#: Record kind → sort key extracted from its compact JSON form.
_SORT_KEYS: Dict[str, Callable[[Dict[str, object]], object]] = {
    "whois_orgs": lambda r: str(r["organizationId"]),
    "asns": lambda r: int(r["asn"]),  # type: ignore[arg-type]
    "pdb_orgs": lambda r: int(r["id"]),  # type: ignore[arg-type]
    "nets": lambda r: int(r["asn"]),  # type: ignore[arg-type]
}


class _Monotone:
    """Asserts a strictly increasing key sequence across chunk boundaries."""

    def __init__(self, what: str) -> None:
        self._what = what
        self._last: Optional[object] = None

    def check(self, key: object) -> None:
        if self._last is not None and not key > self._last:  # type: ignore[operator]
            raise DataError(
                f"streaming export order violated: {self._what} key "
                f"{key!r} after {self._last!r} — seed chunk ranges are "
                f"not monotonic; use the non-streaming export"
            )
        self._last = key


def _iter_lines(path: Path) -> Iterator[str]:
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")


def _merged_lines(kind: str, canon: Path, rest: Path) -> Iterator[str]:
    """Canonical + seed section files, heap-merged into global key order."""
    key = _SORT_KEYS[kind]
    return heapq.merge(
        _iter_lines(canon),
        _iter_lines(rest),
        key=lambda line: key(json.loads(line)),
    )


def _write_indented_records(lines: Iterable[str], sink: IO[str]) -> None:
    """Re-emit compact JSON records as ``indent=1`` list items at
    nesting depth 3, exactly as ``json.dumps(snapshot.to_json(),
    indent=1)`` renders them."""
    first = True
    for line in lines:
        record = json.loads(line)
        if not first:
            sink.write(",\n   ")
        first = False
        text = json.dumps(record, ensure_ascii=False, indent=1)
        parts = text.splitlines()
        sink.write(parts[0])
        for inner in parts[1:]:
            sink.write("\n   " + inner)


def _finalize_pdb(
    path: Path,
    meta: Dict[str, object],
    org_lines: Iterable[str],
    net_lines: Iterable[str],
    n_orgs: int,
    n_nets: int,
) -> None:
    org_token, net_token = '"@ORG@"', '"@NET@"'
    skeleton = json.dumps(
        {
            "meta": meta,
            "org": {"data": ["@ORG@"] if n_orgs else []},
            "net": {"data": ["@NET@"] if n_nets else []},
        },
        ensure_ascii=False,
        indent=1,
    )
    with path.open("w", encoding="utf-8") as sink:
        pos = 0
        for token, lines, count in (
            (org_token, org_lines, n_orgs),
            (net_token, net_lines, n_nets),
        ):
            if count == 0:
                continue
            cut = skeleton.index(token, pos)
            sink.write(skeleton[pos:cut])
            _write_indented_records(lines, sink)
            pos = cut + len(token)
        sink.write(skeleton[pos:])


def _spooled(lines: Iterable[str], sink: IO[str]) -> Iterator[str]:
    """Yield *lines* as they are written, one per line, to *sink*."""
    for line in lines:
        sink.write(line + "\n")
        yield line


def _finalize_as2org(
    path: Path,
    org_lines: Iterable[str],
    asn_lines: Iterable[str],
    n_orgs: int,
    n_asns: int,
) -> None:
    """Two streaming passes: digest the record lines, then write
    header + records (the integrity header must come first and carries
    a digest over everything after it)."""
    spool = path.with_suffix(path.suffix + ".part")
    with spool.open("w", encoding="utf-8") as sink:
        digest = release_digest(
            _spooled(itertools.chain(org_lines, asn_lines), sink)
        )
    header = RELEASE_HEADER_PREFIX + json.dumps(
        {
            "schema": RELEASE_HEADER_SCHEMA,
            "digest": digest,
            "orgs": n_orgs,
            "asns": n_asns,
        },
        sort_keys=True,
    )
    with path.open("w", encoding="utf-8") as sink:
        sink.write(header + "\n")
        with spool.open("r", encoding="utf-8") as fh:
            for line in fh:
                sink.write(line)
    spool.unlink()


def _finalize_apnic(
    path: Path,
    raw_populations: List[Tuple[ASN, str, float]],
    total_users: int,
) -> int:
    total_raw = sum(value for _, _, value in raw_populations) or 1.0
    scale = total_users / total_raw
    apnic = ApnicDataset()
    for asn, country, value in raw_populations:
        users = int(value * scale)
        if users > 0:
            apnic.add(PopulationRecord(asn=asn, country=country, users=users))
    apnic.save_csv(path)
    return len(apnic)


def export_universe_streaming(
    config: Optional[UniverseConfig] = None,
    out_dir: Union[str, Path] = "datasets",
    *,
    plan: Optional[UniversePlan] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, int]:
    """Generate *config*'s universe chunk by chunk and export datasets.

    Returns a summary of counts.  ``progress(chunk_index, n_chunks,
    asns_so_far)`` is called after each chunk, for CLI feedback on long
    runs.  Peak RSS stays bounded by one chunk plus the accumulators
    described in the module docstring.
    """
    plan = plan if plan is not None else build_plan(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    counts = {
        "chunks": plan.n_chunks,
        "whois_orgs": 0,
        "asns": 0,
        "pdb_orgs": 0,
        "pdb_nets": 0,
        "sites_emitted": 0,
    }
    kind_counts = {kind: 0 for kind in _SORT_KEYS}
    raw_populations: List[Tuple[ASN, str, float]] = []
    order = {kind: _Monotone(kind) for kind in _SORT_KEYS}

    with tempfile.TemporaryDirectory(dir=out, prefix=".stream-") as tmp:
        canon_parts = {k: Path(tmp) / f"canon-{k}" for k in _SORT_KEYS}
        rest_parts = {k: Path(tmp) / f"rest-{k}" for k in _SORT_KEYS}
        sinks = {
            k: (
                canon_parts[k].open("w", encoding="utf-8"),
                rest_parts[k].open("w", encoding="utf-8"),
            )
            for k in _SORT_KEYS
        }
        try:
            for index in range(plan.n_chunks):
                chunk = materialize_chunk(plan, index)
                records = {
                    "whois_orgs": [o.to_json() for o in chunk.whois_orgs],
                    "asns": [d.to_json() for d in chunk.delegations],
                    "pdb_orgs": [o.to_json() for o in chunk.pdb_orgs],
                    "nets": [n.to_json() for n in chunk.nets],
                }
                for kind, recs in records.items():
                    key = _SORT_KEYS[kind]
                    sink = sinks[kind][0 if index == 0 else 1]
                    for record in sorted(recs, key=key):
                        if index > 0:
                            order[kind].check(key(record))
                        sink.write(
                            json.dumps(record, ensure_ascii=False) + "\n"
                        )
                    kind_counts[kind] += len(recs)
                counts["whois_orgs"] = kind_counts["whois_orgs"]
                counts["asns"] = kind_counts["asns"]
                counts["pdb_orgs"] = kind_counts["pdb_orgs"]
                counts["pdb_nets"] = kind_counts["nets"]
                counts["sites_emitted"] += len(chunk.sites)
                raw_populations.extend(chunk.raw_populations)
                if progress is not None:
                    progress(index, plan.n_chunks, counts["asns"])
        finally:
            for pair in sinks.values():
                for sink in pair:
                    sink.close()

        _finalize_as2org(
            out / AS2ORG_FILENAME,
            _merged_lines(
                "whois_orgs", canon_parts["whois_orgs"], rest_parts["whois_orgs"]
            ),
            _merged_lines("asns", canon_parts["asns"], rest_parts["asns"]),
            counts["whois_orgs"],
            counts["asns"],
        )
        _finalize_pdb(
            out / PDB_FILENAME,
            {
                "generated": "synthetic",
                "seed": plan.config.seed,
                "source": "repro.universe",
            },
            _merged_lines(
                "pdb_orgs", canon_parts["pdb_orgs"], rest_parts["pdb_orgs"]
            ),
            _merged_lines("nets", canon_parts["nets"], rest_parts["nets"]),
            counts["pdb_orgs"],
            counts["pdb_nets"],
        )
    counts["apnic_records"] = _finalize_apnic(
        out / APNIC_FILENAME, raw_populations, plan.config.total_users
    )
    return counts
