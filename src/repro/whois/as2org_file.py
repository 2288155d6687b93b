"""Reader/writer for CAIDA's AS2Org JSON-lines file format.

CAIDA publishes AS2Org as a text file of JSON records, one per line, of
two types distinguished by a ``type`` field::

    {"type": "Organization", "organizationId": "...", "name": "...", ...}
    {"type": "ASN", "asn": "3356", "organizationId": "...", ...}

We reproduce that layout (including string-typed ASNs) so the pipeline
reads the same wire format the real system would.

Files written here additionally start with an integrity header — a
``#`` comment line (ignored by any CAIDA-compatible reader, including
:func:`load_as2org_file`) carrying a content digest over the record
lines plus record counts::

    # borges-release {"schema": 1, "digest": "...", "orgs": 10, "asns": 42}

The serve tier verifies that digest before hot-swapping a release file
in (:mod:`repro.serve.store`); files from other producers simply have
no header and skip verification.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..digest import json_digest
from ..errors import SchemaError, SnapshotError
from .dataset import WhoisDataset
from .models import ASNDelegation, WhoisOrg

#: Marks the integrity header comment line of a borges-written release.
RELEASE_HEADER_PREFIX = "# borges-release "

#: Bump when the header payload changes incompatibly.
RELEASE_HEADER_SCHEMA = 1


def release_digest(record_lines: Iterable[str]) -> str:
    """Content digest over a release's record lines (order-sensitive):
    the canonical digest of their list, streamed."""
    return json_digest(iter(record_lines))


def _read_text(path: Path) -> str:
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                return fh.read()
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read as2org file {path}: {exc}") from exc


def parse_release_header(text: str) -> Optional[Dict[str, object]]:
    """The integrity header of *text*, or ``None`` when there isn't one.

    A malformed header (truncated JSON, wrong schema) raises
    :class:`SnapshotError` — a file claiming to carry a digest but
    failing to parse one is corruption, not absence.
    """
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            return None
        if stripped.startswith(RELEASE_HEADER_PREFIX):
            raw = stripped[len(RELEASE_HEADER_PREFIX):]
            try:
                header = json.loads(raw)
            except ValueError as exc:
                raise SnapshotError(
                    f"malformed borges-release header: {exc}"
                ) from exc
            if not isinstance(header, dict) or "digest" not in header:
                raise SnapshotError(
                    "malformed borges-release header: missing digest"
                )
            return header
    return None


def record_lines(text: str) -> List[str]:
    """The non-comment, non-blank lines digests are computed over."""
    return [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


def save_as2org_file(dataset: WhoisDataset, path: Union[str, Path]) -> None:
    """Write *dataset* in CAIDA's JSON-lines format (gzip if ``.gz``).

    The file starts with the integrity header described in the module
    docstring; every record line is digested so the serve tier can
    detect truncation or tampering before swapping the file in.
    """
    path = Path(path)
    lines: List[str] = []
    for org_id in sorted(dataset.orgs):
        lines.append(json.dumps(dataset.orgs[org_id].to_json(), ensure_ascii=False))
    for asn in sorted(dataset.delegations):
        lines.append(
            json.dumps(dataset.delegations[asn].to_json(), ensure_ascii=False)
        )
    header = RELEASE_HEADER_PREFIX + json.dumps(
        {
            "schema": RELEASE_HEADER_SCHEMA,
            "digest": release_digest(lines),
            "orgs": len(dataset.orgs),
            "asns": len(dataset.delegations),
        },
        sort_keys=True,
    )
    payload = header + "\n" + "\n".join(lines) + "\n"
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        path.write_text(payload, encoding="utf-8")


def load_as2org_text(text: str, origin: str = "<string>") -> WhoisDataset:
    """Parse as2org JSON-lines *text* into a :class:`WhoisDataset`."""
    orgs: List[WhoisOrg] = []
    delegations: List[ASNDelegation] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{origin}:{lineno}: bad JSON: {exc}") from exc
        kind = record.get("type")
        if kind == "Organization":
            orgs.append(WhoisOrg.from_json(record))
        elif kind == "ASN":
            delegations.append(ASNDelegation.from_json(record))
        else:
            raise SchemaError(f"{origin}:{lineno}: unknown record type {kind!r}")
    return WhoisDataset.build(orgs, delegations)


def load_as2org_file(path: Union[str, Path]) -> WhoisDataset:
    """Load a CAIDA-format AS2Org file into a :class:`WhoisDataset`."""
    path = Path(path)
    return load_as2org_text(_read_text(path), origin=str(path))


def read_as2org_file_text(path: Union[str, Path]) -> str:
    """Raw text of an as2org file (gz-transparent), for verification."""
    return _read_text(Path(path))
