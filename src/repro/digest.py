"""Canonical JSON digests shared by datasets and the artifact store.

The stage DAG content-addresses every artifact by a fingerprint over
(config slice, dataset digests, upstream fingerprints).  For that to be
stable across processes, every participant — dataset snapshots, config
slices, stage payloads — must hash to the same bytes for the same
logical content.  This module is the single canonicalisation point:
dataclasses, sets, tuples and bytes are coerced to a deterministic JSON
form, then hashed with SHA-256.

Dataset-sized payloads skip the recursive coercion: their records
already serialise to JSON-native values, so :func:`json_digest` hands
them straight to the C encoder, a chunk at a time, and hashes the same
bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import threading
import weakref
from typing import Any, Iterator


def jsonable(value: Any) -> Any:
    """Coerce *value* to a JSON-serialisable, deterministic form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, bytes):
        return "bytes:" + value.hex()
    return value


def canonical_json(value: Any) -> str:
    """The canonical compact JSON encoding used for hashing and storage."""
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of *value*'s canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


#: ``check_circular`` is off: digest payloads are trees the caller has
#: just built, and the cycle check costs a dict insert per container.
_DIGEST_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)
#: Items encoded per call when a list is passed as an iterator.
_CHUNK = 256


def json_digest(payload: Any) -> str:
    """:func:`stable_digest` for a payload that is already JSON-native
    (dicts with ``str`` keys, lists, strings, numbers, booleans, None).

    Such a payload is its own canonical form, so the :func:`jsonable`
    walk is skipped and the C encoder produces the bytes
    :func:`stable_digest` hashes.  Any list may be passed as an iterator
    instead; it is encoded a chunk at a time, so records built on the
    fly are freed as they are hashed (a dataset's worth of live record
    dicts triggers dozens of cyclic-GC passes, full ones included).
    """
    hasher = hashlib.sha256()
    _feed(hasher, payload)
    return hasher.hexdigest()


def _feed(hasher: Any, value: Any) -> None:
    if isinstance(value, dict):
        hasher.update(b"{")
        for i, key in enumerate(sorted(value)):
            head = ("," if i else "") + _DIGEST_ENCODER.encode(key) + ":"
            hasher.update(head.encode("utf-8"))
            _feed(hasher, value[key])
        hasher.update(b"}")
    elif isinstance(value, Iterator):
        hasher.update(b"[")
        sep = ""
        for chunk in iter(lambda: list(itertools.islice(value, _CHUNK)), []):
            text = sep + _DIGEST_ENCODER.encode(chunk)[1:-1]
            hasher.update(text.encode("utf-8"))
            sep = ","
        hasher.update(b"]")
    else:
        hasher.update(_DIGEST_ENCODER.encode(value).encode("utf-8"))


_VOLATILE_TOKENS: "weakref.WeakKeyDictionary[Any, str]" = (
    weakref.WeakKeyDictionary()
)
_VOLATILE_COUNTER = itertools.count()
_VOLATILE_LOCK = threading.Lock()


def _volatile_token(obj: Any) -> str:
    """A token unique to *obj* (and objects equal to it) while it lives.

    Unlike ``id()``, a token is never handed to a later object, so a
    freed object's cached artifacts can never be served to its
    successor.  Objects that cannot be weakly referenced or hashed get
    a fresh token on every call: always a miss, never a false hit.
    """
    with _VOLATILE_LOCK:
        try:
            token = _VOLATILE_TOKENS.get(obj)
            if token is None:
                token = "volatile:%x" % next(_VOLATILE_COUNTER)
                _VOLATILE_TOKENS[obj] = token
            return token
        except TypeError:
            return "volatile:%x" % next(_VOLATILE_COUNTER)


def dataset_digest(obj: Any) -> str:
    """Best-effort content digest of a dataset object.

    Objects exposing ``content_digest()`` (WHOIS datasets, PeeringDB
    snapshots, the simulated web) get a true content address; anything
    else (a live HTTP driver) gets a per-object token, which keeps
    caching correct (never a false hit) at the cost of cross-process
    reuse.
    """
    method = getattr(obj, "content_digest", None)
    if callable(method):
        return str(method())
    return _volatile_token(obj)
