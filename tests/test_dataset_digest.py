"""Dataset digests: pinned values, memoization and the volatile fallback.

The pinned hex strings are the digests the recursive ``stable_digest``
path produced for this universe.  They anchor every artifact
fingerprint, checkpoint identity and watch-journal entry, so a change
here invalidates every on-disk artifact cache: it must be deliberate.
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import digest as digest_module
from repro.config import UniverseConfig
from repro.core import BorgesPipeline
from repro.core.artifacts import ArtifactStore
from repro.digest import dataset_digest, json_digest, stable_digest
from repro.obs import Tracer
from repro.peeringdb import load_snapshot, save_snapshot
from repro.universe import generate_universe
from repro.whois import load_as2org_file, save_as2org_file
from repro.whois.as2org_file import release_digest

PINNED = {
    "whois": "73164f6e3d9682d114ce6b53f8a11644b1eec6bbf9ee0421e1c3f6366ce9a74d",
    "pdb": "07de2ca6a1078f2041f63dbf2b2457c6fbd9bffb43794560e77d483f40244c98",
    "web": "95b518f616cd9034e2cb085428154e92093cecfe930ec5bd755c3ffb055ceac6",
}


@pytest.fixture(scope="module")
def pinned_universe():
    universe = generate_universe(UniverseConfig(seed=3, n_organizations=400))
    assert len(universe.whois) == 1075
    return universe


def whois_payload(whois):
    return {
        "orgs": [whois.orgs[k].to_json() for k in sorted(whois.orgs)],
        "delegations": [
            whois.delegations[k].to_json() for k in sorted(whois.delegations)
        ],
    }


def pdb_payload(pdb):
    payload = pdb.to_json()
    payload.pop("meta")
    return payload


def web_payload(web, favicon=lambda raw: raw):
    return [
        {
            "host": site.host,
            "title": site.title,
            "redirect_kind": str(site.redirect_kind.value),
            "redirect_target": site.redirect_target,
            "favicon": favicon(site.favicon),
            "alive": site.alive,
        }
        for site in web.sites()
    ]


class TestPinnedValues:
    @pytest.mark.parametrize("name", ["whois", "pdb", "web"])
    def test_digest_matches_pin(self, pinned_universe, name):
        assert dataset_digest(getattr(pinned_universe, name)) == PINNED[name]

    def test_reference_path_matches_pin(self, pinned_universe):
        """The recursive ``stable_digest`` over the raw payloads (favicons
        as bytes) still yields the pins: the fast path hashes the same
        bytes, it does not define new ones."""
        u = pinned_universe
        assert stable_digest(whois_payload(u.whois)) == PINNED["whois"]
        assert stable_digest(pdb_payload(u.pdb)) == PINNED["pdb"]
        assert stable_digest(web_payload(u.web)) == PINNED["web"]

    def test_snapshot_round_trip_keeps_digest(self, pinned_universe, tmp_path):
        path = tmp_path / "pdb.json"
        save_snapshot(pinned_universe.pdb, path)
        assert load_snapshot(path).content_digest() == PINNED["pdb"]

    def test_as2org_round_trip_keeps_digest(self, pinned_universe, tmp_path):
        path = tmp_path / "as2org.jsonl"
        save_as2org_file(pinned_universe.whois, path)
        assert load_as2org_file(path).content_digest() == PINNED["whois"]


class TestJsonDigest:
    def test_equals_stable_digest_on_dataset_payloads(self, pinned_universe):
        u = pinned_universe
        hexed = web_payload(u.web, favicon=lambda raw: "bytes:" + raw.hex())
        for payload in (whois_payload(u.whois), pdb_payload(u.pdb), hexed):
            assert json_digest(payload) == stable_digest(payload)

    def test_equals_stable_digest_on_restricted_slice(self, pinned_universe):
        u = pinned_universe
        keep = u.whois.asns()[::7]
        whois, pdb = u.whois.restricted_to(keep), u.pdb.restricted_to(keep)
        for dataset, payload in (
            (whois, whois_payload(whois)),
            (pdb, pdb_payload(pdb)),
        ):
            assert json_digest(payload) == stable_digest(payload)
            assert dataset.content_digest() == stable_digest(payload)
        assert whois.content_digest() != PINNED["whois"]


class TestMemoization:
    @pytest.mark.parametrize("name", ["whois", "pdb", "web"])
    def test_second_call_does_no_encoding(
        self, pinned_universe, name, monkeypatch
    ):
        dataset = getattr(pinned_universe, name)
        first = dataset.content_digest()

        def refuse(payload):
            raise AssertionError("content_digest re-encoded a dataset")

        monkeypatch.setattr(digest_module, "json_digest", refuse)
        assert dataset.content_digest() == first

    def test_replace_and_restrict_do_not_carry_the_memo(self, pinned_universe):
        whois = pinned_universe.whois
        whois.content_digest()
        first_asn = whois.asns()[0]
        rest = {a: d for a, d in whois.delegations.items() if a != first_asn}
        replaced = dataclasses.replace(whois, delegations=rest)
        assert replaced.content_digest() != whois.content_digest()
        assert replaced.content_digest() == stable_digest(
            whois_payload(replaced)
        )

    def test_memo_is_ignored_by_equality_and_repr(self, pinned_universe):
        pdb = pinned_universe.pdb
        pdb.content_digest()
        fresh = dataclasses.replace(pdb)
        assert fresh._digest is None
        assert fresh == pdb
        assert "_digest" not in repr(pdb)


class Driver:
    """Stands in for a live web driver: no ``content_digest()``."""


class TestVolatileToken:
    def test_dropped_objects_never_share_a_token(self):
        ids, tokens = [], []
        for _ in range(200):
            driver = Driver()
            ids.append(id(driver))
            tokens.append(dataset_digest(driver))
            del driver
        # CPython hands a freed object's address to the next allocation,
        # so an id()-based token would repeat here.
        assert len(set(ids)) < len(ids)
        assert len(set(tokens)) == len(tokens)

    def test_live_object_keeps_its_token(self):
        driver = Driver()
        assert dataset_digest(driver) == dataset_digest(driver)
        assert dataset_digest(driver) != dataset_digest(Driver())

    def test_concurrent_first_calls_agree_on_one_token(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                driver = Driver()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [
                        pool.submit(dataset_digest, driver) for _ in range(32)
                    ]
                    tokens = {f.result(timeout=10) for f in futures}
                assert tokens == {dataset_digest(driver)}
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("obj", [object(), [1, 2]])
    def test_unreferenceable_objects_get_a_fresh_token_per_call(self, obj):
        assert dataset_digest(obj) != dataset_digest(obj)


class TestStreamedLists:
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
    def test_iterator_equals_list(self, n):
        records = [{"b": i, "a": "é%d" % i, "c": [i, None]} for i in range(n)]
        payload = {"z": {"data": records}, "a": records, "m": "x"}
        streamed = {"z": {"data": iter(records)}, "a": iter(records), "m": "x"}
        assert json_digest(streamed) == stable_digest(payload)
        assert json_digest(iter(records)) == stable_digest(records)

    @pytest.mark.parametrize(
        "lines",
        [[], ["one"], ['{"a":1}', "é ü ☃", 'quote " and \\ backslash']],
    )
    def test_release_digest_is_the_canonical_list_digest(self, lines):
        assert release_digest(lines) == stable_digest(lines)
        assert release_digest(iter(lines)) == stable_digest(lines)


class TestDigestSpan:
    def test_span_recorded_and_negligible_on_warm_rerun(self, pinned_universe):
        u = pinned_universe
        store = ArtifactStore()
        cold = Tracer()
        BorgesPipeline(u.whois, u.pdb, u.web, tracer=cold, artifact_store=store).run()
        (span,) = cold.find("datasets.digest")
        assert span.status == "ok"

        warm = Tracer()
        BorgesPipeline(u.whois, u.pdb, u.web, tracer=warm, artifact_store=store).run()
        (span,) = warm.find("datasets.digest")
        wall = sum(root.duration for root in warm.spans())
        assert span.duration <= 0.10 * wall
