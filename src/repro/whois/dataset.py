"""In-memory WHOIS dataset: delegations indexed both ways.

This is the compulsory substrate the paper leans on: the Organization
Factor graph's vertex set is *all networks appearing in WHOIS records*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import SchemaError, UnknownASNError
from ..types import ASN, WhoisOrgID
from .models import ASNDelegation, WhoisOrg


@dataclass
class WhoisDataset:
    """All WHOIS organizations and ASN delegations at one snapshot.

    Write-once after :meth:`build`: :meth:`content_digest` is memoized,
    so build a new dataset (as :meth:`restricted_to` does) instead of
    mutating one.
    """

    orgs: Dict[WhoisOrgID, WhoisOrg] = field(default_factory=dict)
    delegations: Dict[ASN, ASNDelegation] = field(default_factory=dict)
    # Cached org_id→members index, keyed by the delegation count it was
    # built from so a dataset assembled incrementally (more delegations
    # added after a lookup) invalidates instead of serving a stale index.
    _members_cache: Optional[Tuple[int, Dict[WhoisOrgID, List[ASN]]]] = field(
        default=None, repr=False, compare=False
    )
    _digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        orgs: Iterable[WhoisOrg],
        delegations: Iterable[ASNDelegation],
    ) -> "WhoisDataset":
        dataset = cls()
        for org in orgs:
            if org.org_id in dataset.orgs:
                raise SchemaError(f"duplicate WHOIS org_id {org.org_id}")
            dataset.orgs[org.org_id] = org.validate()
        for delegation in delegations:
            if delegation.asn in dataset.delegations:
                raise SchemaError(f"duplicate delegation for AS{delegation.asn}")
            if delegation.org_id not in dataset.orgs:
                raise SchemaError(
                    f"AS{delegation.asn} delegated to unknown org "
                    f"{delegation.org_id!r}"
                )
            dataset.delegations[delegation.asn] = delegation.validate()
        return dataset

    def __len__(self) -> int:
        return len(self.delegations)

    def __contains__(self, asn: int) -> bool:
        return asn in self.delegations

    def asns(self) -> List[ASN]:
        """All delegated ASNs in ascending order (the θ vertex set)."""
        return sorted(self.delegations)

    def org_id_of(self, asn: ASN) -> WhoisOrgID:
        try:
            return self.delegations[asn].org_id
        except KeyError:
            raise UnknownASNError(asn) from None

    def org_of(self, asn: ASN) -> WhoisOrg:
        return self.orgs[self.org_id_of(asn)]

    def org_name_of(self, asn: ASN) -> str:
        return self.org_of(asn).name

    def _members_index(self) -> Dict[WhoisOrgID, List[ASN]]:
        cache = self._members_cache
        if cache is None or cache[0] != len(self.delegations):
            index: Dict[WhoisOrgID, List[ASN]] = {}
            for asn in self.asns():
                index.setdefault(self.delegations[asn].org_id, []).append(asn)
            self._members_cache = cache = (len(self.delegations), index)
        return cache[1]

    def members(self) -> Dict[WhoisOrgID, List[ASN]]:
        """org_id → sorted member ASNs (the OID_W clustering / AS2Org)."""
        return {k: list(v) for k, v in self._members_index().items()}

    def siblings_of(self, asn: ASN) -> Set[ASN]:
        """All ASNs sharing *asn*'s WHOIS org (including *asn* itself)."""
        return set(self._members_index()[self.org_id_of(asn)])

    def stats(self) -> Dict[str, float]:
        members = self.members()
        sizes = [len(v) for v in members.values()]
        return {
            "asns": float(len(self.delegations)),
            "orgs": float(len(members)),
            "mean_asns_per_org": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_asns_per_org": float(max(sizes)) if sizes else 0.0,
        }

    def content_digest(self) -> str:
        """Stable content hash; anchors stage-artifact fingerprints.

        Computed on first use and memoized (the dataset is write-once).
        """
        if self._digest is None:
            from ..digest import json_digest

            self._digest = json_digest(
                {
                    "orgs": (
                        self.orgs[org_id].to_json()
                        for org_id in sorted(self.orgs)
                    ),
                    "delegations": (
                        self.delegations[asn].to_json()
                        for asn in sorted(self.delegations)
                    ),
                }
            )
        return self._digest

    def restricted_to(self, asns: Iterable[ASN]) -> "WhoisDataset":
        """Return a sub-dataset containing only the given ASNs."""
        keep = set(asns)
        delegations = [
            d for asn, d in self.delegations.items() if asn in keep
        ]
        org_ids = {d.org_id for d in delegations}
        orgs = [o for oid, o in self.orgs.items() if oid in org_ids]
        return WhoisDataset.build(orgs, delegations)
