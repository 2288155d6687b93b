"""The simulated web: a registry of sites with redirects and favicons.

:class:`SimulatedWeb` plays the role of the live Internet in §4.3.  The
universe generator (see :mod:`repro.universe.web_synth`) plants sites
here: brand landing pages, post-merger redirect chains (the
Clearwire → Sprint → T-Mobile pattern), dead hosts, framework-default
favicons, and mainstream-platform pages.  The scraper and favicon API
only ever talk to this object, so swapping in a real HTTP driver touches
nothing downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..errors import FetchError, URLError
from ..types import FaviconHash
from .http import (
    HTTPResponse,
    RedirectKind,
    make_redirect_response,
    render_page_body,
)
from .url import normalize_url, parse_url


def favicon_hash(content: bytes) -> FaviconHash:
    """Stable identity of favicon content (16-hex-digit digest)."""
    return hashlib.sha256(content).hexdigest()[:16]


def make_favicon(brand: str) -> bytes:
    """Deterministic pseudo-icon bytes for a brand name.

    Two sites share a favicon exactly when they were given the same brand
    token — which is how the universe generator encodes "same logo".
    """
    return b"ICO:" + brand.encode("utf-8")


#: Favicons served by web frameworks / hosting products, which group
#: unrelated sites together (Table 2's Bootstrap example).  Any brand
#: token ending in ``-default`` is a framework identity; this tuple lists
#: the named families, and the universe generator mints additional
#: anonymous template families ("webtemplate<k>-default").
FRAMEWORK_FAVICON_BRANDS = (
    "bootstrap-default",
    "wordpress-default",
    "godaddy-default",
    "ixcsoft-default",
    "wix-default",
)


def is_framework_favicon_brand(brand: str) -> bool:
    """True when a favicon brand token is a framework default, not a logo."""
    return brand.endswith("-default")


@dataclass
class Site:
    """One simulated website, keyed by host."""

    host: str
    title: str = ""
    #: Client- or server-side redirect, if this site forwards visitors.
    redirect_kind: RedirectKind = RedirectKind.NONE
    redirect_target: str = ""
    #: Favicon bytes; empty means the site serves no icon.
    favicon: bytes = b""
    #: Dead sites time out (the paper found ~14% of PDB URLs unreachable).
    alive: bool = True

    def respond(self, url: str) -> HTTPResponse:
        """Serve the response this site gives for *url*."""
        if not self.alive:
            # Timeouts are transient at the HTTP layer (the scraper may
            # re-attempt them), even though a dead simulated site never
            # actually recovers within a run.
            raise FetchError(url, "connection timed out", transient=True)
        if self.redirect_kind != RedirectKind.NONE and self.redirect_target:
            return make_redirect_response(url, self.redirect_kind, self.redirect_target)
        return HTTPResponse(
            url=url,
            status=200,
            body=render_page_body(self.title or self.host),
        )

    @property
    def favicon_id(self) -> Optional[FaviconHash]:
        return favicon_hash(self.favicon) if self.favicon else None


class SimulatedWeb:
    """A host→site registry with an HTTP-shaped fetch interface."""

    def __init__(self) -> None:
        self._sites: Dict[str, Site] = {}
        self.fetch_count = 0
        self._content_digest: Optional[str] = None

    # -- registry ---------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        host = site.host.lower()
        if host in self._sites:
            raise ValueError(f"site already registered for host {host!r}")
        site.host = host
        self._sites[host] = site
        self._content_digest = None
        return site

    def add_page(
        self,
        url: str,
        title: str = "",
        favicon_brand: str = "",
        alive: bool = True,
    ) -> Site:
        """Convenience: register a plain landing page for *url*'s host."""
        host = parse_url(url).host
        favicon = make_favicon(favicon_brand) if favicon_brand else b""
        return self.add_site(
            Site(host=host, title=title or host, favicon=favicon, alive=alive)
        )

    def add_redirect(
        self,
        url: str,
        target: str,
        kind: RedirectKind = RedirectKind.HTTP_301,
        favicon_brand: str = "",
    ) -> Site:
        """Register a site whose only job is to forward to *target*."""
        host = parse_url(url).host
        favicon = make_favicon(favicon_brand) if favicon_brand else b""
        return self.add_site(
            Site(
                host=host,
                title=host,
                redirect_kind=kind,
                redirect_target=normalize_url(target),
                favicon=favicon,
            )
        )

    def site_for(self, url: str) -> Optional[Site]:
        try:
            host = parse_url(url).host
        except URLError:
            return None
        return self._sites.get(host)

    def hosts(self) -> List[str]:
        return sorted(self._sites)

    def sites(self) -> Iterator[Site]:
        for host in self.hosts():
            yield self._sites[host]

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, host: str) -> bool:
        return host.lower() in self._sites

    # -- HTTP-shaped interface ---------------------------------------------

    def fetch(self, url: str) -> HTTPResponse:
        """Fetch one URL (no redirect following — that's the scraper's job).

        Raises :class:`~repro.errors.FetchError` for unknown hosts (NXDOMAIN
        analogue) and dead sites (timeout analogue).
        """
        self.fetch_count += 1
        parsed = parse_url(url)  # may raise URLError
        site = self._sites.get(parsed.host)
        if site is None:
            raise FetchError(url, "host not found")
        return site.respond(parsed.url)

    def favicon_bytes(self, url: str) -> Optional[bytes]:
        """The favicon the host of *url* serves, or ``None``."""
        site = self.site_for(url)
        if site is None or not site.alive or not site.favicon:
            return None
        return site.favicon

    def content_digest(self) -> str:
        """Stable content hash; anchors stage-artifact fingerprints.

        Cached between calls (the registry is write-once in practice) and
        invalidated whenever a site is added.  ``fetch_count`` is runtime
        state, not content, so it does not participate.
        """
        if self._content_digest is None:
            from ..digest import json_digest

            self._content_digest = json_digest(
                (
                    {
                        "host": site.host,
                        "title": site.title,
                        "redirect_kind": str(site.redirect_kind.value),
                        "redirect_target": site.redirect_target,
                        "favicon": "bytes:" + site.favicon.hex(),
                        "alive": site.alive,
                    }
                    for site in self.sites()
                )
            )
        return self._content_digest

    # -- diagnostics --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        sites = list(self.sites())
        return {
            "hosts": len(sites),
            "alive": sum(1 for s in sites if s.alive),
            "redirecting": sum(
                1 for s in sites if s.redirect_kind != RedirectKind.NONE
            ),
            "with_favicon": sum(1 for s in sites if s.favicon),
            "fetches": self.fetch_count,
        }
