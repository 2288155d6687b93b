"""Process-level resource observations.

One number matters for the scale work: the high-water resident set size
of this process and the children it forked.  ``ru_maxrss`` is monotonic for a process lifetime —
it never goes down — which is why the scale benchmarks measure each
point in a fresh subprocess; within one run it is exactly the "did we
ever materialize too much at once" gauge the streaming/sharding
refactor is accountable to.
"""

from __future__ import annotations

import sys
from typing import Optional

from .registry import MetricsRegistry, get_registry

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Gauge name the manifest / `borges telemetry` surface.
PEAK_RSS_GAUGE = "process_peak_rss_bytes"


def peak_rss_bytes() -> int:
    """Peak resident set size in bytes of this process or any reaped
    child (0 if unknown).

    Forked shards do their work in children, so a sharded run's
    high-water mark is the larger of ``RUSAGE_SELF`` and
    ``RUSAGE_CHILDREN`` (the largest single reaped child).
    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are
    normalised to bytes here.
    """
    if resource is None:
        return 0
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    scale = 1 if sys.platform == "darwin" else 1024
    return int(peak) * scale


def record_peak_rss(registry: Optional[MetricsRegistry] = None) -> int:
    """Sample peak RSS into :data:`PEAK_RSS_GAUGE`; returns the bytes."""
    value = peak_rss_bytes()
    target = registry if registry is not None else get_registry()
    target.gauge(
        PEAK_RSS_GAUGE,
        "high-water resident set size of this process or a reaped child",
    ).set(value)
    return value
