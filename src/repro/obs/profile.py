"""Process-level resource readings for benchmark harnesses."""

from __future__ import annotations

import resource
import sys

__all__ = ["peak_rss_bytes"]


def peak_rss_bytes() -> int:
    """Peak resident set size of this process tree so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; the
    children's maximum covers shard worker processes.  The value is
    monotone over the process lifetime, so callers comparing
    configurations should order runs from small to large.
    """
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return int(max(self_rss, children_rss)) * scale
