"""Last-hop sender diversity: multi-AP downlink with a wired controller (§7.1)."""

from repro.lasthop.controller import Association, SourceSyncController
from repro.lasthop.rate_adaptation import SampleRate
from repro.lasthop.simulation import LastHopResult

__all__ = [
    "Association",
    "SourceSyncController",
    "SampleRate",
    "LastHopResult",
]
