"""Synchronization overhead table (§4.4).

The paper quantifies SourceSync's overhead — the SIFS gap plus two
channel-estimation symbols per co-sender — as 1.7% of the frame airtime for
two concurrent senders and 2.8% for five, with 1460-byte packets at
12 Mbps.  This experiment regenerates that table across sender counts and
also reports the overhead at other rates and packet sizes, since overhead
grows with rate (shorter data section) and shrinks with packet size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.net.mac import MacTiming
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "overhead_fraction"]


@dataclass(frozen=True)
class Config:
    """Parameters of the §4.4 overhead table.

    The computation is closed-form and draws no random numbers; ``seed`` is
    kept so registry-wide overrides and sweeps (``--set seed=...``) apply
    uniformly to every experiment.
    """

    sender_counts: tuple[int, ...] = (1, 2, 3, 4, 5)
    rate_mbps: float = 12.0
    payload_bytes: int = 1460
    seed: int = 0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if not self.sender_counts:
            raise ValueError("sender_counts must be non-empty")
        if any(n < 1 for n in self.sender_counts):
            raise ValueError("sender counts must be >= 1")
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")


def overhead_fraction(
    n_senders: int,
    rate_mbps: float = 12.0,
    payload_bytes: int = 1460,
    params: OFDMParams = DEFAULT_PARAMS,
) -> float:
    """Fractional airtime overhead of a joint frame with ``n_senders`` senders."""
    if n_senders < 1:
        raise ValueError("n_senders must be at least 1")
    timing = MacTiming(params=params)
    return timing.joint_overhead_fraction(payload_bytes, rate_mbps, n_cosenders=n_senders - 1)


@experiment(
    name="overhead",
    description="Synchronization overhead vs number of concurrent senders (§4.4)",
    config=Config,
    presets={
        "smoke": {},
        "quick": {},
        "full": {"sender_counts": (1, 2, 3, 4, 5, 6, 7, 8)},
    },
    tags=("mac", "overhead"),
    summary_keys={
        "two_senders_percent": "airtime overhead of synchronization headers with two concurrent senders (paper: 1.7%)",
        "five_senders_percent": "airtime overhead with five concurrent senders (paper: 2.8%)",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate the §4.4 overhead numbers."""
    sender_counts = config.sender_counts
    fractions = [
        overhead_fraction(n, config.rate_mbps, config.payload_bytes, config.params)
        for n in sender_counts
    ]
    percents = [100.0 * f for f in fractions]
    two = percents[sender_counts.index(2)] if 2 in sender_counts else float("nan")
    five = percents[sender_counts.index(5)] if 5 in sender_counts else float("nan")
    return ExperimentResult(
        name="overhead",
        description="Synchronization overhead vs number of concurrent senders (§4.4)",
        series={
            "n_senders": list(sender_counts),
            "overhead_percent": percents,
        },
        summary={
            "two_senders_percent": float(two),
            "five_senders_percent": float(five),
        },
        paper_reference={
            "claim": "overhead is 1.7% for two concurrent senders and 2.8% for five (1460 B, 12 Mbps)",
            "section": "§4.4",
        },
    )


SPEC = _run.spec
