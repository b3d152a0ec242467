"""Figure 17: last-hop throughput CDF — single best AP vs SourceSync.

Two nodes act as APs and one as a client, placed at random; for every
placement the experiment measures the downlink throughput when the client
is served by its single best AP (selective diversity, the red curve of
Fig. 17) and when both APs transmit jointly with SourceSync (the blue
curve).  SampleRate drives rate adaptation in both cases; with SourceSync
the lead AP's adaptation sees the combined channel and usually settles at a
higher 802.11 rate, which is where the paper's median 1.57x gain comes
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.channel.propagation import PathLossModel
from repro.engine import run_seed_chunks, run_trials
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.lasthop.controller import SourceSyncController
from repro.lasthop.simulation import simulate_downlink
from repro.net.topology import Testbed
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "simulate_placement"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 17 reproduction.

    ``jobs`` runs the (independent, per-trial-seeded) placements across a
    process pool; results are identical for any value.  ``batched`` runs
    the placement ensemble through the lockstep last-hop engine
    (:func:`repro.routing.ensemble.simulate_downlink_ensemble`): all
    placements advance packet-by-packet in waves with SampleRate state and
    delivery-probability tables held in stacked arrays, while each
    placement's generator sees its sequential draw order — results match
    the per-placement path (``batched=False``) bit-for-bit.
    """

    n_placements: int = 25
    n_packets: int = 120
    seed: int = 17
    batched: bool = True
    jobs: int = 1
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if self.n_placements < 1:
            raise ValueError("n_placements must be >= 1")
        if self.n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _build_placement(
    rng: np.random.Generator,
    params: OFDMParams = DEFAULT_PARAMS,
    ap_separation_m: float = 45.0,
    min_reachable_snr_db: float = 5.0,
    max_attempts: int = 20,
) -> tuple[Testbed, SourceSyncController, int]:
    """Draw one admitted client placement (testbed, controller, client id).

    The two APs are a fixed distance apart and the client falls at random in
    the band between and around them — the "poor connectivity to multiple
    nearby APs" regime the paper targets (§7.1).  Placements where the
    client is unreachable even from its best AP are re-drawn, since they
    would never be admitted to a real WLAN.
    """
    for _ in range(max_attempts):
        positions = [
            (0.0, 0.0),
            (ap_separation_m, 0.0),
            (
                float(rng.uniform(0.15, 0.85) * ap_separation_m),
                float(rng.uniform(5.0, 40.0)),
            ),
        ]
        testbed = Testbed.from_positions(
            positions,
            rng=rng,
            params=params,
            path_loss=PathLossModel(exponent=3.5, shadowing_sigma_db=6.0),
        )
        client = 2
        best_snr = max(
            testbed.link_average_snr_db(0, client), testbed.link_average_snr_db(1, client)
        )
        if best_snr >= min_reachable_snr_db:
            break
    controller = SourceSyncController(testbed, ap_ids=[0, 1], max_aps_per_client=2)
    return testbed, controller, client


def simulate_placement(
    rng: np.random.Generator,
    n_packets: int = 150,
    params: OFDMParams = DEFAULT_PARAMS,
    ap_separation_m: float = 45.0,
    min_reachable_snr_db: float = 5.0,
    max_attempts: int = 20,
) -> tuple[float, float]:
    """(best-AP throughput, SourceSync throughput) for one random placement."""
    testbed, controller, client = _build_placement(
        rng, params, ap_separation_m, min_reachable_snr_db, max_attempts
    )
    best = simulate_downlink(testbed, controller, client, scheme="best_ap", n_packets=n_packets, rng=rng)
    joint = simulate_downlink(testbed, controller, client, scheme="sourcesync", n_packets=n_packets, rng=rng)
    return best.throughput_mbps, joint.throughput_mbps


def _placement_ensemble_chunk(
    children: list[np.random.SeedSequence],
    n_packets: int,
    params: OFDMParams,
) -> list[tuple[float, float]]:
    """Run a chunk of placement trials through the lockstep last-hop engine.

    Per lane the draw order matches a sequential :func:`simulate_placement`
    exactly: placement/admission draws, then the best-AP stream, then the
    SourceSync stream.  The two schemes share one generator, so each
    placement contributes a *chained* lane pair (``after=``) and the whole
    chunk — both schemes of every placement — advances as one ensemble
    call whose retry sub-waves gather probabilities and airtimes across
    schemes from one stacked table.
    """
    from repro.routing.ensemble import DownlinkLane, simulate_downlink_ensemble

    rngs = [np.random.default_rng(child) for child in children]
    placements = [_build_placement(rng, params) for rng in rngs]
    lanes: list[DownlinkLane] = []
    for (testbed, controller, client), rng in zip(placements, rngs):
        best = DownlinkLane(testbed, controller, client, "best_ap", rng, n_packets=n_packets)
        joint = DownlinkLane(
            testbed, controller, client, "sourcesync", rng, n_packets=n_packets, after=best
        )
        lanes.extend([best, joint])
    results = simulate_downlink_ensemble(lanes)
    return [
        (results[2 * i].throughput_mbps, results[2 * i + 1].throughput_mbps)
        for i in range(len(placements))
    ]


def _run_placement_ensemble(
    n_placements: int,
    n_packets: int,
    seed: int,
    params: OFDMParams,
    jobs: int = 1,
) -> list[tuple[float, float]]:
    """Lockstep counterpart of the ``run_trials`` placement loop.

    Per-trial seeding is shared with the sequential path through
    :func:`repro.engine.run_seed_chunks`, which also shards the
    lanes across a process pool (``jobs > 1``) without changing any output.
    """
    return run_seed_chunks(_placement_ensemble_chunk, n_placements, seed, jobs, n_packets, params)


def _placement_trial(
    _index: int, rng: np.random.Generator, n_packets: int, params: OFDMParams
) -> tuple[float, float]:
    """Module-level trial body so ``run_trials`` can pickle it for ``jobs > 1``."""
    return simulate_placement(rng, n_packets=n_packets, params=params)


@experiment(
    name="fig17",
    description="Last-hop downlink throughput CDF: single best AP vs SourceSync",
    config=Config,
    presets={
        "smoke": {"n_placements": 2, "n_packets": 24},
        "quick": {"n_placements": 12, "n_packets": 80},
        "full": {"n_placements": 40, "n_packets": 150},
    },
    tags=("mac", "diversity"),
    summary_keys={
        "best_ap_median_mbps": "median downlink throughput when the client is served by its single best AP",
        "sourcesync_median_mbps": "median downlink throughput under joint multi-AP SourceSync transmission",
        "median_gain": "SourceSync median throughput divided by the best-AP median (paper: 1.57x)",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 17: CDFs of last-hop throughput for both schemes.

    Placements are independent trials, each with its own generator spawned
    from the experiment seed — seeded results are independent of trial
    execution order and parallelise over ``config.jobs`` processes without
    changing.  Each trial contains a rate-adaptation feedback loop, so a
    trial's packet stream stays sequential; with ``config.batched`` the
    placements advance packet-by-packet in lockstep through
    :func:`repro.routing.ensemble.simulate_downlink_ensemble`, which holds
    the SampleRate decision state and the per-rate delivery/airtime tables
    of every lane in stacked arrays (bit-identical results either way).
    """
    n_placements = config.n_placements
    if config.batched:
        pairs = _run_placement_ensemble(
            n_placements,
            n_packets=config.n_packets,
            seed=config.seed,
            params=config.params,
            jobs=config.jobs,
        )
    else:
        pairs = run_trials(
            partial(_placement_trial, n_packets=config.n_packets, params=config.params),
            n_placements,
            seed=config.seed,
            jobs=config.jobs,
        )
    best_values = [best for best, _ in pairs]
    joint_values = [joint for _, joint in pairs]

    best_cdf = EmpiricalCDF(best_values)
    joint_cdf = EmpiricalCDF(joint_values)
    fractions = [i / max(n_placements - 1, 1) for i in range(n_placements)]
    return ExperimentResult(
        name="fig17",
        description="Last-hop downlink throughput CDF: single best AP vs SourceSync",
        series={
            "cdf_fraction": fractions,
            "best_ap_mbps": sorted(best_values),
            "sourcesync_mbps": sorted(joint_values),
        },
        summary={
            "best_ap_median_mbps": best_cdf.median,
            "sourcesync_median_mbps": joint_cdf.median,
            "median_gain": joint_cdf.median_gain_over(best_cdf),
        },
        paper_reference={
            "claim": "sender diversity across two APs yields a median throughput gain of 1.57x over the single best AP",
            "figure": "Fig. 17",
        },
    )


SPEC = _run.spec
