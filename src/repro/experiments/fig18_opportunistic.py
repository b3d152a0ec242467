"""Figure 18: opportunistic routing throughput CDFs at 6 and 12 Mbps.

Five-node topologies (source, destination and three relays placed between
them) are generated at random; for each topology three schemes transfer a
batch of packets from source to destination:

* single-path routing over the best ETX route;
* ExOR, which exploits receiver diversity only;
* ExOR + SourceSync, which additionally lets every relay holding a packet
  join the forwarder's transmission (sender diversity).

The paper reports, per bit rate, a median gain of 1.26-1.4x for ExOR over
single path and a further 1.35-1.45x for SourceSync over ExOR (1.7-2x over
single path).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.channel.propagation import PathLossModel
from repro.engine import run_seed_chunks
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.net.topology import Testbed
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.routing.ensemble import (
    ExorLane,
    prime_testbeds_lockstep,
    simulate_exor_ensemble,
    simulate_single_path_ensemble,
)
from repro.routing.exor import ExorConfig

__all__ = ["Config", "SPEC", "random_relay_topology"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 18 reproduction.

    Topologies are independent trials with spawned per-trial generators
    (seeded results do not depend on execution order; ``jobs`` runs them
    across a process pool without changing any output).  The topology
    ensemble runs through the lockstep mesh engine
    (:mod:`repro.routing.ensemble`): link priming, the source-broadcast
    phase, the priority-ordered forwarding rounds and the per-attempt
    probability tables all become stacked array operations, while every
    topology's generator is consumed in its own sequential order.  Both
    ExOR schemes of a topology run as one chained lane pair inside a
    single ensemble call.  ``chunk_topologies`` caps how many topologies
    one lockstep call carries; 0 keeps the engine's bounded default
    (near-equal shards of at most :data:`repro.engine.scheduler.SEED_BLOCK`
    topologies, and at least one per job).  No setting changes any output.
    """

    rates_mbps: tuple[float, ...] = (6.0, 12.0)
    n_topologies: int = 20
    batch_size: int = 24
    seed: int = 18
    jobs: int = 1
    chunk_topologies: int = 0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if not self.rates_mbps:
            raise ValueError("rates_mbps must be non-empty")
        if any(rate <= 0 for rate in self.rates_mbps):
            raise ValueError("bit rates must be positive")
        if self.n_topologies < 1:
            raise ValueError("n_topologies must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.chunk_topologies < 0:
            raise ValueError(
                "chunk_topologies must be >= 0 (0 = the engine's bounded default)"
            )

#: Distance between source and destination; chosen so the direct link is
#: lossy and relays in between have intermediate loss rates, like the lossy
#: mesh deployments the paper targets (Fig. 10 uses 50% loss links).
_SRC_DST_DISTANCE_M = 85.0


def random_relay_topology(
    rng: np.random.Generator,
    params: OFDMParams = DEFAULT_PARAMS,
    n_relays: int = 3,
) -> Testbed:
    """Source at the origin, destination far away, relays scattered between."""
    positions = [(0.0, 0.0), (_SRC_DST_DISTANCE_M, 0.0)]
    for _ in range(n_relays):
        positions.append(
            (
                float(rng.uniform(0.3, 0.7) * _SRC_DST_DISTANCE_M),
                float(rng.uniform(-15.0, 15.0)),
            )
        )
    return Testbed.from_positions(
        positions,
        rng=rng,
        params=params,
        # Extra reference loss stands in for the walls and cabinets of the
        # paper's office testbed, giving relay links loss rates comparable to
        # the ~50% lossy links of Fig. 10.
        path_loss=PathLossModel(exponent=3.3, reference_loss_db=43.0, shadowing_sigma_db=5.0),
    )


def _topology_ensemble_chunk(
    children: list[np.random.SeedSequence],
    rate_mbps: float,
    batch_size: int,
    params: OFDMParams,
) -> list[tuple[float, float, float]]:
    """Run a chunk of topology trials through the lockstep mesh engine.

    Each topology's generator is consumed in one order: topology
    placement, canonical link priming, the single-path transfer, then the
    two ExOR schemes — so a chunk of any size (``jobs`` shards the
    children) gives every topology the same results.
    """
    rngs = [np.random.default_rng(child) for child in children]
    testbeds = [random_relay_topology(rng, params=params) for rng in rngs]
    config = ExorConfig(batch_size=batch_size)
    prime_testbeds_lockstep(testbeds, config.probe_rate_mbps, config.payload_bytes)
    # Probe priming above materialised every pair's fading profile, so the
    # data-rate pass below consumes no generator draws — it is stacked EESM
    # passes across all topologies instead of a scalar pass per testbed
    # inside the single-path loop.
    prime_testbeds_lockstep(testbeds, rate_mbps, config.payload_bytes)
    relays = [
        [n for n in testbed.node_ids if n not in (0, 1)] for testbed in testbeds
    ]
    singles = [
        result.throughput_mbps
        for result in simulate_single_path_ensemble(
            [
                ExorLane(testbed, 0, 1, rate_mbps, lane_relays, config, rng)
                for testbed, lane_relays, rng in zip(testbeds, relays, rngs)
            ]
        )
    ]
    # Both ExOR schemes share each topology's generator, so the SourceSync
    # lane chains behind the plain-ExOR lane and the whole chunk runs as one
    # heterogeneous ensemble call.
    joint_config = replace(config, sender_diversity=True)
    lanes: list[ExorLane] = []
    for testbed, lane_relays, rng in zip(testbeds, relays, rngs):
        exor_lane = ExorLane(testbed, 0, 1, rate_mbps, lane_relays, config, rng)
        joint_lane = ExorLane(
            testbed, 0, 1, rate_mbps, lane_relays, joint_config, rng, after=exor_lane
        )
        lanes.extend([exor_lane, joint_lane])
    results = simulate_exor_ensemble(lanes)
    return [
        (single, results[2 * i].throughput_mbps, results[2 * i + 1].throughput_mbps)
        for i, single in enumerate(singles)
    ]


def _run_topology_ensemble(
    n_topologies: int,
    rate_mbps: float,
    batch_size: int,
    seed: int,
    params: OFDMParams,
    jobs: int = 1,
    chunk_topologies: int = 0,
) -> list[tuple[float, float, float]]:
    """One rate's (single path, ExOR, ExOR+SourceSync) throughputs per topology.

    :func:`repro.engine.run_seed_chunks` spawns one generator per topology
    from ``seed`` and shards the topologies into bounded blocks, across a
    process pool when ``jobs > 1``; a nonzero ``chunk_topologies`` caps
    the per-ensemble lane width instead.  No sharding changes any output.
    """
    return run_seed_chunks(
        _topology_ensemble_chunk,
        n_topologies,
        seed,
        jobs,
        rate_mbps,
        batch_size,
        params,
        chunk_size=chunk_topologies or None,
    )


@experiment(
    name="fig18",
    description="Opportunistic routing throughput CDFs (single path, ExOR, ExOR+SourceSync)",
    config=Config,
    presets={
        "smoke": {"rates_mbps": (12.0,), "n_topologies": 2, "batch_size": 8},
        "quick": {"n_topologies": 10, "batch_size": 16},
        # Hundreds of topologies per rate: the lockstep mesh engine amortises
        # link priming and forwarding turns across the whole ensemble, so the
        # paper-scale CDFs come from a dense population, not 40 samples.
        "full": {"n_topologies": 200},
    },
    tags=("routing", "diversity"),
    summary_keys={
        "exor_over_single_{rate}mbps": "median ExOR throughput gain over single-path routing at {rate} Mbps",
        "sourcesync_over_exor_{rate}mbps": "median ExOR+SourceSync gain over plain ExOR at {rate} Mbps",
        "sourcesync_over_single_{rate}mbps": "median ExOR+SourceSync gain over single-path routing at {rate} Mbps",
    },
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 18(a) and (b): throughput CDFs per scheme and rate."""
    n_topologies, batch_size = config.n_topologies, config.batch_size
    series: dict[str, list[float]] = {}
    summary: dict[str, float] = {}
    for rate in config.rates_mbps:
        triples = _run_topology_ensemble(
            n_topologies,
            rate_mbps=rate,
            batch_size=batch_size,
            seed=config.seed + int(rate),
            params=config.params,
            jobs=config.jobs,
            chunk_topologies=config.chunk_topologies,
        )
        single_values = [single for single, _, _ in triples]
        exor_values = [exor for _, exor, _ in triples]
        joint_values = [joint for _, _, joint in triples]
        tag = f"{rate:g}mbps"
        series[f"single_path_{tag}"] = sorted(single_values)
        series[f"exor_{tag}"] = sorted(exor_values)
        series[f"sourcesync_{tag}"] = sorted(joint_values)
        single_cdf = EmpiricalCDF(single_values)
        exor_cdf = EmpiricalCDF(exor_values)
        joint_cdf = EmpiricalCDF(joint_values)
        summary[f"exor_over_single_{tag}"] = exor_cdf.median_gain_over(single_cdf)
        summary[f"sourcesync_over_exor_{tag}"] = joint_cdf.median_gain_over(exor_cdf)
        summary[f"sourcesync_over_single_{tag}"] = joint_cdf.median_gain_over(single_cdf)
    series["cdf_fraction"] = [i / max(n_topologies - 1, 1) for i in range(n_topologies)]
    return ExperimentResult(
        name="fig18",
        description="Opportunistic routing throughput CDFs (single path, ExOR, ExOR+SourceSync)",
        series=series,
        summary=summary,
        paper_reference={
            "claim": (
                "ExOR gains 1.26-1.4x over single path; SourceSync adds 1.35-1.45x over ExOR "
                "and 1.7-2x over single path, at 6 and 12 Mbps"
            ),
            "figure": "Fig. 18(a), 18(b)",
        },
    )


SPEC = _run.spec
