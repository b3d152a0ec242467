"""Figure 19 (extension): flow-level traffic — FCT and saturation under load.

The paper's evaluation pushes fixed packet batches; this experiment opens
the *serving* axis: an open-loop Poisson population of mice/elephant flows
offers rising load to one lossy relay mesh, and an N-senders→1-victim
incast burst stresses a victim mesh, under each routing scheme — single
path, ExOR, and ExOR+SourceSync.  Reported per scheme: flow-completion
time percentiles and CDFs versus offered load, goodput, utilization, and
the estimated saturation load (where the FIFO service queue reaches
utilization 1), plus the incast burst's FCT tail.

Common random numbers across the load axis: every load point shares one
flow population (one workload seed), so arrivals scale exactly with the
load knob while sizes and per-flow service draws are identical — per-load
differences are pure queueing, the utilization-vs-load fit is noise-free,
and the expensive mesh service simulation runs **once** per scheme for
the whole load sweep (precompute once, answer any load query).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.fct import (
    FctSummary,
    extract_fct,
    jains_index,
    saturation_load,
    sender_goodput_shares,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.params import DEFAULT_PARAMS, OFDMParams
from repro.traffic.service import FlowService, incast_mesh, relay_mesh, simulate_flow_services
from repro.traffic.sizes import SIZE_MIX_NAMES, make_size_mix
from repro.traffic.workload import TrafficWorkload, derive_seed, incast_workload, poisson_workload

__all__ = ["Config", "SPEC"]

#: The schemes this experiment sweeps — the original three, pinned locally
#: so the canonical scheme list growing (link_local lives in
#: fig20_link_dynamics) cannot move this experiment's draws or results.
_SCHEMES = ("single_path", "exor", "sourcesync")

#: Scheme → key label (summary-key placeholders cannot carry underscores).
_LABELS = {"single_path": "single", "exor": "exor", "sourcesync": "sourcesync"}


@dataclass(frozen=True)
class Config:
    """Parameters of the traffic-load experiment.

    ``loads`` is the offered-load axis (offered payload bits over the
    nominal link rate; the measured saturation point lands well below 1.0
    on a lossy multi-hop mesh).  Flows are served through the lockstep
    mesh engine (flows as lanes, chained schemes);
    ``jobs``/``chunk_flows`` shard the flow set across processes / bound
    lane width without changing any output — every flow's service stream
    is keyed by (workload seed, flow index) alone.
    """

    loads: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8)
    n_flows: int = 40
    n_senders: int = 8
    rate_mbps: float = 12.0
    payload_bytes: int = 1460
    size_mix: str = "mice_elephant"
    fixed_packets: int = 8
    mice_packets: int = 2
    elephant_packets: int = 24
    elephant_fraction: float = 0.15
    #: (sizes, weights) table of the ``empirical`` size mix — e.g. a
    #: digitised flow-size CDF; unused by the other mixes.
    empirical_packets: tuple[int, ...] = (1, 4, 16, 64)
    empirical_weights: tuple[float, ...] = (0.5, 0.3, 0.15, 0.05)
    incast: bool = True
    incast_jitter_us: float = 100.0
    n_relays: int = 3
    incast_relays: int = 2
    seed: int = 19
    jobs: int = 1
    chunk_flows: int = 0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if not self.loads or any(load <= 0 for load in self.loads):
            raise ValueError("loads must be non-empty and positive")
        if len(set(self.loads)) != len(self.loads):
            raise ValueError("loads must be distinct")
        if self.n_flows < 2:
            raise ValueError("n_flows must be >= 2 (FCT percentiles need a population)")
        if self.n_senders < 1:
            raise ValueError("n_senders must be >= 1")
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.size_mix not in SIZE_MIX_NAMES:
            raise ValueError(f"size_mix must be one of {SIZE_MIX_NAMES}")
        if self.incast_jitter_us < 0:
            raise ValueError("incast_jitter_us must be non-negative")
        if self.n_relays < 1 or self.incast_relays < 1:
            raise ValueError("relay counts must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.chunk_flows < 0:
            raise ValueError("chunk_flows must be >= 0 (0 = one shard per job)")


def _serve(
    config: Config,
    workload: TrafficWorkload,
    factory,
    dst: int,
) -> dict[str, list[FlowService]]:
    """Serve a workload under every scheme with the config's execution plan."""
    return simulate_flow_services(
        workload,
        factory,
        dst,
        schemes=_SCHEMES,
        jobs=config.jobs,
        chunk_flows=config.chunk_flows,
    )


def _summarise(workload: TrafficWorkload, services: list[FlowService]) -> FctSummary:
    """FCT summary of one (workload, scheme) serving."""
    return extract_fct(
        workload.arrivals_us(),
        [service.service_us for service in services],
        [service.delivered_packets for service in services],
        [service.size_packets for service in services],
        payload_bytes=workload.payload_bytes,
    )


@experiment(
    name="fig19_traffic_load",
    description="Flow-level traffic: FCT and saturation under load (single path, ExOR, ExOR+SourceSync)",
    config=Config,
    presets={
        "smoke": {
            "loads": (0.2,),
            "n_flows": 4,
            "n_senders": 3,
            "elephant_packets": 8,
            "n_relays": 2,
            "incast_jitter_us": 50.0,
        },
        "quick": {"loads": (0.05, 0.2, 0.8), "n_flows": 16, "n_senders": 6, "elephant_packets": 16},
        # Paper-scale serving: one 200-flow population answers the whole
        # load axis (services are simulated once per scheme), and a
        # 32-sender incast burst stresses the victim mesh.
        "full": {
            "loads": (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.2),
            "n_flows": 200,
            "n_senders": 32,
        },
    },
    tags=("routing", "traffic", "load"),
    summary_keys={
        "saturation_load_{scheme}": (
            "offered load at which the scheme's FIFO service queue saturates "
            "(utilization = 1), from the least-squares utilization-vs-load fit"
        ),
        "p95_fct_ms_{scheme}": "95th-percentile flow-completion time at the highest swept load, in ms",
        "goodput_mbps_{scheme}": "delivered goodput at the highest swept load, in Mb/s",
        "incast_p99_fct_ms_{scheme}": "99th-percentile FCT of the N-senders-to-1-victim incast burst, in ms",
        "incast_fairness_jain_{scheme}": (
            "Jain fairness index over the incast senders' delivered goodput "
            "shares (1 = perfectly even, 1/N = one sender takes everything)"
        ),
        "fct_p95_gain_sourcesync_vs_single": (
            "single-path p95 FCT over ExOR+SourceSync p95 FCT at the highest load "
            "(> 1 means SourceSync completes flows faster)"
        ),
        "saturation_gain_sourcesync_vs_single": (
            "ExOR+SourceSync saturation load over single-path saturation load "
            "(> 1 means sender diversity extends the mesh's serving capacity)"
        ),
    },
)
def _run(config: Config) -> ExperimentResult:
    """Serve the Poisson load sweep and the incast burst; extract FCT metrics."""
    mix = make_size_mix(
        config.size_mix,
        fixed_packets=config.fixed_packets,
        mice_packets=config.mice_packets,
        elephant_packets=config.elephant_packets,
        elephant_fraction=config.elephant_fraction,
        empirical_packets=config.empirical_packets,
        empirical_weights=config.empirical_weights,
    )
    series: dict[str, list[float]] = {"load": list(config.loads)}
    summary: dict[str, float] = {}

    # --- Poisson open-loop load sweep over the relay mesh (src 0 → dst 1).
    factory = partial(
        relay_mesh, derive_seed(config.seed, 0), n_relays=config.n_relays, params=config.params
    )
    population_seed = derive_seed(config.seed, 1)
    workloads = [
        poisson_workload(
            config.n_flows, load, mix, config.rate_mbps, config.payload_bytes,
            seed=population_seed,
        )
        for load in config.loads
    ]
    # One population serves every load point: flow sizes and service
    # streams depend only on (population seed, index), so the services of
    # workloads[0] are bit-identical for all loads.
    services = _serve(config, workloads[0], factory, dst=1)
    top = len(config.loads) - 1
    summaries: dict[str, list[FctSummary]] = {
        scheme: [_summarise(workload, services[scheme]) for workload in workloads]
        for scheme in _SCHEMES
    }
    for scheme in _SCHEMES:
        label = _LABELS[scheme]
        per_load = summaries[scheme]
        series[f"fct_p50_ms_{label}"] = [s.p50_us / 1e3 for s in per_load]
        series[f"fct_p95_ms_{label}"] = [s.p95_us / 1e3 for s in per_load]
        series[f"fct_p99_ms_{label}"] = [s.p99_us / 1e3 for s in per_load]
        series[f"goodput_mbps_{label}"] = [s.goodput_mbps for s in per_load]
        series[f"utilization_{label}"] = [s.utilization for s in per_load]
        series[f"fct_cdf_ms_{label}"] = sorted(value / 1e3 for value in per_load[top].fct_us)
        summary[f"saturation_load_{label}"] = saturation_load(
            config.loads, [s.utilization for s in per_load]
        )
        summary[f"p95_fct_ms_{label}"] = per_load[top].p95_us / 1e3
        summary[f"goodput_mbps_{label}"] = per_load[top].goodput_mbps
    series["fct_cdf_fraction"] = [
        i / max(config.n_flows - 1, 1) for i in range(config.n_flows)
    ]
    summary["fct_p95_gain_sourcesync_vs_single"] = (
        summaries["single_path"][top].p95_us / summaries["sourcesync"][top].p95_us
    )
    summary["saturation_gain_sourcesync_vs_single"] = (
        summary["saturation_load_sourcesync"] / summary["saturation_load_single"]
    )

    # --- Incast burst: N senders on a ring fire at one victim (node 0).
    if config.incast:
        incast_factory = partial(
            incast_mesh,
            derive_seed(config.seed, 2),
            n_senders=config.n_senders,
            n_relays=config.incast_relays,
            params=config.params,
        )
        burst = incast_workload(
            tuple(range(1, config.n_senders + 1)),
            mix,
            config.rate_mbps,
            config.payload_bytes,
            seed=derive_seed(config.seed, 3),
            jitter_us=config.incast_jitter_us,
        )
        incast_services = _serve(config, burst, incast_factory, dst=0)
        burst_senders = [flow.sender for flow in burst.flows]
        for scheme in _SCHEMES:
            label = _LABELS[scheme]
            incast_summary = _summarise(burst, incast_services[scheme])
            series[f"incast_fct_ms_{label}"] = sorted(
                value / 1e3 for value in incast_summary.fct_us
            )
            summary[f"incast_p99_fct_ms_{label}"] = incast_summary.p99_us / 1e3
            shares = sender_goodput_shares(
                burst_senders,
                [service.delivered_packets for service in incast_services[scheme]],
                config.payload_bytes,
                incast_summary.makespan_us,
            )
            summary[f"incast_fairness_jain_{label}"] = jains_index(list(shares.values()))
        series["incast_cdf_fraction"] = [
            i / max(config.n_senders - 1, 1) for i in range(config.n_senders)
        ]

    return ExperimentResult(
        name="fig19_traffic_load",
        description="Flow-level traffic: FCT and saturation under load (single path, ExOR, ExOR+SourceSync)",
        series=series,
        summary=summary,
        paper_reference={
            "claim": (
                "Sender diversity extends the mesh's serving capacity: under rising "
                "offered load, ExOR+SourceSync sustains higher goodput, saturates at "
                "higher load and completes flows faster than ExOR and single-path "
                "routing (extension of the §8.4 mesh evaluation to flow-level traffic)"
            ),
            "figure": "§8.4 (flow-level extension)",
        },
    )


SPEC = _run.spec
