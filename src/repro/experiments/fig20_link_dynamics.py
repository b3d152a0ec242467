"""Figure 20 (extension): bursty link dynamics — recovery schemes under faults.

The §8.4 mesh evaluation (and its flow-level extension, fig19) runs over
*static* link draws; this experiment injects time-correlated faults: every
directed link follows a Gilbert–Elliott burst process
(:mod:`repro.channel.dynamics`), optionally stacked with a link-speed ×
loss-rate grid, and four recovery schemes serve the same multi-sender
flow population over the degraded incast mesh — single path, ExOR,
ExOR+SourceSync, and LinkGuardian-style link-local retransmission with
graceful end-to-end fallback (:mod:`repro.routing.link_local`).

The swept grid is loss depth × burst length: ``loss_rates`` sets how much
a bad burst suppresses delivery (bad-state multiplier ``1 - loss``) and
``burst_slots`` how long bursts dwell, at a fixed stationary bad fraction.
Short shallow bursts favour cheap local retransmission; long deep bursts
favour diversity (SourceSync) — the ARQ-vs-diversity tradeoff the figure
quantifies via goodput, FCT tails, delivered fraction and per-sender
fairness per scheme.

Common random numbers across the whole grid: one flow population (one
workload seed) serves every (loss, burst) cell, and a cell's dynamics only
modulate delivery probabilities (each flow's trajectory is one fixed-size
draw from its own service stream), so cells differ purely in the injected
fault process — never in which flows arrive or how their draws line up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.fct import (
    FctSummary,
    extract_fct,
    jains_index,
    sender_goodput_shares,
)
from repro.channel.dynamics import GilbertElliott, LinkDynamics, LossRateGrid
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.params import DEFAULT_PARAMS, OFDMParams
from repro.routing.link_local import LinkLocalConfig
from repro.traffic.service import SCHEMES, FlowService, incast_mesh, simulate_flow_services
from repro.traffic.sizes import SIZE_MIX_NAMES, make_size_mix
from repro.traffic.workload import TrafficWorkload, derive_seed, poisson_workload

__all__ = ["Config", "SPEC"]

#: Scheme → key label (summary-key placeholders cannot carry underscores).
_LABELS = {
    "single_path": "single",
    "exor": "exor",
    "sourcesync": "sourcesync",
    "link_local": "linklocal",
}


@dataclass(frozen=True)
class Config:
    """Parameters of the link-dynamics experiment.

    ``loss_rates`` is the swept loss-depth axis: during a bad burst every
    link's delivery probability is scaled by ``1 - loss``.  ``burst_slots``
    sweeps the mean burst dwell time (in transmission slots) at the fixed
    stationary ``bad_fraction``.  The optional speed × loss grid
    (``grid_speeds_mbps``/``grid_loss_rates``) stacks a static, rate-
    dependent extra loss on top.  The link-local scheme's protection
    budget is the ``local_retry_limit``/``e2e_retry_limit``/
    ``timeout_fraction``/``backoff_factor`` block.  Flows are served
    through the lockstep mesh engine; ``jobs``/``chunk_flows`` shard flows
    without changing any output.
    """

    loss_rates: tuple[float, ...] = (0.2, 0.5, 0.8)
    burst_slots: tuple[float, ...] = (2.0, 16.0)
    bad_fraction: float = 0.2
    horizon_slots: int = 256
    grid_speeds_mbps: tuple[float, ...] = ()
    grid_loss_rates: tuple[float, ...] = ()
    local_retry_limit: int = 4
    e2e_retry_limit: int = 2
    timeout_fraction: float = 0.25
    backoff_factor: float = 2.0
    n_flows: int = 24
    load: float = 0.4
    n_senders: int = 4
    n_relays: int = 2
    rate_mbps: float = 12.0
    payload_bytes: int = 1460
    size_mix: str = "mice_elephant"
    fixed_packets: int = 8
    mice_packets: int = 2
    elephant_packets: int = 24
    elephant_fraction: float = 0.15
    empirical_packets: tuple[int, ...] = (1, 4, 16, 64)
    empirical_weights: tuple[float, ...] = (0.5, 0.3, 0.15, 0.05)
    seed: int = 20
    jobs: int = 1
    chunk_flows: int = 0
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if not self.loss_rates or any(not 0.0 <= v <= 1.0 for v in self.loss_rates):
            raise ValueError("loss_rates must be non-empty with values in [0, 1]")
        if any(b <= a for a, b in zip(self.loss_rates, self.loss_rates[1:])):
            raise ValueError("loss_rates must be strictly increasing")
        if not self.burst_slots or any(v < 1.0 for v in self.burst_slots):
            raise ValueError("burst_slots must be non-empty with values >= 1")
        if any(b <= a for a, b in zip(self.burst_slots, self.burst_slots[1:])):
            raise ValueError("burst_slots must be strictly increasing")
        if not 0.0 < self.bad_fraction < 1.0:
            raise ValueError("bad_fraction must be in (0, 1)")
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if len(self.grid_speeds_mbps) != len(self.grid_loss_rates):
            raise ValueError("grid_speeds_mbps and grid_loss_rates must be equal length")
        if self.n_flows < 2:
            raise ValueError("n_flows must be >= 2 (FCT percentiles need a population)")
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.n_senders < 2:
            raise ValueError("n_senders must be >= 2 (fairness needs competing senders)")
        if self.n_relays < 1:
            raise ValueError("n_relays must be >= 1")
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if self.size_mix not in SIZE_MIX_NAMES:
            raise ValueError(f"size_mix must be one of {SIZE_MIX_NAMES}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.chunk_flows < 0:
            raise ValueError("chunk_flows must be >= 0 (0 = one shard per job)")
        # Validate the protection budget eagerly: a bad knob must fail at
        # config time, not one cell into the sweep.
        self.link_local_config()

    def link_local_config(self) -> LinkLocalConfig:
        """The link-local scheme's protection budget as a config object."""
        return LinkLocalConfig(
            payload_bytes=self.payload_bytes,
            local_retry_limit=self.local_retry_limit,
            e2e_retry_limit=self.e2e_retry_limit,
            timeout_fraction=self.timeout_fraction,
            backoff_factor=self.backoff_factor,
        )

    def grid(self) -> LossRateGrid | None:
        """The optional static speed × loss grid (``None`` when unset)."""
        if not self.grid_speeds_mbps:
            return None
        return LossRateGrid(tuple(self.grid_speeds_mbps), tuple(self.grid_loss_rates))

    def dynamics_for(self, loss_rate: float, burst: float) -> LinkDynamics:
        """The fault-injection spec of one (loss depth, burst length) cell."""
        return LinkDynamics(
            gilbert_elliott=GilbertElliott.from_burst(
                burst, self.bad_fraction, bad_multiplier=1.0 - loss_rate
            ),
            grid=self.grid(),
            horizon_slots=self.horizon_slots,
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
    name="fig20_link_dynamics",
    description=(
        "Bursty link dynamics: Gilbert-Elliott fault injection versus recovery "
        "scheme (single path, ExOR, ExOR+SourceSync, link-local retransmission)"
    ),
    config=Config,
    presets={
        "smoke": {
            "loss_rates": (0.6,),
            "burst_slots": (4.0,),
            "horizon_slots": 64,
            "n_flows": 4,
            "n_senders": 2,
            "elephant_packets": 8,
        },
        "quick": {
            "loss_rates": (0.2, 0.8),
            "burst_slots": (2.0, 16.0),
            "horizon_slots": 128,
            "n_flows": 10,
            "n_senders": 3,
            "elephant_packets": 16,
        },
        # Paper-scale grid: a 4-depth x 3-dwell fault surface over a
        # 64-flow, 8-sender population.
        "full": {
            "loss_rates": (0.1, 0.3, 0.6, 0.9),
            "burst_slots": (2.0, 8.0, 32.0),
            "n_flows": 64,
            "n_senders": 8,
            "n_relays": 3,
        },
    },
    tags=("routing", "traffic", "robustness"),
    summary_keys={
        "goodput_mbps_{scheme}_worst": (
            "delivered goodput at the worst swept cell (deepest loss, longest "
            "burst), in Mb/s"
        ),
        "p95_fct_ms_{scheme}_worst": (
            "95th-percentile flow-completion time at the worst swept cell, in ms"
        ),
        "delivered_fraction_{scheme}_worst": (
            "fraction of offered packets delivered at the worst swept cell"
        ),
        "fairness_jain_{scheme}_worst": (
            "Jain fairness index over per-sender goodput shares at the worst "
            "swept cell (1 = perfectly even)"
        ),
        "linklocal_over_single_worst": (
            "link-local goodput over single-path goodput at the worst cell "
            "(> 1 means local retransmission beats plain per-hop retry under bursts)"
        ),
        "sourcesync_over_linklocal_worst": (
            "ExOR+SourceSync goodput over link-local goodput at the worst cell "
            "(> 1 means sender diversity still wins once local budgets exhaust)"
        ),
    },
)
def _run(config: Config) -> ExperimentResult:
    """Sweep the loss × burst fault grid under all four recovery schemes."""
    mix = make_size_mix(
        config.size_mix,
        fixed_packets=config.fixed_packets,
        mice_packets=config.mice_packets,
        elephant_packets=config.elephant_packets,
        elephant_fraction=config.elephant_fraction,
        empirical_packets=config.empirical_packets,
        empirical_weights=config.empirical_weights,
    )
    factory = partial(
        incast_mesh,
        derive_seed(config.seed, 0),
        n_senders=config.n_senders,
        n_relays=config.n_relays,
        params=config.params,
    )
    senders = tuple(range(1, config.n_senders + 1))
    workload = poisson_workload(
        config.n_flows, config.load, mix, config.rate_mbps, config.payload_bytes,
        seed=derive_seed(config.seed, 1), senders=senders,
    )
    flow_senders = [flow.sender for flow in workload.flows]
    ll_config = config.link_local_config()

    series: dict[str, list[float]] = {"loss_rate": list(config.loss_rates)}
    summary: dict[str, float] = {}
    worst_goodput: dict[str, float] = {}
    for burst in config.burst_slots:
        per_scheme: dict[str, list[FctSummary]] = {scheme: [] for scheme in SCHEMES}
        per_scheme_fairness: dict[str, list[float]] = {scheme: [] for scheme in SCHEMES}
        for loss in config.loss_rates:
            services = simulate_flow_services(
                workload,
                factory,
                dst=0,
                schemes=SCHEMES,
                jobs=config.jobs,
                chunk_flows=config.chunk_flows,
                dynamics=config.dynamics_for(loss, burst),
                link_local=ll_config,
            )
            for scheme in SCHEMES:
                cell = _summarise(workload, services[scheme])
                per_scheme[scheme].append(cell)
                shares = sender_goodput_shares(
                    flow_senders,
                    [service.delivered_packets for service in services[scheme]],
                    config.payload_bytes,
                    cell.makespan_us,
                )
                per_scheme_fairness[scheme].append(jains_index(list(shares.values())))
        tag = f"burst{burst:g}"
        for scheme in SCHEMES:
            label = _LABELS[scheme]
            cells = per_scheme[scheme]
            series[f"goodput_mbps_{label}_{tag}"] = [c.goodput_mbps for c in cells]
            series[f"fct_p95_ms_{label}_{tag}"] = [c.p95_us / 1e3 for c in cells]
            series[f"delivered_fraction_{label}_{tag}"] = [
                c.delivered_fraction for c in cells
            ]
            series[f"fairness_jain_{label}_{tag}"] = per_scheme_fairness[scheme]
        if burst == config.burst_slots[-1]:
            # Worst cell: deepest loss at the longest burst dwell.
            for scheme in SCHEMES:
                label = _LABELS[scheme]
                worst = per_scheme[scheme][-1]
                summary[f"goodput_mbps_{label}_worst"] = worst.goodput_mbps
                summary[f"p95_fct_ms_{label}_worst"] = worst.p95_us / 1e3
                summary[f"delivered_fraction_{label}_worst"] = worst.delivered_fraction
                summary[f"fairness_jain_{label}_worst"] = per_scheme_fairness[scheme][-1]
                worst_goodput[scheme] = worst.goodput_mbps

    def _ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else float("inf")

    summary["linklocal_over_single_worst"] = _ratio(
        worst_goodput["link_local"], worst_goodput["single_path"]
    )
    summary["sourcesync_over_linklocal_worst"] = _ratio(
        worst_goodput["sourcesync"], worst_goodput["link_local"]
    )

    return ExperimentResult(
        name="fig20_link_dynamics",
        description=(
            "Bursty link dynamics: Gilbert-Elliott fault injection versus recovery "
            "scheme (single path, ExOR, ExOR+SourceSync, link-local retransmission)"
        ),
        series=series,
        summary=summary,
        paper_reference={
            "claim": (
                "Under time-correlated loss bursts, link-local retransmission with "
                "graceful end-to-end fallback recovers short bursts cheaply, while "
                "sender diversity (ExOR+SourceSync) stays the most robust recovery "
                "path as bursts deepen and lengthen (robustness extension of the "
                "§8.4 mesh evaluation)"
            ),
            "figure": "§8.4 (link-dynamics extension)",
        },
    )


SPEC = _run.spec
