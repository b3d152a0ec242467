"""Figure 12: 95th-percentile synchronization error vs SNR.

The paper synchronizes two transmitters with SourceSync (§4.4/§4.5), then
measures the residual synchronization error with a high-accuracy estimator
that replaces the packet body with 200 repetitions of the joint header and
averages the per-repetition misalignment estimates (§8.1.1).  Fig. 12 plots
the 95th percentile of that error against the average SNR of the two
transmitters, showing it stays below 20 ns across the operational range of
802.11 SNRs.

This reproduction follows the same procedure: for each SNR point it builds
several random two-sender topologies, lets the wait-time tracking loop
converge, and then measures the residual misalignment of subsequent joint
headers with the repeated-measurement ground-truth estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import JointTopology, SourceSyncSession, SourceSyncConfig
from repro.core.ensemble import (
    converge_tracking_batch,
    measure_delays_batch,
    run_header_exchanges_batch,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment
from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["Config", "SPEC", "measure_residual_sync_error"]


@dataclass(frozen=True)
class Config:
    """Parameters of the Fig. 12 reproduction.

    ``batched`` selects the lockstep ensemble path
    (:mod:`repro.core.ensemble`): every (SNR point, topology) cell draws
    from its own spawned generator, so the batched and sequential paths
    produce the same seeded results while the batched one advances all
    cells together with stacked array operations.
    """

    snr_points_db: tuple[float, ...] = (3.0, 6.0, 9.0, 12.0, 15.0, 20.0, 25.0)
    n_topologies: int = 3
    n_measurements: int = 6
    repetitions_per_measurement: int = 4
    warmup_rounds: int = 5
    seed: int = 12
    batched: bool = True
    params: OFDMParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if not self.snr_points_db:
            raise ValueError("snr_points_db must be non-empty")
        if self.n_topologies < 1 or self.n_measurements < 1:
            raise ValueError("n_topologies and n_measurements must be >= 1")
        if self.repetitions_per_measurement < 1:
            raise ValueError("repetitions_per_measurement must be >= 1")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds must be >= 0")


def measure_residual_sync_error(
    session: SourceSyncSession,
    n_measurements: int = 10,
    repetitions_per_measurement: int = 5,
    params: OFDMParams = DEFAULT_PARAMS,
) -> list[float]:
    """Residual synchronization error (ns) of converged SourceSync senders.

    Each measurement mimics the paper's ground-truth estimator: the
    misalignment of one scheduled joint transmission is estimated
    ``repetitions_per_measurement`` times (the paper repeats the header 200
    times inside one packet; here each repetition is an independent header
    reception over the same static channel) and the estimates are averaged
    to suppress estimator noise.
    """
    errors_ns: list[float] = []
    for _ in range(n_measurements):
        estimates = []
        for _ in range(repetitions_per_measurement):
            outcome = session.run_header_exchange(apply_tracking_feedback=False)
            if outcome.measured_misalignment is None:
                continue
            values = outcome.measured_misalignment.misalignments_samples
            if values:
                estimates.append(values[0])
        if estimates:
            errors_ns.append(abs(float(np.mean(estimates))) * params.sample_period_ns)
        # One tracking update per measurement keeps the loop converged, as a
        # real deployment would via ACK feedback on data packets.
        session.run_header_exchange(apply_tracking_feedback=True)
    return errors_ns


def _make_cell_session(
    snr_db: float, rng: np.random.Generator, params: OFDMParams
) -> SourceSyncSession:
    """Session for one (SNR point, topology) cell, drawn from its own generator."""
    topo = JointTopology.from_snrs(
        rng,
        lead_rx_snr_db=snr_db,
        cosender_rx_snr_db=[snr_db],
        lead_cosender_snr_db=[max(snr_db, 15.0)],
        params=params,
    )
    return SourceSyncSession(topo, SourceSyncConfig(params=params), rng=rng)


def _measure_residual_batch(
    sessions: list[SourceSyncSession],
    n_measurements: int,
    repetitions_per_measurement: int,
    params: OFDMParams,
) -> list[list[float]]:
    """Lockstep counterpart of :func:`measure_residual_sync_error`.

    All sessions advance measurement-by-measurement together; the repeated
    header receptions of one measurement are batched across sessions *and*
    repetitions, and the per-measurement tracking update runs as one more
    lockstep wave — the same per-session sequence as the sequential loop.
    """
    errors: list[list[float]] = [[] for _ in sessions]
    for _ in range(n_measurements):
        outcomes = run_header_exchanges_batch(
            sessions, repeats=repetitions_per_measurement, apply_tracking_feedback=False
        )
        for s in range(len(sessions)):
            estimates = []
            for outcome in outcomes[s]:
                if outcome.measured_misalignment is None:
                    continue
                values = outcome.measured_misalignment.misalignments_samples
                if values:
                    estimates.append(values[0])
            if estimates:
                errors[s].append(abs(float(np.mean(estimates))) * params.sample_period_ns)
        # One tracking update per measurement keeps the loop converged, as a
        # real deployment would via ACK feedback on data packets.
        run_header_exchanges_batch(sessions, repeats=1, apply_tracking_feedback=True)
    return errors


@experiment(
    name="fig12",
    description="95th percentile synchronization error vs SNR",
    config=Config,
    presets={
        "smoke": {
            "snr_points_db": (12.0,),
            "n_topologies": 1,
            "n_measurements": 2,
            "repetitions_per_measurement": 2,
            "warmup_rounds": 2,
        },
        "quick": {"snr_points_db": (6.0, 12.0, 20.0), "n_topologies": 2, "n_measurements": 4},
        "full": {"n_topologies": 6, "n_measurements": 10},
    },
    summary_keys={
        "worst_p95_ns": "largest 95th-percentile synchronization error (ns) over the SNR sweep (paper: < 20 ns)",
        "best_p95_ns": "smallest 95th-percentile synchronization error (ns) over the SNR sweep",
    },
    tags=("sync", "phy"),
)
def _run(config: Config) -> ExperimentResult:
    """Regenerate Fig. 12.

    For each SNR point, random lead/co-sender/receiver topologies are built
    with both sender-receiver links at that SNR; the reported value is the
    95th percentile of the residual synchronization error across topologies
    and measurements.  Every (SNR, topology) cell has its own spawned
    generator; ``config.batched`` runs all cells in lockstep through the
    batched joint-frame core path with identical seeded results.
    """
    params = config.params
    cells = [
        (snr_db, topo_index)
        for snr_db in config.snr_points_db
        for topo_index in range(config.n_topologies)
    ]
    cell_rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(len(cells))
    ]
    errors_per_cell: list[list[float]]
    if config.batched:
        sessions = [
            _make_cell_session(snr_db, rng, params)
            for (snr_db, _), rng in zip(cells, cell_rngs)
        ]
        measure_delays_batch(sessions)
        converge_tracking_batch(sessions, rounds=config.warmup_rounds)
        errors_per_cell = _measure_residual_batch(
            sessions, config.n_measurements, config.repetitions_per_measurement, params
        )
    else:
        errors_per_cell = []
        for (snr_db, _), rng in zip(cells, cell_rngs):
            session = _make_cell_session(snr_db, rng, params)
            session.measure_delays()
            session.converge_tracking(rounds=config.warmup_rounds)
            errors_per_cell.append(
                measure_residual_sync_error(
                    session, config.n_measurements, config.repetitions_per_measurement, params
                )
            )

    percentile_95_ns: list[float] = []
    median_ns: list[float] = []
    for p, snr_db in enumerate(config.snr_points_db):
        errors: list[float] = []
        for t in range(config.n_topologies):
            errors.extend(errors_per_cell[p * config.n_topologies + t])
        if errors:
            percentile_95_ns.append(float(np.percentile(errors, 95)))
            median_ns.append(float(np.median(errors)))
        else:
            percentile_95_ns.append(float("nan"))
            median_ns.append(float("nan"))

    return ExperimentResult(
        name="fig12",
        description="95th percentile synchronization error vs SNR",
        series={
            "snr_db": list(config.snr_points_db),
            "sync_error_p95_ns": percentile_95_ns,
            "sync_error_median_ns": median_ns,
        },
        summary={
            "worst_p95_ns": float(np.nanmax(percentile_95_ns)),
            "best_p95_ns": float(np.nanmin(percentile_95_ns)),
        },
        paper_reference={
            "claim": "95th percentile synchronization error < 20 ns across operational 802.11 SNRs",
            "figure": "Fig. 12",
        },
    )


SPEC = _run.spec
