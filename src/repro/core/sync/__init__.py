"""Symbol Level Synchronizer (SLS): delay measurement and compensation (§4)."""

from repro.core.sync.compensation import (
    CoSenderSchedule,
    DelayBudget,
    SIFS_US,
    compute_wait_time,
    sifs_samples,
)
from repro.core.sync.detection_delay import (
    delay_samples_to_slope,
    phase_slope_full_band,
    phase_slope_windowed,
    slope_to_delay_samples,
)
from repro.core.sync.multi_receiver import (
    WaitTimeSolution,
    misalignment_matrix,
    optimize_wait_times,
    required_cp_increase,
)
from repro.core.sync.probe import ProbeLegResult
from repro.core.sync.tracking import MisalignmentReport, WaitTimeTracker

__all__ = [
    "DelayBudget",
    "CoSenderSchedule",
    "SIFS_US",
    "compute_wait_time",
    "sifs_samples",
    "phase_slope_windowed",
    "phase_slope_full_band",
    "slope_to_delay_samples",
    "delay_samples_to_slope",
    "WaitTimeSolution",
    "optimize_wait_times",
    "misalignment_matrix",
    "required_cp_increase",
    "ProbeLegResult",
    "MisalignmentReport",
    "WaitTimeTracker",
]
