"""Wireless channel substrate: multipath fading, noise, oscillators, delays."""

from repro.channel.awgn import (
    add_noise_for_snr,
    awgn,
    db_to_linear,
    linear_to_db,
    measure_snr_db,
    noise_power_for_snr,
)
from repro.channel.composite import Link, Transmission, link_for_snr
from repro.channel.dynamics import (
    GilbertElliott,
    LinkDynamics,
    LinkStateTrajectory,
    LossRateGrid,
    link_order,
    materialise_trajectory,
    trajectory_from_states,
    trajectory_from_uniforms,
)
from repro.channel.multipath import (
    DEFAULT_PROFILE,
    WIGLAN_PROFILE,
    MultipathChannel,
    MultipathProfile,
)
from repro.channel.oscillator import Oscillator, cfo_from_ppm, relative_cfo_hz
from repro.channel.propagation import (
    PathLossModel,
    propagation_delay_s,
    propagation_delay_samples,
)

__all__ = [
    "awgn",
    "add_noise_for_snr",
    "noise_power_for_snr",
    "measure_snr_db",
    "db_to_linear",
    "linear_to_db",
    "Link",
    "Transmission",
    "link_for_snr",
    "GilbertElliott",
    "LinkDynamics",
    "LinkStateTrajectory",
    "LossRateGrid",
    "link_order",
    "materialise_trajectory",
    "trajectory_from_states",
    "trajectory_from_uniforms",
    "MultipathChannel",
    "MultipathProfile",
    "DEFAULT_PROFILE",
    "WIGLAN_PROFILE",
    "Oscillator",
    "cfo_from_ppm",
    "relative_cfo_hz",
    "PathLossModel",
    "propagation_delay_s",
    "propagation_delay_samples",
]
