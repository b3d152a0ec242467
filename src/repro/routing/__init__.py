"""Routing protocols: single path, ExOR, ExOR + SourceSync, link-local recovery."""

from repro.routing.ensemble import (
    DownlinkLane,
    ExorLane,
    LinkLocalLane,
    simulate_downlink_ensemble,
    simulate_exor_ensemble,
    simulate_link_local_ensemble,
    simulate_single_path_ensemble,
)
from repro.routing.exor import ExorConfig, ExorResult, exor_priority
from repro.routing.exor_sourcesync import cp_increase_for_forwarders
from repro.routing.link_local import LinkLocalConfig, LinkLocalResult, simulate_link_local
from repro.routing.single_path import SinglePathResult, simulate_single_path

__all__ = [
    "ExorConfig",
    "ExorResult",
    "ExorLane",
    "DownlinkLane",
    "LinkLocalConfig",
    "LinkLocalResult",
    "LinkLocalLane",
    "exor_priority",
    "simulate_exor_ensemble",
    "simulate_downlink_ensemble",
    "simulate_link_local",
    "simulate_link_local_ensemble",
    "simulate_single_path_ensemble",
    "cp_increase_for_forwarders",
    "SinglePathResult",
    "simulate_single_path",
]
