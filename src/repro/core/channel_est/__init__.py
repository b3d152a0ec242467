"""Joint Channel Estimator (JCE): per-sender channels, CFO, phase tracking (§5)."""

from repro.core.channel_est.cfo import precorrect_cfo
from repro.core.channel_est.joint_estimator import (
    JointChannelEstimate,
    composite_channel,
    estimate_sender_channel,
    sender_active,
)
from repro.core.channel_est.phase_tracking import (
    PerSenderPhaseTracker,
    pilot_owner,
    pilot_scale_pattern,
    track_phases_batch,
)

__all__ = [
    "precorrect_cfo",
    "JointChannelEstimate",
    "composite_channel",
    "estimate_sender_channel",
    "sender_active",
    "PerSenderPhaseTracker",
    "pilot_owner",
    "pilot_scale_pattern",
    "track_phases_batch",
]
