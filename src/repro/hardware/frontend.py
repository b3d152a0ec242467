"""Radio front-end model: detection latency and turnaround delay.

The paper's central observation (§1, §4.2) is that a node does not detect a
packet at the instant the signal reaches its antenna; detection happens a
random, SNR-dependent time later (on the order of hundreds of nanoseconds,
citing Williams et al.), and switching from receive to transmit takes a
node-specific hardware turnaround time that 802.11 bounds only loosely
(up to 10 us, far longer than a 4 us OFDM symbol).  SourceSync must measure
and cancel both.  This module models those two quantities per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.rng import require_rng

__all__ = ["RadioFrontend", "DetectionLatencyModel"]


@dataclass(frozen=True)
class DetectionLatencyModel:
    """Statistical model of packet-detection latency.

    Detection latency is the number of samples between the arrival of the
    first packet sample and the instant the detector fires.  It shrinks as
    SNR grows (the correlator needs fewer samples to accumulate confidence)
    but never reaches zero, and it has packet-to-packet jitter.

    The default constants are chosen so the latency is a few hundred
    nanoseconds with tens of nanoseconds of jitter at 20 Msps, matching the
    variability the paper cites (~hundreds of ns, [42]).
    """

    base_samples: float = 3.0
    snr_slope_samples: float = 8.0
    snr_scale_db: float = 8.0
    jitter_samples: float = 1.5
    max_samples: float = 24.0

    def mean_latency_samples(self, snr_db: float) -> float:
        """Average detection latency at a given SNR, in samples."""
        decay = np.exp(-max(snr_db, 0.0) / self.snr_scale_db)
        excess = self.snr_slope_samples * decay
        return float(min(self.base_samples + excess, self.max_samples))

    def sample(self, snr_db: float, rng: np.random.Generator) -> float:
        """Draw one detection latency realisation (non-negative, in samples)."""
        latency = rng.normal(self.mean_latency_samples(snr_db), self.jitter_samples)
        return float(np.clip(latency, 0.0, self.max_samples))


@dataclass
class RadioFrontend:
    """Per-node radio hardware characteristics.

    Attributes
    ----------
    turnaround_samples:
        Time to switch the node from reception to transmission, in samples.
        Constant for a given node (§4.2b) but differing across nodes — the
        802.11 specifications allow up to 10 us.
    detection_model:
        The detection-latency statistics of this node's receiver.
    sample_rate_hz:
        Baseband sample rate, used by the convenience converters.
    """

    turnaround_samples: float
    detection_model: DetectionLatencyModel = DetectionLatencyModel()
    sample_rate_hz: float = 20e6

    @classmethod
    def random(
        cls,
        rng: np.random.Generator | None = None,
        min_turnaround_us: float = 2.0,
        max_turnaround_us: float = 8.0,
        sample_rate_hz: float = 20e6,
    ) -> "RadioFrontend":
        """Draw a front end with a random (but then fixed) turnaround delay."""
        rng = require_rng(rng, "RadioFrontend.random")
        turnaround_us = float(rng.uniform(min_turnaround_us, max_turnaround_us))
        return cls(
            turnaround_samples=turnaround_us * 1e-6 * sample_rate_hz,
            sample_rate_hz=sample_rate_hz,
        )

    @property
    def turnaround_s(self) -> float:
        """Turnaround delay in seconds."""
        return self.turnaround_samples / self.sample_rate_hz

    @property
    def turnaround_ns(self) -> float:
        """Turnaround delay in nanoseconds."""
        return self.turnaround_s * 1e9

    def detection_delay_samples(self, snr_db: float, rng: np.random.Generator) -> float:
        """Draw the packet-detection delay for one reception at a given SNR."""
        return self.detection_model.sample(snr_db, rng)

    def measure_turnaround_samples(self, quantization_samples: float = 0.0) -> float:
        """The node's own measurement of its turnaround delay.

        The paper notes (§4.2b) the turnaround is constant per node and can
        be measured by counting hardware clock ticks, so the measurement is
        essentially exact up to clock quantisation.
        """
        if quantization_samples <= 0:
            return float(self.turnaround_samples)
        ticks = round(self.turnaround_samples / quantization_samples)
        return float(ticks * quantization_samples)
