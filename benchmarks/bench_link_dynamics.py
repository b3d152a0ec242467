"""Benchmark: fault injection overhead (``BENCH_link_dynamics.json``).

Gilbert–Elliott dynamics add one upfront trajectory draw (kept as 1-byte
transition codes) to every transfer, plus a lazy evaluation of each link
the transfer reads and a per-slot multiplier lookup; this benchmark
measures what that costs through the traffic layer at two burst regimes
(short shallow bursts vs long deep ones), for the lockstep mesh engine
and the per-flow sequential oracle.  Bit-identity between the two engines is asserted at
both regimes before any number is recorded — a fast lockstep path that
drifts from the oracle is a bug, not a speedup.
"""

from functools import partial

from bench_utils import timed, write_baseline

from repro.channel.dynamics import GilbertElliott, LinkDynamics
from repro.traffic import (
    SCHEMES,
    mice_elephants,
    poisson_workload,
    relay_mesh,
    simulate_flow_services,
)

_N_FLOWS = 64
_RATE_MBPS = 12.0
_PAYLOAD = 1460
_SEED = 20
_HORIZON = 256

#: (label, mean burst slots, bad-state multiplier): short shallow bursts
#: vs long deep ones — the two corners of the fig20 fault grid.
_REGIMES = (
    ("short_burst", 2.0, 0.5),
    ("long_burst", 16.0, 0.1),
)


def test_link_dynamics_lockstep_vs_sequential(benchmark):
    mix = mice_elephants(mice_packets=2, elephant_packets=16, elephant_fraction=0.15)
    # Mesh seed 13 keeps the ETX graph connected at full-size probes, so
    # the benchmark measures real recovery work rather than early returns.
    factory = partial(relay_mesh, 13, n_relays=3)
    workload = poisson_workload(_N_FLOWS, 0.2, mix, _RATE_MBPS, _PAYLOAD, seed=_SEED)

    def serve(lockstep, dynamics):
        return simulate_flow_services(
            workload, factory, dst=1, lockstep=lockstep, dynamics=dynamics
        )

    regimes = {}
    for label, burst_slots, bad_multiplier in _REGIMES:
        dynamics = LinkDynamics(
            gilbert_elliott=GilbertElliott.from_burst(
                burst_slots, 0.2, bad_multiplier=bad_multiplier
            ),
            horizon_slots=_HORIZON,
        )
        lockstep_s, lockstep = timed(lambda: serve(True, dynamics), repeats=3)
        sequential_s, sequential = timed(lambda: serve(False, dynamics), repeats=3)

        # The lockstep path must reproduce the sequential oracle bit for bit.
        assert lockstep == sequential

        delivered = sum(s.delivered_packets for s in lockstep["link_local"])
        offered = sum(s.size_packets for s in lockstep["link_local"])
        # Coarse buckets: the committed file should change only when the
        # engine's behaviour changes, not with timer jitter.
        regimes[label] = {
            "burst_slots": burst_slots,
            "bad_multiplier": bad_multiplier,
            "flows_per_sec_lockstep_bucket": int(round(_N_FLOWS / lockstep_s / 100) * 100),
            "flows_per_sec_sequential_bucket": int(round(_N_FLOWS / sequential_s / 100) * 100),
            "lockstep_over_sequential_bucket": round(sequential_s / max(lockstep_s, 1e-9) * 2)
            / 2,
            "linklocal_delivered_fraction": round(delivered / offered, 4),
        }

    benchmark.pedantic(
        lambda: serve(
            True,
            LinkDynamics(
                gilbert_elliott=GilbertElliott.from_burst(2.0, 0.2, bad_multiplier=0.5),
                horizon_slots=_HORIZON,
            ),
        ),
        rounds=1,
        iterations=1,
    )

    write_baseline(
        "link_dynamics",
        {
            "n_flows": _N_FLOWS,
            "schemes": list(SCHEMES),
            "horizon_slots": _HORIZON,
            "bit_identical": True,
            "regimes": regimes,
        },
    )
    for label, numbers in regimes.items():
        print(
            f"\n{label}: lockstep {numbers['flows_per_sec_lockstep_bucket']} flows/s, "
            f"sequential {numbers['flows_per_sec_sequential_bucket']} flows/s "
            f"({numbers['lockstep_over_sequential_bucket']}x)"
        )
