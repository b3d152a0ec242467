"""Shared lockstep engine: the lane protocol and its scheduler.

Every lockstep ensemble in the reproduction — packet ensembles, joint
frames, mesh/downlink transfers, traffic flows, batched experiment
trials — runs on this package: engines express their work as
:class:`~repro.engine.lane.Lane` subclasses and hand them to a
:class:`~repro.engine.scheduler.LockstepScheduler`, which owns chain
resolution (``after=`` activation), the wave loop, and the chunked
sharding / process-pool helpers (:func:`~repro.engine.scheduler.run_chunks`,
:func:`~repro.engine.scheduler.run_seed_chunks`).  The conformance kit in
``tests/engine/conformance.py`` gives any registered lane class its
lockstep-vs-sequential bit-identity proof.
"""

from repro.engine.lane import Lane
from repro.engine.scheduler import (
    LockstepScheduler,
    chunk_bounds,
    resolve_chains,
    run_chunks,
    run_seed_chunks,
)

__all__ = [
    "Lane",
    "LockstepScheduler",
    "chunk_bounds",
    "resolve_chains",
    "run_chunks",
    "run_seed_chunks",
]
