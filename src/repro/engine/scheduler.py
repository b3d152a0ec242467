"""Lockstep scheduler and chunked sharding for lane ensembles.

This module owns the scheduling logic the three lockstep engines
(:mod:`repro.experiments.batch`, :mod:`repro.core.ensemble`,
:mod:`repro.routing.ensemble`) used to carry as private copies:

* :func:`resolve_chains` — validation of ``after=`` chaining and
  generator sharing for one ensemble call;
* :class:`LockstepScheduler` — the wave loop that activates root lanes
  (with class-batched priming), advances live lanes (per lane or as
  stacked groups), and starts chained successors the moment their
  predecessor finishes;
* :func:`run_seed_chunks` / :func:`run_chunks` — the chunked sharding
  and process-pool helpers that split independent trials or items across
  chunks and jobs without changing any output.

Determinism contract: the scheduler performs no draws of its own and
fixes only *order* — root lanes prime and set up in input order, a lane
that stays live re-enters the next wave in schedule order, per-lane
classes interleave finish processing (which may draw) with the wave
exactly where the lane finishes, stacked classes advance and finish in
ascending lane order, and a chained lane activates (prime, setup, first
draws) immediately after its predecessor's final draw.  Under those
rules a lockstep run is bit-identical to running each lane's sequential
simulation to completion, which ``tests/engine`` asserts for every
registered lane class.
"""

from __future__ import annotations

import numpy as np

from repro.engine.lane import Lane

__all__ = [
    "resolve_chains",
    "LockstepScheduler",
    "chunk_bounds",
    "run_chunks",
    "run_seed_chunks",
]


def resolve_chains(
    lanes: list, enforce_generator_chains: bool = True
) -> tuple[list[int | None], list[list[int]]]:
    """Validate lane chaining and generator sharing for one ensemble call.

    Returns ``(after, successors)`` where ``after[i]`` is the index of the
    lane that lane ``i`` waits for (or ``None`` for a root lane) and
    ``successors[j]`` lists the lanes to start when lane ``j`` finishes.
    Lanes that share a generator must form one chain in input order —
    anything else would let the lockstep schedule interleave draws from a
    single stream and silently diverge from the sequential path.  Engines
    whose lanes run to completion in input order may pass
    ``enforce_generator_chains=False`` to skip the sharing check (their
    execution order makes unchained sharing naturally sequential).
    """
    index_of = {id(lane): i for i, lane in enumerate(lanes)}
    after: list[int | None] = []
    successors: list[list[int]] = [[] for _ in lanes]
    for i, lane in enumerate(lanes):
        if lane.after is None:
            after.append(None)
            continue
        predecessor = index_of.get(id(lane.after))
        if predecessor is None:
            raise ValueError("lane.after must reference another lane of the same ensemble call")
        after.append(predecessor)
        successors[predecessor].append(i)
    if enforce_generator_chains:
        by_rng: dict[int, list[int]] = {}
        for i, lane in enumerate(lanes):
            by_rng.setdefault(id(lane.rng), []).append(i)
        for rows in by_rng.values():
            for previous, current in zip(rows, rows[1:]):
                if after[current] != previous:
                    raise ValueError(
                        "lockstep lanes that share a generator must be chained in "
                        "input order (each lane's `after` pointing at the previous "
                        "lane on that generator); unrelated lanes need distinct "
                        "generators"
                    )
    return after, successors


class LockstepScheduler:
    """Advance a heterogeneous set of lanes in lockstep waves.

    One :meth:`run` call resolves the ensemble's chains, batch-primes the
    root lanes per class, then loops waves until every lane has finished,
    returning one result per lane in input order.  See the module
    docstring for the ordering rules that make a lockstep run
    bit-identical to the per-lane sequential simulations.
    """

    def run(self, lanes: list[Lane]) -> list:
        """Run every lane to completion; results come back in input order.

        The run keeps no reference to the lanes once it returns or raises:
        it leaves no cyclic garbage, so an ensemble is freed as soon as the
        caller drops its lane list.
        """
        if not lanes:
            return []
        enforce = all(lane.enforce_generator_chains for lane in lanes)
        after, successors = resolve_chains(lanes, enforce_generator_chains=enforce)
        results: list = [None] * len(lanes)
        live: list[int] = []

        def finish(index: int) -> None:
            """Record the lane's result (may draw) and start its successors."""
            results[index] = lanes[index].result()
            for successor in successors[index]:
                start(successor)

        def start(index: int) -> None:
            """Activate one lane: chained priming, setup, immediate-finish check."""
            lane = lanes[index]
            if after[index] is not None:
                lane.prime()
            lane.setup()
            if lane.finished:
                finish(index)
            else:
                live.append(index)

        try:
            # Root lanes prime first — batched per class, groups in
            # first-appearance order — then set up in input order; a root that
            # completes during setup finishes (and starts its successors)
            # before the next root sets up, as the sequential code would.
            roots = [i for i in range(len(lanes)) if after[i] is None]
            prime_groups: dict[type, list[Lane]] = {}
            for i in roots:
                prime_groups.setdefault(type(lanes[i]), []).append(lanes[i])
            for cls, group in prime_groups.items():
                cls.prime_lanes(group)
            for i in roots:
                start(i)

            while live:
                wave = list(live)
                live.clear()
                order: list[type] = []
                members: dict[type, list[int]] = {}
                for index in wave:
                    cls = type(lanes[index])
                    if cls not in members:
                        members[cls] = []
                        order.append(cls)
                    members[cls].append(index)
                for cls in order:
                    if cls.stacked:
                        # Stacked classes advance the whole group at once and
                        # finish in ascending lane order — the order their
                        # internal stacked arrays impose on the wave.
                        group = sorted(members[cls])
                        cls.advance_lanes([lanes[i] for i in group])
                        for index in group:
                            if lanes[index].finished:
                                finish(index)
                            else:
                                live.append(index)
                    else:
                        # Per-lane classes interleave finish processing with
                        # the wave: a lane that completes runs its (possibly
                        # drawing) cleanup and starts its successors before
                        # the next lane of the wave advances.
                        for index in members[cls]:
                            lanes[index].advance()
                            if lanes[index].finished:
                                finish(index)
                            else:
                                live.append(index)
        finally:
            # ``start`` and ``finish`` reach each other through closure
            # cells; emptying both cells breaks that cycle, so the lanes
            # (and every testbed, cache and state they hold) are freed by
            # reference counting once the caller drops them, not at the
            # next cyclic collection, also when a lane raised.
            del start, finish
        return results


# ----------------------------------------------------------------------
# Chunked sharding and process-pool jobs
# ----------------------------------------------------------------------
#: Widest lockstep call :func:`run_seed_chunks` makes when the caller sets
#: no ``chunk_size``.  Every trial owns its topology and generator, so a
#: shard boundary shares nothing; a bounded width keeps only one block of
#: trials' testbeds, caches and lane state resident at a time.
SEED_BLOCK = 64


def chunk_bounds(
    n_items: int, jobs: int, chunk_size: int | None, max_width: int | None = None
) -> np.ndarray:
    """Shard boundaries over ``n_items`` work items.

    With ``chunk_size=None`` the items split into ``min(jobs, n_items)``
    near-equal shards (the widest — fastest — lockstep ensembles), or into
    more near-equal shards when that is needed to keep every shard at most
    ``max_width`` wide; an explicit ``chunk_size`` caps every shard's width
    instead, with the final shard absorbing the remainder.  Either way the
    concatenation of the shards is exactly the item list, so sharding can
    never change a chunked computation's output.
    """
    if chunk_size is None:
        n_shards = min(jobs, n_items)
        if max_width is not None:
            n_shards = max(n_shards, -(-n_items // max_width))
        return np.linspace(0, n_items, n_shards + 1).astype(int)
    bounds = np.arange(0, n_items + chunk_size, chunk_size)
    bounds[-1] = n_items
    return bounds


def run_chunks(chunk_fn, items: list, jobs: int = 1, *args, chunk_size: int | None = None) -> list:
    """Run ``chunk_fn(chunk, *args)`` over shards of ``items``, in order.

    The generic sharding core under :func:`run_seed_chunks` and the
    traffic layer's flow sharding: ``chunk_fn`` must return one result per
    item, in order, and must be picklable for ``jobs > 1`` (items are
    independent, so sharding cannot change any output); chunked results
    are concatenated back into item order.  ``chunk_size`` caps how many
    items one call sees (None = one shard per job); an empty item list
    returns ``[]`` without invoking ``chunk_fn`` — a lockstep chunk built
    over zero lanes could still prime caches or draw from shared streams,
    which would make results depend on whether an empty shard happened to
    run.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not items:
        return []
    if chunk_size is None and (jobs <= 1 or len(items) <= 1):
        return list(chunk_fn(items, *args))
    return _run_shards(chunk_fn, items, jobs, args, chunk_bounds(len(items), jobs, chunk_size))


def _run_shards(chunk_fn, items: list, jobs: int, args: tuple, bounds: np.ndarray) -> list:
    """Run ``chunk_fn`` over ``items`` cut at ``bounds``, in process or pooled."""
    chunks = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if jobs <= 1 or len(chunks) == 1:
        return [result for chunk in chunks for result in chunk_fn(chunk, *args)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        parts = pool.map(chunk_fn, chunks, *([value] * len(chunks) for value in args))
        return [result for part in parts for result in part]


def run_seed_chunks(
    chunk_fn, n_trials: int, seed: int, jobs: int = 1, *args, chunk_size: int | None = None
) -> list:
    """Run ``chunk_fn(children, *args)`` over sharded per-trial seeds.

    Trials are seeded from ``np.random.SeedSequence(seed).spawn(n_trials)``,
    one child per trial, and the callee receives whole *chunks* of children
    so it can advance them as one lockstep ensemble.  No state is shared
    between trials, so seeded results are independent of execution order.
    ``chunk_fn`` must return one result per child, in order, and must be
    picklable for ``jobs > 1`` (trials are independent, so sharding cannot
    change any output); chunked results are concatenated back into trial
    order.

    ``chunk_size`` caps how many trials one lockstep call sees.  By default
    the trials split into near-equal shards of at most :data:`SEED_BLOCK`
    trials, and into at least one shard per job: a call's resident state
    (testbeds, delivery caches, lane state) is then bounded by the block,
    not by the ensemble.  The shards run back-to-back in process
    (``jobs == 1``) or across the pool, with identical results for every
    setting.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    # Empty-ensemble guard: never hand ``chunk_fn`` an empty child set, and
    # never spawn from the seed sequence (callers sharing one SeedSequence
    # across ensembles rely on zero-trial calls leaving it untouched).
    if n_trials == 0:
        return []
    children = np.random.SeedSequence(seed).spawn(n_trials)
    bounds = chunk_bounds(n_trials, jobs, chunk_size, max_width=SEED_BLOCK)
    return _run_shards(chunk_fn, children, jobs, args, bounds)
