"""Property-based scheduler invariants over randomized lane mixes.

Hypothesis drives :class:`repro.engine.LockstepScheduler` with scripted
probe lanes — heterogeneous round counts, setup/advance draw budgets,
chains of varying depth sharing one generator, stacked and per-lane
classes interleaved, lanes finishing during setup — and asserts the
engine's determinism contract directly:

* every lane's draws replay a fresh generator in its sequential order
  (chains concatenate their lanes' streams in chain order);
* a chained lane activates exactly once, only after its predecessor's
  result, and every lane primes/sets up/reports exactly once;
* no lane is advanced after it reports ``finished``;
* stacked classes receive their whole live group per wave, in ascending
  input order;
* results come back in input order, and an empty ensemble is ``[]``;
* a run keeps no lane alive once it returns or raises.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Lane, LockstepScheduler


class ProbeLane(Lane):
    """Scripted per-lane probe that logs every scheduler interaction."""

    def __init__(self, index, rng, rounds, draws_per_round, setup_draws, log, after=None):
        self.index = index
        self.rng = rng
        self.after = after
        self.rounds = rounds
        self.draws_per_round = draws_per_round
        self.setup_draws = setup_draws
        self.log = log
        self.advanced = 0
        self.drawn: list[float] = []

    def prime(self):
        """Log activation (roots via ``prime_lanes``, successors on start)."""
        self.log.append(("prime", self.index))

    def setup(self):
        """Log setup and consume this lane's setup draws."""
        self.log.append(("setup", self.index))
        if self.setup_draws:
            self.drawn.extend(self.draw(self.setup_draws).tolist())

    def advance(self):
        """One wave step; advancing a finished lane is a contract breach."""
        assert not self.finished, f"lane {self.index} advanced after finished"
        self.log.append(("advance", self.index))
        self.advanced += 1
        if self.draws_per_round:
            self.drawn.extend(self.draw(self.draws_per_round).tolist())

    @property
    def finished(self):
        """Done after the scripted number of advances."""
        return self.advanced >= self.rounds

    def result(self):
        """Log completion and return the lane's identity plus draw record."""
        self.log.append(("result", self.index))
        return (self.index, tuple(self.drawn))


class StackedProbeLane(ProbeLane):
    """Stacked variant: the class advances its whole live group per wave."""

    stacked = True

    @classmethod
    def advance_lanes(cls, lanes):
        """Log the group (must arrive in ascending input order) and step it."""
        indices = [lane.index for lane in lanes]
        assert indices == sorted(indices), f"stacked wave out of order: {indices}"
        lanes[0].log.append(("wave", tuple(indices)))
        for lane in lanes:
            assert not lane.finished
            lane.log.append(("advance", lane.index))
            lane.advanced += 1
            if lane.draws_per_round:
                lane.drawn.extend(lane.draw(lane.draws_per_round).tolist())


@st.composite
def lane_mixes(draw):
    """Chains of scripted lane specs, interleaved round-robin into one call."""
    n_chains = draw(st.integers(1, 4))
    chains = []
    for chain_index in range(n_chains):
        length = draw(st.integers(1, 3))
        chains.append([
            {
                "rounds": draw(st.integers(0, 3)),
                "draws_per_round": draw(st.integers(0, 2)),
                "setup_draws": draw(st.integers(0, 2)),
                "stacked": draw(st.booleans()),
            }
            for _ in range(length)
        ])
    return chains


def _build(chains, log):
    """Materialise interleaved probe lanes (one generator per chain)."""
    rngs = [np.random.default_rng(1000 + c) for c in range(len(chains))]
    tails: list[ProbeLane | None] = [None] * len(chains)
    lanes, owners = [], []
    for position in range(max(len(chain) for chain in chains)):
        for c, chain in enumerate(chains):
            if position >= len(chain):
                continue
            spec = chain[position]
            cls = StackedProbeLane if spec["stacked"] else ProbeLane
            lane = cls(
                len(lanes), rngs[c], spec["rounds"], spec["draws_per_round"],
                spec["setup_draws"], log, after=tails[c],
            )
            tails[c] = lane
            lanes.append(lane)
            owners.append(c)
    return lanes, owners


@given(chains=lane_mixes())
@settings(max_examples=40, deadline=None)
def test_scheduler_replays_sequential_draw_streams(chains):
    """Per-chain draw streams replay a fresh generator, lane by lane."""
    log: list = []
    lanes, owners = _build(chains, log)
    results = LockstepScheduler().run(lanes)

    # Results arrive in input order, carrying each lane's own draw record.
    assert results == [(lane.index, tuple(lane.drawn)) for lane in lanes]

    # Each chain's concatenated draws equal a fresh same-seeded generator
    # consumed in chain order — lockstep interleaving is invisible.
    for c, chain in enumerate(chains):
        chain_lanes = [lane for lane, owner in zip(lanes, owners) if owner == c]
        chain_lanes.sort(key=lambda lane: _chain_depth(lane))
        expected = np.random.default_rng(1000 + c)
        for lane in chain_lanes:
            budget = lane.setup_draws + lane.rounds * lane.draws_per_round
            assert lane.drawn == expected.random(budget).tolist() if budget else lane.drawn == []


def _chain_depth(lane):
    """Position of ``lane`` within its ``after`` chain (roots are 0)."""
    depth, node = 0, lane
    while node.after is not None:
        depth, node = depth + 1, node.after
    return depth


@given(chains=lane_mixes())
@settings(max_examples=40, deadline=None)
def test_scheduler_event_protocol(chains):
    """Prime/setup/result happen exactly once; chains activate in order."""
    log: list = []
    lanes, _ = _build(chains, log)
    LockstepScheduler().run(lanes)

    for lane in lanes:
        events = [kind for kind, payload in log if payload == lane.index]
        assert events.count("prime") == 1
        assert events.count("setup") == 1
        assert events.count("result") == 1
        assert events.count("advance") == lane.rounds
        # Lifecycle order: activation, then every advance, then the result.
        assert events.index("prime") < events.index("setup")
        assert events.index("result") == len(events) - 1

    # A chained lane activates only after its predecessor's result.
    positions = {
        (kind, payload): i for i, (kind, payload) in enumerate(log)
        if kind in ("setup", "result") and isinstance(payload, int)
    }
    for lane in lanes:
        if lane.after is not None:
            assert positions[("setup", lane.index)] > positions[("result", lane.after.index)]


@given(chains=lane_mixes())
@settings(max_examples=25, deadline=None)
def test_scheduler_stacked_waves_ascend(chains):
    """Every stacked wave advances an ascending slice of the live set."""
    log: list = []
    lanes, _ = _build(chains, log)
    LockstepScheduler().run(lanes)
    for kind, payload in log:
        if kind == "wave":
            assert list(payload) == sorted(payload)


def test_scheduler_empty_ensemble_is_empty():
    """Zero lanes in, zero results out, nothing invoked."""
    assert LockstepScheduler().run([]) == []


def test_scheduler_rejects_foreign_after():
    """``after`` must reference a lane of the same ensemble call."""
    log: list = []
    rng = np.random.default_rng(0)
    outside = ProbeLane(0, rng, 1, 1, 0, log)
    inside = ProbeLane(1, rng, 1, 1, 0, log, after=outside)
    with pytest.raises(ValueError, match="same ensemble call"):
        LockstepScheduler().run([inside])


def test_scheduler_rejects_unchained_generator_sharing():
    """Two unchained lanes on one generator would interleave its stream."""
    log: list = []
    rng = np.random.default_rng(0)
    lanes = [ProbeLane(i, rng, 1, 1, 0, log) for i in range(2)]
    with pytest.raises(ValueError, match="share a generator"):
        LockstepScheduler().run(lanes)


class FailingLane(ProbeLane):
    """Probe lane whose first advance raises."""

    def advance(self):
        """Fail mid-run, after the scheduler has activated this lane."""
        raise RuntimeError("lane failed")


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_scheduler_frees_lanes_when_run_ends(fail):
    """A run leaves no reference cycle holding its lanes.

    With the cyclic collector off, the lanes must die the moment the
    caller drops its list, whether ``run`` returned or a chained lane
    raised.
    """
    log: list = []
    rng = np.random.default_rng(0)
    root = ProbeLane(0, rng, 2, 1, 0, log)
    chained = (FailingLane if fail else ProbeLane)(1, rng, 2, 1, 0, log, after=root)
    lanes = [root, chained]
    refs = [weakref.ref(root), weakref.ref(chained)]
    del root, chained
    gc.disable()
    try:
        try:
            LockstepScheduler().run(lanes)
        except RuntimeError:
            assert fail
        else:
            assert not fail
        del lanes
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
