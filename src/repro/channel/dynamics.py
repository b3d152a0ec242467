"""Bursty link dynamics: Gilbert–Elliott fault injection over the mesh.

Every testbed link is a *static* draw from one measured distribution; this
module adds the time axis.  A :class:`LinkDynamics` spec attaches two
fault models to a transfer:

* a per-link two-state **Gilbert–Elliott** process
  (:class:`GilbertElliott`): each directed link flips between a *good*
  and a *bad* state with fixed transition probabilities per transmission
  slot, and each state scales the link's delivery probability by its own
  multiplier — time-correlated loss bursts, the failure mode static link
  draws can never produce;
* a static **link-speed × loss-rate grid** (:class:`LossRateGrid`), the
  LinkGuardian-style ``effective_lossRate_linkSpeed`` model: an extra
  loss rate interpolated from the lane's transmission rate, applied on
  top of the state multipliers.

Determinism contract
--------------------
A lane's whole RNG consumption is one ``(horizon_slots, n_links)`` block
of uniforms from the lane's generator, links in the canonical all-pairs
order (:func:`link_order`).  The block sits in the lane's sequential
stream position — after priming, before the first transfer draw — so the
lockstep mesh engine (:mod:`repro.routing.ensemble`) stays bit-identical
to the sequential path: dynamics only *modulates* delivery
probabilities, it never changes how many uniforms a phase consumes or in
which order.

Only the block's first :data:`FIRST_SLOTS` rows are drawn up front
(``rng.random((FIRST_SLOTS, n_links))``); the generator's state is then
saved and the generator advanced past the remaining rows, so the lane's
next draw is the one it would make after drawing the whole block (a
float64 uniform is exactly one 64-bit draw).  Most transfers never read
past the first rows; the first read that does re-draws the rest from
the saved state.

The first rows are decoded when the trajectory is built, by one dense
call of the loop-free :func:`states_from_codes` kernel, into a table of
1-byte level indices (good, bad, self link); the rest of the horizon is
decoded once, on the first read past the prefix, continuing the scan
from the last decoded slot.  The kernel is comparisons and integer ops
only, so decoding a block at once or in two parts gives the same states,
and every multiplier is the same float whichever read reaches it first.

A transfer's *slot clock* is its transmission counter: the ``k``-th
transmission of a lane reads the trajectory at slot ``k`` (modulo the
horizon, which wraps periodically), which both the sequential simulators
and the lockstep engine track identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.rng import require_rng

__all__ = [
    "GilbertElliott",
    "LossRateGrid",
    "LinkDynamics",
    "LinkStateTrajectory",
    "FIRST_SLOTS",
    "link_order",
    "states_from_codes",
    "trajectory_from_uniforms",
    "trajectory_from_states",
    "materialise_trajectory",
]

#: Transition codes: bit 0 is ``u < p_good_to_bad``, bit 1 ``u < p_bad_to_good``.
_SET_BAD, _SET_GOOD, _FLIP = 1, 2, 3

#: Level indices of a decoded trajectory table (0 is the good state).
_BAD, _SELF = 1, 2

#: Slots a trajectory draws and decodes when it is built; the rest of the
#: horizon is decoded on the first read that reaches past them.
FIRST_SLOTS = 32

#: Bit generators whose ``advance(n)`` skips exactly ``n`` 64-bit draws,
#: i.e. ``n`` float64 uniforms (Philox's advance counts blocks instead).
_ADVANCE_BY_DRAWS = (np.random.PCG64, np.random.PCG64DXSM)


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov loss-burst process of one directed link.

    Per transmission slot a link in the *good* state turns bad with
    probability ``p_good_to_bad`` and a link in the *bad* state recovers
    with probability ``p_bad_to_good``; each state scales the link's
    delivery probability by its multiplier.  The mean bad-burst length is
    ``1 / p_bad_to_good`` slots and the stationary bad fraction is
    ``p / (p + r)`` — the classic Gilbert–Elliott parametrisation.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    good_multiplier: float = 1.0
    bad_multiplier: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_good_to_bad <= 1.0 or not 0.0 < self.p_bad_to_good <= 1.0:
            raise ValueError(
                "transition probabilities must satisfy 0 <= p_good_to_bad <= 1 "
                "and 0 < p_bad_to_good <= 1 (bad bursts must be able to end)"
            )
        if self.good_multiplier < 0.0 or self.bad_multiplier < 0.0:
            raise ValueError("state multipliers must be non-negative")

    @classmethod
    def from_burst(
        cls,
        burst_slots: float,
        bad_fraction: float,
        good_multiplier: float = 1.0,
        bad_multiplier: float = 0.25,
    ) -> "GilbertElliott":
        """Build a process from its mean burst length and stationary bad fraction.

        ``burst_slots`` is the mean bad-state dwell time (``1 / r``) and
        ``bad_fraction`` the stationary probability of the bad state
        (``p / (p + r)``) — the two knobs the loss/burst grid of the
        ``fig20_link_dynamics`` experiment sweeps directly.
        """
        if burst_slots < 1.0:
            raise ValueError("burst_slots must be >= 1 (a burst lasts at least one slot)")
        if not 0.0 < bad_fraction < 1.0:
            raise ValueError("bad_fraction must be in (0, 1)")
        r = 1.0 / burst_slots
        p = r * bad_fraction / (1.0 - bad_fraction)
        if p > 1.0:
            raise ValueError(
                f"bad_fraction={bad_fraction} with burst_slots={burst_slots} needs "
                "p_good_to_bad > 1; lengthen the burst or lower the fraction"
            )
        return cls(p, r, good_multiplier, bad_multiplier)

    def stationary_bad_fraction(self) -> float:
        """Stationary probability of the bad state, ``p / (p + r)``."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return 0.0
        return self.p_good_to_bad / total

    def mean_burst_slots(self) -> float:
        """Mean bad-state dwell time in slots, ``1 / p_bad_to_good``."""
        return 1.0 / self.p_bad_to_good

    def transition_codes(self, uniforms: np.ndarray) -> np.ndarray:
        """1-byte transition code of every uniform: ``(u < p) | (u < r) << 1``.

        A slot's uniform alone picks the map it applies to the previous
        state: 0 keeps it, 1 sets bad (a good link fails, a bad one stays
        bad), 2 sets good, 3 flips it.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        codes = (u < self.p_bad_to_good).view(np.uint8)
        codes += codes
        codes |= (u < self.p_good_to_bad).view(np.uint8)
        return codes

    def evolve_states(self, uniforms: np.ndarray) -> np.ndarray:
        """Evolve bad/good states from pre-drawn uniforms (``True`` = bad).

        ``uniforms`` has shape ``(..., n_slots, n_links)``; leading axes
        (e.g. a lane axis) evolve independently.  Slot 0 samples the
        stationary distribution (the chain starts in equilibrium); slot
        ``t`` applies the transition probabilities to slot ``t - 1``, via
        the loop-free :func:`states_from_codes` kernel.
        """
        u = np.asarray(uniforms, dtype=np.float64)
        if u.ndim < 2:
            raise ValueError("uniforms must have shape (..., n_slots, n_links)")
        initial = u[..., 0, :] < self.stationary_bad_fraction()
        return states_from_codes(initial, self.transition_codes(u))


def states_from_codes(initial: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Loop-free state scan: bad/good states from slot-0 states and codes.

    ``codes`` has shape ``(..., n_slots, n_links)`` (the code of slot 0 is
    ignored: slot 0 holds ``initial``, shape ``(..., n_links)``).  Every
    slot is a *set* (codes 1 and 2, and slot 0) or not, so a state is the
    value of the last set slot XOR the parity of the flips (code 3) since.
    The flip parity is a ``cumsum``; a ``maximum.accumulate`` forward-fill
    of ``slot << 1 | (value ^ parity)`` carries the last set slot's value,
    pre-XORed with its parity, in the low bit.  Comparisons and integer
    ops only: no gather, and each link's column is independent.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    flips = codes == _FLIP
    flips[..., 0, :] = False
    parity = np.cumsum(flips, axis=-2, dtype=np.uint8)  # wraps mod 256: low bit exact
    parity &= 1
    sets = (codes - np.uint8(_SET_BAD)) <= _SET_GOOD - _SET_BAD  # uint8 wraps code 0 high
    sets[..., 0, :] = True
    values = codes == _SET_BAD
    values[..., 0, :] = initial
    values ^= parity.view(bool)
    n_slots = codes.shape[-2]
    # The smallest integer type that holds ``slot << 1 | 1``: the fills run
    # over fewer bytes, which matters for the short blocks trajectories use.
    marks = np.arange(n_slots, dtype=np.min_scalar_type(2 * n_slots - 1))[:, None] << 1
    marks = marks | values
    marks *= sets
    filled = np.maximum.accumulate(marks, axis=-2)
    filled ^= parity
    filled &= 1
    return filled.astype(bool)


@dataclass(frozen=True)
class LossRateGrid:
    """Static link-speed × loss-rate table (LinkGuardian's grid model).

    ``loss_rate_for`` interpolates the extra loss rate at a lane's
    transmission rate (clamped at the table's ends) — the
    ``effective_lossRate_linkSpeed`` sweep shape: faster links see higher
    effective loss.  The grid is RNG-free; it contributes a constant
    ``1 - loss`` factor to every multiplier of a lane's trajectory.
    """

    speeds_mbps: tuple[float, ...]
    loss_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.speeds_mbps or len(self.speeds_mbps) != len(self.loss_rates):
            raise ValueError("speeds_mbps and loss_rates must be equal-length and non-empty")
        if any(b <= a for a, b in zip(self.speeds_mbps, self.speeds_mbps[1:])):
            raise ValueError("speeds_mbps must be strictly increasing")
        if any(not 0.0 <= loss < 1.0 for loss in self.loss_rates):
            raise ValueError("loss rates must be in [0, 1)")

    def loss_rate_for(self, speed_mbps: float) -> float:
        """Extra loss rate at ``speed_mbps`` (linear interpolation, clamped)."""
        return float(
            np.interp(
                speed_mbps,
                np.asarray(self.speeds_mbps, dtype=np.float64),
                np.asarray(self.loss_rates, dtype=np.float64),
            )
        )


@dataclass(frozen=True)
class LinkDynamics:
    """Fault-injection spec attached to a transfer (or lane).

    ``horizon_slots`` bounds the trajectory: a lane's generator moves past
    ``horizon_slots`` rows of link uniforms, of which the first
    :data:`FIRST_SLOTS` are drawn up front and the rest only when a read
    reaches them.  Transfers longer than the horizon wrap periodically
    (slot ``k`` reads ``k % horizon_slots``).  With
    ``gilbert_elliott=None`` the trajectory consumes **no** generator
    draws (the grid alone is deterministic), so a grid-only spec leaves
    every existing stream untouched.
    """

    gilbert_elliott: GilbertElliott | None = None
    grid: LossRateGrid | None = None
    horizon_slots: int = 512

    def __post_init__(self) -> None:
        if self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.gilbert_elliott is None and self.grid is None:
            raise ValueError("LinkDynamics needs a Gilbert-Elliott process or a grid (or both)")

    def draw_state_uniforms(self, rng: np.random.Generator, n_links: int) -> np.ndarray | None:
        """The trajectory's whole uniform block — ``None`` when grid-only.

        One ``rng.random((horizon_slots, n_links))`` call, links in the
        canonical :func:`link_order`: the whole RNG consumption of a
        lane's dynamics, drawn eagerly.  :func:`materialise_trajectory`
        leaves the generator in the same state but draws only the first
        :data:`FIRST_SLOTS` rows, unless the bit generator cannot skip
        the rest; this eager block is also what
        :func:`trajectory_from_uniforms` takes.
        """
        if self.gilbert_elliott is None:
            return None
        return rng.random((self.horizon_slots, n_links))


def link_order(node_ids: Sequence[int]) -> list[tuple[int, int]]:
    """Canonical directed-link order: nested ``(a, b)`` loops, ``a != b``.

    Matches the testbed's canonical all-pairs priming order, so the
    trajectory's uniform columns have a stable, documented meaning
    independent of which links a transfer actually exercises.
    """
    return [(a, b) for a in node_ids for b in node_ids if a != b]


@lru_cache(maxsize=64)
def _pair_columns(node_ids: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """``(src, dst)`` → trajectory column; self pairs map to column ``n_links``."""
    columns = {pair: k for k, pair in enumerate(link_order(node_ids))}
    n_links = len(columns)
    columns.update({(node, node): n_links for node in node_ids})
    return columns


@dataclass(eq=False)
class LinkStateTrajectory:
    """Per-slot delivery-probability multipliers of one lane, decoded by prefix.

    ``multipliers`` is a table of 1-byte level indices, one row per
    decoded slot and one column per link in canonical :func:`link_order`
    plus a last self-link column: each entry indexes ``levels``, the good,
    bad and self-link (1) multipliers, each already scaled by the grid
    factor.  ``columns`` maps ``(src, dst)`` to a column (self pairs to
    the last one).  A trajectory is built with its first
    :data:`FIRST_SLOTS` slots decoded; ``pending`` returns the transition
    codes of the remaining slots of the horizon, and the first read past
    the decoded prefix decodes them all at once, continuing the state scan
    from the last decoded slot.  Slots wrap at ``horizon_slots``.  Both
    execution paths (sequential and lockstep) read through the same
    accessors, so modulated probabilities are bit-identical by
    construction.
    """

    horizon_slots: int
    columns: Mapping[tuple[int, int], int]
    multipliers: np.ndarray
    levels: np.ndarray
    pending: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    def _table(self, last_slot: int) -> np.ndarray:
        """The level-index table, decoded at least through ``last_slot``."""
        if last_slot >= len(self.multipliers):
            codes = self.pending()
            self.pending = None
            head = self.multipliers
            # A scan's slot 0 takes the given states and ignores its code,
            # so a repeated first row stands in for the last decoded slot.
            states = states_from_codes(head[-1, :-1] == _BAD, np.concatenate([codes[:1], codes]))
            self.multipliers = np.concatenate([head, _level_table(states[1:])])
        return self.multipliers

    def pair_multiplier(self, slot: int, src: int, dst: int) -> float:
        """Multiplier of link ``src → dst`` at transmission slot ``slot``."""
        slot %= self.horizon_slots
        return float(self.levels[self._table(slot)[slot, self.columns[src, dst]]])

    def rows(self, start_slot: int, n_slots: int, src: int, receivers: Sequence[int]) -> np.ndarray:
        """Multiplier block for consecutive slots of one sender.

        Returns ``(n_slots, len(receivers))``: row ``k`` holds the
        ``src → receiver`` multipliers at slot ``start_slot + k`` — the
        broadcast-phase shape (packet ``k`` of a wave transmits at slot
        ``start_slot + k``).
        """
        horizon = self.horizon_slots
        start_slot %= horizon
        columns = [self.columns[src, node] for node in receivers]
        # A block that wraps reads the last slot, so the table then spans
        # the whole horizon and ``mode="wrap"`` wraps at the horizon.
        table = self._table(min(start_slot + n_slots, horizon) - 1)
        slots = np.arange(start_slot, start_slot + n_slots)
        return self.levels.take(table.take(slots, axis=0, mode="wrap").take(columns, axis=1))

    def receiver_multipliers(
        self, slot: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> np.ndarray:
        """Per-receiver multipliers of one (possibly joint) transmission.

        A joint transmission rides the *best* participating sender's link
        state towards each receiver (element-wise ``max``): sender
        diversity hedges bursts, which is exactly the robustness question
        the link-dynamics experiment quantifies.
        """
        slot %= self.horizon_slots
        pairs = self.columns
        columns = [pairs[src, node] for src in senders for node in receivers]
        values = self.levels.take(self._table(slot)[slot].take(columns))
        if len(senders) == 1:
            return values
        return values.reshape(len(senders), len(receivers)).max(axis=0)


def _level_table(states: np.ndarray) -> np.ndarray:
    """Level indices of ``(n_slots, n_links)`` states, plus the self-link column."""
    table = np.full((len(states), states.shape[1] + 1), _SELF, dtype=np.uint8)
    table[:, :-1] = states
    return table


def _check_block(dynamics: LinkDynamics, n_nodes: int, block: np.ndarray, what: str) -> np.ndarray:
    """``block`` as an array, if it has the trajectory shape ``(horizon, n*(n-1))``."""
    block = np.asarray(block)
    expected = (dynamics.horizon_slots, n_nodes * (n_nodes - 1))
    if block.shape != expected:
        raise ValueError(
            f"{what} block has shape {block.shape}; expected (horizon_slots, n*(n-1)) = {expected}"
        )
    return block


def _trajectory(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    states: np.ndarray | None,
    pending: Callable[[], np.ndarray] | None = None,
) -> LinkStateTrajectory:
    """Wrap decoded bad/good states of the first slots with the lane's levels.

    The grid factor is a scalar per lane (every link transmits at the
    lane's rate), applied after the state multipliers.  Without states
    (grid-only specs) every link keeps the good state at multiplier 1.
    """
    columns = _pair_columns(tuple(node_ids))
    levels = (1.0, 1.0, 1.0)
    if states is None:
        states = np.zeros((dynamics.horizon_slots, len(columns) - len(node_ids)), dtype=bool)
    else:
        process = dynamics.gilbert_elliott
        levels = (process.good_multiplier, process.bad_multiplier, 1.0)
    if dynamics.grid is not None:
        factor = 1.0 - dynamics.grid.loss_rate_for(rate_mbps)
        levels = tuple(level * factor for level in levels)
    return LinkStateTrajectory(
        horizon_slots=dynamics.horizon_slots,
        columns=columns,
        multipliers=_level_table(states),
        levels=np.array(levels),
        pending=pending,
    )


def trajectory_from_uniforms(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    uniforms: np.ndarray | None,
) -> LinkStateTrajectory:
    """Build a lane's trajectory from its whole uniform block.

    ``uniforms`` is the block :meth:`LinkDynamics.draw_state_uniforms`
    returned for this lane, shape ``(horizon_slots, n*(n-1))`` (``None``
    for grid-only specs).  The first :data:`FIRST_SLOTS` slots are
    decoded now; the rest are kept as transition codes until a read
    reaches them.  To build a trajectory from already-evolved boolean
    states use :func:`trajectory_from_states`.
    """
    process = dynamics.gilbert_elliott
    if process is None:
        return _trajectory(dynamics, node_ids, rate_mbps, None)
    if uniforms is None:
        raise ValueError("a Gilbert-Elliott spec needs its uniform block")
    u = _check_block(dynamics, len(node_ids), uniforms, "uniform")
    first = min(FIRST_SLOTS, dynamics.horizon_slots)
    rest = process.transition_codes(u[first:])
    pending = partial(np.asarray, rest) if len(rest) else None
    return _trajectory(dynamics, node_ids, rate_mbps, process.evolve_states(u[:first]), pending)


def trajectory_from_states(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    states: np.ndarray | None,
) -> LinkStateTrajectory:
    """Build a lane's trajectory from evolved boolean states (``True`` = bad).

    ``states`` has shape ``(horizon_slots, n*(n-1))`` in canonical
    :func:`link_order` (``None`` for grid-only specs); every slot is
    decoded already, so each read returns exactly the given state.
    """
    if dynamics.gilbert_elliott is None or states is None:
        return _trajectory(dynamics, node_ids, rate_mbps, None)
    states = _check_block(dynamics, len(node_ids), states, "state").astype(bool, copy=False)
    return _trajectory(dynamics, node_ids, rate_mbps, states)


def _redraw_codes(
    process: GilbertElliott, kind: type, state: dict, shape: tuple[int, int]
) -> np.ndarray:
    """Transition codes of a block re-drawn from a saved bit-generator state."""
    bit_generator = kind(0)
    bit_generator.state = state
    return process.transition_codes(np.random.Generator(bit_generator).random(shape))


def materialise_trajectory(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    rng: np.random.Generator | None,
) -> LinkStateTrajectory:
    """Draw one lane's trajectory in its sequential stream position.

    The draw comes from ``rng`` (the *lane's* generator — state
    trajectories are keyed off the lane exactly like forwarding draws);
    grid-only specs draw nothing.  The first :data:`FIRST_SLOTS` rows of
    the ``(horizon_slots, n_links)`` block are drawn and decoded now.  For
    the rest, the generator's state is saved and the generator is advanced
    past them, which leaves it exactly where drawing the whole block
    would; the saved state re-draws them if a read ever reaches them.
    Bit generators that cannot advance by draws draw the whole block now.
    """
    process = dynamics.gilbert_elliott
    if process is None:
        return _trajectory(dynamics, node_ids, rate_mbps, None)
    rng = require_rng(rng, "materialise_trajectory")
    n_nodes = len(node_ids)
    n_links = n_nodes * (n_nodes - 1)
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, _ADVANCE_BY_DRAWS):
        uniforms = dynamics.draw_state_uniforms(rng, n_links)
        return trajectory_from_uniforms(dynamics, node_ids, rate_mbps, uniforms)
    first = min(FIRST_SLOTS, dynamics.horizon_slots)
    states = process.evolve_states(rng.random((first, n_links)))
    rest = (dynamics.horizon_slots - first, n_links)
    pending = None
    if rest[0]:
        saved = bit_generator.state
        bit_generator.advance(rest[0] * n_links)
        if saved["has_uint32"]:  # advancing drops a pending 32-bit half
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = saved["has_uint32"], saved["uinteger"]
            bit_generator.state = state
        pending = partial(_redraw_codes, process, type(bit_generator), saved, rest)
    return _trajectory(dynamics, node_ids, rate_mbps, states, pending)
