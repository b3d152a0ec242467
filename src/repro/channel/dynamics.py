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
A lane's whole RNG consumption is *one* up-front
``rng.random((horizon_slots, n_links))`` draw from the lane's generator,
links in the canonical all-pairs order (:func:`link_order`).  The draw
sits in the lane's sequential stream position — after priming, before
the first transfer draw — so the lockstep mesh engine
(:mod:`repro.routing.ensemble`) stays bit-identical to the sequential
path: dynamics only *modulates* delivery probabilities, it never changes
how many uniforms a phase consumes or in which order.

The block is kept compact: each uniform becomes a 1-byte *transition
code* (:meth:`GilbertElliott.transition_codes`) and the slot-0 states
are kept alongside (:func:`trajectory_from_uniforms`).  A link's per-slot
multipliers are evaluated on its first read by the loop-free
:func:`states_from_codes` kernel and cached, so a transfer pays only for
the links it exercises.  The kernel is comparisons and integer ops only,
so evaluating a link alone, with other links, or over a stacked lane axis
gives the same states, and every multiplier is the same float whichever
read evaluates it first.

A transfer's *slot clock* is its transmission counter: the ``k``-th
transmission of a lane reads the trajectory at slot ``k`` (modulo the
horizon, which wraps periodically), which both the sequential simulators
and the lockstep engine track identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.rng import require_rng

__all__ = [
    "GilbertElliott",
    "LossRateGrid",
    "LinkDynamics",
    "LinkStateTrajectory",
    "link_order",
    "states_from_codes",
    "trajectory_from_uniforms",
    "trajectory_from_states",
    "materialise_trajectory",
]

#: Transition codes: bit 0 is ``u < p_good_to_bad``, bit 1 ``u < p_bad_to_good``.
_SET_BAD, _SET_GOOD, _FLIP = 1, 2, 3


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
    marks = np.arange(codes.shape[-2], dtype=np.intp)[:, None] << 1
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

    ``horizon_slots`` bounds the materialised trajectory; transfers longer
    than the horizon wrap periodically (slot ``k`` reads
    ``k % horizon_slots``).  With ``gilbert_elliott=None`` the trajectory
    consumes **no** generator draws (the grid alone is deterministic), so
    a grid-only spec leaves every existing stream untouched.
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
        """The trajectory's single uniform block — ``None`` when grid-only.

        One ``rng.random((horizon_slots, n_links))`` call, links in the
        canonical :func:`link_order`: the whole RNG consumption of a
        lane's dynamics, in one draw, exactly like the engine's merged
        forwarding draws.
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


@dataclass(frozen=True, eq=False)
class LinkStateTrajectory:
    """Per-slot delivery-probability multipliers of one lane, evaluated lazily.

    ``multipliers`` is the compact form: one 1-byte transition code per
    (slot, link), shape ``(horizon_slots, n_links)`` in canonical
    :func:`link_order`, decoded with the slot-0 ``initial`` states.
    ``levels`` holds the good, bad and self-link (1) multipliers, each
    already scaled by the grid factor; ``columns`` maps ``(src, dst)`` to
    a column (self pairs to ``n_links``, which always reads the self
    level).  A link's column of multipliers is evaluated on its first read
    and cached; slots wrap at ``horizon_slots``.  Both execution paths
    (sequential and lockstep) read through the same accessors, so
    modulated probabilities are bit-identical by construction.
    """

    horizon_slots: int
    columns: Mapping[tuple[int, int], int]
    multipliers: np.ndarray
    initial: np.ndarray
    levels: tuple[float, float, float]
    _cache: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def _columns(self, cols: list[int]) -> list[np.ndarray]:
        """Multiplier columns ``cols``, evaluating the missing ones in one scan."""
        cache = self._cache
        missing = [c for c in cols if c not in cache]
        if missing:
            good, bad, self_level = self.levels
            n_links = self.multipliers.shape[1]
            links = list(dict.fromkeys(c for c in missing if c < n_links))
            if n_links in missing:
                cache[n_links] = np.full(self.horizon_slots, self_level)
            if links:
                states = states_from_codes(self.initial[links], self.multipliers[:, links])
                cache.update(zip(links, np.where(states.T, bad, good)))
        return [cache[c] for c in cols]

    def pair_multiplier(self, slot: int, src: int, dst: int) -> float:
        """Multiplier of link ``src → dst`` at transmission slot ``slot``."""
        (column,) = self._columns([self.columns[src, dst]])
        return float(column[slot % self.horizon_slots])

    def rows(self, start_slot: int, n_slots: int, src: int, receivers: Sequence[int]) -> np.ndarray:
        """Multiplier block for consecutive slots of one sender.

        Returns ``(n_slots, len(receivers))``: row ``k`` holds the
        ``src → receiver`` multipliers at slot ``start_slot + k`` — the
        broadcast-phase shape (packet ``k`` of a wave transmits at slot
        ``start_slot + k``).
        """
        slots = (start_slot + np.arange(n_slots)) % self.horizon_slots
        columns = self._columns([self.columns[src, node] for node in receivers])
        block = np.empty((n_slots, len(columns)))
        for k, column in enumerate(columns):
            block[:, k] = column[slots]
        return block

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
        columns = self._columns([pairs[src, node] for src in senders for node in receivers])
        values = np.array([column[slot] for column in columns], dtype=np.float64)
        if len(senders) == 1:
            return values
        return values.reshape(len(senders), len(receivers)).max(axis=0)


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
    initial: np.ndarray | None,
    codes: np.ndarray | None,
) -> LinkStateTrajectory:
    """Wrap slot-0 states and transition codes with the lane's level table.

    The grid factor is a scalar per lane (every link transmits at the
    lane's rate), applied after the state multipliers.  Without codes
    (grid-only specs) every link keeps the good state at multiplier 1.
    """
    columns = _pair_columns(tuple(node_ids))
    levels = (1.0, 1.0, 1.0)
    if codes is None:
        n_links = len(columns) - len(node_ids)
        initial = np.zeros(n_links, dtype=bool)
        codes = np.zeros((dynamics.horizon_slots, n_links), dtype=np.uint8)
    else:
        process = dynamics.gilbert_elliott
        levels = (process.good_multiplier, process.bad_multiplier, 1.0)
    if dynamics.grid is not None:
        factor = 1.0 - dynamics.grid.loss_rate_for(rate_mbps)
        levels = tuple(level * factor for level in levels)
    return LinkStateTrajectory(
        horizon_slots=dynamics.horizon_slots,
        columns=columns,
        multipliers=codes,
        initial=initial,
        levels=levels,
    )


def trajectory_from_uniforms(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    uniforms: np.ndarray | None,
) -> LinkStateTrajectory:
    """Build a lane's trajectory from its pre-drawn uniform block.

    ``uniforms`` is the block :meth:`LinkDynamics.draw_state_uniforms`
    returned for this lane, shape ``(horizon_slots, n*(n-1))`` (``None``
    for grid-only specs).  Only its transition codes and slot-0 states
    are kept; to build a trajectory from already-evolved boolean states
    use :func:`trajectory_from_states`.
    """
    process = dynamics.gilbert_elliott
    if process is None:
        return _trajectory(dynamics, node_ids, rate_mbps, None, None)
    if uniforms is None:
        raise ValueError("a Gilbert-Elliott spec needs its uniform block")
    u = _check_block(dynamics, len(node_ids), uniforms, "uniform")
    initial = u[0] < process.stationary_bad_fraction()
    return _trajectory(dynamics, node_ids, rate_mbps, initial, process.transition_codes(u))


def trajectory_from_states(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    states: np.ndarray | None,
) -> LinkStateTrajectory:
    """Build a lane's trajectory from evolved boolean states (``True`` = bad).

    ``states`` has shape ``(horizon_slots, n*(n-1))`` in canonical
    :func:`link_order` (``None`` for grid-only specs).  Each slot is
    stored as a set-bad or set-good code, so every read decodes to
    exactly the given state.
    """
    if dynamics.gilbert_elliott is None or states is None:
        return _trajectory(dynamics, node_ids, rate_mbps, None, None)
    states = _check_block(dynamics, len(node_ids), states, "state").astype(bool, copy=False)
    codes = np.where(states, np.uint8(_SET_BAD), np.uint8(_SET_GOOD))
    return _trajectory(dynamics, node_ids, rate_mbps, states[0].copy(), codes)


def materialise_trajectory(
    dynamics: LinkDynamics,
    node_ids: Sequence[int],
    rate_mbps: float,
    rng: np.random.Generator | None,
) -> LinkStateTrajectory:
    """Draw one lane's trajectory in its sequential stream position.

    The single uniform draw comes from ``rng`` (the *lane's* generator —
    state trajectories are keyed off the lane exactly like forwarding
    draws); grid-only specs draw nothing.
    """
    uniforms = None
    if dynamics.gilbert_elliott is not None:
        rng = require_rng(rng, "materialise_trajectory")
        n_nodes = len(node_ids)
        uniforms = dynamics.draw_state_uniforms(rng, n_nodes * (n_nodes - 1))
    return trajectory_from_uniforms(dynamics, node_ids, rate_mbps, uniforms)
