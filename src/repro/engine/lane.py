"""The lane protocol shared by every lockstep ensemble engine.

A *lane* is one independent unit of seeded simulation work — a mesh
transfer, a downlink stream, a joint-frame session, an experiment trial —
that a :class:`~repro.engine.scheduler.LockstepScheduler` advances next to
many others.  The engines that used to reimplement this contract privately
(:mod:`repro.experiments.batch`, :mod:`repro.core.ensemble`,
:mod:`repro.routing.ensemble`) now all express their work as subclasses of
:class:`Lane` and delegate scheduling, chain resolution and sharding to
the scheduler.

The contract every subclass must honour:

* **Generator ownership** — each lane owns ``rng`` and every one of its
  draws comes from it in exactly the order the lane's sequential
  simulation would make them.  Two lanes may share one generator only
  when *chained* (``after=``): the successor performs no draw until its
  predecessor has fully finished, so the shared stream is consumed in
  sequential order.  Classes whose lanes always run to completion in
  input order (so unchained sharing is naturally sequential) may opt out
  of chain enforcement with ``enforce_generator_chains = False``.
* **Lifecycle** — the scheduler drives each lane through
  ``prime -> setup -> advance* -> result``: :meth:`prime` performs any
  pre-setup priming draws (batched across root lanes via
  :meth:`prime_lanes`; called per lane at activation for chained lanes),
  :meth:`setup` builds execution state and runs the lane's opening phase,
  :meth:`advance` runs one lockstep round, :attr:`finished` reports
  completion, and :meth:`result` — which may still draw (e.g. a cleanup
  phase) — produces the lane's output.  :meth:`result` is terminal: the
  scheduler calls it exactly once and then reads nothing more on the lane
  (not even :attr:`finished`), so a lane may release its execution state
  there while chained lanes of the same call still run.
* **Stacked classes** — classes that advance all live lanes as one
  stacked array operation set ``stacked = True`` and override
  :meth:`advance_lanes`; the scheduler then calls that once per wave (in
  ascending lane order) instead of looping :meth:`advance`, and
  processes finishes in ascending lane order (the stacked arrays define
  the wave order).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Lane"]


class Lane:
    """Base class of the lockstep lane protocol (see module docstring).

    Subclasses must set :attr:`rng` (and :attr:`after` when chained) —
    typically in ``__init__`` — and implement :meth:`setup`,
    :meth:`advance` (unless every lane completes during setup),
    :attr:`finished` and :meth:`result`.
    """

    #: True when :meth:`advance_lanes` advances the whole live group as one
    #: stacked operation; False when the scheduler loops :meth:`advance`
    #: per lane (with immediate finish processing between lanes).
    stacked: bool = False

    #: When False, the scheduler skips the shared-generator chaining check
    #: for ensembles made solely of such lanes (their execution is
    #: naturally sequential, so unchained sharing cannot reorder draws).
    enforce_generator_chains: bool = True

    #: The generator this lane owns; every draw of the lane comes from it.
    rng: np.random.Generator

    #: Lane this one is chained behind (None for a root lane).
    after: "Lane | None" = None

    @classmethod
    def prime_lanes(cls, lanes: list["Lane"]) -> None:
        """Prime the given *root* lanes before any of them runs setup.

        Engines override this to batch cross-lane priming compute (cache
        materialisation, stacked EESM passes, trajectory evolution) while
        keeping each lane's priming draws on its own generator in input
        order.  The default simply primes each lane in turn.
        """
        for lane in lanes:
            lane.prime()

    def prime(self) -> None:
        """Per-lane priming draws, in this lane's sequential stream position.

        Called by the default :meth:`prime_lanes` for root lanes and — the
        important case — at *activation* for chained lanes, i.e. right
        after the predecessor's final draw, exactly where the sequential
        code would prime.  Default: nothing to prime.
        """

    def setup(self) -> None:
        """Build execution state and run the lane's opening phase.

        May draw, and may complete the lane outright (run-to-completion
        lanes do all their work here); the scheduler checks
        :attr:`finished` immediately afterwards.  Default: nothing.
        """

    def advance(self) -> None:
        """Run one lockstep round of this lane (per-lane classes only)."""
        raise NotImplementedError

    @classmethod
    def advance_lanes(cls, lanes: list["Lane"]) -> None:
        """Advance every given live lane by one wave.

        Stacked classes (``stacked = True``) override this with one
        stacked array operation over the group; the default loops
        :meth:`advance`.
        """
        for lane in lanes:
            lane.advance()

    @property
    def finished(self) -> bool:
        """Whether the lane has completed all of its rounds."""
        raise NotImplementedError

    def result(self):
        """Produce the lane's output (may draw, e.g. a cleanup phase).

        Called once, last; the lane may drop its execution state here.
        """
        return None

    def draw(self, n: int) -> np.ndarray:
        """The protocol's draw primitive: ``n`` uniforms from the lane's stream."""
        return self.rng.random(n)
