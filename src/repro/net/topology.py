"""Testbed topology: node placement, link SNR profiles, delivery probabilities.

The paper's evaluation runs on a ~20-node indoor office testbed (Fig. 11)
with walls and metal cabinets producing a wide spread of link qualities.
:class:`Testbed` reproduces that setting statistically: nodes are placed on
a floor plan, large-scale SNR comes from a log-distance path-loss model with
shadowing, small-scale frequency selectivity from per-link multipath
realisations, and every directed link exposes a per-subcarrier SNR profile
from which delivery probabilities are derived (see
:mod:`repro.analysis.error_models`).

Joint (SourceSync) transmissions from several senders combine their
per-subcarrier SNRs; the extra cyclic-prefix overhead required to absorb
residual misalignment at multiple receivers (§4.6) is charged as airtime,
not as an SNR penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from repro.analysis.error_models import (
    combined_subcarrier_snr,
    combined_subcarrier_snr_batch,
    delivery_probabilities,
    delivery_probability,
)
from repro.analysis.snr import subcarrier_snr_profile
from repro.channel.awgn import db_to_linear, linear_to_db
from repro.channel.multipath import DEFAULT_PROFILE, MultipathProfile, rayleigh_taps_batch
from repro.channel.propagation import PathLossModel, propagation_delay_samples
from repro.net.node import MeshNode
from repro.phy.params import OFDMParams, DEFAULT_PARAMS
from repro.phy.rates import Rate, rate_for_mbps
from repro.rng import require_rng

__all__ = ["Testbed", "prime_delivery_caches"]

_T = TypeVar("_T")


@dataclass
class Testbed:
    """A set of nodes with pairwise link models.

    Parameters
    ----------
    nodes:
        The nodes of the testbed.
    path_loss:
        Large-scale propagation model.
    multipath_profile:
        Small-scale fading statistics shared by all links.
    params:
        OFDM numerology.
    rng:
        Random source for shadowing and fading realisations (the draws are
        cached per link so the testbed is static once created, like a real
        deployment during one experiment).  Required: a testbed never mints
        its own entropy, so seeded runs stay bit-identical.
    """

    #: Tell pytest this (public, "Test"-prefixed) class is not a test case.
    __test__ = False

    nodes: list[MeshNode]
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    multipath_profile: MultipathProfile = DEFAULT_PROFILE
    params: OFDMParams = DEFAULT_PARAMS
    rng: np.random.Generator | None = None
    _snr_cache: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)
    _profile_cache: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)
    # Delivery probabilities are pure functions of the cached link profiles,
    # so they are memoised too: the per-packet Monte-Carlo loops of the
    # last-hop and mesh experiments ask for the same (senders, dst, rate,
    # length) combination thousands of times.
    _delivery_cache: dict[tuple, float] = field(default_factory=dict, repr=False)
    # Derived state behind :meth:`memo` (ETX graphs, forwarder orders,
    # routes, dense delivery tables), which every scheme of a topology
    # would otherwise recompute from the same static link profiles.
    _routing_cache: dict[tuple, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len({node.node_id for node in self.nodes}) != len(self.nodes):
            raise ValueError("node ids must be unique")
        self.rng = require_rng(self.rng, "Testbed")
        self._by_id = {node.node_id: node for node in self.nodes}
        #: node id -> row/column index of the dense delivery matrices.
        self._node_index = {node.node_id: i for i, node in enumerate(self.nodes)}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        n_nodes: int,
        rng: np.random.Generator | None = None,
        area_m: float = 60.0,
        path_loss: PathLossModel | None = None,
        multipath_profile: MultipathProfile = DEFAULT_PROFILE,
        params: OFDMParams = DEFAULT_PARAMS,
    ) -> "Testbed":
        """Place ``n_nodes`` uniformly at random in a square area."""
        rng = require_rng(rng, "Testbed.random")
        nodes = [MeshNode.random(i, rng, area_m) for i in range(n_nodes)]
        return cls(
            nodes=nodes,
            path_loss=path_loss if path_loss is not None else PathLossModel(),
            multipath_profile=multipath_profile,
            params=params,
            rng=rng,
        )

    @classmethod
    def from_positions(
        cls,
        positions: list[tuple[float, float]],
        rng: np.random.Generator | None = None,
        **kwargs,
    ) -> "Testbed":
        """Build a testbed from explicit node positions."""
        rng = require_rng(rng, "Testbed.from_positions")
        nodes = [MeshNode(i, x, y) for i, (x, y) in enumerate(positions)]
        return cls(nodes=nodes, rng=rng, **kwargs)

    # ------------------------------------------------------------------
    # Node / link accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> MeshNode:
        """Look up a node by id."""
        return self._by_id[node_id]

    @property
    def node_ids(self) -> list[int]:
        """All node identifiers."""
        return [node.node_id for node in self.nodes]

    def link_average_snr_db(self, src: int, dst: int) -> float:
        """Average SNR of the (undirected) link between two nodes.

        The large-scale SNR (path loss + shadowing) is reciprocal; it is
        drawn once per node pair and cached.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        key = (min(src, dst), max(src, dst))
        if key not in self._snr_cache:
            distance = self.node(src).distance_to(self.node(dst))
            self._snr_cache[key] = self.path_loss.snr_db(distance, rng=self.rng)
        return self._snr_cache[key]

    def link_profile(self, src: int, dst: int) -> np.ndarray:
        """Per-subcarrier SNR profile (dB) of the directed link ``src -> dst``.

        Each direction gets its own small-scale fading realisation, cached so
        repeated queries describe the same static channel.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        key = (src, dst)
        if key not in self._profile_cache:
            self._profile_cache[key] = subcarrier_snr_profile(
                self.link_average_snr_db(src, dst),
                rng=self.rng,
                profile=self.multipath_profile,
                params=self.params,
            )
        return self._profile_cache[key]

    def link_delay_samples(self, src: int, dst: int) -> float:
        """One-way propagation delay of a link in baseband samples."""
        distance = self.node(src).distance_to(self.node(dst))
        return propagation_delay_samples(distance, self.params.bandwidth_hz)

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The value memoised under ``key``, built by ``build()`` on first use.

        For state derived from the testbed's static links (ETX graphs,
        forwarder orders, routes, delivery tables): every routing scheme
        simulated over one topology shares one copy.  Keys are tuples whose
        first item names the kind of entry.
        """
        cache = self._routing_cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    # ------------------------------------------------------------------
    # Delivery probabilities
    # ------------------------------------------------------------------
    def delivery_probability(
        self,
        src: int,
        dst: int,
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> float:
        """Probability that a single-sender packet on ``src -> dst`` is received.

        Memoised per (link, rate, payload length): link profiles are static
        for the lifetime of the testbed, so the EESM computation only runs
        once per combination.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        key = (src, dst, rate_obj.mbps, payload_bytes)
        if key not in self._delivery_cache:
            self._delivery_cache[key] = delivery_probability(
                self.link_profile(src, dst), rate_obj, payload_bytes
            )
        return self._delivery_cache[key]

    def joint_delivery_probability(
        self,
        senders: list[int],
        dst: int,
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> float:
        """Delivery probability of a SourceSync joint transmission.

        The per-subcarrier SNRs of the participating senders add (the Smart
        Combiner's ``sum_i |H_i|^2`` gain), so the joint link is both
        stronger and flatter than any individual link.
        """
        if not senders:
            raise ValueError("need at least one sender")
        if dst in senders:
            raise ValueError("destination cannot also be a sender")
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        # The combined SNR is a sum over senders, so permutations of the
        # same sender set share one cache entry.
        key = (tuple(sorted(senders)), dst, rate_obj.mbps, payload_bytes)
        if key not in self._delivery_cache:
            profiles = [self.link_profile(s, dst) for s in senders]
            combined = combined_subcarrier_snr(profiles)
            self._delivery_cache[key] = delivery_probability(combined, rate_obj, payload_bytes)
        return self._delivery_cache[key]

    def _unprimed_pairs(self, rate_obj: Rate, payload_bytes: int) -> list[tuple[int, int]]:
        """Directed pairs whose delivery probability is not yet cached.

        The nested (src, dst) iteration order is the canonical order in
        which lazy shadowing/fading draws consume the testbed generator;
        :func:`prime_delivery_caches` walks pairs in exactly this order so
        seeded link realisations are stable.
        """
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for src in self.node_ids:
            for dst in self.node_ids:
                if src == dst:
                    continue
                for a, b in ((src, dst), (dst, src)):
                    key = (a, b, rate_obj.mbps, payload_bytes)
                    if key not in self._delivery_cache and (a, b) not in seen:
                        seen.add((a, b))
                        pairs.append((a, b))
        return pairs

    def prime_delivery_cache(self, rate: Rate | float, payload_bytes: int = 1460) -> None:
        """Evaluate every directed link's delivery probability on this testbed.

        The single-testbed form of :func:`prime_delivery_caches`, which does
        the work; the dense matrix and the ETX graph prime through it, and
        perfbench's ``net.delivery_s`` span times it by this name.
        """
        prime_delivery_caches([self], rate, payload_bytes)

    def delivery_prob_matrix(self, rate: Rate | float, payload_bytes: int = 1460) -> np.ndarray:
        """Dense pairwise single-sender delivery probabilities.

        Returns an ``(n_nodes, n_nodes)`` array indexed by node *position*
        in :attr:`nodes`, with zeros on the diagonal.  The matrix is
        assembled from the scalar delivery cache after one
        :meth:`prime_delivery_cache` pass, so its entries are bit-identical
        to per-pair :meth:`delivery_probability` calls; :meth:`delivery_probs`
        gathers from it instead of hashing tuple keys per attempt.

        Building the matrix materialises any missing link profile (lazy
        generator draws, in the canonical all-pairs order) — callers that
        need draw-order stability should only invoke it once every profile
        exists, e.g. after :func:`repro.net.etx.etx_graph` primed the
        testbed.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)

        def build() -> np.ndarray:
            self.prime_delivery_cache(rate_obj, payload_bytes)
            n = len(self.nodes)
            matrix = np.zeros((n, n), dtype=np.float64)
            for a in self.node_ids:
                for b in self.node_ids:
                    if a == b:
                        continue
                    matrix[self._node_index[a], self._node_index[b]] = self._delivery_cache[
                        (a, b, rate_obj.mbps, payload_bytes)
                    ]
            return matrix

        return self.memo(("delivery_matrix", rate_obj.mbps, payload_bytes), build)

    def joint_delivery_prob_row(
        self,
        senders: list[int] | tuple[int, ...],
        receivers: list[int],
        rate: Rate | float,
        payload_bytes: int = 1460,
    ) -> np.ndarray:
        """Joint delivery probabilities of one sender set towards many receivers.

        The per-receiver values live in a row table keyed by the *frozen*
        sender set.  Missing entries are filled in one batched
        combine-and-EESM pass over the outstanding receivers, accumulating
        the senders' linear SNRs in the caller's sender order — bit-identical
        to scalar :meth:`joint_delivery_probability` calls made in the same
        order, whose memo this row table also reads and writes.  Subsequent
        lookups are plain array gathers.

        Like the scalar path, filling an entry touches the senders' link
        profiles; callers needing draw-order stability should only ask for
        links whose profiles are already materialised.
        """
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        sorted_senders = tuple(sorted(senders))
        row = self.memo(("joint_row", sorted_senders, rate_obj.mbps, payload_bytes), dict)
        missing = [dst for dst in receivers if dst not in row]
        if missing:
            fresh = []
            for dst in missing:
                cache_key = (sorted_senders, dst, rate_obj.mbps, payload_bytes)
                cached = self._delivery_cache.get(cache_key)
                if cached is not None:
                    row[dst] = cached
                else:
                    fresh.append(dst)
            if fresh:
                profiles = np.stack(
                    [[self.link_profile(s, dst) for dst in fresh] for s in senders]
                )
                combined = combined_subcarrier_snr_batch(profiles)
                probs = delivery_probabilities(combined, rate_obj, payload_bytes)
                for dst, prob in zip(fresh, probs):
                    value = float(prob)
                    row[dst] = value
                    self._delivery_cache[(sorted_senders, dst, rate_obj.mbps, payload_bytes)] = value
        out = np.empty(len(receivers), dtype=np.float64)
        for k, dst in enumerate(receivers):
            out[k] = row[dst]
        return out

    def delivery_prob(
        self, senders: list[int] | int, dst: int, rate: Rate | float, payload_bytes: int
    ) -> float:
        """Delivery probability of one (possibly joint) transmission to ``dst``.

        ``senders`` is a node id or a list of them; a one-element list is a
        single-sender transmission.
        """
        if isinstance(senders, int):
            return self.delivery_probability(senders, dst, rate, payload_bytes)
        if len(senders) == 1:
            return self.delivery_probability(senders[0], dst, rate, payload_bytes)
        return self.joint_delivery_probability(list(senders), dst, rate, payload_bytes)

    def delivery_probs(
        self,
        senders: list[int] | int,
        receivers: list[int],
        rate: Rate | float,
        payload_bytes: int,
    ) -> np.ndarray:
        """Delivery probabilities of one transmission towards many receivers.

        Single-sender probabilities gather from the dense
        :meth:`delivery_prob_matrix` when it has been built (falling back to
        the scalar cache so lazily-constructed testbeds keep their draw
        order); joint probabilities come from the frozen-sender-set row
        table of :meth:`joint_delivery_prob_row`.
        """
        if isinstance(senders, int):
            sender: int | None = senders
        elif len(senders) == 1:
            sender = senders[0]
        else:
            sender = None
        if sender is None:
            return self.joint_delivery_prob_row(list(senders), receivers, rate, payload_bytes)
        rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
        matrix = self._routing_cache.get(("delivery_matrix", rate_obj.mbps, payload_bytes))
        if matrix is not None:
            idx = self._node_index
            return matrix[idx[sender], [idx[node] for node in receivers]]
        return np.array(
            [self.delivery_probability(sender, node, rate_obj, payload_bytes) for node in receivers]
        )

    def loss_rate(self, src: int, dst: int, probe_rate_mbps: float = 6.0, probe_bytes: int = 1460) -> float:
        """Link loss rate as measured by routing-layer probes (for ETX)."""
        return 1.0 - self.delivery_probability(src, dst, probe_rate_mbps, probe_bytes)

    def attempt_delivery(
        self,
        senders: list[int] | int,
        dst: int,
        rate: Rate | float,
        payload_bytes: int,
        rng: np.random.Generator | None = None,
    ) -> bool:
        """Draw one Bernoulli delivery outcome for a (possibly joint) transmission."""
        rng = rng if rng is not None else self.rng
        prob = self.delivery_prob(senders, dst, rate, payload_bytes)
        return bool(rng.random() < prob)


def prime_delivery_caches(
    testbeds: list[Testbed], rate: Rate | float, payload_bytes: int = 1460
) -> None:
    """Evaluate every directed link's delivery probability on each testbed.

    Only the *draws* stay per testbed: each generator is consumed in the
    canonical all-pairs order (shadowing, then tap gains, per directed
    link), exactly as a lazy walk of :meth:`Testbed.link_profile` and
    :meth:`Testbed.delivery_probability` over the same pairs would.  The
    pure compute is stacked across the whole list: one
    tap-normalisation/FFT pass and one EESM/waterfall pass over all
    outstanding links of all testbeds.  The cached profiles and
    probabilities are bit-identical to the lazy walk's (row-wise FFTs and
    reductions match their 1-D counterparts).

    Memoised per testbed and (rate, payload length): a testbed primed by an
    earlier call, or listed twice, is skipped.
    """
    rate_obj = rate if isinstance(rate, Rate) else rate_for_mbps(rate)
    done_key = ("delivery_primed", rate_obj.mbps, payload_bytes)
    # Dedupe by identity, keeping first-listed order: collecting a testbed
    # twice before its profiles are stored would re-draw its link
    # realisations and corrupt its generator.
    fresh = list(
        {id(tb): tb for tb in testbeds if done_key not in tb._routing_cache}.values()
    )

    # (testbed, (a, b)) rows needing a fresh fading realisation, grouped by
    # compute shape so heterogeneous ensembles stack safely.
    draw_groups: dict[tuple, list[tuple[Testbed, tuple[int, int], np.ndarray, float]]] = {}
    eesm_groups: dict[int, list[tuple[Testbed, tuple[int, int], np.ndarray]]] = {}
    for testbed in fresh:
        rayleigh = not np.isfinite(testbed.multipath_profile.k_factor_db)
        n_taps = testbed.multipath_profile.n_taps
        for a, b in testbed._unprimed_pairs(rate_obj, payload_bytes):
            profile = testbed._profile_cache.get((a, b))
            if profile is not None:
                eesm_groups.setdefault(profile.size, []).append((testbed, (a, b), profile))
                continue
            average_snr = testbed.link_average_snr_db(a, b)  # shadowing draw, cached
            if rayleigh:
                # Draw-only fast path: the Gaussian draw is the whole RNG
                # consumption of rayleigh_taps_batch for Rayleigh profiles;
                # the power-delay scaling is deferred to the stacked pass.
                taps = testbed.rng.normal(size=(2, n_taps))
            else:
                taps = rayleigh_taps_batch(testbed.multipath_profile, 1, testbed.rng)[0]
            group = (rayleigh, n_taps, testbed.multipath_profile, testbed.params)
            draw_groups.setdefault(group, []).append((testbed, (a, b), taps, average_snr))

    for (rayleigh, n_taps, multipath_profile, params), rows in draw_groups.items():
        if rayleigh:
            draws = np.stack([row[2] for row in rows])
            scattered = (draws[:, 0, :] + 1j * draws[:, 1, :]) / np.sqrt(2.0)
            taps = scattered * np.sqrt(multipath_profile.tap_powers())
        else:
            taps = np.stack([row[2] for row in rows])
        average = np.array([row[3] for row in rows], dtype=np.float64)
        # Mirrors MultipathChannel.normalized + subcarrier_snr_profile,
        # row-stacked: unit-power taps, frequency response on the occupied
        # bins, mean-normalised gains scaled to the target average SNR.
        power = np.sum(np.abs(taps) ** 2, axis=1)
        response = np.fft.fft(taps / np.sqrt(power)[:, None], params.n_fft, axis=-1)
        # ascontiguousarray: the fancy-indexed bin selection is strided, and
        # the row means' pairwise-summation blocking (and hence the last
        # ulp) matches the scalar path only on contiguous rows.
        gains = np.abs(np.ascontiguousarray(response[:, params.occupied_bins()])) ** 2
        gains = gains / np.mean(gains, axis=1)[:, None]
        # The SNR scale must go through the scalar power path: numpy's
        # vectorised 10**x can differ from the 0-d case by one ulp.
        scale = np.array([db_to_linear(snr_db) for snr_db in average.tolist()])
        profiles = np.asarray(linear_to_db(gains * scale[:, None]))
        for (testbed, pair, _, _), profile in zip(rows, profiles):
            testbed._profile_cache[pair] = profile
            eesm_groups.setdefault(profile.size, []).append((testbed, pair, profile))

    for rows in eesm_groups.values():
        probs = delivery_probabilities(np.stack([row[2] for row in rows]), rate_obj, payload_bytes)
        for (testbed, (a, b), _), prob in zip(rows, probs):
            testbed._delivery_cache[(a, b, rate_obj.mbps, payload_bytes)] = float(prob)
    # Flagged only once every cache entry exists, so a pass that raises
    # part-way leaves no testbed marked primed.
    for testbed in fresh:
        testbed._routing_cache[done_key] = True
