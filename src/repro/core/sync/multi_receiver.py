"""Wait-time optimisation for synchronization at multiple receivers (§4.6).

With a single receiver, wait times can align all senders perfectly.  With
several receivers (the opportunistic-routing case), propagation-delay
differences generally make perfect simultaneous alignment impossible
(Fig. 8 of the paper).  SourceSync instead chooses co-sender wait times that
minimise the *maximum pair-wise misalignment* over all receivers, and
increases the cyclic prefix of the joint frame by that residual
misalignment.

The optimisation is a small linear program: minimise ``m`` subject to

``|(w_i + t_ik) - T_k| <= m``            for every co-sender i, receiver k
``|(w_i + t_ik) - (w_j + t_jk)| <= m``   for every co-sender pair i,j, receiver k

which we solve with :func:`scipy.optimize.linprog`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.params import OFDMParams, DEFAULT_PARAMS

__all__ = ["WaitTimeSolution", "optimize_wait_times", "misalignment_matrix", "required_cp_increase"]


@dataclass(frozen=True)
class WaitTimeSolution:
    """Result of the multi-receiver wait-time linear program.

    Attributes
    ----------
    wait_times:
        Optimal wait time ``w_i`` (samples, relative to the global time
        reference) for each co-sender.
    max_misalignment:
        The minimised maximum pair-wise misalignment (samples) over all
        receivers and sender pairs.
    success:
        Whether the LP solver converged.
    """

    wait_times: np.ndarray
    max_misalignment: float
    success: bool

    def cp_increase_samples(self) -> int:
        """Extra CP samples needed to absorb the residual misalignment."""
        return int(np.ceil(max(self.max_misalignment, 0.0)))


def misalignment_matrix(
    wait_times: np.ndarray,
    cosender_to_receiver: np.ndarray,
    lead_to_receiver: np.ndarray,
) -> np.ndarray:
    """Pair-wise misalignment at every receiver for given wait times.

    Parameters
    ----------
    wait_times:
        Wait time per co-sender, shape ``(n_cosenders,)``.
    cosender_to_receiver:
        One-way delays ``t_ik``, shape ``(n_cosenders, n_receivers)``.
    lead_to_receiver:
        One-way delays ``T_k`` from the lead sender, shape ``(n_receivers,)``.

    Returns
    -------
    numpy.ndarray
        Misalignment of every *sender pair* (including the lead) at every
        receiver, shape ``(n_pairs, n_receivers)``.
    """
    wait_times = np.asarray(wait_times, dtype=np.float64)
    t = np.asarray(cosender_to_receiver, dtype=np.float64)
    lead = np.asarray(lead_to_receiver, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("cosender_to_receiver must be 2-D (co-senders x receivers)")
    n_co, n_rx = t.shape
    if wait_times.shape != (n_co,) or lead.shape != (n_rx,):
        raise ValueError("inconsistent shapes")
    arrivals = wait_times[:, None] + t  # arrival offset of each co-sender at each rx
    rows = []
    # co-sender vs lead
    for i in range(n_co):
        rows.append(np.abs(arrivals[i] - lead))
    # co-sender vs co-sender
    for i in range(n_co):
        for j in range(i + 1, n_co):
            rows.append(np.abs(arrivals[i] - arrivals[j]))
    return np.asarray(rows)


def optimize_wait_times(
    cosender_to_receiver: np.ndarray,
    lead_to_receiver: np.ndarray,
) -> WaitTimeSolution:
    """Solve the §4.6 linear program for co-sender wait times.

    Variables are the co-sender wait times ``w_i`` and the maximum
    misalignment ``m``; the objective minimises ``m``.
    """
    from scipy.optimize import linprog

    t = np.asarray(cosender_to_receiver, dtype=np.float64)
    lead = np.asarray(lead_to_receiver, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("cosender_to_receiver must be 2-D (co-senders x receivers)")
    n_co, n_rx = t.shape
    if lead.shape != (n_rx,):
        raise ValueError("lead_to_receiver must have one entry per receiver")
    if n_co == 0:
        return WaitTimeSolution(np.zeros(0), 0.0, True)

    # Variable vector x = [w_1 .. w_n, m]
    n_vars = n_co + 1
    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []

    def add_abs_constraint(coeffs: np.ndarray, constant: float) -> None:
        """Add |coeffs . w + constant| <= m as two linear constraints."""
        row = np.zeros(n_vars)
        row[:n_co] = coeffs
        row[-1] = -1.0
        a_ub.append(row.copy())
        b_ub.append(-constant)
        row_neg = np.zeros(n_vars)
        row_neg[:n_co] = -coeffs
        row_neg[-1] = -1.0
        a_ub.append(row_neg)
        b_ub.append(constant)

    for k in range(n_rx):
        for i in range(n_co):
            coeffs = np.zeros(n_co)
            coeffs[i] = 1.0
            add_abs_constraint(coeffs, t[i, k] - lead[k])
        for i in range(n_co):
            for j in range(i + 1, n_co):
                coeffs = np.zeros(n_co)
                coeffs[i] = 1.0
                coeffs[j] = -1.0
                add_abs_constraint(coeffs, t[i, k] - t[j, k])

    cost = np.zeros(n_vars)
    cost[-1] = 1.0
    bounds = [(None, None)] * n_co + [(0.0, None)]
    result = linprog(
        cost,
        A_ub=np.asarray(a_ub),
        b_ub=np.asarray(b_ub),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        # Fall back to the single-receiver heuristic: align at the first
        # receiver only.
        waits = lead[0] - t[:, 0]
        mis = misalignment_matrix(waits, t, lead).max() if n_rx else 0.0
        return WaitTimeSolution(waits, float(mis), False)
    waits = np.asarray(result.x[:n_co])
    return WaitTimeSolution(waits, float(result.x[-1]), True)


def required_cp_increase(
    solution: WaitTimeSolution,
    params: OFDMParams = DEFAULT_PARAMS,
) -> int:
    """Cyclic-prefix increase (in samples) the lead sender announces (§4.6).

    The lead sender communicates the new CP in the synchronization header so
    every sender uses it for the jointly transmitted data symbols.
    """
    return params.cp_samples + solution.cp_increase_samples()
