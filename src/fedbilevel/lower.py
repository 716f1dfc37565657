"""Variance-reduced federated lower-level step (One-Round-Lower).

Given the aggregated global lower gradient q at (x, y), each participating
client runs tau_i corrected local steps from y with stepsize beta/tau_i:

    q_v = grad G_i(x, y_v; zeta_v) - grad G_i(x, y; zeta_v) + q      (svrg)
    q_v = grad G_i(x, y_v; zeta_v)                                   (sgd)

using the SAME sample zeta_v for both evaluations of the correction; that
shared sample is what makes the correction variance-reducing. The server then
averages the client iterates, which costs one communication round. The
gradient aggregation that produced q is charged by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, UnsupportedProblemError
from .problems import BilevelProblem
from .quadratic import QuadraticInstance
from .rng import CLIENT, LaneTable, RngStream, TableStream
from .runtime import CommLedger, aggregate_mean

VARIANT_SVRG = "svrg"
VARIANT_SGD = "sgd"


@dataclass(frozen=True)
class LowerStepConfig:
    """Global stepsize beta and per-client local step counts tau_i.

    The effective local stepsize is beta/tau_i. When used inside the fused
    estimator, beta must also satisfy beta <= min{1, lambda, 1/(6 L_g)}; that
    cap is enforced at the estimator boundary where lambda is known.
    """

    beta: float
    tau: int | Sequence[int] = 1
    variant: str = VARIANT_SVRG

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError("beta must be positive")
        if self.variant not in (VARIANT_SVRG, VARIANT_SGD):
            raise ParameterError(f"unknown lower variant {self.variant!r}")
        client_taus(self.tau, np.arange(0))  # checks every tau_i is an integer >= 1


def client_taus(tau: int | Sequence[int], ids: np.ndarray, m: int | None = None) -> np.ndarray:
    """tau_i for each client id: its entry of a per-client list, or the shared
    count. Raises ParameterError if any tau_i, listed or shared, is not an
    integer >= 1 (bools are not counts), or if m, the problem's client count,
    is given and a list does not hold m entries."""
    listed = isinstance(tau, Sequence)
    if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) and t >= 1
               for t in (tau if listed else (tau,))):
        raise ParameterError(f"every tau_i must be an integer >= 1, got {tau!r}")
    if listed and m is not None and len(tau) != m:
        raise ParameterError(f"tau lists {len(tau)} local step counts for {m} clients")
    return np.asarray(tau, dtype=int)[ids] if listed else np.full(ids.shape, int(tau))


def lower_lanes(max_tau: int, *prefix) -> list:
    """The lane family of One-Round-Lower under the key parts prefix: the
    lanes ``child(*prefix, i, "zeta", v)`` for every local step v < max_tau."""
    return [(*prefix, CLIENT, "zeta", range(max_tau))]


def _local_steps(taus: np.ndarray):
    """(v, rows) for each local step v: the rows of the clients with tau_i > v
    (a full slice while every client is still stepping)."""
    counts = taus.tolist()
    full = min(counts)
    for v in range(max(counts)):
        yield v, slice(None) if v < full else np.flatnonzero(taus > v)


def one_round_lower(problem: BilevelProblem, x: np.ndarray, y: np.ndarray,
                    q: np.ndarray, cfg: LowerStepConfig,
                    participants: Sequence[int], rng: RngStream | TableStream,
                    ledger: CommLedger) -> np.ndarray:
    """One composed local phase; returns the participant mean of y_tau^i.

    q must be the aggregated global lower gradient at (x, y) from the same
    outer step. All participants step together, one batched oracle call per
    local step (two for svrg, on the same lanes and so on the same draws).
    rng is a scope stream or a lane table's step. Charges exactly one round
    (the iterate aggregation).
    """
    oracles = problem.checked(participants, x, y)
    ids = oracles.ids
    taus = client_taus(cfg.tau, ids, problem.m)
    if isinstance(rng, RngStream):
        rng = LaneTable.of(rng, lower_lanes(int(taus.max())), np.arange(problem.m)).step(0)
    betas = (cfg.beta / taus)[:, None]
    Y = np.repeat(y[None], ids.size, axis=0)
    for v, rows in _local_steps(taus):
        sub = ids[rows]
        lanes = rng.lanes(sub, "zeta", v)
        step = oracles.grad_lower_y(sub, x, Y[rows], lanes)
        if cfg.variant == VARIANT_SVRG:
            step = step - oracles.grad_lower_y(sub, x, y, lanes) + q
        Y[rows] = Y[rows] - betas[rows] * step
    return aggregate_mean(Y, ledger)


def lower_gap(inst: QuadraticInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Squared distance ||y - y*(x)||^2 against the closed-form minimizer."""
    if not isinstance(inst, QuadraticInstance):
        raise UnsupportedProblemError("lower_gap needs a quadratic instance")
    r = y - inst.y_star(x)
    return float(r @ r)
