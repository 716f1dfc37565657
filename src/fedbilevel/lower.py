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
from .problems import BilevelProblem, Point
from .quadratic import QuadraticInstance
from .rng import RngStream
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
        taus = self.tau if isinstance(self.tau, Sequence) else (self.tau,)
        if any(t < 1 for t in taus):
            raise ParameterError("every tau_i must be >= 1")

    def tau_for(self, client: int) -> int:
        if isinstance(self.tau, Sequence):
            return int(self.tau[client])
        return int(self.tau)


def one_round_lower(problem: BilevelProblem, x: np.ndarray, y: np.ndarray,
                    q: np.ndarray, cfg: LowerStepConfig,
                    participants: Sequence[int], rng: RngStream,
                    ledger: CommLedger) -> np.ndarray:
    """One composed local phase; returns the participant mean of y_tau^i.

    q must be the aggregated global lower gradient at (x, y) from the same
    outer step. Charges exactly one round (the iterate aggregation).
    """
    results = {}
    for i in participants:
        tau_i = cfg.tau_for(i)
        beta_i = cfg.beta / tau_i
        y_i = y
        for v in range(tau_i):
            lane = rng.child(i, "zeta", v)
            step = problem.grad_lower_y(i, Point(x, y_i), lane)
            if cfg.variant == VARIANT_SVRG:
                step = step - problem.grad_lower_y(i, Point(x, y), lane) + q
            y_i = y_i - beta_i * step
        results[i] = y_i
    return aggregate_mean(results, ledger)


def lower_gap(inst: QuadraticInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Squared distance ||y - y*(x)||^2 against the closed-form minimizer."""
    if not isinstance(inst, QuadraticInstance):
        raise UnsupportedProblemError("lower_gap needs a quadratic instance")
    r = y - inst.y_star(x)
    return float(r @ r)
