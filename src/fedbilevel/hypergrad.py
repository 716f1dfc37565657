"""Federated hypergradient estimators.

Three estimators of the hypergradient of f(x) = mean_i f_i(x, y*(x)):

* ``aggitd`` -- the fused estimator. A single loop over t = 0..N both runs the
  federated lower-level updates and builds the Hessian-inverse-vector chain,
  seeding the chain at a uniformly random iterate index Q and piggybacking the
  chain payloads on the gradient rounds. Costs 2N+2 rounds (the upper round
  elsewhere completes 2N+3 per outer iteration).
* ``aid_fhe`` -- the two-loop baseline: a Neumann chain of T rounds at the
  finished lower iterate y^N, of which only a uniformly random prefix of
  length T' is read and computed; the rounds past it are charged, samples
  included, without a payload. Costs T+2 rounds beyond the caller's 2N.
* ``local_fhe`` -- each client builds its Hessian-inverse-vector product from
  its own curvature and upper gradient only; one round for the final average.
  Biased under heterogeneity, which is exactly what it is here to demonstrate.

All three take (problem, x, y, cfg, participants, rng, ledger), as
``BilevelProblem.entry`` reads them; the baselines share ``AidConfig(lam, T)``.
The exact conditional means of these estimators on quadratic instances
(``expected_*``) are independent references, in ``oracle``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .lower import (VARIANT_SVRG, LowerStepConfig, lower_phase_lanes, max_tau,
                    one_round_lower)
from .problems import (BilevelProblem, CheckedOracles, ProblemConstants, check_count,
                       check_positive)
from .rng import CLIENT, INDEX_RANGE, RngStream
from .runtime import CommLedger, aggregate_mean

_CAP_TOL = 1.0 + 1e-12
# the lane sets one estimator call, or one outer step of a run, may declare:
# each is hashed for every client before the first round
STEP_LANE_SETS = 1 << 16


def lambda_cap(constants: ProblemConstants) -> float:
    """The Neumann stepsize cap min{10, 1/L_g}, also the default lambda."""
    return min(10.0, 1.0 / constants.L_g)


def beta_cap(lam: float, constants: ProblemConstants) -> float:
    """The lower stepsize cap min{1, lambda, 1/(6 L_g)}, also the default beta."""
    return min(1.0, lam, 1.0 / (6.0 * constants.L_g))


def _check_lambda(lam: float, constants: ProblemConstants) -> None:
    check_positive("lam", lam)
    cap = lambda_cap(constants)
    if not lam <= cap * _CAP_TOL:
        raise ParameterError(f"lambda={lam} violates cap min{{10, 1/L_g}}={cap}")


def _check_beta(beta: float, lam: float, constants: ProblemConstants) -> None:
    check_positive("beta", beta)
    cap = beta_cap(lam, constants)
    if not beta <= cap * _CAP_TOL:
        raise ParameterError(f"beta={beta} violates cap min{{1, lambda, 1/(6 L_g)}}={cap}")


def _check_steps(problem: BilevelProblem, cfg: AggITDConfig | AidConfig) -> None:
    """cfg's lambda, and an AggITDConfig's lower beta, within the caps of the
    problem's constants, else ParameterError. The config that passed last is
    kept on the problem with those constants (``steps_passed``, by identity:
    both are frozen), so repeated calls on one config derive the caps once."""
    passed, constants = problem.steps_passed
    if passed is not cfg or constants is not problem.constants:
        _check_lambda(cfg.lam, problem.constants)
        if isinstance(cfg, AggITDConfig):
            _check_beta(cfg.lower.beta, cfg.lam, problem.constants)
        problem.steps_passed = cfg, problem.constants


def _check_lane_sets(sets: int, settings: str) -> None:
    """ParameterError naming the settings unless ``sets``, the lane sets one
    call declares under them, are within STEP_LANE_SETS: checked where the
    settings are, before any set is built (``resolve_params`` bounds a run's step)."""
    if sets > STEP_LANE_SETS:
        raise ParameterError(f"{settings} declare up to {sets} lane sets per call, "
                             f"above STEP_LANE_SETS = {STEP_LANE_SETS}")


@dataclass(frozen=True)
class AggITDConfig:
    """Neumann stepsize lambda, lower-loop length N and the lower-step config.
    A call declares at most N (max tau_i + 3) + 3 lane sets (``aggitd_lanes``),
    which must be within STEP_LANE_SETS."""

    lam: float
    N: int
    lower: LowerStepConfig

    def __post_init__(self):
        check_count("N", self.N, 0, INDEX_RANGE - 1)
        if not isinstance(self.lower, LowerStepConfig):
            raise ParameterError(f"lower must be a LowerStepConfig, got {self.lower!r}")
        tau = max_tau(self.lower.tau)
        _check_lane_sets(self.N * (tau + 3) + 3, f"N = {self.N} and tau = {tau}")


@dataclass(frozen=True)
class AidConfig:
    """The chain settings of ``aid_fhe`` and ``local_fhe``: Neumann stepsize
    lambda and chain budget T. The lower phase before the chain is the
    caller's, with its own N and ``LowerStepConfig``. A call declares T + 3
    lane sets (``chain_lanes``), which must be within STEP_LANE_SETS."""

    lam: float
    T: int

    def __post_init__(self):
        check_count("T", self.T, 1, INDEX_RANGE)
        _check_lane_sets(self.T + 3, f"T = {self.T}")


@functools.lru_cache(maxsize=256)
def aggitd_lanes(N: int, max_tau: int, variant: str = VARIANT_SVRG) -> tuple:
    """The lane sets of one fused-estimator call under its scope stream, for
    N lower steps of at most max_tau local steps. The chain's Hessian lanes
    "u" start at t = 1, the first step that reads one. Cached, like every
    lane-set declaration, on its resolved parameters."""
    return (*lower_phase_lanes(N, max_tau, variant),
            *[(CLIENT, "xi_r", t) for t in range(N + 1)],
            *[(CLIENT, "u", t) for t in range(1, N + 1)],
            (CLIENT, "xi_h"), (CLIENT, "chi"))


@functools.lru_cache(maxsize=256)
def chain_lanes(T: int, *prefix) -> tuple:
    """The lane sets of one aid_fhe or local_fhe call under the key parts
    prefix of its scope stream. Both chains read "zeta_h" from t = 1 on."""
    return ((*prefix, CLIENT, "xi0"),
            *[(*prefix, CLIENT, "zeta_h", t) for t in range(1, T + 1)],
            (*prefix, CLIENT, "xi_h"), (*prefix, CLIENT, "chi"))


class _BuiltOnRead:
    """``functools.cached_property`` without the lock that Python 3.11's takes:
    the value is built on the first read and stored in the instance under the
    attribute's name, where later reads find it."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        got = obj.__dict__[self.name] = self.build(obj)
        return got


@dataclass
class EstimatorTrace:
    """Diagnostic record of one fused-estimator evaluation.

    Invariants: p = lambda*(N+1)*z_final and h = h_direct - h_indirect.
    ``h_indirect_clients``, id -> its row of the (k, d1) ``indirect``, is built on first read.
    """

    Q: int
    y_iterates: list
    z_final: np.ndarray
    p: np.ndarray
    h_direct: np.ndarray
    h_indirect: np.ndarray
    ids: np.ndarray
    indirect: np.ndarray

    @_BuiltOnRead
    def h_indirect_clients(self) -> dict:
        return dict(zip(self.ids.tolist(), self.indirect))

    def to_json_dict(self) -> dict:
        doc = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)[:-2]}
        return {**doc, "h_indirect_clients": {str(i): np.asarray(v).tolist()
                                              for i, v in self.h_indirect_clients.items()}}


def aggitd(problem: BilevelProblem, x: np.ndarray, y: np.ndarray, cfg: AggITDConfig,
           participants: Sequence[int] | CheckedOracles, rng: RngStream,
           ledger: CommLedger, q_override: int | None = None):
    """Fused lower-level optimization + hypergradient estimation (one loop).

    Returns (h_tilde, y_N, trace). Charges exactly 2N+2 rounds: per t a single
    gradient round with the chain payloads piggybacked, a One-Round-Lower
    iterate round for t <= N-1, and one final round aggregating the per-client
    estimates. Q, uniform on {0..N}, is ``rng.child("Q").index(N + 1)``, read from
    the table's draw of every step (``step_index``, so N + 1 < 2**32); q_override
    pins it. participants are client ids or checked oracles (``BilevelProblem.checked``);
    rng is the scope stream, free or on a table of ``aggitd_lanes``.
    """
    _check_steps(problem, cfg)
    N, lam, lower = cfg.N, cfg.lam, cfg.lower
    if q_override is not None:   # an integer in {0..N}, else named
        check_count("q_override", q_override, 0, N + 1)
    y_t = np.asarray(y, dtype=float)
    oracles, rng = problem.entry(participants, x, y_t, rng,
                                 lambda: aggitd_lanes(N, max_tau(lower.tau), lower.variant))
    Q = rng.table.step_index((*rng.path, "Q"), N + 1)[rng.s] if q_override is None else q_override
    ids = oracles.ids
    ledger.begin_loop()
    y_iterates = [y_t]
    z = None
    for t in range(N + 1):
        payloads = []
        if t <= N - 1:
            payloads.append(problem.grad_lower_y(ids, x, y_t, rng.lanes(ids, "zeta_q", t)))
        if t == Q:
            payloads.append(problem.grad_upper_y(ids, x, y_t, rng.lanes(ids, "xi_r", t)))
        elif t >= Q + 1:
            hv = problem.hvp_lower_yy(ids, x, y_t, z, rng.lanes(ids, "u", t))
            payloads.append(z - lam * hv)
        # a lone payload goes bare (t < Q, t = N); only piggybacked ones as a group
        means = (aggregate_mean(payloads, ledger) if len(payloads) > 1
                 else [aggregate_mean(payloads[0], ledger)])
        if t >= Q:
            z = means[-1]
        if t <= N - 1:
            y_t = one_round_lower(problem, x, y_t, means[0], lower, oracles,
                                  rng.child("lower", t), ledger)
            y_iterates.append(y_t)

    p = lam * (N + 1) * z
    direct = problem.grad_upper_x(ids, x, y_t, rng.lanes(ids, "xi_h"))
    indirect = problem.jvp_lower_xy(ids, x, y_t, p, rng.lanes(ids, "chi"))
    h_direct, h_indirect = aggregate_mean([direct, indirect], ledger)

    trace = EstimatorTrace(Q=Q, y_iterates=y_iterates, z_final=z, p=p, h_direct=h_direct,
                           h_indirect=h_indirect, ids=ids, indirect=indirect)
    return h_direct - h_indirect, y_t, trace


def aid_fhe(problem: BilevelProblem, x: np.ndarray, y_N: np.ndarray, cfg: AidConfig,
            participants: Sequence[int] | CheckedOracles, rng: RngStream,
            ledger: CommLedger, t_prime_override: int | None = None) -> np.ndarray:
    """Two-loop baseline estimator evaluated at the finished lower iterate.

    Builds p_0 = lambda*T * mean_i grad_y F_i, then the chain
    p_t = (I - lambda * mean_i H_i) p_{t-1} up to the p_{T'} the estimate reads,
    T' uniform in {0..T-1}, ``rng.child("T_prime").index(T)``, read from the table's
    draw of every step (``step_index``, so T < 2**32). Rounds t = T'+1..T and their
    "zeta_h" samples are charged without a payload; their lanes are still resolved, so
    a table missing one raises ContractViolation whatever T' is. participants are as
    for ``aggitd``; rng is the scope stream, free or on a table of ``chain_lanes``.
    """
    _check_steps(problem, cfg)
    T, lam = cfg.T, cfg.lam
    if t_prime_override is not None:   # an integer in {0..T-1}, else named
        check_count("t_prime_override", t_prime_override, 0, T)
    y_N = np.asarray(y_N, dtype=float)
    oracles, rng = problem.entry(participants, x, y_N, rng, lambda: chain_lanes(T))
    T_prime = (rng.table.step_index((*rng.path, "T_prime"), T)[rng.s]
               if t_prime_override is None else t_prime_override)
    ids = oracles.ids
    ledger.begin_loop()
    r = aggregate_mean(problem.grad_upper_y(ids, x, y_N, rng.lanes(ids, "xi0")), ledger)
    p = lam * T * r
    for t in range(1, T_prime + 1):
        hv = problem.hvp_lower_yy(ids, x, y_N, p, rng.lanes(ids, "zeta_h", t))
        p = aggregate_mean(p - lam * hv, ledger)
    for t in range(T_prime + 1, T + 1):   # unread: the round and samples, no payload
        problem.audit.record(rng.lanes(ids, "zeta_h", t).purpose, problem.batch_size * ids.size)
        ledger.record_round(ids.size * problem.d2)

    direct = problem.grad_upper_x(ids, x, y_N, rng.lanes(ids, "xi_h"))
    indirect = problem.jvp_lower_xy(ids, x, y_N, p, rng.lanes(ids, "chi"))
    h_direct, h_indirect = aggregate_mean([direct, indirect], ledger)
    return h_direct - h_indirect


def local_fhe(problem: BilevelProblem, x: np.ndarray, y_N: np.ndarray, cfg: AidConfig,
              participants: Sequence[int] | CheckedOracles, rng: RngStream,
              ledger: CommLedger) -> np.ndarray:
    """Fully local estimator: per-client Neumann chain from local curvature only.

    No cross-client second-order aggregation happens; only the final average
    costs a round. The arguments are as for ``aid_fhe``. On a noise-off
    problem it returns the exact truncated recursion, ``oracle.expected_local_fhe``.
    """
    _check_steps(problem, cfg)
    T, lam = cfg.T, cfg.lam
    y_N = np.asarray(y_N, dtype=float)
    oracles, rng = problem.entry(participants, x, y_N, rng, lambda: chain_lanes(T))
    ids = oracles.ids
    r = problem.grad_upper_y(ids, x, y_N, rng.lanes(ids, "xi0"))
    s, acc = r, r.copy()
    for j in range(1, T):
        s = s - lam * problem.hvp_lower_yy(ids, x, y_N, s, rng.lanes(ids, "zeta_h", j))
        acc += s
    return aggregate_mean(problem.grad_upper_x(ids, x, y_N, rng.lanes(ids, "xi_h"))
                          - problem.jvp_lower_xy(ids, x, y_N, lam * acc,
                                                 rng.lanes(ids, "chi")), ledger)
