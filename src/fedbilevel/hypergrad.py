"""Federated hypergradient estimators.

Three estimators of the hypergradient of f(x) = mean_i f_i(x, y*(x)):

* ``aggitd`` -- the fused estimator. A single loop over t = 0..N both runs the
  federated lower-level updates and builds the Hessian-inverse-vector chain,
  seeding the chain at a uniformly random iterate index Q and piggybacking the
  chain payloads on the gradient rounds. Costs 2N+2 rounds (the upper round
  elsewhere completes 2N+3 per outer iteration).
* ``aid_fhe`` -- the two-loop baseline: a Neumann chain of T rounds built at
  the finished lower iterate y^N, of which a uniformly random prefix length
  T' is used. Costs T+2 rounds on top of the caller's 2N lower rounds.
* ``local_fhe`` -- each client builds its Hessian-inverse-vector product from
  its own curvature and upper gradient only; one round for the final average.
  Biased under heterogeneity, which is exactly what it is here to demonstrate.

Deterministic expectation helpers (``expected_*``) compute the exact
conditional means of these estimators on quadratic instances, for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, UnsupportedProblemError
from .lower import LowerStepConfig, lower_phase_lanes, one_round_lower
from .problems import BilevelProblem, CheckedOracles, ProblemConstants
from .quadratic import QuadraticInstance, _mv
from .rng import CLIENT, LaneTable, RngStream, TableStream
from .runtime import CommLedger, aggregate_mean

_CAP_TOL = 1.0 + 1e-12


def lambda_cap(constants: ProblemConstants) -> float:
    """The Neumann stepsize cap min{10, 1/L_g}, also the default lambda."""
    return min(10.0, 1.0 / constants.L_g)


def beta_cap(lam: float, constants: ProblemConstants) -> float:
    """The lower stepsize cap min{1, lambda, 1/(6 L_g)}, also the default beta."""
    return min(1.0, lam, 1.0 / (6.0 * constants.L_g))


def _check_lambda(lam: float, constants: ProblemConstants) -> None:
    cap = lambda_cap(constants)
    if lam <= 0 or lam > cap * _CAP_TOL:
        raise ParameterError(f"lambda={lam} violates cap min{{10, 1/L_g}}={cap}")


def _check_beta(beta: float, lam: float, constants: ProblemConstants) -> None:
    cap = beta_cap(lam, constants)
    if beta > cap * _CAP_TOL:
        raise ParameterError(f"beta={beta} violates cap min{{1, lambda, 1/(6 L_g)}}={cap}")


@dataclass(frozen=True)
class AggITDConfig:
    """Neumann stepsize lambda, lower-loop length N and the lower-step config."""

    lam: float
    N: int
    lower: LowerStepConfig

    def __post_init__(self):
        if self.N < 0:
            raise ParameterError("N must be >= 0")


@dataclass(frozen=True)
class AidConfig:
    """Baseline knobs: Neumann budget T (chain length), lower loop length N."""

    lam: float
    N: int
    T: int
    lower: LowerStepConfig

    def __post_init__(self):
        if self.T < 1:
            raise ParameterError("T must be >= 1")
        if self.N < 0:
            raise ParameterError("N must be >= 0")


def aggitd_lanes(cfg: AggITDConfig, m: int) -> list:
    """The lane sets of one fused-estimator call under its scope stream. The
    chain's Hessian lanes "u" start at t = 1, the first step that reads one."""
    return [*lower_phase_lanes(cfg.lower, cfg.N, m),
            *[(CLIENT, "xi_r", t) for t in range(cfg.N + 1)],
            *[(CLIENT, "u", t) for t in range(1, cfg.N + 1)],
            (CLIENT, "xi_h"), (CLIENT, "chi")]


def chain_lanes(T: int, *prefix) -> list:
    """The lane sets of one aid_fhe or local_fhe call under the key parts
    prefix of its scope stream. Both chains read "zeta_h" from t = 1 on."""
    return [(*prefix, CLIENT, "xi0"),
            *[(*prefix, CLIENT, "zeta_h", t) for t in range(1, T + 1)],
            (*prefix, CLIENT, "xi_h"), (*prefix, CLIENT, "chi")]


@dataclass
class EstimatorTrace:
    """Diagnostic record of one fused-estimator evaluation.

    Invariants: p = lambda*(N+1)*z_final and h = h_direct - h_indirect.
    """

    Q: int
    y_iterates: list
    z_final: np.ndarray
    p: np.ndarray
    h_direct: np.ndarray
    h_indirect: np.ndarray
    h_indirect_clients: dict

    def to_json_dict(self) -> dict:
        return {
            "Q": self.Q,
            "y_iterates": [np.asarray(v).tolist() for v in self.y_iterates],
            "z_final": np.asarray(self.z_final).tolist(),
            "p": np.asarray(self.p).tolist(),
            "h_direct": np.asarray(self.h_direct).tolist(),
            "h_indirect": np.asarray(self.h_indirect).tolist(),
            "h_indirect_clients": {str(i): np.asarray(v).tolist()
                                   for i, v in self.h_indirect_clients.items()},
        }


def aggitd(problem: BilevelProblem, x: np.ndarray, y: np.ndarray, cfg: AggITDConfig,
           participants: Sequence[int] | CheckedOracles, rng: RngStream | TableStream,
           ledger: CommLedger, q_override: int | None = None):
    """Fused lower-level optimization + hypergradient estimation (one loop).

    Returns (h_tilde, y_N, trace). Charges exactly 2N+2 rounds: per t a single
    gradient round with the chain payloads piggybacked, a One-Round-Lower
    iterate round for t <= N-1, and one final round aggregating the per-client
    estimates. Q is uniform on {0..N}, the counter-based draw
    ``rng.child("Q").index(N + 1)``; q_override pins it for enumeration tests.
    participants are client ids or checked oracles (``BilevelProblem.oracles``);
    rng is the scope stream or a lane table's step (``aggitd_lanes``).
    """
    _check_lambda(cfg.lam, problem.constants)
    _check_beta(cfg.lower.beta, cfg.lam, problem.constants)
    N, lam = cfg.N, cfg.lam
    if q_override is not None:
        if not 0 <= q_override <= N:
            raise ParameterError(f"q_override={q_override} outside {{0..{N}}}")
        Q = int(q_override)
    else:
        Q = rng.child("Q").index(N + 1)

    y_t = np.asarray(y, dtype=float)
    oracles = problem.oracles(participants, x, y_t)
    ids = oracles.ids
    if isinstance(rng, RngStream):
        rng = LaneTable.of(rng, aggitd_lanes(cfg, problem.m), np.arange(problem.m)).step(0)
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
        means = aggregate_mean(payloads, ledger)
        if t >= Q:
            z = means[-1]
        if t <= N - 1:
            y_t = one_round_lower(problem, x, y_t, means[0], cfg.lower, oracles,
                                  rng.child("lower", t), ledger)
            y_iterates.append(y_t)

    p = lam * (N + 1) * z
    direct = problem.grad_upper_x(ids, x, y_t, rng.lanes(ids, "xi_h"))
    indirect = problem.jvp_lower_xy(ids, x, y_t, p, rng.lanes(ids, "chi"))
    h_direct, h_indirect = aggregate_mean([direct, indirect], ledger)

    trace = EstimatorTrace(Q=Q, y_iterates=y_iterates, z_final=z, p=p,
                           h_direct=h_direct, h_indirect=h_indirect,
                           h_indirect_clients=dict(zip(ids.tolist(), indirect)))
    return h_direct - h_indirect, y_t, trace


def aid_fhe(problem: BilevelProblem, x: np.ndarray, y_N: np.ndarray, cfg: AidConfig,
            participants: Sequence[int] | CheckedOracles, rng: RngStream | TableStream,
            ledger: CommLedger, t_prime_override: int | None = None) -> np.ndarray:
    """Two-loop baseline estimator evaluated at the finished lower iterate.

    Builds p_0 = lambda*T * mean_i grad_y F_i, then the full T-round chain
    p_t = (I - lambda * mean_i H_i) p_{t-1}; the estimate uses p_{T'} with
    T' uniform in {0..T-1}, the counter-based draw ``rng.child("T_prime").index(T)``.
    The full chain is always executed so the round bill is the deterministic
    T+2 this call charges. participants are as for ``aggitd``; rng is the
    scope stream or a lane table's step (``chain_lanes``).
    """
    _check_lambda(cfg.lam, problem.constants)
    T, lam = cfg.T, cfg.lam
    if t_prime_override is not None:
        if not 0 <= t_prime_override < T:
            raise ParameterError(f"t_prime_override={t_prime_override} outside {{0..{T - 1}}}")
        T_prime = int(t_prime_override)
    else:
        T_prime = rng.child("T_prime").index(T)

    y_N = np.asarray(y_N, dtype=float)
    oracles = problem.oracles(participants, x, y_N)
    ids = oracles.ids
    if isinstance(rng, RngStream):
        rng = LaneTable.of(rng, chain_lanes(T), np.arange(problem.m)).step(0)
    ledger.begin_loop()
    r = aggregate_mean(problem.grad_upper_y(ids, x, y_N, rng.lanes(ids, "xi0")), ledger)
    p = lam * T * r
    chain = [p]
    for t in range(1, T + 1):
        hv = problem.hvp_lower_yy(ids, x, y_N, p, rng.lanes(ids, "zeta_h", t))
        p = aggregate_mean(p - lam * hv, ledger)
        chain.append(p)
    p_sel = chain[T_prime]

    direct = problem.grad_upper_x(ids, x, y_N, rng.lanes(ids, "xi_h"))
    indirect = problem.jvp_lower_xy(ids, x, y_N, p_sel, rng.lanes(ids, "chi"))
    h_direct, h_indirect = aggregate_mean([direct, indirect], ledger)
    return h_direct - h_indirect


def local_fhe(problem: BilevelProblem, x: np.ndarray, y_N: np.ndarray,
              cfg: AidConfig, rng: RngStream | TableStream | None = None,
              participants: Sequence[int] | CheckedOracles | None = None,
              ledger: CommLedger | None = None) -> np.ndarray:
    """Fully local estimator: per-client Neumann chain from local curvature only.

    With rng=None the exact truncated recursion on noise-off oracles is used.
    No cross-client second-order aggregation happens; only the final average
    costs a round. rng and participants may also be as for ``aid_fhe``.
    """
    _check_lambda(cfg.lam, problem.constants)
    T, lam = cfg.T, cfg.lam
    if ledger is None:
        ledger = CommLedger()
    y_N = np.asarray(y_N, dtype=float)
    oracles = problem.oracles(range(problem.m) if participants is None else participants,
                              x, y_N)
    ids = oracles.ids
    if isinstance(rng, RngStream):
        rng = LaneTable.of(rng, chain_lanes(T), np.arange(problem.m)).step(0)

    def lanes(tag, *idx):
        return None if rng is None else rng.lanes(ids, tag, *idx)
    r = problem.grad_upper_y(ids, x, y_N, lanes("xi0"))
    s = r.copy()
    acc = r.copy()
    for j in range(1, T):
        s = s - lam * problem.hvp_lower_yy(ids, x, y_N, s, lanes("zeta_h", j))
        acc += s
    p = lam * acc
    return aggregate_mean(problem.grad_upper_x(ids, x, y_N, lanes("xi_h"))
                          - problem.jvp_lower_xy(ids, x, y_N, p, lanes("chi")), ledger)


def dense_hessiv(inst: QuadraticInstance, x: np.ndarray, y: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """Reference Hessian-inverse-vector solve by direct symmetric factorization."""
    if not isinstance(inst, QuadraticInstance):
        raise UnsupportedProblemError("dense_hessiv needs a quadratic instance")
    return inst.solve_A_bar(np.asarray(v, dtype=float))


# -- deterministic expectation helpers (testing oracles) ----------------------

def expected_aggitd_indirect(inst: QuadraticInstance, x: np.ndarray,
                             y_iterates: Sequence[np.ndarray], lam: float,
                             N: int) -> np.ndarray:
    """Exact conditional mean of the fused estimator's indirect part.

    Given the iterate trajectory y^0..y^N, averages the chain over the seeding
    index analytically:
        lam * Bbar^T * sum_Q prod_{t=N..Q+1} (I - lam*Abar) * grad_y f(x, y^Q).
    """
    if len(y_iterates) != N + 1:
        raise ParameterError(f"need N+1={N + 1} iterates, got {len(y_iterates)}")
    Ident = np.eye(inst.d2)
    factor = Ident - lam * inst.A_bar
    S = np.zeros(inst.d2)
    M = Ident
    for Qi in range(N, -1, -1):
        S = S + M @ inst.grad_upper_y_exact(x, y_iterates[Qi])
        if Qi > 0:
            M = M @ factor
    return lam * inst.B_bar.T @ S


def expected_aid_hessiv(inst: QuadraticInstance, x: np.ndarray,
                        y_N: np.ndarray, lam: float, T: int) -> np.ndarray:
    """T'-marginalized baseline chain: lam * sum_{j<T} (I - lam*Abar)^j grad_y f."""
    v = inst.grad_upper_y_exact(x, y_N)
    s = v.copy()
    acc = v.copy()
    for _ in range(1, T):
        s = s - lam * (inst.A_bar @ s)
        acc += s
    return lam * acc


def expected_aid_fhe(inst: QuadraticInstance, x: np.ndarray, y_N: np.ndarray,
                     lam: float, T: int) -> np.ndarray:
    """Exact mean of the baseline estimator (noise off, T' marginalized)."""
    hiv = expected_aid_hessiv(inst, x, y_N, lam, T)
    return inst.grad_upper_x_exact(x, y_N) - inst.B_bar.T @ hiv


def expected_local_fhe(inst: QuadraticInstance, x: np.ndarray, y: np.ndarray,
                       lam: float | None = None, T: int | None = None) -> np.ndarray:
    """Exact mean of the fully local estimator; T=None gives the exact-inverse limit."""
    gy = y - inst.d
    if T is None:
        hiv = np.linalg.solve(inst.A, gy[..., None])[..., 0]
    else:
        s = gy.copy()
        acc = gy.copy()
        for _ in range(1, T):
            s = s - lam * _mv(inst.A, s)
            acc += s
        hiv = lam * acc
    return np.mean(inst.rho_x * x + inst.e - _mv(np.swapaxes(inst.B, 1, 2), hiv), axis=0)
