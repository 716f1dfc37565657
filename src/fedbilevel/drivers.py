"""Outer-loop solver: one loop over K outer iterations, three estimator steps.

Each outer iteration runs an estimator step (fused AggITD, or the two-loop AID
or fully local baseline), then a local SVRG-type upper phase (One-Round-Upper),
warm-starting the next iteration's lower variable at the step's final lower
iterate. Communication per outer iteration: 2N+3 rounds / 1 loop for the fused
driver, 2N+T+3 / 2 for the AID baseline, 2N+2 / 1 for the local one. Metrics
rows use exact noise-off oracles over the full client set regardless of the
participation ratio. Each phase is its public function, called on the run's
checked oracles and lane-table steps. A participant set's checked oracles and
local-step schedules (beta/tau_i, alpha/tau_i) are built once per set: once per
run under full participation, at each outer step under partial participation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DivergenceError, ParameterError
from .hypergrad import (AggITDConfig, AidConfig, _check_beta, _check_lambda,
                        aggitd, aggitd_lanes, aid_fhe, beta_cap, chain_lanes,
                        lambda_cap, local_fhe)
from .hyperrep import (HyperRepSpec, hypergradient_numeric, make_hyperrep,
                       solve_head_exact)
from .lower import (LowerStepConfig, _schedule, client_taus, lower_phase_lanes, max_tau,
                    one_round_lower)
from .problems import BilevelProblem, CheckedOracles, ProblemConstants, check_batch_size
from .quadratic import QuadraticProblem, QuadraticSpec, make_problem
from .rng import CLIENT, RngStream, TableStream, lane_steps
from .runtime import CommLedger, Participation, aggregate_mean, select_participants

DIVERGENCE_NORM = 1e8

ESTIMATOR_AGGITD = "aggitd"
ESTIMATOR_AID = "aid"
ESTIMATOR_LOCAL = "local"
_LABELS = {ESTIMATOR_AGGITD: "fbo-aggitd", ESTIMATOR_AID: "fednest",
           ESTIMATOR_LOCAL: "lfednest"}


def default_N(constants: ProblemConstants) -> int:
    return max(1, math.ceil(constants.kappa_g))


def default_stepsizes(constants: ProblemConstants, K: int) -> tuple[float, float, float]:
    """Condition-number-guided defaults: lam and beta at their caps,
    alpha = kappa_g^-4 / sqrt(K)."""
    lam = lambda_cap(constants)
    return lam, constants.kappa_g ** -4 / math.sqrt(max(K, 1)), beta_cap(lam, constants)


@dataclass
class RunConfig:
    """All hyperparameters of a run; None fields are filled from defaults."""

    problem: QuadraticSpec | HyperRepSpec = field(default_factory=QuadraticSpec)
    estimator: str = ESTIMATOR_AGGITD
    K: int = 100
    N: int | None = None
    T: int | None = None
    lam: float | None = None
    alpha: float | None = None
    beta: float | None = None
    tau: int | Sequence[int] = 1
    variant: str = "svrg"
    participation: float = 1.0
    seed: int = 0
    eval_every: int = 1
    batch_size: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.K < 0:
            raise ParameterError("K must be >= 0")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")
        if self.estimator not in _LABELS:
            raise ParameterError(f"unknown estimator {self.estimator!r}")
        Participation(self.participation)
        if self.batch_size is not None:
            check_batch_size(self.batch_size)
        LowerStepConfig(beta=1.0, variant=self.variant)  # resolve_params checks beta
        client_taus(self.tau, np.arange(0), self.problem.m)


@dataclass(frozen=True)
class MetricsRecord:
    k: int
    rounds_cum: int
    grad_norm_sq: float
    lower_gap: float
    est_err: float
    objective: float
    test_metric: float

    FIELDS = ("k", "rounds_cum", "grad_norm_sq", "lower_gap", "est_err",
              "objective", "test_metric")

    def values(self):
        return [getattr(self, f) for f in self.FIELDS]


@dataclass
class RunReport:
    label: str
    rows: list
    final_x: np.ndarray
    final_y: np.ndarray
    rounds_total: int
    loops_total: int
    scalars_sent: int
    outer_history: list

    def column(self, name: str) -> np.ndarray:
        if name not in MetricsRecord.FIELDS:
            raise ParameterError(f"unknown metric {name!r}")
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


class Evaluator:
    """Exact metrics via closed forms (quadratic) or Newton-solved oracles (hyperrep).

    It keeps (y*(x), hypergradient) for the last x it solved, so a metrics
    row costs one solve (for hyperrep, a Newton head solve warm-started at
    the previous y*), and the driver's est_err lookup at the previous row's x
    costs none. A quadratic row is closed forms and ufunc reductions; a hyperrep
    solve runs a train forward pass per Newton iterate (``solve_head_exact``),
    and ``hypergradient_numeric`` one val pass, taking the HessIV Hessian and
    the mixed partial from the solve's last train pass, at y*. Each dense head
    Hessian is two BLAS products (``hyperrep._head_hessian``), and the row's
    objective (``upper_value``) and accuracy read arrays built once per problem.
    """

    def __init__(self, problem: BilevelProblem):
        self.problem = problem
        self.is_quadratic = isinstance(problem, QuadraticProblem)
        self._memo = (None, None, None)  # (x bytes, y*(x), hypergradient at x)

    def _solve(self, x: np.ndarray):
        key = x.tobytes()
        if self._memo[0] != key:
            if self.is_quadratic:
                ys = self.problem.inst.y_star(x)
                grad = self.problem.inst.hypergradient(x, ys)
            else:
                ys = solve_head_exact(self.problem, x, y0=self._memo[1])
                grad = hypergradient_numeric(self.problem, x, ys)
            self._memo = (key, ys, grad)
        return self._memo[1], self._memo[2]

    def hypergradient(self, x: np.ndarray) -> np.ndarray:
        return self._solve(x)[1]

    def record(self, k: int, ledger: CommLedger, x, y, est_err: float) -> MetricsRecord:
        ys, grad = self._solve(x)
        if self.is_quadratic:
            obj = self.problem.inst.objective(x, ys)
            test = 0.0
        else:
            obj = self.problem.upper_value(x, ys)
            test = self.problem.accuracy(x, y)
        gap = float(np.add.reduce((y - ys) ** 2))
        return MetricsRecord(k=k, rounds_cum=ledger.rounds_total,
                             grad_norm_sq=float(grad @ grad), lower_gap=gap,
                             est_err=est_err, objective=obj, test_metric=test)


def build_problem(cfg: RunConfig) -> BilevelProblem:
    """The problem of cfg's spec, drawing cfg.batch_size samples per oracle
    row; unset, 1 for a quadratic and 4 for hyperrep."""
    b = cfg.batch_size
    if isinstance(cfg.problem, QuadraticSpec):
        return make_problem(cfg.problem, batch_size=1 if b is None else b)
    if isinstance(cfg.problem, HyperRepSpec):
        return make_hyperrep(cfg.problem, cfg.seed, batch_size=4 if b is None else b)
    raise ParameterError(f"unknown problem spec type {type(cfg.problem).__name__}")


def resolve_params(cfg: RunConfig, constants: ProblemConstants):
    """Fill unset (N, T, lam, alpha, beta) from the condition-number defaults
    and check them against the caps; every run and ``estimate`` call this on
    the built problem's constants."""
    N = cfg.N if cfg.N is not None else default_N(constants)
    T = cfg.T if cfg.T is not None else max(1, N)
    if N < 0 or T < 1:
        raise ParameterError("need N >= 0 and T >= 1")
    lam0, alpha0, _ = default_stepsizes(constants, cfg.K)
    lam = cfg.lam if cfg.lam is not None else lam0
    alpha = cfg.alpha if cfg.alpha is not None else alpha0
    beta = cfg.beta if cfg.beta is not None else beta_cap(lam, constants)
    _check_lambda(lam, constants)
    _check_beta(beta, lam, constants)
    if not 0 < alpha < math.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    return N, T, lam, alpha, beta


@functools.lru_cache(maxsize=256)
def upper_lanes(max_tau: int) -> tuple:
    """The lane sets of One-Round-Upper: ``child(i, "xi_up", v)`` for v < max_tau."""
    return tuple((CLIENT, "xi_up", v) for v in range(max_tau))


def one_round_upper(problem: BilevelProblem, x: np.ndarray, y_plus: np.ndarray,
                    h: np.ndarray, alpha: float, tau: int | Sequence[int],
                    participants: Sequence[int] | CheckedOracles,
                    rng: RngStream | TableStream, ledger: CommLedger) -> np.ndarray:
    """Local SVRG-type upper phase: tau_i corrected steps per client from x.

    The anchor gradient at x is re-evaluated per local step with that step's
    own sample (shared with the local term), so a single local step reduces to
    x - alpha*h up to rounding. All participants step together, two batched
    oracle calls per local step on the same draws. At v = 0 every client is at
    x, so the pair is one call, g_local = g_anchor; the step still computes
    (h - g) + g, which is not h in floating point, and the audit still charges
    both evaluations' "xi_up" samples. participants may be checked oracles.
    rng is the scope stream or its step of a lane table with the lane sets of
    ``upper_lanes``. Charges one round.
    """
    oracles, rng = problem.entry(participants, x, y_plus, rng,
                                 lambda: upper_lanes(max_tau(tau)))
    ids = oracles.ids
    alphas, steps = _schedule(oracles, tau, alpha)
    X = np.repeat(x[None], ids.size, axis=0)
    for v, rows, sub in steps:
        lanes = rng.lanes(sub, "xi_up", v)
        g_anchor = problem.grad_upper_x(sub, x, y_plus, lanes)
        if v == 0:
            problem.audit.record("xi_up", problem.batch_size * sub.size)
            g_local = g_anchor
        else:
            g_local = problem.grad_upper_x(sub, X[rows], y_plus, lanes)
        X[rows] = X[rows] - alphas[rows] * (h - g_anchor + g_local)
    return aggregate_mean(X, ledger)


def _guard(k: int, x: np.ndarray, y: np.ndarray) -> None:
    xn, yn = math.sqrt(x @ x), math.sqrt(y @ y)   # the bits of np.linalg.norm
    if not (math.isfinite(xn) and math.isfinite(yn)) or max(xn, yn) > DIVERGENCE_NORM:
        raise DivergenceError(
            f"iterate diverged at outer iteration {k}: ||x||={xn:.3e}, ||y||={yn:.3e}",
            k=k, x_norm=xn, y_norm=yn)


def _run_loop(cfg: RunConfig, problem: BilevelProblem | None, estimator: str) -> RunReport:
    """K outer iterations with warm start; the estimator step maps
    (x, y, participants, scope) to (h, y). The AID and local steps run the
    2N-round lower phase, then estimate h in a second loop. The scopes
    ``root.child("est", k)`` and ``root.child("upper", k)`` are steps of lane
    tables over the whole run."""
    if problem is None:
        problem = build_problem(cfg)
    N, T, lam, alpha, beta = resolve_params(cfg, problem.constants)
    lower_cfg = LowerStepConfig(beta=beta, tau=cfg.tau, variant=cfg.variant)
    part = Participation(cfg.participation)
    root = RngStream(cfg.seed)
    ledger = CommLedger()
    evaluator = Evaluator(problem)

    if estimator == ESTIMATOR_AGGITD:
        acfg = AggITDConfig(lam=lam, N=N, lower=lower_cfg)
        lane_sets = aggitd_lanes(N, max_tau(cfg.tau), cfg.variant)

        def step(x, y, oracles, scope):
            h, y, _ = aggitd(problem, x, y, acfg, oracles, scope, ledger)
            return h, y
    else:
        aid_cfg = AidConfig(lam=lam, N=N, T=T, lower=lower_cfg)
        lane_sets = (lower_phase_lanes(N, max_tau(cfg.tau), cfg.variant)
                     + chain_lanes(T, "aid" if estimator == ESTIMATOR_AID else "local"))

        def step(x, y, oracles, scope):
            ids = oracles.ids
            ledger.begin_loop()
            for t in range(N):
                q = aggregate_mean(problem.grad_lower_y(
                    ids, x, y, scope.lanes(ids, "zeta_q", t)), ledger)
                y = one_round_lower(problem, x, y, q, lower_cfg, oracles,
                                    scope.child("lower", t), ledger)
            if estimator == ESTIMATOR_AID:
                return aid_fhe(problem, x, y, aid_cfg, oracles, scope.child("aid"), ledger), y
            return local_fhe(problem, x, y, aid_cfg, scope.child("local"), oracles, ledger), y

    x, y = problem.initial_point()
    rows = [evaluator.record(0, ledger, x, y, est_err=0.0)]
    scopes = zip(lane_steps(root, "est", cfg.K, problem.m, lane_sets),
                 lane_steps(root, "upper", cfg.K, problem.m,
                            upper_lanes(max_tau(cfg.tau))))
    oracles, redraw = None, part.size(problem.m) < problem.m
    for k, (est, upper) in enumerate(scopes):
        ledger.start_outer()
        if redraw or oracles is None:
            oracles = problem.checked(
                select_participants(part, problem.m, root.child("part", k)), x, y)
        h, y = step(x, y, oracles, est)
        x_prev = x
        x = one_round_upper(problem, x, y, h, alpha, cfg.tau, oracles, upper, ledger)
        ledger.finish_outer()
        _guard(k, x, y)
        if (k + 1) % cfg.eval_every == 0 or k + 1 == cfg.K:
            r = h - evaluator.hypergradient(x_prev)
            err = math.sqrt(r @ r)   # the bits of np.linalg.norm
            rows.append(evaluator.record(k + 1, ledger, x, y, err))
    return RunReport(label=_LABELS[estimator], rows=rows, final_x=x, final_y=y,
                     rounds_total=ledger.rounds_total, loops_total=ledger.loops_total,
                     scalars_sent=ledger.scalars_sent, outer_history=ledger.outer_history)


def run_fbo_aggitd(cfg: RunConfig, problem: BilevelProblem | None = None) -> RunReport:
    """Full fused-estimator run: K outer iterations with warm start."""
    return _run_loop(cfg, problem, ESTIMATOR_AGGITD)


def run_fednest_baseline(cfg: RunConfig, problem: BilevelProblem | None = None) -> RunReport:
    """Two-loop baseline: 2N lower rounds, then the AID (or, for "local", fully local) FHE."""
    return _run_loop(cfg, problem, ESTIMATOR_LOCAL if cfg.estimator == ESTIMATOR_LOCAL
                     else ESTIMATOR_AID)


def run(cfg: RunConfig) -> RunReport:
    """Dispatch on cfg.estimator: the fused driver or a baseline variant."""
    return _run_loop(cfg, None, cfg.estimator)
