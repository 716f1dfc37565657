"""Outer-loop solver: one loop over K outer iterations, three estimator steps.

Each outer iteration runs an estimator step (fused AggITD, or the two-loop AID
or fully local baseline), then One-Round-Upper, the local SVRG-type phase of
``lower`` applied to x (one body for both levels), warm-starting the next
iteration's lower variable at the step's final lower iterate. Communication
per outer iteration: 2N+3 rounds / 1 loop for the fused driver, 2N+T+3 / 2 for
the AID baseline, 2N+2 / 1 for the local one. Metrics rows use exact noise-off
oracles over the full client set regardless of the participation ratio; the
loop only keeps each row's point and estimate, the estimate's point kept just
before, and ``Evaluator.record`` computes every row in one stacked pass after
the loop. Each phase is its public function, called on the run's checked
oracles and lane-table steps. A participant set's checked oracles and
local-step schedules (beta/tau_i, alpha/tau_i) are built once per set: once
per run under full participation, at each outer step under partial
participation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, ParameterError
from .hypergrad import (STEP_LANE_SETS, AggITDConfig, AidConfig, _check_beta, _check_lambda,
                        aggitd, aggitd_lanes, aid_fhe, beta_cap, chain_lanes, lambda_cap,
                        local_fhe)
from .hyperrep import HyperRepSpec, make_hyperrep
from .lower import (VARIANT_SVRG, LowerStepConfig, _local_phase, client_taus, local_lanes,
                    lower_phase_lanes, max_tau, one_round_lower)
from .problems import (BilevelProblem, CheckedOracles, ProblemConstants, check_count,
                       check_positive, row_dots)
from .quadratic import QuadraticSpec, make_problem
from .rng import INDEX_RANGE, RngStream, lane_steps
from .runtime import CommLedger, Participation, aggregate_mean, select_participants

DIVERGENCE_NORM = 1e8

ESTIMATOR_AGGITD = "aggitd"
ESTIMATOR_AID = "aid"
ESTIMATOR_LOCAL = "local"
_LABELS = {ESTIMATOR_AGGITD: "fbo-aggitd", ESTIMATOR_AID: "fednest",
           ESTIMATOR_LOCAL: "lfednest"}


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
        if not isinstance(self.problem, (QuadraticSpec, HyperRepSpec)):
            raise ParameterError("problem must be a QuadraticSpec or HyperRepSpec, "
                                 f"got {self.problem!r}")
        check_count("K", self.K, 0)
        check_count("seed", self.seed, 0, 1 << 64)
        check_count("eval_every", self.eval_every)
        if not isinstance(self.estimator, str) or self.estimator not in _LABELS:
            raise ParameterError(f"unknown estimator {self.estimator!r}")
        Participation(self.participation)
        if self.batch_size is not None:
            check_count("batch_size", self.batch_size)
        LowerStepConfig(beta=1.0, variant=self.variant)  # resolve_params checks beta
        client_taus(self.tau, np.arange(0), self.problem.m)


class MetricsRecord(NamedTuple):
    """One metrics row; its fields, in order, are the CSV columns."""

    k: int
    rounds_cum: int
    grad_norm_sq: float
    lower_gap: float
    est_err: float
    objective: float
    test_metric: float

    def values(self):
        return list(self)


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
        if name not in MetricsRecord._fields:
            raise ParameterError(f"unknown metric {name!r}")
        return np.array([getattr(r, name) for r in self.rows], dtype=float)


class Evaluator:
    """Every metrics row of a run from one stacked pass over its kept points.

    The run keeps each row's point (x, y) and, for each row after the first,
    its estimate h, taken at the kept point just before the row's: the
    previous row's point at eval_every = 1, one kept for it otherwise. ``record``
    solves y*(x) over all kept points at once, each started at its own y,
    then grad f(x) (``hypergradient``), through the problem's exact truth
    (``BilevelProblem``); est_err is ||h - grad f|| at the estimate's point.
    A quadratic pass is closed-form einsums and reductions; a hyperrep pass is
    one masked Newton iteration over all points (``hyperrep.solve_head_exact``)
    and one train and one val pass for the hypergradients. Rows do not depend
    on each other, so a row's bits do not depend on eval_every.
    """

    def __init__(self, problem: BilevelProblem):
        self.problem = problem

    def hypergradient(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """grad f at each row of x, whose solved lower points ys holds."""
        return self.problem.hypergradient(x, ys)

    def record(self, points: list, rows: list, estimates: list) -> list:
        """The MetricsRecords of a run: points holds the kept (x, y), rows one
        (k, rounds_cum, point index) per row, and estimates the h of each row
        after the first, taken at the point at index - 1; row 0 has est_err 0."""
        X, Y = (np.array(a) for a in zip(*points))
        ks, rounds, at = (list(c) for c in zip(*rows))
        ys = self.problem.y_star(X, Y)
        grad = self.hypergradient(X, ys)
        err = np.zeros(len(rows))
        if estimates:
            r = np.array(estimates) - grad[np.array(at[1:]) - 1]
            err[1:] = np.sqrt(row_dots(r, r))   # the bits of np.linalg.norm
        X, Y, ys, grad = X[at], Y[at], ys[at], grad[at]
        cols = (ks, rounds, row_dots(grad, grad).tolist(),
                np.add.reduce((Y - ys) ** 2, -1).tolist(), err.tolist(),
                self.problem.objective(X, ys).tolist(), self.problem.test_metric(X, Y).tolist())
        return list(map(MetricsRecord._make, zip(*cols)))


def build_problem(cfg: RunConfig) -> BilevelProblem:
    """The problem of cfg's spec, drawing cfg.batch_size samples per oracle
    row; unset, its factory's default (1 for a quadratic, 4 for hyperrep)."""
    kw = {} if cfg.batch_size is None else {"batch_size": cfg.batch_size}
    if isinstance(cfg.problem, QuadraticSpec):
        return make_problem(cfg.problem, **kw)
    return make_hyperrep(cfg.problem, cfg.seed, **kw)


def resolve_params(cfg: RunConfig, constants: ProblemConstants):
    """(N, T, lam, alpha, beta) of a run, checked against the caps; every run
    and ``estimate`` call this on the built problem's constants. The one home
    of the defaults of unset values: N = max(1, ceil(kappa_g)), T = N (at
    least 1), lam and beta at their caps, alpha = kappa_g^-4 / sqrt(K). N, T
    and tau must keep a step's lane sets within STEP_LANE_SETS."""
    kappa = constants.kappa_g
    N = cfg.N if cfg.N is not None else max(1, math.ceil(kappa))
    check_count("N", N, 0, INDEX_RANGE - 1)
    T = cfg.T if cfg.T is not None else max(1, N)
    check_count("T", T, 1, INDEX_RANGE)
    tau = max_tau(cfg.tau)
    sets = N * (tau + 3) + T + 3
    if sets > STEP_LANE_SETS:
        raise ParameterError(f"N = {N}, T = {T} and tau = {tau} declare up to {sets} lane "
                             f"sets per outer step, above STEP_LANE_SETS = {STEP_LANE_SETS}")
    lam = cfg.lam if cfg.lam is not None else lambda_cap(constants)
    _check_lambda(lam, constants)   # before beta's default reads it
    alpha = cfg.alpha if cfg.alpha is not None else kappa ** -4 / math.sqrt(max(cfg.K, 1))
    beta = cfg.beta if cfg.beta is not None else beta_cap(lam, constants)
    _check_beta(beta, lam, constants)
    check_positive("alpha", alpha)
    return N, T, lam, alpha, beta


def one_round_upper(problem: BilevelProblem, x: np.ndarray, y_plus: np.ndarray,
                    h: np.ndarray, alpha: float, tau: int | Sequence[int],
                    participants: Sequence[int] | CheckedOracles,
                    rng: RngStream, ledger: CommLedger) -> np.ndarray:
    """The upper local phase from x with correction h and stepsize alpha, on
    the "xi_up" lanes at y_plus; returns the participant mean of x_tau^i.

    Always the svrg variant, so a single local step is x - alpha*h.
    participants may be checked oracles. rng is the scope stream, free or on
    a table with the lane sets of ``local_lanes("xi_up", ...)``. Charges one
    round.
    """
    oracles, rng = problem.entry(participants, x, y_plus, rng,
                                 lambda: local_lanes("xi_up", max_tau(tau)))
    return _local_phase(problem, oracles, rng,
                        lambda ids, X, lanes: problem.grad_upper_x(ids, X, y_plus, lanes),
                        x, h, alpha, tau, "xi_up", VARIANT_SVRG, ledger)


def _guard(k: int, x: np.ndarray, y: np.ndarray) -> None:
    # the bits of x @ x (and np.linalg.norm), but an overflow to inf does not warn
    xn, yn = math.sqrt(np.vdot(x, x)), math.sqrt(np.vdot(y, y))
    if not (math.isfinite(xn) and math.isfinite(yn)) or max(xn, yn) > DIVERGENCE_NORM:
        raise DivergenceError(
            f"iterate diverged at outer iteration {k}: ||x||={xn:.3e}, ||y||={yn:.3e}",
            k=k, x_norm=xn, y_norm=yn)


def _run_loop(cfg: RunConfig, problem: BilevelProblem | None, estimator: str) -> RunReport:
    """K outer iterations with warm start; the estimator step maps
    (x, y, participants, scope) to (h, y). The AID and local steps run the
    2N-round lower phase, then estimate h in a second loop, ``aid_fhe`` or
    ``local_fhe`` under ``scope.child(estimator)``. The scopes
    ``root.child("est", k)`` and ``root.child("upper", k)`` are steps of lane
    tables over the whole run. The loop keeps each metrics row's iterates and
    estimate; ``Evaluator.record`` computes every row after the loop."""
    if problem is None:
        problem = build_problem(cfg)
    N, T, lam, alpha, beta = resolve_params(cfg, problem.constants)
    lower_cfg = LowerStepConfig(beta=beta, tau=cfg.tau, variant=cfg.variant)
    taus = max_tau(cfg.tau)
    part = Participation(cfg.participation)
    root = RngStream(cfg.seed)
    ledger = CommLedger()

    if estimator == ESTIMATOR_AGGITD:
        acfg = AggITDConfig(lam=lam, N=N, lower=lower_cfg)
        lane_sets = aggitd_lanes(N, taus, cfg.variant)

        def step(x, y, oracles, scope):
            return aggitd(problem, x, y, acfg, oracles, scope, ledger)[:2]
    else:
        aid_cfg = AidConfig(lam=lam, T=T)
        chain = aid_fhe if estimator == ESTIMATOR_AID else local_fhe
        lane_sets = lower_phase_lanes(N, taus, cfg.variant) + chain_lanes(T, estimator)

        def step(x, y, oracles, scope):
            ids = oracles.ids
            ledger.begin_loop()
            for t in range(N):
                q = aggregate_mean(problem.grad_lower_y(
                    ids, x, y, scope.lanes(ids, "zeta_q", t)), ledger)
                y = one_round_lower(problem, x, y, q, lower_cfg, oracles,
                                    scope.child("lower", t), ledger)
            return chain(problem, x, y, aid_cfg, oracles, scope.child(estimator), ledger), y

    x, y = problem.initial_point()
    points, rows, estimates = [(x, y)], [(0, 0, 0)], []
    scopes = zip(lane_steps(root, "est", cfg.K, problem.m, lane_sets),
                 lane_steps(root, "upper", cfg.K, problem.m, local_lanes("xi_up", taus)))
    oracles, redraw = None, part.size(problem.m) < problem.m
    for k, (est, upper) in enumerate(scopes):
        ledger.start_outer()
        if redraw or oracles is None:
            oracles = problem.checked(
                select_participants(part, problem.m, root.child("part", k)), x, y)
        h, y_next = step(x, y, oracles, est)
        x_next = one_round_upper(problem, x, y_next, h, alpha, cfg.tau, oracles, upper, ledger)
        ledger.finish_outer()
        _guard(k, x_next, y_next)
        if (k + 1) % cfg.eval_every == 0 or k + 1 == cfg.K:
            if points[-1][0] is not x:   # one_round_upper returns a fresh x
                points.append((x, y))
            points.append((x_next, y_next))
            rows.append((k + 1, ledger.rounds_total, len(points) - 1))
            estimates.append(h)
        x, y = x_next, y_next
    rows = Evaluator(problem).record(points, rows, estimates)
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
