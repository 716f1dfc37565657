"""Self-check battery behind the `verify` CLI subcommand.

Each check pairs a library code path with an algorithmically independent
oracle and reports one pass/fail line. This is a quick smoke battery; the
full criteria live in the test suite.
"""

from __future__ import annotations

import tempfile

import numpy as np

from .drivers import (RunConfig, build_problem, run, run_fbo_aggitd,
                      run_fednest_baseline)
from .errors import ParameterError
from .hypergrad import AggITDConfig, aggitd, beta_cap, lambda_cap
from .lower import VARIANT_SVRG, LowerStepConfig, one_round_lower
from .oracle import expected_aggitd_indirect, fd_hypergradient, neumann_sum
from .problems import check_count
from .quadratic import QuadraticProblem, QuadraticSpec, make_quadratic
from .reporting import export_csv
from .rng import RngStream
from .runtime import CommLedger


def _check_fd(seed):
    spec = QuadraticSpec(d1=4, d2=4, m=3, hetero=0.4, seed=seed)
    inst = make_quadratic(spec)
    X = RngStream(seed).child("fd", "x").normal(1.0, (20, spec.d1))
    worst = 0.0
    for x, a in zip(X, inst.hypergradient(X)):
        b = fd_hypergradient(inst, x)
        worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))
    return worst <= 1e-5, f"max rel err {worst:.2e} (tol 1e-5)"


def _check_dense_vs_neumann(seed):
    inst = make_quadratic(QuadraticSpec(d2=6, d1=3, m=2, seed=seed))
    v = RngStream(seed).child("neumann", "v").normal(1.0, (6,))
    series = neumann_sum(inst.A_bar, v, lambda_cap(inst.constants), 500)
    direct = inst.solve_A_bar(v)
    rel = np.linalg.norm(series - direct) / np.linalg.norm(direct)
    return rel <= 1e-6, f"series vs dense solve rel err {rel:.2e} (tol 1e-6)"


def _check_fixed_point(seed):
    spec = QuadraticSpec(d1=3, d2=3, m=3, hetero=0.5, noise_spread=0.0, seed=seed)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.ones(3)
    ys = inst.y_star(x)
    cfg = LowerStepConfig(beta=beta_cap(lambda_cap(problem.constants), problem.constants), tau=3)
    y1 = one_round_lower(problem, x, ys, np.zeros(3), cfg, range(3),
                         RngStream(seed).child("fp"), CommLedger())
    err = float(np.linalg.norm(y1 - ys))
    return err <= 1e-12, f"noise-off svrg fixed point drift {err:.2e}"


def _check_q_identity(seed):
    spec = QuadraticSpec(d1=4, d2=4, m=3, hetero=0.3, noise_spread=0.0, seed=seed)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    N = 6
    lam = lambda_cap(problem.constants)
    cfg = AggITDConfig(lam=lam, N=N,
                       lower=LowerStepConfig(beta=beta_cap(lam, problem.constants), tau=2))
    x = np.ones(4)
    y0 = np.zeros(4)
    acc = None
    trace = None
    for Q in range(N + 1):
        _, _, trace = aggitd(problem, x, y0, cfg, range(3), RngStream(seed), CommLedger(),
                             q_override=Q)
        acc = trace.h_indirect if acc is None else acc + trace.h_indirect
    mean_ind = acc / (N + 1)
    expected = expected_aggitd_indirect(inst, x, trace.y_iterates, lam, N)
    err = float(np.max(np.abs(mean_ind - expected)))
    return err <= 1e-12, f"Q-enumerated mean vs expectation {err:.2e} (tol 1e-12)"


def _check_rounds(seed):
    spec, N, T = QuadraticSpec(d1=3, d2=3, m=3, seed=seed), 4, 3
    bills = {"aggitd": (2 * N + 3, 1), "aid": (2 * N + T + 3, 2), "local": (2 * N + 2, 1)}
    got = {est: run(RunConfig(problem=spec, estimator=est, K=2, N=N, T=T, seed=seed))
           .outer_history for est in bills}
    ok = all(h == [bills[est]] * 2 for est, h in got.items())
    return ok, "per-outer rounds/loops: " + ", ".join(f"{est} {h[0]}" for est, h in got.items())


def expected_sample_bill(estimator: str, N: int, T: int, taus, batch_size: int,
                         Q: int | None = None, variant: str = VARIANT_SVRG) -> dict:
    """The sample bill of one outer step, by purpose: what the problem's
    ``SampleAudit`` records for it, as ``_check_rounds`` bills its rounds.

    taus holds tau_i of each of the step's k participants and batch_size is
    the problem's samples per oracle row (b). Every driver charges "zeta_q"
    k b N, "xi_h" and "chi" k b each, One-Round-Lower's "zeta" 2 b sum(tau_i)
    per lower step (b sum(tau_i) for sgd) and One-Round-Upper's "xi_up"
    2 b sum(tau_i). The fused chain charges "xi_r" k b and "u" k b (N - Q)
    for its seeding index Q; the AID chain "xi0" k b and "zeta_h" k b T, whatever
    T' is (the rounds past T' are billed, not drawn, like the svrg v = 0 pairs);
    the local chain "xi0" k b and "zeta_h" k b (T - 1). Purposes billed nothing
    are left out. The fused bill needs Q: aggitd without it raises ParameterError.
    """
    if estimator == "aggitd" and Q is None:
        raise ParameterError("the aggitd sample bill needs the seeding index Q")
    k, b, steps = len(taus), batch_size, int(sum(taus))
    bill = {"zeta_q": k * b * N, "zeta": (2 if variant == VARIANT_SVRG else 1) * b * steps * N,
            "xi_h": k * b, "chi": k * b, "xi_up": 2 * b * steps}
    if estimator == "aggitd":
        bill.update(xi_r=k * b, u=k * b * (N - Q))
    else:
        bill.update(xi0=k * b, zeta_h=k * b * (T if estimator == "aid" else T - 1))
    return {purpose: n for purpose, n in bill.items() if n}


def _check_samples(seed):
    spec, N, T, tau, b = QuadraticSpec(d1=3, d2=3, m=3, seed=seed), 4, 3, [1, 3, 2], 2
    Q = RngStream(seed).child("est", 0, "Q").index(N + 1)
    bad = []
    for est, driver in (("aggitd", run_fbo_aggitd), ("aid", run_fednest_baseline),
                        ("local", run_fednest_baseline)):
        cfg = RunConfig(problem=spec, estimator=est, K=1, N=N, T=T, tau=tau, batch_size=b,
                        seed=seed)
        problem = build_problem(cfg)
        driver(cfg, problem)
        if problem.audit.by_purpose != expected_sample_bill(est, N, T, tau, b, Q):
            bad.append(est)
    return not bad, f"one-step sample bills (Q={Q}) " + (
        f"differ for {', '.join(bad)}" if bad else "match for aggitd, aid, local")


def _check_determinism(seed):
    spec = QuadraticSpec(d1=3, d2=3, m=2, seed=seed)
    cfg = RunConfig(problem=spec, K=3, seed=seed)
    bufs = []
    for _ in range(2):
        rep = run_fbo_aggitd(cfg)
        with tempfile.NamedTemporaryFile(suffix=".csv") as tmp:
            export_csv(rep, tmp.name)
            tmp.seek(0)
            bufs.append(tmp.read())
    return bufs[0] == bufs[1], f"{len(bufs[0])} bytes, identical={bufs[0] == bufs[1]}"


CHECKS = [
    ("hypergradient-vs-finite-differences", _check_fd),
    ("dense-solve-vs-neumann-series", _check_dense_vs_neumann),
    ("lower-solver-fixed-point", _check_fixed_point),
    ("chain-seed-enumeration-identity", _check_q_identity),
    ("communication-round-accounting", _check_rounds),
    ("oracle-sample-accounting", _check_samples),
    ("run-determinism", _check_determinism),
]


def run_verification(seed: int = 0):
    """Run all checks; returns [(name, passed, detail)]. A bad seed raises ParameterError."""
    check_count("seed", seed, 0, 1 << 64)
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
