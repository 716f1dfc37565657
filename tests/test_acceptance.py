"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured quantity and
its threshold; run with `pytest -s tests/test_acceptance.py -v` to see them.
"""

import dataclasses
import time

import numpy as np

from fedbilevel import (AggITDConfig, AidConfig, CommLedger, LowerStepConfig,
                        Point, QuadraticProblem, QuadraticSpec, RngStream,
                        RunConfig, TestRegion, aggitd, expected_aggitd_indirect,
                        expected_local_fhe, local_fhe, make_quadratic,
                        measure_constants, one_round_lower, run_fbo_aggitd,
                        run_fednest_baseline)
from fedbilevel.cli import main as cli_main
from fedbilevel.hypergrad import beta_cap, lambda_cap

from conftest import batch_of_one, estimator_bias_mc, manual_instance, zero_offsets


def _report(name, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s" + (f" < {budget:.0f}s budget)" if budget else ")")
    print(f"[{status}] {name}: {detail}{extra}")
    return ok


def test_criterion_1_communication_accounting():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=3, d2=3, m=3, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=1)
    ok = True
    details = []
    for N in (1, 5, 20):
        cfg = RunConfig(problem=spec, K=2, N=N, seed=1)
        rep = run_fbo_aggitd(cfg)
        good = rep.outer_history == [(2 * N + 3, 1)] * 2
        ok &= good
        details.append(f"aggitd N={N}:{rep.outer_history[0]}")
        for T in (1, 5):
            cfg = RunConfig(problem=spec, K=2, N=N, T=T, seed=1)
            rep = run_fednest_baseline(cfg)
            good = rep.outer_history == [(2 * N + T + 3, 2)] * 2
            ok &= good
            details.append(f"fednest N={N},T={T}:{rep.outer_history[0]}")
    elapsed = time.perf_counter() - t0
    assert _report("criterion-1 round-accounting", ok and elapsed < 1.0,
                   "; ".join(details[:4]) + " ...", elapsed, 1.0)


def test_criterion_2_conditional_expectation_identity():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=5, d2=5, m=3, hetero=0.4, noise_spread=0.0, seed=23)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    lam = lambda_cap(problem.constants)
    N = 6
    cfg = AggITDConfig(lam=lam, N=N,
                       lower=LowerStepConfig(beta=beta_cap(lam, problem.constants), tau=2))
    x = np.full(5, 0.6)
    y0 = np.zeros(5)
    acc = None
    trace = None
    for Q in range(N + 1):
        _, _, trace = aggitd(problem, x, y0, cfg, range(3), RngStream(4),
                             CommLedger(), q_override=Q)
        acc = trace.h_indirect if acc is None else acc + trace.h_indirect
    expected = expected_aggitd_indirect(inst, x, trace.y_iterates, lam, N)
    err = float(np.max(np.abs(acc / (N + 1) - expected)))
    elapsed = time.perf_counter() - t0
    assert _report("criterion-2 chain-seed expectation identity",
                   err <= 1e-12 and elapsed < 1.0,
                   f"max coord err {err:.2e} <= 1e-12", elapsed, 1.0)


def test_criterion_3_hypergradient_fidelity():
    t0 = time.perf_counter()
    inst = manual_instance([1.0, 4.0, 7.0, 10.0], d1=4, m=3, seed=5)
    x = np.full(4, 0.7)
    ys = inst.y_star(x)
    consts = measure_constants(inst, TestRegion(Point(x, ys), 2.0), samples=100)
    lam = 1.0 / consts.L_g
    gyf = float(np.linalg.norm(inst.grad_upper_y_exact(x, ys)))
    truth = inst.hypergradient(x)
    errs = {}
    ok = True
    for N in (10, 30, 60):
        ind = expected_aggitd_indirect(inst, x, [ys] * (N + 1), lam, N)
        err = float(np.linalg.norm(inst.grad_upper_x_exact(x, ys) - ind - truth))
        bound = (1 - lam * consts.mu) ** (N + 1) * consts.L_g * gyf / consts.mu
        ok &= err <= bound
        errs[N] = err
    slope = np.polyfit([10.0, 30.0, 60.0],
                       np.log([errs[10], errs[30], errs[60]]), 1)[0]
    target = np.log(1 - lam * consts.mu)
    rel = abs(slope - target) / abs(target)
    ok &= rel <= 0.10
    elapsed = time.perf_counter() - t0
    assert _report("criterion-3 bias decay",
                   ok and elapsed < 5.0,
                   f"errs {errs[10]:.2e}/{errs[30]:.2e}/{errs[60]:.2e} within bounds, "
                   f"slope dev {rel:.4f} <= 0.10", elapsed, 5.0)


def test_criterion_4_variance_bound():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0,
                         hetero=0.3, noise_spread=0.1, seed=11)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.ones(3)
    y0 = inst.y_star(x) + 0.3
    consts = measure_constants(inst, TestRegion(Point(x, y0), 1.5), samples=100)
    lam = min(lambda_cap(consts), lambda_cap(problem.constants))
    N = 3
    cfg = AggITDConfig(lam=lam, N=N,
                       lower=LowerStepConfig(beta=beta_cap(lam, problem.constants), tau=1))
    root = RngStream(123)

    def indirect(xv, yv, t):
        return aggitd(problem, xv, yv, cfg, range(3), root.child("mc", t),
                      CommLedger())[2].h_indirect_clients[0]
    mom = estimator_bias_mc(indirect, inst, x, y0, trials=10_000)
    var, se = mom.var, mom.var_se
    sigma_h2 = lam * (N + 1) * consts.L_g ** 2 * consts.M ** 2 / consts.mu
    elapsed = time.perf_counter() - t0
    assert _report("criterion-4 variance bound",
                   var + 4 * se <= sigma_h2 and elapsed < 30.0,
                   f"var {var:.3e} + 4SE {4 * se:.1e} <= sigma_h^2 {sigma_h2:.3e}",
                   elapsed, 30.0)


def _noise_off(inst):
    """The instance with every per-sample offset zero: each sample is its client's data."""
    return dataclasses.replace(inst, **zero_offsets(inst.m, inst.n_samples, inst.d1, inst.d2))


def _fused_per_q(inst, x, y0, lam, beta, N):
    """The noise-off fused estimate of each seeding index Q, full participation
    and tau = 1, from the instance's matrices alone: y^(t+1) = y^t - beta (Abar
    y^t + Bbar x + cbar), z = (I - lam Abar)^(N-Q) (y^Q - dbar), p = lam (N+1) z;
    returns the (N+1, d1) stacks of h and of client 0's indirect part B_0^T p."""
    ys = [y0]
    for _ in range(N):
        ys.append(ys[-1] - beta * (inst.A_bar @ ys[-1] + inst.B_bar @ x + inst.c_bar))
    chain = np.eye(inst.d2) - lam * inst.A_bar
    p = np.stack([lam * (N + 1) * np.linalg.matrix_power(chain, N - Q) @ (ys[Q] - inst.d_bar)
                  for Q in range(N + 1)])
    return inst.rho_x * x + inst.e_bar - p @ inst.B_bar, p @ inst.B[0]


def test_criterion_4_companion_variance_of_the_seeding_index():
    # criterion 4's sigma_h^2 is hundreds of times its measured variance, so
    # it does not bind. On a noise-off copy of its instance, each Q's estimate
    # equals the matrix recursion (to 1e-12 of its scale), and criterion 4's
    # Monte Carlo variance of client 0's indirect part lies in [Var_Q, 2 Var_Q]
    # (4 SE each side): Var_Q is its variance over Q alone, and the sample
    # noise only adds to it. Band and tolerance were fixed before the first run
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0,
                         hetero=0.3, noise_spread=0.1, seed=11)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.ones(3)
    y0 = inst.y_star(x) + 0.3
    consts = measure_constants(inst, TestRegion(Point(x, y0), 1.5), samples=100)
    lam = min(lambda_cap(consts), lambda_cap(problem.constants))
    N = 3
    beta = beta_cap(lam, problem.constants)
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=beta, tau=1))
    h_q, ind_q = _fused_per_q(inst, x, y0, lam, beta, N)
    quiet = QuadraticProblem(_noise_off(inst))
    err = 0.0
    for Q in range(N + 1):
        h, _, tr = aggitd(quiet, x, y0, cfg, range(3), RngStream(123), CommLedger(),
                          q_override=Q)
        err = max(err, float(np.max(np.abs(h - h_q[Q]))) / float(np.max(np.abs(h_q[Q]))),
                  float(np.max(np.abs(tr.h_indirect_clients[0] - ind_q[Q])))
                  / float(np.max(np.abs(ind_q[Q]))))
    var_q = float(np.mean(np.sum((ind_q - ind_q.mean(axis=0)) ** 2, axis=1)))
    root = RngStream(123)

    def indirect(xv, yv, t):
        return aggitd(problem, xv, yv, cfg, range(3), root.child("mc", t),
                      CommLedger())[2].h_indirect_clients[0]
    mom = estimator_bias_mc(indirect, inst, x, y0, trials=10_000)
    var, se = mom.var, mom.var_se
    ok = err <= 1e-12 and var + 4 * se >= var_q and var - 4 * se <= 2 * var_q
    elapsed = time.perf_counter() - t0
    assert _report("criterion-4 companion: Var_Q band", ok,
                   f"per-Q rel err {err:.1e} <= 1e-12; var {var:.4e} (4SE {4 * se:.1e}) "
                   f"in [Var_Q, 2 Var_Q] = [{var_q:.4e}, {2 * var_q:.4e}]", elapsed)


def test_criterion_5_lower_solver_contraction():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=6, d2=6, m=6, n_per_client=8, mu=1.0, L_g=2.0,
                         hetero=0.5, noise_spread=0.1, seed=17)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.full(6, 0.5)
    ys = inst.y_star(x)
    y_start = ys + 1.0
    consts = measure_constants(inst, TestRegion(Point(x, y_start), 2.0), samples=100)
    lam = lambda_cap(problem.constants)
    beta = beta_cap(lam, problem.constants)
    lcfg = LowerStepConfig(beta=beta, tau=3)
    R, steps = 50, 20
    dists = np.zeros((R, steps + 1))
    root = RngStream(55)
    for r in range(R):
        y = y_start.copy()
        dists[r, 0] = np.sum((y - ys) ** 2)
        for t in range(steps):
            pt = Point(x, y)
            q = np.mean([batch_of_one(problem, "grad_lower_y", i, pt, root.child("q", r, t, i))
                         for i in range(6)], axis=0)
            y = one_round_lower(problem, x, y, q, lcfg, range(6),
                                root.child("low", r, t), CommLedger())
            dists[r, t + 1] = np.sum((y - ys) ** 2)
    md = dists.mean(axis=0)
    noise_term = 25 * beta ** 2 * consts.sigma_g ** 2 * 1.2
    worst = max(md[t + 1] - ((1 - beta * consts.mu / 2) * md[t] + noise_term)
                for t in range(steps))
    elapsed = time.perf_counter() - t0
    assert _report("criterion-5 lower contraction",
                   worst <= 0.0 and elapsed < 10.0,
                   f"worst recursion slack {worst:.3e} <= 0 over {steps} steps x {R} reps",
                   elapsed, 10.0)


def test_criterion_6_end_to_end_convergence():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5,
                         hetero=0.5, noise_spread=0.05, seed=42)
    avgs = {}
    for K in (64, 256, 1024):
        rep = run_fbo_aggitd(RunConfig(problem=spec, K=K, seed=42, eval_every=1))
        g = rep.column("grad_norm_sq")
        avgs[K] = float(g[1:].mean())
    rep = run_fbo_aggitd(RunConfig(problem=spec, K=2000, seed=42, eval_every=1))
    min_g = float(rep.column("grad_norm_sq").min())
    slope = np.polyfit(np.log([64.0, 256.0, 1024.0]),
                       np.log([avgs[64], avgs[256], avgs[1024]]), 1)[0]
    decreasing = avgs[64] > avgs[256] > avgs[1024]
    elapsed = time.perf_counter() - t0
    ok = min_g <= 1e-4 and slope <= -0.35 and decreasing and elapsed < 60.0
    assert _report("criterion-6 end-to-end convergence", ok,
                   f"min grad^2 {min_g:.2e} <= 1e-4, running-avg slope {slope:.3f} <= -0.35",
                   elapsed, 60.0)


def test_criterion_7_communication_efficiency_ordering():
    t0 = time.perf_counter()
    wins = 0
    reached = 0
    for seed in range(10):
        spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5,
                             hetero=0.5, noise_spread=0.05, seed=seed)
        cfg = RunConfig(problem=spec, K=450, seed=seed, eval_every=1, alpha=0.02)
        rep_a = run_fbo_aggitd(cfg)
        rep_b = run_fednest_baseline(cfg)

        def rounds_to(rep, eps=1e-3):
            g = rep.column("grad_norm_sq")
            r = rep.column("rounds_cum")
            hit = np.nonzero(g <= eps)[0]
            return int(r[hit[0]]) if hit.size else None
        ra, rb = rounds_to(rep_a), rounds_to(rep_b)
        reached += int(ra is not None) + int(rb is not None)
        if ra is not None and rb is not None and ra < rb:
            wins += 1
    elapsed = time.perf_counter() - t0
    assert _report("criterion-7 rounds-to-threshold ordering",
                   wins >= 8 and reached == 20,
                   f"fused estimator first to grad^2<=1e-3 on {wins}/10 seeds "
                   f"(threshold reached in {reached}/20 runs)", elapsed)


def test_criterion_8_heterogeneity_necessity():
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=6, d2=6, m=6, n_per_client=6, mu=1.0, L_g=10.0,
                         hetero=0.5, noise_spread=0.1, seed=33)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.full(6, 0.5)
    ys = inst.y_star(x)  # exact lower solve
    lam = 1.0 / inst.L_g
    N = T = 50
    truth = inst.hypergradient(x)
    ind = expected_aggitd_indirect(inst, x, [ys] * (N + 1), lam, N)
    bias_aggitd = float(np.linalg.norm(
        inst.grad_upper_x_exact(x, ys) - ind - truth))
    h_local_oracle = expected_local_fhe(inst, x, ys, lam, T)
    bias_local = float(np.linalg.norm(h_local_oracle - truth))
    cfg = AidConfig(lam=lam, T=T)
    root = RngStream(7)
    mom = estimator_bias_mc(lambda xv, yv, t: local_fhe(
        problem, xv, yv, cfg, range(6), root.child("t", t), CommLedger()), inst, x, ys,
        trials=1000)
    se = mom.bias_se
    dev = float(np.linalg.norm(mom.mean - h_local_oracle))
    ok = bias_local >= 5.0 * bias_aggitd and dev <= 4 * se
    elapsed = time.perf_counter() - t0
    assert _report("criterion-8 heterogeneity necessity", ok,
                   f"local bias {bias_local:.3e} >= 5 x fused bias {bias_aggitd:.3e}; "
                   f"MC-vs-oracle dev {dev:.2e} <= 4SE {4 * se:.2e}", elapsed)


def test_criterion_8_companion_finite_n_truncation_bias():
    # criterion 8's fused bias at N = 50 is round-off. At N = 2 and 4, the
    # mean over Q of noise-off estimates started at y* is biased by the
    # Neumann truncation Bbar^T (I - lam Abar)^(N+1) Abar^-1 (y* - dbar); the
    # enumerated bias must equal it to 1e-9 of its norm (fixed before the first run)
    t0 = time.perf_counter()
    spec = QuadraticSpec(d1=6, d2=6, m=6, n_per_client=6, mu=1.0, L_g=10.0,
                         hetero=0.5, noise_spread=0.1, seed=33)
    inst = _noise_off(make_quadratic(spec))
    problem = QuadraticProblem(inst)
    x = np.full(6, 0.5)
    ys = inst.y_star(x)
    lam = 1.0 / inst.L_g
    truth = inst.hypergradient(x)
    errs, norms = [], []
    for N in (2, 4):
        cfg = AggITDConfig(lam=lam, N=N,
                           lower=LowerStepConfig(beta=beta_cap(lam, problem.constants)))
        mean = np.mean([aggitd(problem, x, ys, cfg, range(6), RngStream(7), CommLedger(),
                               q_override=Q)[0] for Q in range(N + 1)], axis=0)
        want = inst.B_bar.T @ np.linalg.matrix_power(
            np.eye(6) - lam * inst.A_bar, N + 1) @ inst.solve_A_bar(ys - inst.d_bar)
        norms.append(float(np.linalg.norm(want)))
        errs.append(float(np.linalg.norm(mean - truth - want)) / norms[-1])
    elapsed = time.perf_counter() - t0
    assert _report("criterion-8 companion: finite-N fused bias",
                   max(errs) <= 1e-9 and min(norms) > 0,
                   f"rel err {errs[0]:.1e} (N=2, bias {norms[0]:.3e}), {errs[1]:.1e} "
                   f"(N=4, bias {norms[1]:.3e}) <= 1e-9", elapsed)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    import json
    doc = {"problem": {"type": "quadratic", "d1": 4, "d2": 4, "m": 3,
                       "mu": 1.0, "L_g": 2.0},
           "K": 5, "seed": 9, "hetero": 0.4,
           "noise": {"mode": "finite-sum", "spread": 0.1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 0
        outs.append((out / "fbo-aggitd_metrics.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    elapsed = time.perf_counter() - t0
    assert _report("criterion-9 determinism", ok,
                   f"two CLI runs byte-identical ({len(outs[0])} bytes)", elapsed)
