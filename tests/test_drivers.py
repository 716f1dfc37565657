"""Outer-loop drivers: upper phase, round accounting, warm start, defaults."""

import contextlib
import importlib
import importlib.util
import math
import pathlib

import numpy as np
import pytest

import fedbilevel
from fedbilevel import (AggITDConfig, AidConfig, CommLedger, DivergenceError,
                        LowerStepConfig, ParameterError, Participation,
                        ProblemConstants, QuadraticProblem, QuadraticSpec,
                        RngStream, RunConfig, aggitd, aggregate_mean, aid_fhe,
                        default_N, default_stepsizes, local_fhe, make_quadratic,
                        one_round_lower, one_round_upper, run, run_fbo_aggitd,
                        run_fednest_baseline, select_participants)
from fedbilevel.drivers import build_problem, resolve_params


def test_default_stepsizes_examples():
    c = ProblemConstants(mu=1.0, L_g=10.0)
    lam, alpha, beta = default_stepsizes(c, K=100)
    assert lam == pytest.approx(0.1)
    assert beta == pytest.approx(1.0 / 60.0)
    c_small = ProblemConstants(mu=0.01, L_g=0.05)
    lam2, _, _ = default_stepsizes(c_small, K=100)
    assert lam2 == pytest.approx(10.0)  # cap branch
    _, a1, _ = default_stepsizes(c, K=100)
    _, a4, _ = default_stepsizes(c, K=400)
    assert a4 == pytest.approx(a1 / 2.0)  # 1/sqrt(K) scaling
    assert default_N(c) == 10


def test_one_round_upper_single_step_identity():
    spec = QuadraticSpec(d1=3, d2=3, m=3, hetero=0.4, noise_spread=0.3, seed=1)
    problem = QuadraticProblem(make_quadratic(spec))
    x = np.ones(3)
    y = np.zeros(3)
    h = np.array([0.5, -0.2, 1.0])
    got = one_round_upper(problem, x, y, h, 0.1, 1, range(3), RngStream(2),
                          CommLedger())
    np.testing.assert_allclose(got, x - 0.1 * h, rtol=1e-14)


def test_one_round_upper_fixed_point():
    # h = 0 and x stationary for every client's upper objective at fixed y
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.0, noise_spread=0.0, seed=2)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x_star = -inst.e_bar / inst.rho_x  # where rho_x*x + e = 0 for every client
    y = np.zeros(3)
    got = one_round_upper(problem, x_star, y, np.zeros(3), 0.05, 4, range(2),
                          RngStream(3), CommLedger())
    np.testing.assert_allclose(got, x_star, atol=1e-14)


def test_one_round_upper_matches_sequential_oracle():
    # homogeneous noise-off: every client runs the same centralized epoch
    spec = QuadraticSpec(d1=3, d2=3, m=3, hetero=0.0, noise_spread=0.0, seed=4)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.ones(3)
    y = np.full(3, 0.5)
    h = np.array([0.2, -0.4, 0.1])
    alpha, tau = 0.12, 5
    got = one_round_upper(problem, x, y, h, alpha, tau, range(3), RngStream(5),
                          CommLedger())
    e = inst.e[0]
    x_seq = x.copy()
    for _ in range(tau):
        anchor = inst.rho_x * x + e
        local = inst.rho_x * x_seq + e
        x_seq = x_seq - alpha / tau * (h - anchor + local)
    np.testing.assert_allclose(got, x_seq, rtol=1e-13)


def test_one_round_upper_rejects_bad_tau():
    spec = QuadraticSpec(d1=2, d2=2, m=2, seed=5)
    problem = QuadraticProblem(make_quadratic(spec))
    with pytest.raises(ParameterError):
        one_round_upper(problem, np.zeros(2), np.zeros(2), np.zeros(2), 0.1, 0,
                        range(2), RngStream(6), CommLedger())


def _quad_cfg(K, seed=7, N=None, T=None, **kw):
    spec = QuadraticSpec(d1=4, d2=4, m=3, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=seed)
    return RunConfig(problem=spec, K=K, N=N, T=T, seed=seed, eval_every=1, **kw)


def test_run_k_zero_initial_row_only():
    rep = run_fbo_aggitd(_quad_cfg(K=0))
    assert len(rep.rows) == 1
    assert rep.rows[0].k == 0
    assert rep.rows[0].rounds_cum == 0
    assert rep.rows[0].est_err == 0.0
    np.testing.assert_array_equal(rep.final_x, np.zeros(4))
    assert all(np.isfinite(v) for v in rep.rows[0].values())


def test_fbo_aggitd_round_accounting_every_iteration():
    rep = run_fbo_aggitd(_quad_cfg(K=6, N=5))
    assert rep.outer_history == [(13, 1)] * 6
    rounds = rep.column("rounds_cum")
    np.testing.assert_array_equal(rounds, 13 * np.arange(7))  # arithmetic step 2N+3


def test_fednest_round_accounting_every_iteration():
    rep = run_fednest_baseline(_quad_cfg(K=5, N=4, T=3))
    assert rep.outer_history == [(2 * 4 + 3 + 3, 2)] * 5


def test_warm_start_carries_lower_iterate():
    cfg = _quad_cfg(K=4)
    problem = build_problem(cfg)
    rep = run_fbo_aggitd(cfg, problem=problem)
    # the recorded lower gap measures the carried y against the NEW x
    inst = problem.inst
    ys = inst.y_star(rep.final_x)
    expect = float(np.sum((rep.final_y - ys) ** 2))
    assert rep.rows[-1].lower_gap == pytest.approx(expect, rel=1e-12)
    assert rep.rows[-1].lower_gap > 0.0  # not re-initialized to zero


def test_shared_lower_solver_same_first_trajectory():
    cfg = _quad_cfg(K=1, N=3)
    rep_a = run_fbo_aggitd(cfg)
    rep_b = run_fednest_baseline(cfg)
    np.testing.assert_array_equal(rep_a.final_y, rep_b.final_y)


def test_monotone_decrease_deterministic_homogeneous():
    spec = QuadraticSpec(d1=4, d2=4, m=3, mu=1.0, L_g=2.0, hetero=0.0,
                         noise_spread=0.0, seed=11)
    rep = run_fbo_aggitd(RunConfig(problem=spec, K=40, seed=11, eval_every=1))
    g = rep.column("grad_norm_sq")
    burn_in = 5
    assert all(g[k] <= g[k - 1] * (1 + 1e-12) for k in range(burn_in + 1, len(g)))


def test_rows_strictly_increasing_and_eval_every():
    cfg = _quad_cfg(K=10)
    cfg.eval_every = 3
    rep = run_fbo_aggitd(cfg)
    ks = [r.k for r in rep.rows]
    assert ks == [0, 3, 6, 9, 10]
    rounds = [r.rounds_cum for r in rep.rows]
    assert all(b > a for a, b in zip(rounds, rounds[1:]))
    assert all(np.isfinite(v) for r in rep.rows for v in r.values())


def test_divergence_guard():
    cfg = _quad_cfg(K=50, alpha=1e6)
    with pytest.raises(DivergenceError) as exc:
        run_fbo_aggitd(cfg)
    assert exc.value.k is not None


def test_sample_audit_exact_count_at_fixed_chain_seed():
    from fedbilevel import AggITDConfig, LowerStepConfig, aggitd
    spec = QuadraticSpec(d1=3, d2=3, m=3, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=13)
    problem = QuadraticProblem(make_quadratic(spec))
    m = 3
    for N, tau, Q in ((4, 1, 2), (3, 2, 0), (5, 3, 5)):
        problem.audit.reset()
        cfg = AggITDConfig(lam=0.5, N=N,
                           lower=LowerStepConfig(beta=1.0 / 12.0, tau=tau))
        aggitd(problem, np.zeros(3), np.zeros(3), cfg, range(m), RngStream(N),
               CommLedger(), q_override=Q)
        # q gradients + svrg double evals + chain seed + hvp chain + final round
        expect = N * m + 2 * tau * m * N + m + (N - Q) * m + 2 * m
        assert problem.audit.total == expect


def test_sample_audit_tags_shared_samples_by_purpose():
    from fedbilevel import AggITDConfig, LowerStepConfig, aggitd
    spec = QuadraticSpec(d1=3, d2=3, m=3, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=13)
    problem = QuadraticProblem(make_quadratic(spec))
    N, tau, Q, m = 3, 2, 1, 3
    cfg = AggITDConfig(lam=0.5, N=N, lower=LowerStepConfig(beta=1.0 / 12.0, tau=tau))
    aggitd(problem, np.zeros(3), np.zeros(3), cfg, range(m), RngStream(N),
           CommLedger(), q_override=Q)
    assert problem.audit.by_purpose == {
        "zeta_q": N * m, "zeta": 2 * tau * m * N, "xi_r": m, "u": (N - Q) * m,
        "xi_h": m, "chi": m}
    assert problem.audit.total == N * m + 2 * tau * m * N + m + (N - Q) * m + 2 * m
    problem.audit.reset()
    one_round_upper(problem, np.ones(3), np.zeros(3), np.zeros(3), 0.1, tau, range(m),
                    RngStream(2), CommLedger())
    assert problem.audit.by_purpose == {"xi_up": 2 * tau * m}


@pytest.mark.parametrize("kind", ["quadratic", "hyperrep"])
def test_one_round_upper_evaluates_its_v0_pair_once(monkeypatch, kind):
    # every client starts at x, so the v = 0 local gradient is the anchor's:
    # one call fewer than the two-call loop, the same bits, the same audit
    from fedbilevel import HyperRepSpec, make_hyperrep
    from fedbilevel.drivers import upper_lanes
    from fedbilevel.rng import LaneTable
    if kind == "hyperrep":
        problem = make_hyperrep(HyperRepSpec(m=3, n_points=120), 0, batch_size=4)
    else:
        problem = QuadraticProblem(make_quadratic(QuadraticSpec(
            d1=3, d2=3, m=3, hetero=0.3, noise_spread=0.1, seed=13)))
    gen = RngStream(5).child("upper").generator()
    x, y, h = (gen.normal(size=d) for d in (problem.d1, problem.d2, problem.d1))
    tau, alpha, ids = 3, 0.1, np.arange(3)
    table = LaneTable.of(RngStream(2), upper_lanes(tau), ids).step(0)
    X = np.repeat(x[None], ids.size, axis=0)
    for v in range(tau):
        lanes = table.lanes(ids, "xi_up", v)
        g_anchor = problem.grad_upper_x(ids, x, y, lanes)
        X = X - alpha / tau * (h - g_anchor + problem.grad_upper_x(ids, X, y, lanes))
    want = aggregate_mean(X, CommLedger())
    problem.audit.reset()
    calls = []
    oracle = problem.grad_upper_x
    monkeypatch.setattr(problem, "grad_upper_x", lambda *a: calls.append(a) or oracle(*a))
    got = one_round_upper(problem, x, y, h, alpha, tau, ids, RngStream(2), CommLedger())
    assert got.tobytes() == want.tobytes()
    assert len(calls) == 2 * tau - 1
    assert problem.audit.by_purpose == {"xi_up": 2 * tau * ids.size * problem.batch_size}


def test_sample_audit_scales_linearly_in_k():
    cfg2, cfg4 = _quad_cfg(K=2), _quad_cfg(K=4)
    problem = build_problem(cfg2)
    run_fbo_aggitd(cfg2, problem=problem)
    total2 = problem.audit.total
    problem.audit.reset()
    run_fbo_aggitd(cfg4, problem=problem)
    total4 = problem.audit.total
    # linear in K up to the random chain-seed index (N*m samples of slack per itr)
    N, m = 2, 3
    assert abs(total4 - 2 * total2) <= N * m * 4
    # doubling local steps adds (N lower + 1 upper) * m * K extra draws... per eval pair
    problem.audit.reset()
    run_fbo_aggitd(_quad_cfg(K=2, tau=2), problem=problem)
    extra = problem.audit.total - total2
    assert extra == 2 * (N + 1) * m * 2  # one more double-eval per phase per client


def test_local_estimator_run():
    cfg = _quad_cfg(K=3)
    cfg.estimator = "local"
    rep = run(cfg)
    assert rep.label == "lfednest"
    assert len(rep.rows) == 4
    # local variant: 2N lower + 1 local average + 1 upper per outer iteration
    N = 2
    assert rep.outer_history == [(2 * N + 2, 1)] * 3


def test_run_dispatch():
    assert run(_quad_cfg(K=1)).label == "fbo-aggitd"
    cfg = _quad_cfg(K=1)
    cfg.estimator = "aid"
    assert run(cfg).label == "fednest"


def test_hyperrep_end_to_end_learns():
    from fedbilevel import HyperRepSpec
    spec = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4,
                        n_points=240, partition="label-skew", shards_per_client=1)
    cfg = RunConfig(problem=spec, K=40, seed=3, eval_every=20, alpha=0.5, N=8,
                    batch_size=8)
    rep = run_fbo_aggitd(cfg)
    first, last = rep.rows[0], rep.rows[-1]
    assert last.test_metric >= 0.9 > first.test_metric
    assert last.grad_norm_sq < 1e-2 * first.grad_norm_sq
    assert last.objective < first.objective
    assert all(np.isfinite(v) for r in rep.rows for v in r.values())
    assert rep.outer_history[0] == (2 * 8 + 3, 1)


def _small_hyperrep_run(K=6):
    from fedbilevel import HyperRepSpec
    spec = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4,
                        n_points=240, partition="label-skew", shards_per_client=1)
    cfg = RunConfig(problem=spec, K=K, seed=3, eval_every=1, alpha=0.5, N=4,
                    batch_size=8)
    return run_fbo_aggitd(cfg)


def test_hyperrep_one_head_solve_per_metrics_row(monkeypatch):
    from fedbilevel import drivers, hyperrep
    calls = []
    original = hyperrep.solve_head_exact

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(drivers, "solve_head_exact", counted)
    monkeypatch.setattr(hyperrep, "solve_head_exact", counted)
    rep = _small_hyperrep_run()
    assert len(rep.rows) == 7
    assert len(calls) == len(rep.rows)


def test_hyperrep_est_err_unchanged_without_memo(monkeypatch):
    from fedbilevel.drivers import Evaluator
    from fedbilevel.hyperrep import hypergradient_numeric
    memo = _small_hyperrep_run().column("est_err")
    monkeypatch.setattr(Evaluator, "hypergradient",
                        lambda self, x: hypergradient_numeric(self.problem, x))
    fresh = _small_hyperrep_run().column("est_err")
    assert np.all(memo[1:] > 0)
    np.testing.assert_allclose(memo, fresh, rtol=1e-12, atol=0)


def test_bad_stepsizes_rejected_before_any_round():
    cfg = _quad_cfg(K=3, alpha=-1.0)
    problem = build_problem(cfg)
    with pytest.raises(ParameterError, match="alpha"):
        run_fbo_aggitd(cfg, problem=problem)
    # beta above 1/(6 L_g) = 1/12; the AID estimator itself only checks lambda
    cfg = _quad_cfg(K=3, beta=0.1)
    with pytest.raises(ParameterError, match="beta"):
        run_fednest_baseline(cfg, problem=problem)
    assert problem.audit.total == 0


# SampleAudit.by_purpose of whole runs, pinned at the commit before the lane
# tables: hashing the lanes ahead must neither add nor drop an oracle call.
# The fused run's "u" count follows its Q draws; re-pinned when Q became a
# counter-based draw
PINNED_AUDITS = {
    "aggitd": {"chi": 12, "u": 8, "xi_h": 12, "xi_r": 12, "xi_up": 44, "zeta": 88,
               "zeta_q": 24},
    "aid": {"chi": 12, "xi0": 12, "xi_h": 12, "xi_up": 44, "zeta": 88, "zeta_h": 36,
            "zeta_q": 24},
    "local": {"chi": 12, "xi0": 12, "xi_h": 12, "xi_up": 44, "zeta": 88, "zeta_h": 24,
              "zeta_q": 24},
}


@pytest.mark.parametrize("estimator", sorted(PINNED_AUDITS))
def test_run_audit_by_purpose_pinned(estimator):
    spec = QuadraticSpec(d1=3, d2=3, m=4, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=7)
    cfg = RunConfig(problem=spec, K=6, N=2, T=3, seed=7, eval_every=1, estimator=estimator,
                    tau=[1, 3, 2, 1], participation=0.5)
    problem = build_problem(cfg)
    driver = run_fbo_aggitd if estimator == "aggitd" else run_fednest_baseline
    driver(cfg, problem=problem)
    assert problem.audit.by_purpose == PINNED_AUDITS[estimator]


@pytest.mark.parametrize("kind", ["hyperrep", "gaussian"])
def test_svrg_pairs_draw_each_lane_set_once(monkeypatch, kind):
    # both evaluations of a variance-reduction pair read one draw: one
    # counter block per lane set (local step), not one per oracle call
    from fedbilevel import HyperRepSpec, LowerStepConfig, make_hyperrep, one_round_lower
    from fedbilevel import rng as rng_mod
    if kind == "hyperrep":
        problem = make_hyperrep(HyperRepSpec(m=3, n_points=120), 0, batch_size=4)
    else:
        problem = QuadraticProblem(make_quadratic(QuadraticSpec(
            d1=3, d2=3, m=3, noise_mode="additive-gaussian", noise_std=0.2, seed=3)))
    blocks = []
    original = rng_mod._mix64_counters

    def counted(hashes, n):
        blocks.append(len(hashes))
        return original(hashes, n)
    monkeypatch.setattr(rng_mod, "_mix64_counters", counted)
    x, y = problem.initial_point()
    tau = 2
    one_round_lower(problem, x, y, np.zeros(problem.d2), LowerStepConfig(beta=0.01, tau=tau),
                    range(3), RngStream(4), CommLedger())
    assert blocks == [3] * (tau - 1)  # the v = 0 pair cancels and draws nothing
    assert problem.audit.by_purpose == {"zeta": 2 * tau * 3 * problem.batch_size}
    blocks.clear()
    one_round_upper(problem, x, y, np.zeros(problem.d1), 0.01, tau, range(3), RngStream(5),
                    CommLedger())
    assert blocks == [3] * tau


def test_hyperrep_metrics_row_forward_passes(monkeypatch):
    # a metrics row runs one full-batch train pass per Newton iterate, then one
    # val pass for both upper gradients and one train pass for the HessIV and
    # the mixed partial: at most (Newton steps + 2) train passes and one val
    # pass, where the Newton steps and the HessIV build one dense Hessian each
    from fedbilevel import hyperrep
    from fedbilevel.drivers import Evaluator
    log, rows = [], []
    forward, hessian, record = (hyperrep.HyperRepProblem._forward, hyperrep._head_hessian,
                                Evaluator.record)

    def counted_forward(self, ids, x, y, lanes, split):
        log.append(split)
        return forward(self, ids, x, y, lanes, split)

    def counted_hessian(*args):
        log.append("hessian")
        return hessian(*args)

    def counted_record(self, *args, **kwargs):
        log.clear()
        out = record(self, *args, **kwargs)
        rows.append(list(log))
        return out
    monkeypatch.setattr(hyperrep.HyperRepProblem, "_forward", counted_forward)
    monkeypatch.setattr(hyperrep, "_head_hessian", counted_hessian)
    monkeypatch.setattr(Evaluator, "record", counted_record)
    rep = _small_hyperrep_run()
    assert len(rows) == len(rep.rows) == 7
    steps = [row.count("hessian") - 1 for row in rows]
    assert min(steps) >= 0 and sum(steps) > len(rows)
    for row, newton_steps in zip(rows, steps):
        assert row.count("train") <= newton_steps + 2
        assert row.count("val") <= 1


def test_hyperrep_metrics_row_shares_the_y_star_train_pass(monkeypatch):
    # the Newton solve's converged iterate and the HessIV/mixed-partial pass of
    # hypergradient_numeric are one train pass at (x, y*): a row runs one train
    # pass per Newton iterate and no more
    from fedbilevel import hyperrep
    from fedbilevel.drivers import Evaluator
    log, rows = [], []
    forward, hessian, record = (hyperrep.HyperRepProblem._forward, hyperrep._head_hessian,
                                Evaluator.record)

    def counted_forward(self, ids, x, y, lanes, split):
        log.append(split)
        return forward(self, ids, x, y, lanes, split)

    def counted_hessian(*args):
        log.append("hessian")
        return hessian(*args)

    def counted_record(self, *args, **kwargs):
        log.clear()
        out = record(self, *args, **kwargs)
        rows.append(list(log))
        return out
    monkeypatch.setattr(hyperrep.HyperRepProblem, "_forward", counted_forward)
    monkeypatch.setattr(hyperrep, "_head_hessian", counted_hessian)
    monkeypatch.setattr(Evaluator, "record", counted_record)
    _small_hyperrep_run()
    for row in rows:
        newton_iterates = row.count("hessian")     # the steps, plus the HessIV's
        assert row.count("train") <= newton_iterates


def test_hyperrep_run_hashes_each_subset_lane_set_once_per_table(monkeypatch):
    # a K = 20 fused run reads its minibatch draws out of one block per lane
    # set and pool per lane table, not one counter pass per oracle call
    from fedbilevel import rng as rng_mod
    passes, keys, tables = [], set(), []     # tables: one per subset call
    original, subset = rng_mod._mix64_counters, rng_mod.Lanes.subset

    def counted(hashes, n):
        passes.append(n)
        return original(hashes, n)

    def keyed(self, pool, k, sizes=None):
        table = self.step.table
        tables.append(table)     # keeps every id below distinct
        keys.add((id(table), self.lane_set, repr(self.rows), pool.tobytes()))
        return subset(self, pool, k, sizes)
    monkeypatch.setattr(rng_mod, "_mix64_counters", counted)
    monkeypatch.setattr(rng_mod.Lanes, "subset", keyed)
    rep = _small_hyperrep_run(K=20)
    assert len(rep.rows) == 21
    assert 0 < len(passes) <= len(keys) < len(tables) / 10


def test_undeclared_lane_set_raises():
    # a table step reads only the lane sets its table declares
    from fedbilevel import ContractViolation
    from fedbilevel.rng import CLIENT, lane_steps
    step = next(lane_steps(RngStream(0), "est", 1, 3, [(CLIENT, "zeta_q", 0)]))
    assert step.lanes(np.arange(3), "zeta_q", 0).ids.tolist() == [0, 1, 2]
    for path, tags in (((), ("zeta",)), ((), ("zeta_q", 1)), (("lower", 0), ("zeta_q", 0))):
        with pytest.raises(ContractViolation, match=r"lane set .* is not declared"):
            step.child(*path).lanes(np.arange(3), *tags)


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
@pytest.mark.parametrize("setting", [{}, {"participation": 0.7, "tau": [1, 3, 2]},
                                     {"variant": "sgd"}])
def test_run_reads_only_declared_lane_sets(estimator, setting):
    # the lane sets each driver declares for its tables (aggitd_lanes,
    # lower_phase_lanes, chain_lanes, upper_lanes) list their loop indices
    # by hand; a run that read any other set would raise ContractViolation
    assert len(run(_quad_cfg(K=2, estimator=estimator, **setting)).rows) == 3


def test_hyperrep_run_reads_only_declared_lane_sets():
    assert len(_small_hyperrep_run(K=2).rows) == 3


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
def test_run_checks_participants_and_tau_once_per_step(monkeypatch, estimator):
    # under partial participation each outer step checks its participants
    # once, and the estimator call and One-Round-Lower/Upper take those
    # checked oracles; under full participation one check serves the run.
    # The tau setting is resolved once per run, whatever K is
    from fedbilevel import drivers, lower
    from fedbilevel.problems import BilevelProblem
    checks, taus = [], []
    checked, client_taus = BilevelProblem.checked, lower.client_taus

    def counted_checked(self, *args):
        checks.append(1)
        return checked(self, *args)

    def counted_taus(*args):
        taus.append(1)
        return client_taus(*args)
    monkeypatch.setattr(BilevelProblem, "checked", counted_checked)
    monkeypatch.setattr(lower, "client_taus", counted_taus)
    monkeypatch.setattr(drivers, "client_taus", counted_taus)
    counts = []
    for K in (2, 5):
        for participation, per_run in ((0.7, K), (1.0, 1)):
            cfg = _quad_cfg(K=K, N=3, T=2, estimator=estimator, tau=[1, 3, 2],
                            participation=participation)
            checks.clear()
            taus.clear()
            run(cfg)
            assert len(checks) == per_run
            counts.append(len(taus))
    assert len(set(counts)) == 1 and counts[0] <= 2


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
@pytest.mark.parametrize("participation,tau", [(1.0, 1), (0.7, [1, 3, 2])])
def test_run_first_step_equals_the_public_calls(estimator, participation, tau):
    # a K = 1 run, whose one outer step reuses checked oracles and local-step
    # schedules, gives the bits of the public calls on the scope streams
    # root.child("est", 0) and root.child("upper", 0): the Q and T' draws,
    # the participant set and every lane are where a public call puts them
    cfg = _quad_cfg(K=1, N=3, T=2, estimator=estimator, tau=tau,
                    participation=participation, variant="svrg")
    rep = run(cfg)
    problem = build_problem(cfg)
    N, T, lam, alpha, beta = resolve_params(cfg, problem.constants)
    lower_cfg = LowerStepConfig(beta=beta, tau=tau)
    root, ledger = RngStream(cfg.seed), CommLedger()
    ids = select_participants(Participation(participation), problem.m, root.child("part", 0))
    scope = root.child("est", 0)
    x, y = problem.initial_point()
    if estimator == "aggitd":
        h, y_new, _ = aggitd(problem, x, y, AggITDConfig(lam=lam, N=N, lower=lower_cfg),
                             ids, scope, ledger)
    else:
        y_new = y
        for t in range(N):
            q = aggregate_mean(problem.grad_lower_y(
                np.array(ids), x, y_new, scope.lanes(ids, "zeta_q", t)), ledger)
            y_new = one_round_lower(problem, x, y_new, q, lower_cfg, ids,
                                    scope.child("lower", t), ledger)
        aid_cfg = AidConfig(lam=lam, N=N, T=T, lower=lower_cfg)
        if estimator == "aid":
            h = aid_fhe(problem, x, y_new, aid_cfg, ids, scope.child("aid"), ledger)
        else:
            h = local_fhe(problem, x, y_new, aid_cfg, scope.child("local"), ids, ledger)
    x_new = one_round_upper(problem, x, y_new, h, alpha, tau, ids, root.child("upper", 0),
                            ledger)
    assert rep.final_y.tobytes() == y_new.tobytes()
    assert rep.final_x.tobytes() == x_new.tobytes()
    assert rep.rounds_total == ledger.rounds_total
    assert rep.rows[1].est_err == float(np.linalg.norm(h - problem.inst.hypergradient(x)))
    assert rep.rows[1].lower_gap == float(np.sum((y_new - problem.inst.y_star(x_new)) ** 2))


def test_metrics_row_reductions_keep_numpy_bits():
    # the divergence guard, est_err and the metrics row reduce with
    # np.add.reduce and math.sqrt(v @ v): the bits of np.sum, np.mean and
    # np.linalg.norm on contiguous vectors of every length the runs use
    gen = RngStream(5).child("norms").generator()
    for d in (1, 2, 3, 4, 5, 7, 8, 10, 16, 17, 33, 64, 129):
        for scale in (1e-6, 1.0, 1e6):
            v = scale * gen.normal(size=d)
            assert math.sqrt(v @ v) == float(np.linalg.norm(v))
            assert np.add.reduce(v ** 2) == np.sum(v ** 2)
    inst = make_quadratic(QuadraticSpec(d1=6, d2=5, m=7, hetero=0.5, seed=2))
    x, y = gen.normal(size=6), gen.normal(size=5)
    vals = (0.5 * np.sum((y - inst.d) ** 2, axis=1) + 0.5 * inst.rho_x * float(x @ x)
            + (inst.e[:, None, :] @ x)[:, 0])
    assert inst.objective(x, y) == float(np.mean(vals))


def _bench_tracer():
    """The benchmark's span tracer, perfbench/tracer.py, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_methods_are_defined_on_their_classes():
    # the tracer patches each traced method where its class defines it
    for short, cls_name, attr, _ in _bench_tracer().TRACED_METHODS:
        cls = getattr(importlib.import_module(f"fedbilevel.{short}"), cls_name)
        assert attr in cls.__dict__, (short, cls_name, attr)


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
def test_bench_tracer_counts_the_oracles_every_run_calls(estimator):
    # the five traced BilevelProblem oracles are the calls every estimator and
    # One-Round-Lower/Upper make: a traced run counts each of them, and its
    # rows and sample audit equal the untraced run's
    tracer_mod = _bench_tracer()
    cfg = _quad_cfg(K=2, N=2, T=2, estimator=estimator, tau=[1, 3, 2])
    runs = []
    for traced in (False, True):
        problem = build_problem(cfg)
        tracer = tracer_mod.Tracer(fedbilevel, "test") if traced else None
        with tracer or contextlib.nullcontext():
            rep = (run_fbo_aggitd if estimator == "aggitd" else run_fednest_baseline)(
                cfg, problem)
        runs.append((rep.rows, dict(problem.audit.by_purpose)))
    assert runs[1] == runs[0]
    table = tracer.table()
    for name in ("grad_lower_y", "grad_upper_x", "grad_upper_y", "hvp_lower_yy",
                 "jvp_lower_xy"):
        assert table.get(f"problems.{name}", {}).get("calls", 0) > 0, name
    assert table["lower.one_round_lower"]["calls"] == 2 * 2
    assert table["drivers.one_round_upper"]["calls"] == 2   # once per outer step


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
@pytest.mark.parametrize("variant", ["svrg", "sgd"])
@pytest.mark.parametrize("noise", ["finite-sum", "additive-gaussian"])
def test_sample_audit_matches_the_closed_form_bill_every_step(monkeypatch, estimator,
                                                              variant, noise):
    # each outer step's audited samples, by purpose, equal verify's
    # expected_sample_bill for that step's participants, tau_i and Q, under
    # partial participation, a tau list and batch_size 2
    from fedbilevel.verify import expected_sample_bill
    with pytest.raises(ParameterError, match="Q"):   # the fused bill is undefined without Q
        expected_sample_bill("aggitd", 3, 2, [1, 3], 2)
    spec = QuadraticSpec(d1=3, d2=4, m=5, mu=1.0, L_g=2.0, hetero=0.3, noise_mode=noise,
                         seed=4)
    tau, N, T, K, seed = [1, 3, 2, 1, 2], 3, 2, 6, 11
    cfg = RunConfig(problem=spec, estimator=estimator, K=K, N=N, T=T, tau=tau,
                    variant=variant, participation=0.6, batch_size=2, seed=seed)
    problem = build_problem(cfg)
    steps, finish = [], CommLedger.finish_outer

    def snapshot(ledger):
        steps.append(dict(problem.audit.by_purpose))
        finish(ledger)
    monkeypatch.setattr(CommLedger, "finish_outer", snapshot)
    (run_fbo_aggitd if estimator == "aggitd" else run_fednest_baseline)(cfg, problem)
    assert len(steps) == K
    root, before = RngStream(seed), {}
    for k, after in enumerate(steps):
        ids = select_participants(Participation(0.6), spec.m, root.child("part", k))
        Q = root.child("est", k, "Q").index(N + 1)
        got = {p: n - before.get(p, 0) for p, n in after.items() if n != before.get(p, 0)}
        want = expected_sample_bill(estimator, N, T, [tau[i] for i in ids], 2, Q, variant)
        assert got == want, (k, ids, Q)
        before = after
