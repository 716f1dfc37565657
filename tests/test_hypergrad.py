"""Hypergradient estimators against enumeration, dense-solve and closed-form oracles."""

import numpy as np
import pytest

from fedbilevel import (AggITDConfig, AidConfig, CommLedger, ContractViolation,
                        LowerStepConfig, ParameterError, QuadraticProblem, QuadraticSpec,
                        RngStream, aggitd, aid_fhe, dense_hessiv,
                        expected_aggitd_indirect, expected_aid_fhe,
                        expected_aid_hessiv, expected_local_fhe, local_fhe,
                        make_quadratic)

from conftest import manual_instance


def _deterministic_setup(d=5, m=3, hetero=0.3, seed=15, spread=0.0):
    spec = QuadraticSpec(d1=d, d2=d, m=m, hetero=hetero, noise_spread=spread,
                         seed=seed)
    inst = make_quadratic(spec)
    return inst, QuadraticProblem(inst)


def _beta(inst, lam):
    return min(1.0, lam, 1.0 / (6.0 * inst.L_g))


def test_aggitd_n_zero_closed_form():
    inst, problem = _deterministic_setup()
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=0, lower=LowerStepConfig(beta=_beta(inst, lam)))
    x = np.ones(5)
    y0 = np.full(5, 0.3)
    h, y_N, trace = aggitd(problem, x, y0, cfg, range(3), RngStream(1), CommLedger())
    assert trace.Q == 0
    np.testing.assert_array_equal(y_N, y0)
    gy = inst.grad_upper_y_exact(x, y0)
    np.testing.assert_allclose(trace.p, lam * gy, rtol=1e-14)
    expect = inst.grad_upper_x_exact(x, y0) - inst.B_bar.T @ (lam * gy)
    np.testing.assert_allclose(h, expect, rtol=1e-13)


def test_aggitd_bits_independent_of_participant_order():
    # rows are evaluated and averaged in sorted-id order, whatever order the
    # participants are listed in; heterogeneous tau exercises the masked steps
    inst, problem = _deterministic_setup(m=5, hetero=0.5, spread=0.2)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=3, lower=LowerStepConfig(beta=_beta(inst, lam),
                                                           tau=[1, 3, 2, 1, 2]))
    x, y = np.ones(5), np.zeros(5)
    outs = []
    for parts in ([0, 2, 3, 4], [4, 3, 0, 2], (3, 0, 4, 2), np.array([2, 4, 0, 3])):
        h, y_N, tr = aggitd(problem, x, y, cfg, parts, RngStream(3), CommLedger())
        outs.append((h.tobytes(), y_N.tobytes(), tr.Q, tr.p.tobytes(),
                     [(i, v.tobytes()) for i, v in tr.h_indirect_clients.items()]))
    assert all(out == outs[0] for out in outs[1:])
    assert [i for i, _ in outs[0][4]] == [0, 2, 3, 4]


def test_aggitd_round_and_loop_accounting():
    inst, problem = _deterministic_setup()
    lam = 1.0 / inst.L_g
    for N in (0, 1, 4, 9):
        cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(inst, lam)))
        ledger = CommLedger()
        ledger.start_outer()
        aggitd(problem, np.ones(5), np.zeros(5), cfg, range(3), RngStream(2), ledger)
        assert ledger.rounds_this_outer == 2 * N + 2
        assert ledger.loops_this_outer == 1


def test_trace_invariants():
    inst, problem = _deterministic_setup(spread=0.1)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=5, lower=LowerStepConfig(beta=_beta(inst, lam)))
    h, y_N, tr = aggitd(problem, np.ones(5), np.zeros(5), cfg, range(3),
                        RngStream(3), CommLedger())
    np.testing.assert_allclose(tr.p, lam * 6 * tr.z_final, rtol=1e-14)
    np.testing.assert_allclose(h, tr.h_direct - tr.h_indirect, rtol=1e-14)
    assert len(tr.y_iterates) == 6
    np.testing.assert_array_equal(tr.y_iterates[-1], y_N)
    assert 0 <= tr.Q <= 5


def test_q_enumeration_matches_expected_indirect():
    inst, problem = _deterministic_setup(d=5, m=3, hetero=0.4, seed=23)
    lam = 1.0 / inst.L_g
    N = 7
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(inst, lam), tau=2))
    x = np.full(5, 0.6)
    y0 = np.zeros(5)
    acc = None
    trace = None
    for Q in range(N + 1):
        _, _, trace = aggitd(problem, x, y0, cfg, range(3), RngStream(4),
                             CommLedger(), q_override=Q)
        acc = trace.h_indirect if acc is None else acc + trace.h_indirect
    mean_ind = acc / (N + 1)
    expected = expected_aggitd_indirect(inst, x, trace.y_iterates, lam, N)
    assert np.max(np.abs(mean_ind - expected)) <= 1e-12


def test_expected_indirect_n_zero_single_term():
    inst, _ = _deterministic_setup()
    lam = 0.05
    x = np.ones(5)
    y0 = np.full(5, -0.2)
    got = expected_aggitd_indirect(inst, x, [y0], lam, 0)
    expect = lam * inst.B_bar.T @ inst.grad_upper_y_exact(x, y0)
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_expected_indirect_converges_to_dense_hessiv():
    inst, _ = _deterministic_setup(hetero=0.5, seed=29)
    lam = 1.0 / inst.L_g
    x = np.ones(5) * 0.4
    ys = inst.y_star(x)
    limit = inst.B_bar.T @ dense_hessiv(inst, x, ys, inst.grad_upper_y_exact(x, ys))
    Ns = (5, 10, 20)  # large N underflows to float noise on this spectrum
    errs = []
    for N in Ns:
        got = expected_aggitd_indirect(inst, x, [ys] * (N + 1), lam, N)
        errs.append(np.linalg.norm(got - limit))
    assert errs[0] > errs[1] > errs[2]
    mu_min = np.linalg.eigvalsh(inst.A_bar)[0]
    # geometric rate: err(N) ~ (1 - lam*mu)^N
    for N, err in zip(Ns, errs):
        assert err <= np.linalg.norm(limit) * (1 - lam * mu_min) ** (N - 1) * 5


def test_stochastic_indirect_conditionally_unbiased():
    # paired Monte-Carlo: per-trial indirect minus its trajectory-conditional
    # expectation has mean zero within 4 standard errors
    spec = QuadraticSpec(d1=3, d2=3, m=3, hetero=0.4, noise_spread=0.15, seed=31)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    lam = 1.0 / inst.L_g
    N = 3
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(inst, lam), tau=2))
    x = np.ones(3) * 0.5
    y0 = inst.y_star(x) + 0.4
    root = RngStream(41)
    diffs = []
    for t in range(3000):
        _, _, tr = aggitd(problem, x, y0, cfg, range(3), root.child("mc", t),
                          CommLedger())
        diffs.append(tr.h_indirect -
                     expected_aggitd_indirect(inst, x, tr.y_iterates, lam, N))
    diffs = np.stack(diffs)
    mean = diffs.mean(axis=0)
    se = np.sqrt(np.sum(diffs.var(axis=0, ddof=1)) / len(diffs))
    assert np.linalg.norm(mean) <= 4 * se


def _assert_uniform_draws(root, tag, n):
    # each of n values within 5 SE of 1/n over the estimator's draw lanes
    # child("mc", t).child(tag), the same lanes as child("mc", t, tag)
    draws = np.array([root.child("mc", t, tag).index(n) for t in range(100_000)])
    p = 1.0 / n
    se = np.sqrt(p * (1 - p) / len(draws))
    for q in range(n):
        assert abs(np.mean(draws == q) - p) <= 5 * se


def test_q_frequencies_uniform():
    inst, problem = _deterministic_setup(d=2, m=2, seed=37)
    lam = 1.0 / inst.L_g
    N = 3
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(inst, lam)))
    root = RngStream(43)
    # the estimator's own Q-draw lane, sampled at scale
    _assert_uniform_draws(root, "Q", N + 1)
    # spot check through the full estimator
    seen = {aggitd(problem, np.ones(2), np.zeros(2), cfg, range(2),
                   root.child("mc", t), CommLedger())[2].Q for t in range(200)}
    assert seen == set(range(N + 1))


def test_t_prime_frequencies_uniform():
    # the AID estimator's own T'-draw lane, sampled at scale
    _assert_uniform_draws(RngStream(43), "T_prime", 6)


def test_aid_enumeration_matches_expected():
    inst, problem = _deterministic_setup(d=4, m=3, hetero=0.5, seed=47)
    lam = 1.0 / inst.L_g
    T = 6
    cfg = AidConfig(lam=lam, N=2, T=T, lower=LowerStepConfig(beta=_beta(inst, lam)))
    x = np.ones(4) * 0.3
    y_N = inst.y_star(x) + 0.2
    acc = np.zeros(4)
    for tp in range(T):
        acc += aid_fhe(problem, x, y_N, cfg, range(3), RngStream(5), CommLedger(),
                       t_prime_override=tp)
    np.testing.assert_allclose(acc / T, expected_aid_fhe(inst, x, y_N, lam, T),
                               rtol=1e-11)


def test_aid_hessiv_approaches_dense_solve():
    inst, _ = _deterministic_setup(d=4, m=2, hetero=0.2, seed=53)
    lam = 1.0 / inst.L_g
    x = np.ones(4)
    y_N = inst.y_star(x)
    target = dense_hessiv(inst, x, y_N, inst.grad_upper_y_exact(x, y_N))
    errs = [np.linalg.norm(expected_aid_hessiv(inst, x, y_N, lam, T) - target)
            for T in (2, 5, 12, 30)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-6 * max(1.0, np.linalg.norm(target))


def test_aid_annihilation_case():
    # lam*H = I: every chain factor is zero, so only the p_0 term survives
    inst = manual_instance([2.0, 2.0], d1=2, m=2, seed=3)
    lam = 0.5
    x = np.ones(2)
    y_N = np.full(2, -0.4)
    got = expected_aid_hessiv(inst, x, y_N, lam, T=7)
    np.testing.assert_allclose(got, lam * inst.grad_upper_y_exact(x, y_N), rtol=1e-14)


def test_aid_geometric_tail_vs_closed_form():
    inst, problem = _deterministic_setup(d=4, m=3, hetero=0.0, seed=59)
    lam = 1.0 / inst.L_g
    x = np.ones(4) * 0.8
    y_N = inst.y_star(x)
    mu_min = np.linalg.eigvalsh(inst.A_bar)[0]
    gy = np.linalg.norm(inst.grad_upper_y_exact(x, y_N))
    for T in (20, 60):
        h = expected_aid_fhe(inst, x, y_N, lam, T)
        err = np.linalg.norm(h - inst.hypergradient(x))
        assert err <= (1 - lam * mu_min) ** T / mu_min * gy * inst.L_g + 1e-14


def test_aid_round_accounting_and_errors():
    inst, problem = _deterministic_setup()
    lam = 1.0 / inst.L_g
    cfg = AidConfig(lam=lam, N=2, T=5, lower=LowerStepConfig(beta=_beta(inst, lam)))
    ledger = CommLedger()
    aid_fhe(problem, np.ones(5), np.zeros(5), cfg, range(3), RngStream(6), ledger)
    assert ledger.rounds_total == 5 + 2  # p0 + T chain rounds + final estimate
    assert ledger.loops_total == 1
    with pytest.raises(ParameterError):
        AidConfig(lam=lam, N=2, T=0, lower=LowerStepConfig(beta=0.01))


def test_local_equals_aid_when_homogeneous():
    inst, problem = _deterministic_setup(d=4, m=3, hetero=0.0, seed=61)
    lam = 1.0 / inst.L_g
    x = np.ones(4) * 0.5
    y_N = inst.y_star(x)
    T = 400
    cfg = AidConfig(lam=lam, N=1, T=T, lower=LowerStepConfig(beta=_beta(inst, lam)))
    h_local = local_fhe(problem, x, y_N, cfg)  # exact recursion, noise off
    h_aid = expected_aid_fhe(inst, x, y_N, lam, T)
    np.testing.assert_allclose(h_local, h_aid, atol=1e-10)
    np.testing.assert_allclose(h_local, inst.hypergradient(x), atol=1e-8)


def test_local_bias_formula_under_heterogeneity():
    # bias needs joint (A_i, B_i) heterogeneity: the estimator is linear in B_i
    inst = make_quadratic(QuadraticSpec(d1=3, d2=3, m=4, hetero=0.8,
                                        noise_spread=0.0, seed=73))
    problem = QuadraticProblem(inst)
    lam = 1.0 / inst.L_g
    x = np.ones(3) * 0.7
    y_N = inst.y_star(x)
    T = 2000
    cfg = AidConfig(lam=lam, N=1, T=T, lower=LowerStepConfig(beta=_beta(inst, lam)))
    h_local = local_fhe(problem, x, y_N, cfg)
    per_client = [inst.rho_x * x + e - B.T @ np.linalg.solve(A, y_N - d)
                  for A, B, d, e in zip(inst.A, inst.B, inst.d, inst.e)]
    np.testing.assert_allclose(h_local, np.mean(per_client, axis=0), atol=1e-9)
    bias = np.linalg.norm(np.mean(per_client, axis=0) - inst.hypergradient(x))
    assert bias > 1e-4  # genuinely biased under joint heterogeneity
    np.testing.assert_allclose(h_local, expected_local_fhe(inst, x, y_N), atol=1e-9)


def test_local_zero_upper_y_gradient_gives_direct_part():
    inst = manual_instance([2.0, 2.0], d1=2, m=3, seed=13)
    problem = QuadraticProblem(inst)
    lam = 0.25
    x = np.ones(2)
    y_N = inst.d[0].copy()  # grad_y f_i = y - d_i = 0 for every client
    cfg = AidConfig(lam=lam, N=1, T=30, lower=LowerStepConfig(beta=0.05))
    ledger = CommLedger()
    h = local_fhe(problem, x, y_N, cfg, ledger=ledger)
    np.testing.assert_allclose(h, inst.grad_upper_x_exact(x, y_N), atol=1e-14)
    assert ledger.rounds_total == 1  # only the final average is a round


def test_dense_hessiv_examples():
    inst = manual_instance([2.0, 2.0], d1=2, m=1, seed=17)
    x = np.zeros(2)
    y = np.zeros(2)
    np.testing.assert_allclose(dense_hessiv(inst, x, y, np.array([2.0, 4.0])),
                               [1.0, 2.0], rtol=1e-14)
    np.testing.assert_allclose(dense_hessiv(inst, x, y, np.zeros(2)), [0.0, 0.0])
    inst2, _ = _deterministic_setup(d=5, seed=67)
    gen = RngStream(8).child("v").generator()
    v = gen.normal(size=5)
    lam = 1.0 / inst2.L_g
    s = v.copy()
    acc = v.copy()
    for _ in range(1, 500):
        s = s - lam * (inst2.A_bar @ s)
        acc += s
    direct = dense_hessiv(inst2, np.zeros(5), np.zeros(5), v)
    np.testing.assert_allclose(lam * acc, direct, rtol=1e-6)
    assert np.linalg.norm(inst2.A_bar @ direct - v) <= 1e-10 * np.linalg.norm(v)


def test_estimator_family_agreement_homogeneous():
    inst, problem = _deterministic_setup(d=4, m=3, hetero=0.0, seed=71)
    lam = 1.0 / inst.L_g
    x = np.ones(4) * 0.6
    ys = inst.y_star(x)
    N = T = 80
    truth = inst.hypergradient(x)
    e_aggitd = inst.grad_upper_x_exact(x, ys) \
        - expected_aggitd_indirect(inst, x, [ys] * (N + 1), lam, N)
    e_aid = expected_aid_fhe(inst, x, ys, lam, T)
    cfg = AidConfig(lam=lam, N=N, T=T, lower=LowerStepConfig(beta=_beta(inst, lam)))
    e_local = local_fhe(problem, x, ys, cfg)
    for h in (e_aggitd, e_aid, e_local):
        assert np.linalg.norm(h - truth) <= 1e-4


def test_homogeneous_per_client_local_estimates_all_equal_aggregate():
    inst, _ = _deterministic_setup(d=3, m=4, hetero=0.0, seed=79)
    x = np.full(3, 0.4)
    ys = inst.y_star(x)
    truth = inst.hypergradient(x)
    for A, B, d, e in zip(inst.A, inst.B, inst.d, inst.e):
        h_i = inst.rho_x * x + e - B.T @ np.linalg.solve(A, ys - d)
        np.testing.assert_allclose(h_i, truth, atol=1e-10)


def test_config_validation():
    inst, problem = _deterministic_setup()
    good_lam = 1.0 / inst.L_g
    with pytest.raises(ParameterError):
        AggITDConfig(lam=good_lam, N=-1, lower=LowerStepConfig(beta=0.01))
    cfg_bad_lam = AggITDConfig(lam=good_lam * 2, N=1, lower=LowerStepConfig(beta=0.001))
    with pytest.raises(ParameterError):
        aggitd(problem, np.ones(5), np.zeros(5), cfg_bad_lam, range(3),
               RngStream(0), CommLedger())
    cfg_bad_beta = AggITDConfig(lam=good_lam, N=1,
                                lower=LowerStepConfig(beta=good_lam * 2))
    with pytest.raises(ParameterError):
        aggitd(problem, np.ones(5), np.zeros(5), cfg_bad_beta, range(3),
               RngStream(0), CommLedger())
    with pytest.raises(ParameterError):
        aggitd(problem, np.ones(5), np.zeros(5),
               AggITDConfig(lam=good_lam, N=2, lower=LowerStepConfig(beta=0.001)),
               range(3), RngStream(0), CommLedger(), q_override=5)


def test_estimators_take_checked_oracles_of_their_problem_only():
    # an outer step's checked oracles stand in for the participant ids, bit
    # for bit; another problem's checked oracles are a contract violation
    inst, problem = _deterministic_setup(m=4, spread=0.2)
    _, other = _deterministic_setup(m=4, spread=0.2, seed=16)
    lam = 1.0 / inst.L_g
    lower = LowerStepConfig(beta=_beta(inst, lam), tau=[1, 2, 3, 1])
    cfg, aid_cfg = AggITDConfig(lam=lam, N=2, lower=lower), AidConfig(lam=lam, N=2, T=3,
                                                                     lower=lower)
    x, y, ids = np.ones(5), np.zeros(5), [0, 2, 3]
    calls = {
        "aggitd": lambda parts: aggitd(problem, x, y, cfg, parts, RngStream(4),
                                       CommLedger())[0],
        "aid_fhe": lambda parts: aid_fhe(problem, x, y, aid_cfg, parts, RngStream(4),
                                         CommLedger()),
        "local_fhe": lambda parts: local_fhe(problem, x, y, aid_cfg, RngStream(4), parts),
    }
    for name, call in calls.items():
        checked = problem.checked(ids, x, y)
        assert call(checked).tobytes() == call(ids).tobytes(), name
        with pytest.raises(ContractViolation):
            call(other.checked(ids, x, y))
