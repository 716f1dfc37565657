"""Hypergradient estimators against enumeration, dense-solve and closed-form oracles."""

import dataclasses

import numpy as np
import pytest

from fedbilevel import (AggITDConfig, AidConfig, CommLedger, ContractViolation,
                        LowerStepConfig, ParameterError, ProtocolError, QuadraticProblem,
                        QuadraticSpec,
                        RngStream, aggitd, aggregate_mean, aid_fhe,
                        expected_aggitd_indirect, expected_aid_fhe, expected_aid_hessiv,
                        expected_local_fhe, local_fhe, make_quadratic)

from fedbilevel.errors import ClientLookupError
from fedbilevel.hypergrad import beta_cap, chain_lanes

from conftest import count_schedule_resolutions, manual_instance


def _deterministic_setup(d=5, m=3, hetero=0.3, seed=15, spread=0.0):
    spec = QuadraticSpec(d1=d, d2=d, m=m, hetero=hetero, noise_spread=spread,
                         seed=seed)
    inst = make_quadratic(spec)
    return inst, QuadraticProblem(inst)


def _beta(inst, lam):
    return beta_cap(lam, inst.constants)


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


@pytest.mark.parametrize("tau", [1, [1, 3, 2, 1, 2]], ids=["tau1", "tau-list"])
def test_full_set_forms_give_identical_estimates_ledgers_and_audits(tau):
    # range(m) is the full set's own ids without a sort; a list, an ndarray, a
    # reversed range or the checked oracles give the same bits, the same
    # ledger and the same sample audit, and a second direct call on one
    # config reads the kept table and the checked stepsizes
    inst, problem = _deterministic_setup(m=5, hetero=0.5, spread=0.2)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=3, lower=LowerStepConfig(beta=_beta(inst, lam), tau=tau))
    x, y = np.ones(5), np.zeros(5)
    outs = []
    for parts in (range(5), [4, 3, 2, 1, 0], np.arange(5), range(4, -1, -1),
                  problem.checked(range(5), x, y), range(5)):
        problem.audit.reset()
        ledger = CommLedger()
        h, y_N, tr = aggitd(problem, x, y, cfg, parts, RngStream(3).child("mc", 2), ledger)
        outs.append((h.tobytes(), y_N.tobytes(), tr.Q, tr.p.tobytes(),
                     [(i, v.tobytes()) for i, v in tr.h_indirect_clients.items()],
                     vars(ledger), dict(problem.audit.by_purpose), problem.audit.total))
    assert all(out == outs[0] for out in outs[1:])
    assert outs[0][6] and outs[0][7] == sum(outs[0][6].values())
    assert problem.steps_passed == (cfg, problem.constants)


def test_direct_call_prologue_keeps_every_check():
    # what range(m), a checked set and a kept table skip is still checked:
    # range(1, m) is a partial set, range(m + 1) an id out of range, another
    # problem's checked oracles and a non-stream rng are contract violations,
    # and a changed config or constants derive the caps again
    inst, problem = _deterministic_setup(m=4, spread=0.2)
    _, other = _deterministic_setup(m=4, spread=0.2, seed=16)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=2, lower=LowerStepConfig(beta=_beta(inst, lam)))
    x, y = np.ones(5), np.zeros(5)

    def call(parts, rng=RngStream(4), c=cfg):
        return aggitd(problem, x, y, c, parts, rng, CommLedger())[0].tobytes()
    assert call(range(1, 4)) == call([1, 2, 3]) != call(range(4))
    assert problem.checked(range(1, 4), x, y) is not problem.checked(range(4), x, y)
    assert call(range(0, 4, 2)) == call([0, 2])
    with pytest.raises(ClientLookupError):
        call(range(5))
    with pytest.raises(ProtocolError, match="empty"):
        call(range(0))
    with pytest.raises(ContractViolation, match="shape"):
        aggitd(problem, x, np.zeros((3, 5)), cfg, range(4), RngStream(4), CommLedger())
    with pytest.raises(ContractViolation, match="another problem"):
        call(other.checked(range(4), x, y))
    for rng in (None, RngStream(4).generator(), 4):
        with pytest.raises(ContractViolation, match=r"\brng\b"):
            call(range(4), rng)
    call(range(4))
    with pytest.raises(ParameterError, match="violates cap"):
        call(range(4), c=dataclasses.replace(cfg, lam=2 * lam))
    problem.constants = dataclasses.replace(problem.constants, L_g=2 * inst.L_g)
    with pytest.raises(ParameterError, match="violates cap"):
        call(range(4))


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
    limit = inst.B_bar.T @ inst.solve_A_bar(inst.grad_upper_y_exact(x, ys))
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
    cfg = AidConfig(lam=lam, T=T)
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
    target = inst.solve_A_bar(inst.grad_upper_y_exact(x, y_N))
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
    cfg = AidConfig(lam=lam, T=5)
    ledger = CommLedger()
    aid_fhe(problem, np.ones(5), np.zeros(5), cfg, range(3), RngStream(6), ledger)
    assert ledger.rounds_total == 5 + 2  # p0 + T chain rounds + final estimate
    assert ledger.loops_total == 1
    for T in (0, 2.5, "3", True):   # True is not a count
        with pytest.raises(ParameterError, match=r"\bT\b"):
            AidConfig(lam=lam, T=T)


def _aid_problems():
    """A noisy quadratic and a hyperrep problem, each with a point (x, y) and
    a lambda under its cap."""
    from fedbilevel import HyperRepSpec, make_hyperrep
    from fedbilevel.hypergrad import lambda_cap
    inst = make_quadratic(QuadraticSpec(d1=4, d2=3, m=4, hetero=0.4, noise_spread=0.2,
                                        seed=21))
    quad = QuadraticProblem(inst, batch_size=2)
    rep = make_hyperrep(HyperRepSpec(m=3, n_points=120), 0, batch_size=4)
    x_rep, _ = rep.initial_point()
    for problem, x, y in ((quad, np.full(4, 0.3), inst.y_star(np.full(4, 0.3)) + 0.2),
                          (rep, x_rep, np.full(rep.d2, 0.1))):
        yield problem, x, y, 0.9 * lambda_cap(problem.constants)


def _full_chain_aid(problem, x, y, lam, T, T_prime, ids, scope):
    """The AID estimate from every p_t of the T-round chain, built from the
    public oracles and aggregate_mean, and the ledger of those rounds."""
    ledger = CommLedger()
    p = lam * T * aggregate_mean(problem.grad_upper_y(ids, x, y, scope.lanes(ids, "xi0")),
                                 ledger)
    chain = [p]
    for t in range(1, T + 1):
        hv = problem.hvp_lower_yy(ids, x, y, chain[-1], scope.lanes(ids, "zeta_h", t))
        chain.append(aggregate_mean(chain[-1] - lam * hv, ledger))
    direct = problem.grad_upper_x(ids, x, y, scope.lanes(ids, "xi_h"))
    indirect = problem.jvp_lower_xy(ids, x, y, chain[T_prime], scope.lanes(ids, "chi"))
    h_direct, h_indirect = aggregate_mean([direct, indirect], ledger)
    return h_direct - h_indirect, ledger


@pytest.mark.parametrize("participants", ["all", [0, 2]])
def test_aid_computes_the_chain_up_to_t_prime_and_charges_all_of_it(participants):
    # aid_fhe builds p_t only up to the p_{T'} it reads: its estimate equals
    # the full chain's bit for bit, it makes T' Hessian calls, and it still
    # charges T+2 rounds, one loop, the full chain's scalars and the AID
    # chain's sample bill, for every T' in 0..T-1
    from fedbilevel.verify import expected_sample_bill
    T = 4
    for problem, x, y, lam in _aid_problems():
        parts = range(problem.m) if participants == "all" else participants
        ids = problem.checked(parts, x, y).ids
        k, b = ids.size, problem.batch_size
        bill = expected_sample_bill("aid", 0, T, [1] * k, b)
        bill = {purpose: bill[purpose] for purpose in ("xi0", "zeta_h", "xi_h", "chi")}
        hvp = problem.hvp_lower_yy
        for T_prime in range(T):
            scope = RngStream(8).child("aid", T_prime).declare(chain_lanes(T), problem.m)
            want, full = _full_chain_aid(problem, x, y, lam, T, T_prime, ids, scope)
            calls, ledger = [], CommLedger()
            problem.audit.reset()
            problem.hvp_lower_yy = lambda *a: calls.append(1) or hvp(*a)
            try:
                h = aid_fhe(problem, x, y, AidConfig(lam=lam, T=T), parts, scope, ledger,
                            t_prime_override=T_prime)
            finally:
                del problem.hvp_lower_yy
            assert h.tobytes() == want.tobytes(), T_prime
            assert len(calls) == T_prime
            assert (ledger.rounds_total, ledger.loops_total) == (T + 2, 1)
            assert ledger.scalars_sent == full.scalars_sent
            assert problem.audit.by_purpose == bill


def test_aid_resolves_every_chain_lane_whatever_t_prime():
    # the rounds past T' still resolve their lanes, so a table that declares
    # a shorter chain than T raises on every call, not only when T' reaches it
    inst, problem = _deterministic_setup(spread=0.2)
    cfg = AidConfig(lam=1.0 / inst.L_g, T=2)
    for T_prime in range(2):
        scope = RngStream(3).declare(chain_lanes(1), problem.m)
        with pytest.raises(ContractViolation, match="zeta_h"):
            aid_fhe(problem, np.ones(5), np.zeros(5), cfg, range(3), scope, CommLedger(),
                    t_prime_override=T_prime)


def test_local_equals_aid_when_homogeneous():
    inst, problem = _deterministic_setup(d=4, m=3, hetero=0.0, seed=61)
    lam = 1.0 / inst.L_g
    x = np.ones(4) * 0.5
    y_N = inst.y_star(x)
    T = 400
    cfg = AidConfig(lam=lam, T=T)
    h_local = local_fhe(problem, x, y_N, cfg, range(3), RngStream(0), CommLedger())  # noise off
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
    cfg = AidConfig(lam=lam, T=T)
    h_local = local_fhe(problem, x, y_N, cfg, range(4), RngStream(0), CommLedger())
    per_client = [inst.rho_x * x + e - B.T @ np.linalg.solve(A, y_N - d)
                  for A, B, d, e in zip(inst.A, inst.B, inst.d, inst.e)]
    np.testing.assert_allclose(h_local, np.mean(per_client, axis=0), atol=1e-9)
    bias = np.linalg.norm(np.mean(per_client, axis=0) - inst.hypergradient(x))
    assert bias > 1e-4  # genuinely biased under joint heterogeneity
    np.testing.assert_allclose(h_local, expected_local_fhe(inst, x, y_N), atol=1e-9)


def test_expected_local_fhe_names_its_arguments():
    # T without lam used to end in a raw TypeError (None * float)
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=2, seed=5))
    x, y = np.ones(2), np.zeros(2)
    for kw, match in ((dict(T=5), "lam and T together"), (dict(lam=0.5), "lam and T together"),
                      (dict(lam=0.0, T=5), r"\blam\b"), (dict(lam=0.5, T=0), r"\bT\b"),
                      (dict(lam=0.5, T=2.0), r"\bT\b")):
        with pytest.raises(ParameterError, match=match):
            expected_local_fhe(inst, x, y, **kw)
    one_step = [inst.rho_x * x + e - B.T @ (0.5 * (y - d))
                for B, d, e in zip(inst.B, inst.d, inst.e)]
    np.testing.assert_allclose(expected_local_fhe(inst, x, y, 0.5, 1),
                               np.mean(one_step, axis=0), rtol=1e-14)


def test_local_zero_upper_y_gradient_gives_direct_part():
    inst = manual_instance([2.0, 2.0], d1=2, m=3, seed=13)
    problem = QuadraticProblem(inst)
    lam = 0.25
    x = np.ones(2)
    y_N = inst.d[0].copy()  # grad_y f_i = y - d_i = 0 for every client
    cfg = AidConfig(lam=lam, T=30)
    ledger = CommLedger()
    h = local_fhe(problem, x, y_N, cfg, range(3), RngStream(0), ledger)
    np.testing.assert_allclose(h, inst.grad_upper_x_exact(x, y_N), atol=1e-14)
    assert ledger.rounds_total == 1  # only the final average is a round


def test_dense_hessiv_examples():
    inst = manual_instance([2.0, 2.0], d1=2, m=1, seed=17)
    np.testing.assert_allclose(inst.solve_A_bar(np.array([2.0, 4.0])), [1.0, 2.0], rtol=1e-14)
    np.testing.assert_allclose(inst.solve_A_bar(np.zeros(2)), [0.0, 0.0])
    inst2, _ = _deterministic_setup(d=5, seed=67)
    gen = RngStream(8).child("v").generator()
    v = gen.normal(size=5)
    lam = 1.0 / inst2.L_g
    s = v.copy()
    acc = v.copy()
    for _ in range(1, 500):
        s = s - lam * (inst2.A_bar @ s)
        acc += s
    direct = inst2.solve_A_bar(v)
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
    cfg = AidConfig(lam=lam, T=T)
    e_local = local_fhe(problem, x, ys, cfg, range(3), RngStream(0), CommLedger())
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
    for N in (-1, 2.5, "3", True):   # True is not a count
        with pytest.raises(ParameterError, match=r"\bN\b"):
            AggITDConfig(lam=good_lam, N=N, lower=LowerStepConfig(beta=0.01))
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
    # each estimator names a mistyped lambda before any round
    x, y, lower = np.ones(5), np.zeros(5), LowerStepConfig(beta=0.001)
    for lam in ("0.1", True, float("nan"), -good_lam):
        aid_cfg = AidConfig(lam=lam, T=1)
        for call in (lambda: aggitd(problem, x, y, AggITDConfig(lam=lam, N=1, lower=lower),
                                    range(3), RngStream(0), CommLedger()),
                     lambda: aid_fhe(problem, x, y, aid_cfg, range(3), RngStream(0),
                                     CommLedger()),
                     lambda: local_fhe(problem, x, y, aid_cfg, range(3), RngStream(0),
                                       CommLedger())):
            with pytest.raises(ParameterError, match=r"\blam\b"):
                call()


@pytest.mark.parametrize("value", [1.5, True, "1", np.float64(1.0), -1, 3])
@pytest.mark.parametrize("name", ["q_override", "t_prime_override"])
def test_override_not_an_index_in_range_is_named(name, value):
    # a float, a bool or a str is not read as an index, nor is one out of
    # {0..N} (N = 2) or {0..T-1} (T = 3): each raises ParameterError naming
    # the argument, before any round
    inst, problem = _deterministic_setup()
    lam = 1.0 / inst.L_g
    x, y, ledger = np.ones(5), np.zeros(5), CommLedger()
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer >= 0"):
        if name == "q_override":
            aggitd(problem, x, y, AggITDConfig(lam=lam, N=2, lower=LowerStepConfig(
                beta=_beta(inst, lam))), range(3), RngStream(0), ledger, q_override=value)
        else:
            aid_fhe(problem, x, y, AidConfig(lam=lam, T=3), range(3), RngStream(0), ledger,
                    t_prime_override=value)
    assert ledger.rounds_total == 0 and problem.audit.total == 0


def test_estimators_take_checked_oracles_of_their_problem_only():
    # an outer step's checked oracles stand in for the participant ids, bit
    # for bit; another problem's checked oracles are a contract violation
    inst, problem = _deterministic_setup(m=4, spread=0.2)
    _, other = _deterministic_setup(m=4, spread=0.2, seed=16)
    lam = 1.0 / inst.L_g
    lower = LowerStepConfig(beta=_beta(inst, lam), tau=[1, 2, 3, 1])
    cfg, aid_cfg = AggITDConfig(lam=lam, N=2, lower=lower), AidConfig(lam=lam, T=3)
    x, y, ids = np.ones(5), np.zeros(5), [0, 2, 3]
    calls = {
        "aggitd": lambda parts: aggitd(problem, x, y, cfg, parts, RngStream(4),
                                       CommLedger())[0],
        "aid_fhe": lambda parts: aid_fhe(problem, x, y, aid_cfg, parts, RngStream(4),
                                         CommLedger()),
        "local_fhe": lambda parts: local_fhe(problem, x, y, aid_cfg, parts, RngStream(4),
                                             CommLedger()),
    }
    for name, call in calls.items():
        checked = problem.checked(ids, x, y)
        assert call(checked).tobytes() == call(ids).tobytes(), name
        with pytest.raises(ContractViolation):
            call(other.checked(ids, x, y))


def test_direct_calls_build_the_full_set_schedule_once(monkeypatch):
    # direct aggitd calls on one problem check their participants on every
    # call, but the One-Round-Lower schedule of the full set is cached on its
    # ids, so it is built once; a wrong point still raises
    from fedbilevel import lower
    from fedbilevel.problems import CheckedOracles
    inst, problem = _deterministic_setup(m=4, spread=0.2)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=3, lower=LowerStepConfig(beta=_beta(inst, lam),
                                                           tau=[1, 3, 2, 1]))
    built = count_schedule_resolutions(monkeypatch)
    x, y = np.ones(5), np.zeros(5)
    first = [aggitd(problem, x, y, cfg, range(4), RngStream(9).child("mc", t),
                    CommLedger())[0] for t in range(5)]
    assert built == [(0, 1, 2, 3)] and lower._schedule.cache_info().currsize == 1
    for xx, yy in ((np.ones(4), y), (x, np.zeros(6)), (x, np.zeros((3, 5))),
                   (x, np.zeros((4, 5)))):
        with pytest.raises(ContractViolation, match="shape"):
            aggitd(problem, xx, yy, cfg, range(4), RngStream(9), CommLedger())
    for t, h in enumerate(first):   # against a schedule built anew for each call
        lower._schedule.cache_clear()
        want = aggitd(problem, x, y, cfg, CheckedOracles(problem, np.arange(4)),
                      RngStream(9).child("mc", t), CommLedger())[0]
        assert h.tobytes() == want.tobytes()
    assert len(built) == 1 + len(first)


def test_q_and_t_prime_are_the_scalar_draws_on_every_scope(monkeypatch):
    # Q and T' come from their lane table's one draw per step and equal
    # RngStream(seed).child(*key, "Q").index(N + 1) and
    # child(*key, "T_prime").index(T) on every scope a call can get: steps of
    # lane_steps under "est", the child("aid") of such a step, kept sibling
    # chunks read across chunk boundaries, one-step tables and a run's steps
    # at participation 0.5. No estimator hashes a Q or T' of its own: an
    # index draw on a free stream, or of an n past the table-wide range,
    # fails the test.
    from fedbilevel import RunConfig, drivers, run_fbo_aggitd, run_fednest_baseline
    from fedbilevel import rng as rng_mod
    from fedbilevel.hypergrad import aggitd_lanes
    from fedbilevel.rng import lane_steps
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.3, noise_spread=0.2, seed=15)
    problem = QuadraticProblem(make_quadratic(spec))
    lam = 1.0 / problem.constants.L_g
    N, T, K, seed = 3, 5, 12, 11
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(problem, lam)))
    aid_cfg = AidConfig(lam=lam, T=T)
    x, y, root = np.ones(3), np.zeros(3), RngStream(seed)
    scalar = RngStream.index

    def want_q(*key):
        return scalar(RngStream(seed).child(*key, "Q"), N + 1)

    def want_t_prime(*key):
        return scalar(RngStream(seed).child(*key, "T_prime"), T)

    hvps, hvp = [], problem.hvp_lower_yy   # aid_fhe makes T' Hessian calls
    monkeypatch.setattr(problem, "hvp_lower_yy", lambda *a: hvps.append(1) or hvp(*a))

    def t_prime(scope):
        hvps.clear()
        aid_fhe(problem, x, y, aid_cfg, range(2), scope, CommLedger())
        return len(hvps)

    def q(scope):
        return aggitd(problem, x, y, cfg, range(2), scope, CommLedger())[2].Q

    def table_index(stream, n):
        if stream.table is None or type(n) is not int or n >= rng_mod.INDEX_RANGE:
            pytest.fail("a scalar index draw")
        return scalar(stream, n)
    monkeypatch.setattr(RngStream, "index", table_index)
    monkeypatch.setattr(rng_mod, "ROW_BUDGET", 50)   # chunks of 2 (fused) and 3 (AID) steps
    qs = [q(s) for s in lane_steps(root, "est", K, 2, aggitd_lanes(N, 1))]
    assert qs == [want_q("est", k) for k in range(K)] and len(set(qs)) > 1
    tps = [t_prime(s.child("aid")) for s in lane_steps(root, "est", K, 2, chain_lanes(T, "aid"))]
    assert tps == [want_t_prime("est", k, "aid") for k in range(K)] and len(set(tps)) > 1
    for name, draw, want in (("q", q, want_q), ("aid", t_prime, want_t_prime)):
        assert [draw(root.child(name, k)) for k in range(K)] == [want(name, k) for k in range(K)]
        assert len(rng_mod._kept[1]) in (2, 3)   # the kept steps are a sibling chunk
    one_step = root.child("est", 0).child("aid")
    assert (q(one_step), t_prime(one_step)) == (want_q("est", 0, "aid"),
                                                want_t_prime("est", 0, "aid"))
    assert q(root) == want_q()

    run_qs, run_tps = [], []

    def traced_aggitd(*a, **kw):
        out = aggitd(*a, **kw)
        run_qs.append(out[2].Q)
        return out

    def traced_aid_fhe(*a, **kw):
        hvps.clear()
        out = aid_fhe(*a, **kw)
        run_tps.append(len(hvps))
        return out

    monkeypatch.setattr(drivers, "aggitd", traced_aggitd)
    monkeypatch.setattr(drivers, "aid_fhe", traced_aid_fhe)
    run_cfg = RunConfig(problem=spec, K=K, N=N, T=T, alpha=0.01, participation=0.5, seed=seed)
    run_fbo_aggitd(run_cfg, problem)
    run_fednest_baseline(dataclasses.replace(run_cfg, estimator="aid"), problem)
    assert run_qs == [want_q("est", k) for k in range(K)]
    assert run_tps == [want_t_prime("est", k, "aid") for k in range(K)]


def test_numpy_integer_n_and_t_draw_the_int_q_and_t_prime(monkeypatch):
    # a numpy integer N or T passes AggITDConfig's and AidConfig's checks, so
    # it draws the Q and T' of the int setting on every scope: steps of
    # lane_steps, kept sibling chunks and a one-step table
    from fedbilevel.hypergrad import aggitd_lanes
    from fedbilevel.rng import lane_steps
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.3, noise_spread=0.2, seed=15)
    problem = QuadraticProblem(make_quadratic(spec))
    lam = 1.0 / problem.constants.L_g
    lower = LowerStepConfig(beta=_beta(problem, lam))
    N, T, K, x, y, root = 5, 6, 10, np.ones(3), np.zeros(3), RngStream(8)
    hvps, hvp = [], problem.hvp_lower_yy   # aid_fhe makes T' Hessian calls
    monkeypatch.setattr(problem, "hvp_lower_yy", lambda *a: hvps.append(1) or hvp(*a))

    def q(n, scope):
        cfg = AggITDConfig(lam=lam, N=n, lower=lower)
        return aggitd(problem, x, y, cfg, range(2), scope, CommLedger())[2].Q

    def t_prime(t, scope):
        hvps.clear()
        aid_fhe(problem, x, y, AidConfig(lam=lam, T=t), range(2), scope, CommLedger())
        return len(hvps)

    for draw, n, sets in ((q, N, aggitd_lanes(N, 1)), (t_prime, T, chain_lanes(T))):
        scopes = [*lane_steps(root, "est", K, 2, sets), *(root.child("kept", k) for k in range(K)),
                  root.child("one")]
        want = [draw(n, s) for s in scopes]
        assert len(set(want)) > 1
        for t in (np.int64, np.int32, np.uint64):
            assert [draw(t(n), s) for s in scopes] == want, t


def test_index_range_bounds_name_the_setting():
    # Q and T' are drawn table-wide, which takes a range below 2**32: so
    # N + 1 and T are bounded where they are set, and named there; inside
    # that range, the lane sets of one call (STEP_LANE_SETS) bind first
    from fedbilevel import RunConfig
    from fedbilevel.drivers import resolve_params
    lower, big = LowerStepConfig(beta=0.1), 1 << 32
    with pytest.raises(ParameterError, match=rf"^N = {big - 2} and tau = 1 declare up to "):
        AggITDConfig(lam=0.1, N=big - 2, lower=lower)
    with pytest.raises(ParameterError, match=rf"^T = {big - 1} declare up to {big + 2} lane"):
        AidConfig(lam=0.1, T=big - 1)
    with pytest.raises(ParameterError, match=rf"^N must be an integer >= 0 and < {big - 1}, "):
        AggITDConfig(lam=0.1, N=big - 1, lower=lower)
    with pytest.raises(ParameterError, match=rf"^T must be an integer >= 1 and < {big}, "):
        AidConfig(lam=0.1, T=big)
    constants = make_quadratic(QuadraticSpec(d1=2, d2=2, m=2)).constants
    # in a run, the bound on a step's lane sets (STEP_LANE_SETS) binds first
    for cfg in (RunConfig(N=big - 2), RunConfig(T=big - 1)):
        with pytest.raises(ParameterError, match=r"lane sets per outer step, above"):
            resolve_params(cfg, constants)
    with pytest.raises(ParameterError, match=rf"^N must be an integer >= 0 and < {big - 1}, "):
        resolve_params(RunConfig(N=big - 1), constants)
    with pytest.raises(ParameterError, match=rf"^T must be an integer >= 1 and < {big}, "):
        resolve_params(RunConfig(T=big), constants)


def test_config_lane_sets_bound_names_n_t_and_tau():
    # a direct estimator call hashes its lane sets before its first round, at
    # most N (max tau_i + 3) + 3 for aggitd and T + 3 for aid_fhe and
    # local_fhe: the configs bound them by STEP_LANE_SETS, before any set is
    # built, and every config a run resolves still passes
    from fedbilevel import RunConfig, drivers
    from fedbilevel.hypergrad import STEP_LANE_SETS, aggitd_lanes, chain_lanes
    assert drivers.STEP_LANE_SETS is STEP_LANE_SETS == 65536
    for N, tau in ((0, 1), (3, 1), (2, 4), (3, [2, 5])):
        top = max(np.atleast_1d(tau))
        assert len(aggitd_lanes(N, top, "sgd")) == N * (top + 3) + 3
        assert len(aggitd_lanes(N, top)) <= N * (top + 3) + 3
    assert len(chain_lanes(7)) == 7 + 3
    lower = LowerStepConfig(beta=0.1)
    assert AggITDConfig(lam=0.1, N=16383, lower=lower).N == 16383   # 65,535 sets
    assert AidConfig(lam=0.1, T=65533).T == 65533
    for N, tau, sets in ((16384, 1, 65539), (10 ** 5, 1, 400003), (1, [1, 65531], 65537)):
        with pytest.raises(ParameterError, match=rf"^N = {N} and tau = {max(np.atleast_1d(tau))}"
                           rf" declare up to {sets} lane sets per call, above STEP_LANE_SETS"):
            AggITDConfig(lam=0.1, N=N, lower=LowerStepConfig(beta=0.1, tau=tau))
    with pytest.raises(ParameterError, match=r"^T = 65534 declare up to 65537 lane sets per"):
        AidConfig(lam=0.1, T=65534)
    with pytest.raises(ParameterError, match=r"^lower must be a LowerStepConfig, got None"):
        AggITDConfig(lam=0.1, N=1, lower=None)
    constants = make_quadratic(QuadraticSpec(d1=2, d2=2, m=2)).constants
    for N, T, tau in ((16383, 1, 1), (0, 65533, 1), (1, 1, [1, 65529])):
        N, T, lam, _, beta = drivers.resolve_params(RunConfig(N=N, T=T, tau=tau,
                                                              problem=QuadraticSpec(m=2)),
                                                    constants)
        assert AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=beta, tau=tau)).N == N
        assert AidConfig(lam=lam, T=T).T == T


@pytest.mark.parametrize("participants", [range(3), [0, 2]], ids=["all", "partial"])
def test_trace_per_client_view_is_built_on_read(participants):
    # h_indirect_clients is client id -> that client's indirect part, as the
    # public jvp oracle gives it on the call's "chi" lanes, bit for bit; the
    # trace builds it on its first read only
    from fedbilevel.hypergrad import aggitd_lanes
    from fedbilevel.rng import lane_steps
    inst, problem = _deterministic_setup(spread=0.2)
    lam = 1.0 / inst.L_g
    cfg = AggITDConfig(lam=lam, N=3, lower=LowerStepConfig(beta=_beta(inst, lam)))
    x, y = np.ones(5), np.zeros(5)
    step = next(lane_steps(RngStream(4), "est", 1, 3, aggitd_lanes(3, 1)))
    oracles = problem.checked(participants, x, y)
    _, y_N, tr = aggitd(problem, x, y, cfg, oracles, step, CommLedger())
    assert "h_indirect_clients" not in vars(tr)
    ids = oracles.ids
    want = dict(zip(ids.tolist(), problem.jvp_lower_xy(ids, x, y_N, tr.p,
                                                       step.lanes(ids, "chi"))))
    got = tr.h_indirect_clients
    assert list(got) == list(want) == list(participants)
    assert all(got[i].tobytes() == want[i].tobytes() for i in want)
    assert [v.tobytes() for v in tr.h_indirect_clients.values()] == [
        v.tobytes() for v in got.values()]


def test_hyperrep_q_average_is_the_itd_forward_recursion():
    # criterion 2's identity on a problem whose Hessians move with y. With a
    # batch that covers the largest split every oracle is exact, and the mean
    # over Q in {0..N} of the fused indirect part equals ITD's forward
    # recursion over the trace's iterates, through the public oracles:
    # s_0 = grad_y F(y^0), s_t = (I - lam H(y^t)) s_{t-1} + grad_y F(y^t),
    # mean = lam * mean_i jvp_i(y^N, s_N). Only the summation order differs.
    from fedbilevel import HyperRepSpec, make_hyperrep
    from fedbilevel.hypergrad import lambda_cap
    spec = HyperRepSpec(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=3, n_points=48)
    probe = make_hyperrep(spec, 0)
    largest = max(len(s) for s in (*probe.train_idx, *probe.val_idx))
    problem = make_hyperrep(spec, 0, batch_size=largest)
    N, lam = 4, lambda_cap(problem.constants)
    cfg = AggITDConfig(lam=lam, N=N, lower=LowerStepConfig(beta=_beta(problem, lam)))
    x, y = problem.initial_point()
    y = y + 2.0 * RngStream(1).child("y0").normal(1.0, y.shape)
    ids = np.arange(spec.m)
    traces = [aggitd(problem, x, y, cfg, ids, RngStream(7), CommLedger(), q_override=q)[2]
              for q in range(N + 1)]
    average = np.mean([tr.h_indirect for tr in traces], axis=0)
    ys = traces[0].y_iterates

    def mean(rows):
        return np.mean(rows, axis=0)

    s = mean(problem.grad_upper_y(ids, x, ys[0], None))
    for t in range(1, N + 1):
        s = (s - lam * mean(problem.hvp_lower_yy(ids, x, ys[t], s, None))
             + mean(problem.grad_upper_y(ids, x, ys[t], None)))
    want = lam * mean(problem.jvp_lower_xy(ids, x, ys[N], s, None))
    assert np.linalg.norm(average - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("T", [1, 2, 3])
def test_local_fhe_at_small_t_is_its_truncated_chain(T):
    # noise off, local_fhe is the exact T-term local chain; at small T one
    # term more or fewer is far above the tolerance
    inst = make_quadratic(QuadraticSpec(d1=3, d2=3, m=4, hetero=0.8,
                                        noise_spread=0.0, seed=73))
    problem = QuadraticProblem(inst)
    lam = 1.0 / inst.L_g
    x = np.ones(3) * 0.7
    y = inst.y_star(x) + 0.5
    h = local_fhe(problem, x, y, AidConfig(lam=lam, T=T), range(4), RngStream(0), CommLedger())
    np.testing.assert_allclose(h, expected_local_fhe(inst, x, y, lam, T), rtol=1e-12)
