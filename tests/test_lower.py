"""One-Round-Lower: reductions, fixed point, contraction against direct iteration."""

from dataclasses import replace

import numpy as np
import pytest

from fedbilevel import (CommLedger, HyperRepSpec, LowerStepConfig, ParameterError, Point,
                        QuadraticProblem, QuadraticSpec, RngStream, make_hyperrep,
                        make_quadratic, one_round_lower)
from fedbilevel.drivers import Evaluator
from fedbilevel.lower import VARIANT_SGD, VARIANT_SVRG, client_taus
from fedbilevel.oracle import TestRegion, measure_constants

from conftest import batch_of_one, exact_mean, manual_instance


def _noise_off_problem(hetero=0.5, seed=3, d=3, m=3):
    spec = QuadraticSpec(d1=d, d2=d, m=m, hetero=hetero, noise_spread=0.0, seed=seed)
    inst = make_quadratic(spec)
    return inst, QuadraticProblem(inst)


def test_tau_one_reduces_to_global_step():
    inst, problem = _noise_off_problem()
    x = np.ones(3)
    y = np.zeros(3)
    q = RngStream(0).child("q").generator().normal(size=3)
    for variant in (VARIANT_SVRG, VARIANT_SGD):
        cfg = LowerStepConfig(beta=0.05, tau=1, variant=variant)
        got = one_round_lower(problem, x, y, q, cfg, range(3), RngStream(1), CommLedger())
        if variant == VARIANT_SVRG:   # the clients' common iterate, not a mean of copies
            assert np.array_equal(got, y - 0.05 * q)
        else:
            # sgd ignores q; with noise off it takes the exact local gradients
            agg = exact_mean(problem, "grad_lower_y", x, y)
            np.testing.assert_allclose(got, y - 0.05 * agg, rtol=1e-14)


def test_upper_tau_one_is_the_global_step():
    # One-Round-Upper's twin of the svrg case above: every client's one step is
    # x - alpha * h, returned as it is, with one round of k * d1 scalars and the
    # cancelling pair's samples charged
    from fedbilevel import one_round_upper
    inst, problem = _noise_off_problem(d=6, m=3)
    x, h = RngStream(0).child("xh").generator().normal(size=(2, 6))
    y = np.zeros(6)
    ledger = CommLedger()
    got = one_round_upper(problem, x, y, h, 0.05, 1, range(3), RngStream(1), ledger)
    assert np.array_equal(got, x - 0.05 * h)
    assert (ledger.rounds_total, ledger.scalars_sent) == (1, 3 * 6)
    assert problem.audit.by_purpose == {"xi_up": 2 * problem.batch_size * 3}


def test_tau_one_averages_a_stacked_start():
    # a start with one row per participant is no common iterate: its rows
    # after the step are averaged, one round of k * d2 scalars
    inst, problem = _noise_off_problem()
    x, Y = np.ones(3), np.arange(9.0).reshape(3, 3) / 10
    q = RngStream(0).child("q").generator().normal(size=3)
    ledger = CommLedger()
    got = one_round_lower(problem, x, Y, q, LowerStepConfig(beta=0.05, tau=1), range(3),
                          RngStream(1), ledger)
    assert np.array_equal(got, np.add.reduce(Y - 0.05 * q, 0) / 3.0)
    assert (ledger.rounds_total, ledger.scalars_sent) == (1, 3 * 3)


def test_homogeneous_noise_off_svrg_equals_sgd():
    inst, problem = _noise_off_problem(hetero=0.0)
    x = np.ones(3)
    y = np.array([0.5, -1.0, 2.0])
    q = exact_mean(problem, "grad_lower_y", x, y)  # exact aggregate gradient
    kw = dict(beta=0.04, tau=4)
    a = one_round_lower(problem, x, y, q, LowerStepConfig(variant=VARIANT_SVRG, **kw),
                        range(3), RngStream(2), CommLedger())
    b = one_round_lower(problem, x, y, q, LowerStepConfig(variant=VARIANT_SGD, **kw),
                        range(3), RngStream(2), CommLedger())
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_noise_off_fixed_point():
    inst, problem = _noise_off_problem(hetero=0.7)
    x = np.array([1.0, -2.0, 0.5])
    ys = inst.y_star(x)
    cfg = LowerStepConfig(beta=1.0 / (6 * inst.L_g), tau=3)
    got = one_round_lower(problem, x, ys, np.zeros(3), cfg, range(3),
                          RngStream(3), CommLedger())
    assert np.linalg.norm(got - ys) <= 1e-12


def test_composed_round_contracts_noise_off():
    # one composed round (exact q aggregation + local phase) contracts the gap
    inst, problem = _noise_off_problem(hetero=0.6, seed=7)
    x = np.ones(3) * 0.5
    ys = inst.y_star(x)
    beta = 1.0 / (6 * inst.L_g)
    cfg = LowerStepConfig(beta=beta, tau=3)
    mu = measure_constants(inst, TestRegion(Point(x, ys), 2.0), 100).mu
    y = ys + np.array([1.0, -1.0, 0.5])
    for _ in range(10):
        q = exact_mean(problem, "grad_lower_y", x, y)
        y_next = one_round_lower(problem, x, y, q, cfg, range(3),
                                 RngStream(4), CommLedger())
        ratio = np.linalg.norm(y_next - ys) / np.linalg.norm(y - ys)
        assert ratio <= np.sqrt(1 - beta * mu / 2) + 1e-12
        y = y_next


def _lower_gap(problem, x, y):
    """A metrics row's lower_gap, ||y - y*(x)||^2: row 0 of a stack of one point."""
    return Evaluator(problem).record([(x, y)], [(0, 0, 0)], [])[0].lower_gap


def test_lower_gap_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0, B_norm=1e-300)
    problem = QuadraticProblem(replace(inst, B=np.zeros_like(inst.B)))
    x = np.zeros(2)
    assert _lower_gap(problem, x, problem.y_star(x)) == pytest.approx(0.0, abs=1e-20)
    assert _lower_gap(problem, x, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_gap_monotone_noise_off():
    inst, problem = _noise_off_problem(hetero=0.4, seed=9)
    x = np.ones(3)
    cfg = LowerStepConfig(beta=1.0 / (6 * inst.L_g), tau=2)
    y = np.zeros(3)
    gaps = [_lower_gap(problem, x, y)]
    for t in range(15):
        q = exact_mean(problem, "grad_lower_y", x, y)
        y = one_round_lower(problem, x, y, q, cfg, range(3),
                            RngStream(5).child(t), CommLedger())
        gaps.append(_lower_gap(problem, x, y))
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_determinism_and_participant_order():
    spec = QuadraticSpec(d1=3, d2=3, m=4, hetero=0.5, noise_spread=0.2, seed=11)
    problem = QuadraticProblem(make_quadratic(spec))
    x = np.ones(3)
    y = np.zeros(3)
    q = np.ones(3) * 0.1
    cfg = LowerStepConfig(beta=0.02, tau=2)
    a = one_round_lower(problem, x, y, q, cfg, [0, 1, 2, 3], RngStream(6), CommLedger())
    b = one_round_lower(problem, x, y, q, cfg, [3, 1, 0, 2], RngStream(6), CommLedger())
    assert np.array_equal(a, b)


def test_stochastic_contraction_recursion():
    # per-step mean-square recursion with the measured noise level
    spec = QuadraticSpec(d1=4, d2=4, m=4, mu=1.0, L_g=2.0, hetero=0.5,
                         noise_spread=0.1, seed=13)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst)
    x = np.ones(4) * 0.5
    ys = inst.y_star(x)
    y_start = ys + 0.8
    consts = measure_constants(inst, TestRegion(Point(x, y_start), 2.0), 100)
    beta = min(1.0, 1.0 / inst.L_g, 1.0 / (6 * inst.L_g))
    cfg = LowerStepConfig(beta=beta, tau=3)
    R, steps = 50, 20
    dists = np.zeros((R, steps + 1))
    root = RngStream(21)
    for r in range(R):
        y = y_start.copy()
        dists[r, 0] = np.sum((y - ys) ** 2)
        for t in range(steps):
            pt = Point(x, y)
            q = np.mean([batch_of_one(problem, "grad_lower_y", i, pt, root.child("q", r, t, i))
                         for i in range(4)], axis=0)
            y = one_round_lower(problem, x, y, q, cfg, range(4),
                                root.child("low", r, t), CommLedger())
            dists[r, t + 1] = np.sum((y - ys) ** 2)
    md = dists.mean(axis=0)
    noise_term = 25 * beta ** 2 * consts.sigma_g ** 2 * 1.2
    for t in range(steps):
        assert md[t + 1] <= (1 - beta * consts.mu / 2) * md[t] + noise_term


def test_bad_tau_rejected():
    with pytest.raises(ParameterError):
        LowerStepConfig(beta=0.1, tau=0)
    with pytest.raises(ParameterError):
        LowerStepConfig(beta=0.1, tau=[2, 0, 1])
    with pytest.raises(ParameterError):
        LowerStepConfig(beta=-0.1, tau=1)
    with pytest.raises(ParameterError):
        LowerStepConfig(beta=0.1, tau=1, variant="adam")


@pytest.mark.parametrize("beta", ["0.1", True, 0.0, float("nan"), float("inf")])
def test_bad_beta_named(beta):
    # a stepsize is a finite real > 0: a string or a bool is not read as one
    with pytest.raises(ParameterError, match=r"\bbeta\b"):
        LowerStepConfig(beta=beta)


@pytest.mark.parametrize("tau", [1.7, 2.0, True, [1, 2.9], [1, False], [np.float64(2.0)]])
def test_non_integral_tau_rejected(tau):
    # a count is an int: neither truncated (1.7 -> 1) nor read off a bool
    with pytest.raises(ParameterError, match="integer"):
        LowerStepConfig(beta=0.1, tau=tau)
    with pytest.raises(ParameterError, match="integer"):
        client_taus(tau, np.arange(2))


def test_integer_taus_accepted():
    assert client_taus(np.int64(3), np.arange(2)).tolist() == [3, 3]
    assert client_taus([1, np.int32(4)], np.array([1])).tolist() == [4]
    assert client_taus((2, 5), np.arange(2)).tolist() == [2, 5]


@pytest.mark.parametrize("tau", [[1, 1], [1] * 6])
def test_tau_list_length_checked_on_library_path(tau):
    # a per-client list must hold one count per client of the problem: a short
    # list used to end in an IndexError, a long one ran with entries ignored
    from fedbilevel import RunConfig, one_round_upper
    inst, problem = _noise_off_problem(m=4)
    x, y = np.zeros(3), np.zeros(3)
    cfg = LowerStepConfig(beta=0.01, tau=tau)
    msg = f"tau lists {len(tau)} local step counts for 4 clients"
    with pytest.raises(ParameterError, match=msg):
        one_round_lower(problem, x, y, np.zeros(3), cfg, range(4), RngStream(1), CommLedger())
    with pytest.raises(ParameterError, match=msg):
        one_round_upper(problem, x, y, np.zeros(3), 0.1, tau, range(2), RngStream(1),
                        CommLedger())
    with pytest.raises(ParameterError, match=msg):
        RunConfig(problem=QuadraticSpec(d1=3, d2=3, m=4), tau=tau)
    with pytest.raises(ParameterError, match=msg):
        client_taus(tau, np.arange(2), 4)
    assert client_taus([1, 3, 2, 1], np.array([1, 2]), 4).tolist() == [3, 2]


def _noisy_problem(kind, m=4):
    if kind == "hyperrep":
        return make_hyperrep(HyperRepSpec(m=m, n_points=120), 0, batch_size=4)
    batch = 4 if kind == "finite-sum-b4" else 1
    spec = QuadraticSpec(d1=3, d2=4, m=m, hetero=0.5, noise_spread=0.3, noise_std=0.2,
                         seed=5, noise_mode="additive-gaussian" if kind == "gaussian"
                         else "finite-sum")
    return QuadraticProblem(make_quadratic(spec), batch_size=batch)


def _random_inputs(problem, seed):
    gen = RngStream(seed).child("inputs").generator()
    return (0.3 * gen.normal(size=problem.d1), 0.3 * gen.normal(size=problem.d2),
            0.1 * gen.normal(size=problem.d2))


def _count_kernel_calls(monkeypatch, problem, name="_grad_lower_y_batch"):
    calls = []
    kernel = getattr(problem, name)

    def counted(ids, x, y, lanes):
        calls.append(ids.size)
        return kernel(ids, x, y, lanes)
    monkeypatch.setattr(problem, name, counted)
    return calls


@pytest.mark.parametrize("kind,phase", [
    ("finite-sum-b4", "lower"), ("hyperrep", "lower"),
    ("finite-sum-b4", "upper"), ("hyperrep", "upper")],
    ids=["finite-sum-b4", "hyperrep", "finite-sum-b4-upper", "hyperrep-upper"])
def test_svrg_first_step_makes_no_oracle_call(monkeypatch, kind, phase):
    # at v = 0 every client is at the start point, so the pair cancels at
    # both levels: no kernel call, but the audit still charges both
    # evaluations' samples
    from fedbilevel import one_round_upper
    problem = _noisy_problem(kind)
    x, y, q = _random_inputs(problem, 1)
    if phase == "lower":
        calls = _count_kernel_calls(monkeypatch, problem)
        got = one_round_lower(problem, x, y, q, LowerStepConfig(beta=0.05, tau=1), [3, 0, 2],
                              RngStream(2), CommLedger())
        start, c, tag = y, q, "zeta"
    else:
        calls = _count_kernel_calls(monkeypatch, problem, "_grad_upper_x_batch")
        h = _random_inputs(problem, 2)[0]
        got = one_round_upper(problem, x, y, h, 0.05, 1, [3, 0, 2], RngStream(2), CommLedger())
        start, c, tag = x, h, "xi_up"
    assert calls == []
    assert problem.audit.by_purpose == {tag: 2 * problem.batch_size * 3}
    assert np.array_equal(got, start - 0.05 * c)


@pytest.mark.parametrize("kind", ["finite-sum-b4", "hyperrep"])
def test_sgd_first_step_still_evaluates(monkeypatch, kind):
    problem = _noisy_problem(kind)
    calls = _count_kernel_calls(monkeypatch, problem)
    x, y, q = _random_inputs(problem, 1)
    cfg = LowerStepConfig(beta=0.05, tau=1, variant=VARIANT_SGD)
    one_round_lower(problem, x, y, q, cfg, [3, 0, 2], RngStream(2), CommLedger())
    assert calls == [3]
    assert problem.audit.by_purpose == {"zeta": problem.batch_size * 3}


def _explicit_pair_reference(problem, x, y, q, beta, tau, participants, rng):
    """One-Round-Lower written per client, evaluating every svrg pair, the
    self-cancelling one at v = 0 included."""
    rows = []
    for i in sorted(set(participants)):
        y_v = y.copy()
        for v in range(tau[i]):
            lane = rng.child(i, "zeta", v)
            step = (batch_of_one(problem, "grad_lower_y", i, Point(x, y_v), lane)
                    - batch_of_one(problem, "grad_lower_y", i, Point(x, y), lane) + q)
            y_v = y_v - (beta / tau[i]) * step
        rows.append(y_v)
    return np.stack(rows).mean(axis=0)


@pytest.mark.parametrize("kind", ["finite-sum-b1", "finite-sum-b4", "gaussian", "hyperrep"])
def test_svrg_equals_explicit_pair_reference(kind):
    problem = _noisy_problem(kind)
    tau = [1, 3, 2, 1]
    cfg = LowerStepConfig(beta=0.05, tau=tau)
    for seed, participants in enumerate(([3, 1, 2], range(4), [0])):
        x, y, q = _random_inputs(problem, seed)
        rng = RngStream(40).child("lower", seed)
        problem.audit.reset()
        got = one_round_lower(problem, x, y, q, cfg, participants, rng, CommLedger())
        audit = dict(problem.audit.by_purpose)
        problem.audit.reset()
        want = _explicit_pair_reference(problem, x, y, q, 0.05, tau, participants, rng)
        assert np.array_equal(got, want), participants
        assert audit == problem.audit.by_purpose


def _explicit_upper_reference(problem, x, y, h, alpha, tau, participants, rng):
    """One-Round-Upper written per client in One-Round-Lower's association,
    (g_local - g_anchor) + h, evaluating every pair, v = 0 included."""
    rows = []
    for i in sorted(set(participants)):
        x_v = x.copy()
        for v in range(tau[i]):
            lane = rng.child(i, "xi_up", v)
            step = (batch_of_one(problem, "grad_upper_x", i, Point(x_v, y), lane)
                    - batch_of_one(problem, "grad_upper_x", i, Point(x, y), lane) + h)
            x_v = x_v - (alpha / tau[i]) * step
        rows.append(x_v)
    return np.stack(rows).mean(axis=0)


@pytest.mark.parametrize("kind", ["finite-sum-b1", "finite-sum-b4", "gaussian", "hyperrep"])
def test_upper_equals_explicit_pair_reference(kind):
    from fedbilevel import one_round_upper
    problem = _noisy_problem(kind)
    tau = [1, 3, 2, 1]
    for seed, participants in enumerate(([3, 1, 2], range(4), [0])):
        x, y, _ = _random_inputs(problem, seed)
        h = _random_inputs(problem, seed + 10)[0]
        rng = RngStream(41).child("upper", seed)
        problem.audit.reset()
        got = one_round_upper(problem, x, y, h, 0.1, tau, participants, rng, CommLedger())
        audit = dict(problem.audit.by_purpose)
        problem.audit.reset()
        want = _explicit_upper_reference(problem, x, y, h, 0.1, tau, participants, rng)
        assert np.array_equal(got, want), participants
        assert audit == problem.audit.by_purpose


def test_checked_oracles_keep_one_schedule_per_tau_setting_and_stepsize():
    # one participant set's checked oracles serve calls with other tau
    # settings, stepsizes and variants: each call equals one on plain ids
    problem = _noisy_problem("finite-sum-b1")
    x, y, q = _random_inputs(problem, 3)
    checked = problem.checked([0, 1, 3], x, y)
    cases = ((0.05, 1, VARIANT_SVRG), (0.05, [1, 3, 2, 2], VARIANT_SVRG),
             (0.02, [1, 3, 2, 2], VARIANT_SVRG), (0.05, 2, VARIANT_SGD),
             (0.05, [2, 1, 1, 3], VARIANT_SVRG))
    for t, (beta, tau, variant) in enumerate(cases):
        cfg = LowerStepConfig(beta=beta, tau=tau, variant=variant)
        rng = RngStream(8).child("lower", t)
        got = one_round_lower(problem, x, y, q, cfg, checked, rng, CommLedger())
        want = one_round_lower(problem, x, y, q, cfg, [3, 0, 1], rng, CommLedger())
        assert got.tobytes() == want.tobytes(), (beta, tau, variant)
    assert len(checked.schedules) == len(cases)


@pytest.mark.parametrize("batch", [1, 4])
def test_svrg_pairs_at_a_tau_list_match_separate_lanes(batch):
    # at tau = [1, 3, 2, 1] the One-Round-Lower and One-Round-Upper pairs,
    # both evaluations on the pair's one Lanes, give the bits of the two
    # evaluations on separate Lanes, and both levels skip the cancelling
    # v = 0 pair by one rule; the audit charges both evaluations
    from fedbilevel import one_round_upper
    from fedbilevel.lower import local_lanes
    problem = _noisy_problem("finite-sum-b4" if batch == 4 else "finite-sum-b1")
    x, y, q = _random_inputs(problem, 7)
    tau, beta, alpha = [1, 3, 2, 1], 0.05, 0.1
    got = one_round_lower(problem, x, y, q, LowerStepConfig(beta=beta, tau=tau), range(4),
                          RngStream(3), CommLedger())
    assert problem.audit.by_purpose == {"zeta": 2 * batch * sum(tau)}
    h = 0.2 * q[:problem.d1]
    got_x = one_round_upper(problem, x, got, h, alpha, tau, range(4), RngStream(4),
                            CommLedger())
    assert problem.audit.by_purpose["xi_up"] == 2 * batch * sum(tau)

    def separate_lanes_reference(scope, tag, start, stepsize, c, grad):
        # every evaluation on its own Lanes, so no gather is shared
        step = RngStream(scope).declare(local_lanes(tag, 3), 4)
        t, Z = np.array(tau), np.repeat(start[None], 4, axis=0)
        for v in range(max(tau)):
            sub = np.flatnonzero(t > v)
            if v == 0:   # the cancelling pair
                Z[sub] = Z[sub] - stepsize / t[sub, None] * c
            else:
                Z[sub] = Z[sub] - stepsize / t[sub, None] * (
                    grad(sub, Z[sub], step.lanes(sub, tag, v))
                    - grad(sub, start, step.lanes(sub, tag, v)) + c)
        return Z.mean(axis=0)
    want = separate_lanes_reference(3, "zeta", y, beta, q, lambda sub, Y, lanes: (
        problem.grad_lower_y(sub, x, Y, lanes)))
    want_x = separate_lanes_reference(4, "xi_up", x, alpha, h, lambda sub, X, lanes: (
        problem.grad_upper_x(sub, X, got, lanes)))
    assert got.tobytes() == want.tobytes()
    assert got_x.tobytes() == want_x.tobytes()
