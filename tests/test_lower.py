"""One-Round-Lower: reductions, fixed point, contraction against direct iteration."""

from dataclasses import replace

import numpy as np
import pytest

from fedbilevel import (CommLedger, LowerStepConfig, ParameterError, Point,
                        QuadraticProblem, QuadraticSpec, RngStream, lower_gap,
                        make_quadratic, one_round_lower)
from fedbilevel.lower import VARIANT_SGD, VARIANT_SVRG, client_taus
from fedbilevel.oracle import TestRegion, measure_constants

from conftest import manual_instance


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
        if variant == VARIANT_SVRG:
            np.testing.assert_allclose(got, y - 0.05 * q, rtol=1e-14)
        else:
            # sgd ignores q; with noise off it takes the exact local gradients
            agg = problem.agg_grad_lower_y(Point(x, y))
            np.testing.assert_allclose(got, y - 0.05 * agg, rtol=1e-14)


def test_homogeneous_noise_off_svrg_equals_sgd():
    inst, problem = _noise_off_problem(hetero=0.0)
    x = np.ones(3)
    y = np.array([0.5, -1.0, 2.0])
    q = problem.agg_grad_lower_y(Point(x, y))  # exact aggregate gradient
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
        q = problem.agg_grad_lower_y(Point(x, y))
        y_next = one_round_lower(problem, x, y, q, cfg, range(3),
                                 RngStream(4), CommLedger())
        ratio = np.linalg.norm(y_next - ys) / np.linalg.norm(y - ys)
        assert ratio <= np.sqrt(1 - beta * mu / 2) + 1e-12
        y = y_next


def test_lower_gap_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0, B_norm=1e-300)
    inst = replace(inst, B=np.zeros_like(inst.B))
    x = np.zeros(2)
    assert lower_gap(inst, x, inst.y_star(x)) == pytest.approx(0.0, abs=1e-20)
    assert lower_gap(inst, x, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_gap_monotone_noise_off():
    inst, problem = _noise_off_problem(hetero=0.4, seed=9)
    x = np.ones(3)
    cfg = LowerStepConfig(beta=1.0 / (6 * inst.L_g), tau=2)
    y = np.zeros(3)
    gaps = [lower_gap(inst, x, y)]
    for t in range(15):
        q = problem.agg_grad_lower_y(Point(x, y))
        y = one_round_lower(problem, x, y, q, cfg, range(3),
                            RngStream(5).child(t), CommLedger())
        gaps.append(lower_gap(inst, x, y))
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
            q = np.mean([problem.grad_lower_y(i, pt, root.child("q", r, t, i))
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
