"""Oracle contract: hand-checked values, unbiasedness, linearity, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from fedbilevel import (CommLedger, ContractViolation,
                        LowerStepConfig, Point, QuadraticInstance,
                        QuadraticProblem, QuadraticSpec, RngStream,
                        make_quadratic, one_round_lower)
from fedbilevel.errors import ClientLookupError
from fedbilevel.problems import NOISE_GAUSSIAN

from conftest import manual_instance, two_sample_instance, zero_offsets


def _problem_1d():
    # g = 1/2 * 2 y^2 + 1 * x y  (a=2, b=1, c=0)
    inst = QuadraticInstance(A=np.array([[[2.0]]]), B=np.array([[[1.0]]]), c=np.zeros((1, 1)),
                             d=np.zeros((1, 1)), e=np.zeros((1, 1)),
                             **zero_offsets(1, 1, 1, 1), mu=1.0, L_g=2.0)
    return QuadraticProblem(inst)


def test_grad_lower_y_hand_value():
    problem = _problem_1d()
    g = problem.grad_lower_y(0, Point(np.array([1.0]), np.array([3.0])), None)
    assert g == pytest.approx(7.0)


def test_grad_lower_y_zero_at_optimum():
    inst = make_quadratic(QuadraticSpec(d1=4, d2=4, m=3, hetero=0.6, seed=3))
    problem = QuadraticProblem(inst)
    x = np.array([0.3, -1.0, 2.0, 0.0])
    ys = inst.y_star(x)
    agg = problem.agg_grad_lower_y(Point(x, ys))
    assert np.linalg.norm(agg) <= 1e-10


def test_finite_sum_two_samples_mean_zero_offset():
    inst = two_sample_instance((1.0, -1.0))
    problem = QuadraticProblem(inst, batch_size=2)  # full batch covers both samples
    p = Point(np.zeros(1), np.zeros(1))
    exact = problem.grad_lower_y(0, p, None)
    batched = problem.grad_lower_y(0, p, RngStream(0).child(0, "zeta", 0))
    assert np.array_equal(batched, exact)
    # single-sample draws land exactly on the +/- offsets
    one = QuadraticProblem(inst, batch_size=1)
    draws = {float(one.grad_lower_y(0, p, RngStream(0).child(0, "zeta", t))[0])
             for t in range(30)}
    assert draws == {1.0, -1.0}


def test_grad_upper_x_examples():
    inst = manual_instance([2.0, 3.0], d1=2, m=1, lin_scale=0.0)
    problem = QuadraticProblem(inst)
    g = problem.grad_upper_x(0, Point(np.array([2.0, 0.0]), np.zeros(2)), None)
    np.testing.assert_allclose(g, [2.0, 0.0])
    g0 = problem.grad_upper_x(0, Point(np.zeros(2), np.zeros(2)), None)
    np.testing.assert_allclose(g0, [0.0, 0.0])


def test_grad_upper_x_symmetric_cancellation():
    inst = manual_instance([2.0], d1=1, m=2, lin_scale=0.0, rho_x=0.0)
    inst = replace(inst, e=np.array([[1.0], [-1.0]]))
    problem = QuadraticProblem(inst)
    for xv in (0.0, 2.5, -3.0):
        agg = problem.agg_grad_upper_x(Point(np.array([xv]), np.zeros(1)))
        np.testing.assert_allclose(agg, [0.0], atol=1e-15)


def test_grad_upper_y_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0)
    problem = QuadraticProblem(replace(inst, d=np.ones((1, 2))))
    g = problem.grad_upper_y(0, Point(np.zeros(2), np.zeros(2)), None)
    np.testing.assert_allclose(g, [-1.0, -1.0])
    g0 = problem.grad_upper_y(0, Point(np.zeros(2), np.array([1.0, 1.0])), None)
    np.testing.assert_allclose(g0, [0.0, 0.0])


def test_gaussian_noise_monte_carlo_mean():
    # noise-off value vs Monte-Carlo mean of the stochastic oracle, 3.5 SE margin
    std = 0.1
    spec = QuadraticSpec(d1=2, d2=2, m=1, hetero=0.0, noise_mode=NOISE_GAUSSIAN,
                         noise_std=std, seed=4)
    problem = QuadraticProblem(make_quadratic(spec))
    p = Point(np.array([0.5, -0.5]), np.array([1.0, 2.0]))
    exact = problem.grad_upper_y(0, p, None)
    root = RngStream(10)
    n = 40_000
    mean = np.mean([problem.grad_upper_y(0, p, root.child(0, "mc", t))
                    for t in range(n)], axis=0)
    se_norm = std * np.sqrt(2.0 / n)
    assert np.linalg.norm(mean - exact) <= 3.5 * se_norm


def test_hvp_examples_and_fd_oracle():
    inst = manual_instance([2.0, 3.0], d1=2, m=1)
    problem = QuadraticProblem(inst)
    p = Point(np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(problem.hvp_lower_yy(0, p, np.array([1.0, 1.0]), None),
                               [2.0, 3.0])
    np.testing.assert_allclose(problem.hvp_lower_yy(0, p, np.zeros(2), None), 0.0)
    # central finite difference of grad_lower_y along v
    gen = RngStream(2).child("fd").generator()
    v = gen.normal(size=2)
    eps = 1e-6
    y = gen.normal(size=2)
    x = gen.normal(size=2)
    gp = problem.grad_lower_y(0, Point(x, y + eps * v), None)
    gm = problem.grad_lower_y(0, Point(x, y - eps * v), None)
    fd = (gp - gm) / (2 * eps)
    hv = problem.hvp_lower_yy(0, Point(x, y), v, None)
    assert np.linalg.norm(hv - fd) / np.linalg.norm(fd) <= 1e-6


def test_jvp_examples_and_fd_oracle():
    # coupling B = [[1, 2]] so grad_y g = A y + B x: jvp v -> B^T v
    inst = QuadraticInstance(A=np.array([[[2.0]]]), B=np.array([[[1.0, 2.0]]]),
                             c=np.zeros((1, 1)), d=np.zeros((1, 1)), e=np.zeros((1, 2)),
                             **zero_offsets(1, 1, 2, 1), mu=1.0, L_g=2.0)
    problem = QuadraticProblem(inst)
    p = Point(np.zeros(2), np.zeros(1))
    np.testing.assert_allclose(problem.jvp_lower_xy(0, p, np.array([1.0]), None),
                               [1.0, 2.0])
    np.testing.assert_allclose(problem.jvp_lower_xy(0, p, np.zeros(1), None), 0.0)
    # finite difference of grad_lower_y in x, contracted with v
    gen = RngStream(6).child("fd").generator()
    x, y = gen.normal(size=2), gen.normal(size=1)
    v = gen.normal(size=1)
    eps = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        gp = problem.grad_lower_y(0, Point(x + e, y), None)
        gm = problem.grad_lower_y(0, Point(x - e, y), None)
        fd[j] = ((gp - gm) / (2 * eps)) @ v
    jv = problem.jvp_lower_xy(0, Point(x, y), v, None)
    assert np.linalg.norm(jv - fd) / np.linalg.norm(fd) <= 1e-6


def test_unbiasedness_full_finite_sum_mean_exact():
    spec = QuadraticSpec(d1=3, d2=3, m=2, n_per_client=6, hetero=0.5,
                         noise_spread=0.2, seed=9)
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst, batch_size=6)
    p = Point(np.ones(3), np.ones(3))
    stream = RngStream(1).child(0, "zeta", 0)
    for name in ("grad_lower_y", "grad_upper_x", "grad_upper_y"):
        exact = getattr(problem, name)(0, p, None)
        full = getattr(problem, name)(0, p, stream)
        assert np.array_equal(full, exact), name


def test_hessian_sample_safety():
    spec = QuadraticSpec(d1=3, d2=5, m=4, n_per_client=8, mu=1.0, L_g=10.0,
                         hetero=1.0, noise_spread=0.5, seed=12)
    inst = make_quadratic(spec)
    w = np.linalg.eigvalsh(inst.A[:, None] + inst.dA)  # (m, n, d2): every sampled Hessian
    assert w.shape == (4, 8, 5)
    assert w[..., 0].min() >= 1.0 - 1e-12
    assert w[..., -1].max() <= 10.0 + 1e-12


def test_oracle_determinism_and_linearity():
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.4, noise_spread=0.3, seed=5)
    problem = QuadraticProblem(make_quadratic(spec))
    p = Point(np.ones(3), np.ones(3))
    s = RngStream(77).child(1, "u", 4)
    a = problem.hvp_lower_yy(1, p, np.array([1.0, 0.0, 0.0]), s)
    b = problem.hvp_lower_yy(1, p, np.array([1.0, 0.0, 0.0]), s)
    assert np.array_equal(a, b)
    u = np.array([0.3, -1.0, 2.0])
    v = np.array([1.5, 0.2, -0.7])
    lin = problem.hvp_lower_yy(1, p, 2.0 * u + 3.0 * v, s)
    parts = 2.0 * problem.hvp_lower_yy(1, p, u, s) + 3.0 * problem.hvp_lower_yy(1, p, v, s)
    np.testing.assert_allclose(lin, parts, rtol=1e-12)
    jl = problem.jvp_lower_xy(1, p, 2.0 * u + 3.0 * v, s)
    jp = 2.0 * problem.jvp_lower_xy(1, p, u, s) + 3.0 * problem.jvp_lower_xy(1, p, v, s)
    np.testing.assert_allclose(jl, jp, rtol=1e-12)


def test_error_cases():
    problem = _problem_1d()
    with pytest.raises(ClientLookupError):
        problem.grad_lower_y(5, Point(np.zeros(1), np.zeros(1)), None)
    with pytest.raises(ContractViolation):
        problem.grad_lower_y(0, Point(np.zeros(2), np.zeros(1)), None)
    with pytest.raises(ContractViolation):
        problem.hvp_lower_yy(0, Point(np.zeros(1), np.zeros(1)), np.zeros(3), None)


def test_svrg_correction_is_exactly_q_at_the_anchor():
    # evaluating one lane twice at one point draws one sample: the correction
    # g(y_i) - g(y) + q is exactly q while y_i == y
    spec = QuadraticSpec(d1=3, d2=3, m=2, hetero=0.4, noise_spread=0.3, seed=5)
    problem = QuadraticProblem(make_quadratic(spec))
    x, y = np.ones(3), np.array([0.5, -1.0, 2.0])
    q = np.array([0.3, -0.2, 0.1])
    lane = RngStream(4).child("lower", 0, 1, "zeta", 0)
    g = problem.grad_lower_y(1, Point(x, y), lane)
    assert np.array_equal(g - problem.grad_lower_y(1, Point(x, y), lane) + q, q)
    cfg = LowerStepConfig(beta=0.05, tau=1)
    got = one_round_lower(problem, x, y, q, cfg, [1], RngStream(4).child("lower", 0),
                          CommLedger())
    assert np.array_equal(got, y - 0.05 * q)


def test_generator_stream_rejected():
    problem = _problem_1d()
    p = Point(np.zeros(1), np.zeros(1))
    with pytest.raises(ContractViolation, match="RngStream"):
        problem.grad_lower_y(0, p, RngStream(0).generator())
    assert problem.audit.total == 0
