"""Synthetic instance generation and closed-form ground truth."""

import numpy as np
import pytest

from fedbilevel import (ParameterError, QuadraticInstance, QuadraticSpec,
                        RngStream, make_quadratic)
from fedbilevel.oracle import fd_hypergradient

from conftest import manual_instance


def test_hetero_zero_identical_clients():
    inst = make_quadratic(QuadraticSpec(m=5, hetero=0.0, seed=1))
    for cd in inst.clients[1:]:
        np.testing.assert_array_equal(cd.A, inst.clients[0].A)
        np.testing.assert_array_equal(cd.B, inst.clients[0].B)
        np.testing.assert_array_equal(cd.c, inst.clients[0].c)
        np.testing.assert_array_equal(cd.d, inst.clients[0].d)


def test_eigenvalues_inside_declared_range():
    inst = make_quadratic(QuadraticSpec(mu=1.0, L_g=10.0, m=4, n_per_client=6,
                                        hetero=1.0, noise_spread=0.4, seed=2))
    for cd in inst.clients:
        for j in range(cd.n_samples):
            w = np.linalg.eigvalsh(cd.A + cd.dA[j])
            assert 1.0 - 1e-12 <= w[0] and w[-1] <= 10.0 + 1e-12


def test_same_seed_bit_identical():
    a = make_quadratic(QuadraticSpec(seed=42, hetero=0.7))
    b = make_quadratic(QuadraticSpec(seed=42, hetero=0.7))
    for ca, cb in zip(a.clients, b.clients):
        np.testing.assert_array_equal(ca.A, cb.A)
        np.testing.assert_array_equal(ca.dA, cb.dA)
        np.testing.assert_array_equal(ca.de, cb.de)


def test_hetero_scales_monotonically():
    spreads = []
    for h in (0.0, 0.25, 0.5, 1.0):
        inst = make_quadratic(QuadraticSpec(m=6, hetero=h, seed=3))
        spreads.append(max(np.linalg.norm(cd.A - inst.A_bar, 2) for cd in inst.clients))
    assert spreads[0] <= 1e-14  # identical clients up to the mean's rounding
    assert all(a < b for a, b in zip(spreads, spreads[1:]))


def test_A_bar_is_exact_mean():
    inst = make_quadratic(QuadraticSpec(m=7, hetero=0.9, seed=4))
    np.testing.assert_array_equal(inst.A_bar,
                                  np.mean([cd.A for cd in inst.clients], axis=0))


def test_infeasible_spec_rejected():
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(mu=2.0, L_g=1.0))
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(mu=-1.0))
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(hetero=1.5))


def test_closed_form_lower_opt_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0, B_norm=1e-12)
    inst.clients[0].c[:] = [-1.0, -2.0]
    inst = QuadraticInstance(d1=2, d2=2, m=1, mu=1.0, L_g=1.0, seed=0,
                             clients=inst.clients)
    np.testing.assert_allclose(inst.y_star(np.zeros(2)), [1.0, 2.0],
                               atol=1e-10)
    inst.clients[0].c[:] = 0.0
    inst2 = QuadraticInstance(d1=2, d2=2, m=1, mu=1.0, L_g=1.0, seed=0,
                              clients=inst.clients)
    np.testing.assert_allclose(inst2.y_star(np.zeros(2)), [0.0, 0.0],
                               atol=1e-10)


def test_closed_form_lower_opt_matches_gradient_descent():
    inst = make_quadratic(QuadraticSpec(d1=3, d2=4, m=3, hetero=0.5, seed=5))
    x = RngStream(5).child("x").generator().normal(size=3)
    ys = inst.y_star(x)
    y = np.zeros(4)
    step = 1.0 / inst.L_g
    for _ in range(10_000):
        y = y - step * (inst.A_bar @ y + inst.B_bar @ x + inst.c_bar)
    assert np.linalg.norm(y - ys) <= 1e-8
    agg = inst.A_bar @ ys + inst.B_bar @ x + inst.c_bar
    assert np.linalg.norm(agg) <= 1e-10


def test_hypergradient_hand_example_1d():
    # a=2, b=1, c=0, d=0, rho_x=1, e=0 at x=1: y*=-1/2, grad f = 1.25
    inst = manual_instance([2.0], d1=1, m=1, lin_scale=0.0, B_norm=1.0)
    inst.clients[0].B[:] = 1.0
    inst = QuadraticInstance(d1=1, d2=1, m=1, mu=2.0, L_g=2.0, seed=0,
                             clients=inst.clients)
    x = np.array([1.0])
    assert inst.y_star(x)[0] == pytest.approx(-0.5)
    assert inst.hypergradient(x)[0] == pytest.approx(1.25)


def test_hypergradient_decoupled_is_direct_part():
    inst = manual_instance([2.0, 4.0], d1=2, m=2, B_norm=1e-300)
    for cd in inst.clients:
        cd.B[:] = 0.0
    inst = QuadraticInstance(d1=2, d2=2, m=2, mu=2.0, L_g=4.0, seed=0,
                             clients=inst.clients)
    x = np.array([0.7, -1.3])
    expect = inst.rho_x * x + inst.e_bar
    np.testing.assert_allclose(inst.hypergradient(x), expect, rtol=1e-12)


def test_hypergradient_matches_finite_differences():
    gen = RngStream(11).child("fd").generator()
    worst = 0.0
    for k in range(100):
        inst = make_quadratic(QuadraticSpec(d1=3, d2=3, m=3,
                                            hetero=float(gen.uniform()), seed=100 + k))
        x = gen.normal(size=3)
        a = inst.hypergradient(x)
        b = fd_hypergradient(inst, x, step=1e-5)
        worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))
    assert worst <= 1e-5


def test_json_round_trip():
    inst = make_quadratic(QuadraticSpec(d1=3, d2=2, m=2, n_per_client=4,
                                        hetero=0.5, seed=8))
    doc = inst.to_json()
    back = QuadraticInstance.from_json(doc)
    assert back.d1 == inst.d1 and back.m == inst.m
    for ca, cb in zip(inst.clients, back.clients):
        np.testing.assert_array_equal(ca.A, cb.A)
        np.testing.assert_array_equal(ca.dA, cb.dA)
        np.testing.assert_array_equal(ca.de, cb.de)
    x = np.ones(3)
    np.testing.assert_array_equal(inst.hypergradient(x), back.hypergradient(x))
