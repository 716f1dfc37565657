"""Hyper-representation task: partitioning, analytic second-order products."""

import numpy as np
import pytest

from fedbilevel import (HyperRepSpec, ParameterError, Point, RngStream,
                        make_hyperrep, partition)
from fedbilevel.hyperrep import (_head_hessian, agg_hessian_lower_yy,
                                 hypergradient_numeric, solve_head_exact)

from conftest import batch_of_one


def test_partition_iid_even_split():
    labels = np.arange(100) % 4
    parts = partition(labels, "iid", 4, seed=0)
    assert [len(p) for p in parts] == [25, 25, 25, 25]
    allidx = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(allidx, np.arange(100))


def test_partition_label_skew_single_class():
    labels = np.array([0, 1] * 20)
    parts = partition(labels, "label-skew", 2, seed=1, shards_per_client=1)
    for p in parts:
        assert len(np.unique(labels[p])) == 1
    assert len(np.unique(np.concatenate(parts))) == 40


def test_partition_label_skew_shard_counts():
    labels = np.arange(80) % 4
    parts = partition(labels, "label-skew", 4, seed=2, shards_per_client=2)
    assert [len(p) for p in parts] == [20, 20, 20, 20]


def test_partition_deterministic():
    labels = np.arange(60) % 3
    a = partition(labels, "iid", 3, seed=7)
    b = partition(labels, "iid", 3, seed=7)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)


def test_partition_errors():
    labels = np.arange(10)
    with pytest.raises(ParameterError):
        partition(labels, "iid", 11, seed=0)
    with pytest.raises(ParameterError):
        partition(labels, "label-skew", 4, seed=0, shards_per_client=3)
    with pytest.raises(ParameterError):
        partition(labels, "chunky", 2, seed=0)


def test_make_hyperrep_client_sizes():
    spec = HyperRepSpec(m=4, n_points=500, test_fraction=0.2)
    problem = make_hyperrep(spec, seed=3)
    for tr, va in zip(problem.train_idx, problem.val_idx):
        assert len(tr) + len(va) == 100
    assert problem.test_idx.shape[0] == 100


def test_ridge_rejected_nonpositive():
    with pytest.raises(ParameterError):
        HyperRepSpec(ridge=0.0)


@pytest.mark.parametrize("n_points", [-1, 0, 4])
def test_spec_needs_a_test_point(n_points):
    # at the default test_fraction 0.2, 4 points leave none to test on
    with pytest.raises(ParameterError, match="test point"):
        HyperRepSpec(n_points=n_points)
    assert HyperRepSpec(n_points=5).n_points == 5


def _fd_check(problem, x, y, v, eps=1e-6):
    """Finite-difference oracles for hvp and jvp of the head objective."""
    gp = batch_of_one(problem, "grad_lower_y", 0, Point(x, y + eps * v), None)
    gm = batch_of_one(problem, "grad_lower_y", 0, Point(x, y - eps * v), None)
    hvp_fd = (gp - gm) / (2 * eps)
    hvp = batch_of_one(problem, "hvp_lower_yy", 0, Point(x, y), v, None)
    jvp_fd = np.zeros(problem.d1)
    for j in range(problem.d1):
        e = np.zeros(problem.d1)
        e[j] = eps
        gp = batch_of_one(problem, "grad_lower_y", 0, Point(x + e, y), None)
        gm = batch_of_one(problem, "grad_lower_y", 0, Point(x - e, y), None)
        jvp_fd[j] = ((gp - gm) / (2 * eps)) @ v
    jvp = batch_of_one(problem, "jvp_lower_xy", 0, Point(x, y), v, None)
    return (np.linalg.norm(hvp - hvp_fd) / np.linalg.norm(hvp_fd),
            np.linalg.norm(jvp - jvp_fd) / max(np.linalg.norm(jvp_fd), 1e-12))


def test_hvp_jvp_match_finite_differences():
    spec = HyperRepSpec(embed_dim=3, feature_dim=5, classes=3, m=3, n_points=120)
    problem = make_hyperrep(spec, seed=5)
    gen = RngStream(5).child("fd").generator()
    x = 0.3 * gen.normal(size=problem.d1)
    y = 0.3 * gen.normal(size=problem.d2)
    v = gen.normal(size=problem.d2)
    hvp_err, jvp_err = _fd_check(problem, x, y, v)
    assert hvp_err <= 1e-6
    assert jvp_err <= 1e-6


def test_grad_upper_x_matches_finite_differences():
    spec = HyperRepSpec(embed_dim=3, feature_dim=4, classes=3, m=2, n_points=80)
    problem = make_hyperrep(spec, seed=6)
    gen = RngStream(6).child("fd").generator()
    x = 0.2 * gen.normal(size=problem.d1)
    y = 0.2 * gen.normal(size=problem.d2)
    idx = problem.val_idx[0]
    eps = 1e-6
    fd = np.zeros(problem.d1)
    for j in range(problem.d1):
        e = np.zeros(problem.d1)
        e[j] = eps

        def val(xx):
            E, H = problem._unpack(xx, y)
            Us = problem.U[idx]
            logits = (Us @ E.T) @ H.T
            z = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=1))
            return float(np.mean(lse - z[np.arange(len(idx)), problem.labels[idx]]))
        fd[j] = (val(x + e) - val(x - e)) / (2 * eps)
    g = batch_of_one(problem, "grad_upper_x", 0, Point(x, y), None)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-6


def test_newton_head_solve_is_stationary():
    spec = HyperRepSpec(embed_dim=3, feature_dim=5, classes=3, m=3, n_points=120)
    problem = make_hyperrep(spec, seed=7)
    x = 0.1 * RngStream(7).child("x").generator().normal(size=problem.d1)
    ys = solve_head_exact(problem, x)
    g = problem.agg_grad_lower_y(Point(x, ys))
    assert np.linalg.norm(g) <= 1e-10


def test_hypergradient_numeric_matches_finite_differences():
    spec = HyperRepSpec(embed_dim=2, feature_dim=4, classes=3, m=2, n_points=90)
    problem = make_hyperrep(spec, seed=8)
    x = 0.1 * RngStream(8).child("x").generator().normal(size=problem.d1)
    hg = hypergradient_numeric(problem, x)
    np.testing.assert_array_equal(
        hypergradient_numeric(problem, x, solve_head_exact(problem, x)), hg)
    fd = _upper_value_fd(problem, x)
    assert np.linalg.norm(hg - fd) / np.linalg.norm(fd) <= 1e-5


def _upper_value_fd(problem, x, eps=1e-5):
    """Central differences of x -> upper_value(x, y*(x))."""
    fd = np.zeros(problem.d1)
    for j in range(problem.d1):
        e = np.zeros(problem.d1)
        e[j] = eps
        up = problem.upper_value(x + e, solve_head_exact(problem, x + e))
        dn = problem.upper_value(x - e, solve_head_exact(problem, x - e))
        fd[j] = (up - dn) / (2 * eps)
    return fd


@pytest.mark.parametrize("mode", ["iid", "label-skew"])
def test_analytic_head_hessian_matches_hvp_columns(mode):
    spec = HyperRepSpec(embed_dim=3, feature_dim=5, classes=3, ridge=0.2, m=4,
                        n_points=160, partition=mode)
    problem = make_hyperrep(spec, seed=9)
    gen = RngStream(9).child("hess", mode).generator()
    for _ in range(3):
        x = gen.normal(size=problem.d1)
        y = gen.normal(size=problem.d2)
        ref = np.column_stack([problem.agg_hvp_lower_yy(Point(x, y), e)
                               for e in np.eye(problem.d2)])
        got = agg_hessian_lower_yy(problem, x, y)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_analytic_head_hessian_on_unequal_splits():
    # train splits of 5, 5, 5, 4, 4: the padded table entries must weigh nothing
    spec = HyperRepSpec(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=5, n_points=60)
    problem = make_hyperrep(spec, seed=4)
    assert [len(t) for t in problem.train_idx] == [5, 5, 5, 4, 4]
    gen = RngStream(4).child("hess").generator()
    x, y = gen.normal(size=problem.d1), gen.normal(size=problem.d2)
    ref = np.column_stack([problem.agg_hvp_lower_yy(Point(x, y), e)
                           for e in np.eye(problem.d2)])
    got = agg_hessian_lower_yy(problem, x, y)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- shared forward passes: the fused helpers equal the aggregate oracles ------

SHARED_CASES = {
    "iid": (dict(embed_dim=3, feature_dim=5, classes=3, ridge=0.2, m=4, n_points=160,
                 partition="iid"), 9),
    "label-skew": (dict(embed_dim=3, feature_dim=5, classes=3, ridge=0.2, m=4,
                        n_points=160, partition="label-skew"), 9),
    # train splits of 5, 5, 5, 4, 4 and val splits of 5, 5, 5, 5, 4
    "unequal": (dict(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=5, n_points=60), 4),
}


def _shared_case(name, batch_size=8):
    kwargs, seed = SHARED_CASES[name]
    problem = make_hyperrep(HyperRepSpec(**kwargs), seed=seed, batch_size=batch_size)
    gen = RngStream(seed).child("shared", name).generator()
    return problem, gen.normal(size=problem.d1), gen.normal(size=problem.d2)


def _newton_reference(problem, x, y, tol=1e-12, max_iter=60):
    # Newton over the public aggregate oracles: two forward passes per step
    for _ in range(max_iter):
        g = problem.agg_grad_lower_y(Point(x, y))
        if np.linalg.norm(g) <= tol:
            break
        y = y - np.linalg.solve(agg_hessian_lower_yy(problem, x, y), g)
    return y


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
def test_solve_head_exact_equals_aggregate_newton(name):
    problem, x, y0 = _shared_case(name)
    np.testing.assert_array_equal(solve_head_exact(problem, x),
                                  _newton_reference(problem, x, np.zeros(problem.d2)))
    np.testing.assert_array_equal(solve_head_exact(problem, x, y0=y0),
                                  _newton_reference(problem, x, y0))
    for max_iter in (1, 2):  # iterate by iterate, before convergence
        np.testing.assert_array_equal(solve_head_exact(problem, x, max_iter=max_iter, y0=y0),
                                      _newton_reference(problem, x, y0, max_iter=max_iter))


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
def test_hypergradient_numeric_equals_aggregate_oracles(name):
    problem, x, y = _shared_case(name)
    for head in (solve_head_exact(problem, x), y):
        pt = Point(x, head)
        w = np.linalg.solve(agg_hessian_lower_yy(problem, x, head),
                            problem.agg_grad_upper_y(pt))
        ref = problem.agg_grad_upper_x(pt) - problem.agg_jvp_lower_xy(pt, w)
        np.testing.assert_array_equal(hypergradient_numeric(problem, x, head), ref)


def _forward_reference(problem, ids, x, y, lanes, split):
    """The forward pass with its minibatch gathered by take_along_axis over
    the participants' rows of the split's index table."""
    table, sizes = problem._tables[split]
    table, sizes = table[ids], sizes[ids]
    cols = np.arange(table.shape[1])
    if lanes is None or problem.batch_size >= cols.size:
        pos = np.broadcast_to(cols, table.shape)
    else:
        pos = lanes.subset(cols, problem.batch_size, sizes)
    idx = np.take_along_axis(table, pos, axis=1)
    mask = pos < sizes[:, None]
    E, H = problem._unpack(x, y)
    Us = problem.U[idx] * mask[..., None]
    Z = Us @ np.swapaxes(E, -1, -2)
    logits = Z @ np.swapaxes(H, -1, -2)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    P = e / e.sum(axis=-1, keepdims=True)
    R = P - (problem.labels[idx][..., None] == np.arange(P.shape[-1]))
    return H, Us, Z, P, R, mask.sum(axis=1)[:, None, None]


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
@pytest.mark.parametrize("batch_size", [1, 4, 64])
def test_forward_equals_take_along_axis_reference(name, batch_size):
    # 64 exceeds every split, so even drawn lanes take the whole split
    problem, x, y = _shared_case(name, batch_size)
    for ids in (np.arange(problem.m), np.array([0, 2]), np.array([problem.m - 1])):
        stacked_y = y + np.arange(ids.size)[:, None]
        for split in ("train", "val"):
            for lanes in (None, RngStream(1).lanes(ids, split, 0)):
                for yy in (y, stacked_y):
                    got = problem._forward(ids, x, yy, lanes, split)
                    want = _forward_reference(problem, ids, x, yy, lanes, split)
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b)


def test_upper_value_is_the_client_mean_on_unequal_val_splits():
    # val splits of 8, 8, 7, 7: a pooled mean weighs the clients unequally and
    # so is not the objective that hypergradient_numeric differentiates
    spec = HyperRepSpec(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=4, n_points=72)
    problem = make_hyperrep(spec, seed=4)
    assert [len(v) for v in problem.val_idx] == [8, 8, 7, 7]
    x = RngStream(4).child("fd").generator().normal(size=problem.d1)
    fd = _upper_value_fd(problem, x)
    hg = hypergradient_numeric(problem, x)
    assert np.linalg.norm(hg - fd) / np.linalg.norm(fd) <= 1e-5


def _einsum_head_hessian(H, Z, P, n, ridge):
    # the head Hessian as one three-operand einsum over each client's points
    D = P[..., :, None] * (np.eye(H.shape[0]) - P[..., None, :])
    H_i = np.einsum("ijcd,ija,ijb->icadb", D, Z, Z) / n[..., None, None]
    d2 = H.size
    return H_i.mean(axis=0).reshape(d2, d2) + ridge * np.eye(d2)


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
def test_head_hessian_equals_einsum_reference(name):
    problem, x, y = _shared_case(name)
    for ids in (problem._all_ids, np.array([0, 2])):
        H, _, Z, P, _, n = problem._forward(ids, x, y, None, "train")
        got = _head_hessian(H, Z, P, n, problem.spec.ridge)
        want = _einsum_head_hessian(H, Z, P, n, problem.spec.ridge)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
