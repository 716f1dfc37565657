"""Batched oracles: each row equals the single-client oracle bit for bit.

For every oracle and sampling mode, on quadratic and hyper-representation
problems, a batched call over a participant id array must give, row for row,
the single-client result on the same client, point and lane; its lanes must
hash like ``rng.child(i, *tags)``; and it must audit the same samples.
"""

import numpy as np
import pytest

from fedbilevel import (ContractViolation, HyperRepSpec, ParameterError, Point,
                        ProtocolError, QuadraticInstance, QuadraticProblem,
                        QuadraticSpec, RngStream, make_hyperrep, make_quadratic)
from fedbilevel.errors import ClientLookupError
from fedbilevel.problems import NOISE_GAUSSIAN
from fedbilevel.rng import Lanes

from conftest import manual_instance

ORACLES = ("grad_lower_y", "grad_upper_x", "grad_upper_y", "hvp_lower_yy", "jvp_lower_xy")


def _quadratic(batch_size, gaussian=False):
    # L_g/mu = 2 leaves Gaussian Hessian draws a small margin: most, not all, get shrunk
    spec = QuadraticSpec(d1=3, d2=4, m=5, n_per_client=6, mu=1.0, L_g=2.0, hetero=0.6,
                         noise_spread=0.3, noise_std=0.15, seed=8,
                         noise_mode=NOISE_GAUSSIAN if gaussian else "finite-sum")
    return QuadraticProblem(make_quadratic(spec), batch_size=batch_size)


def _hyperrep(batch_size):
    spec = HyperRepSpec(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=5, n_points=60)
    return make_hyperrep(spec, seed=4, batch_size=batch_size)


# (name, problem factory, stochastic?): exact, batch 1, subset 1<k<n, full batch, gaussian
MODES = [
    ("quadratic-exact", lambda: _quadratic(1), False),
    ("quadratic-batch1", lambda: _quadratic(1), True),
    ("quadratic-subset", lambda: _quadratic(3), True),
    ("quadratic-full", lambda: _quadratic(6), True),
    ("quadratic-gaussian", lambda: _quadratic(1, gaussian=True), True),
    ("hyperrep-exact", lambda: _hyperrep(3), False),
    ("hyperrep-batch1", lambda: _hyperrep(1), True),
    ("hyperrep-subset", lambda: _hyperrep(3), True),
    ("hyperrep-full", lambda: _hyperrep(100), True),
    # train splits of 5, 5, 5, 4, 4: the rows of 5 subsample, the rows of 4 take all
    ("hyperrep-mixed", lambda: _hyperrep(4), True),
]
HYPERREP_MODES = [m for m in MODES if m[0].startswith("hyperrep")]


def _single(problem, name, i, x, y, v, lane):
    p = Point(x, y)
    if name in ("hvp_lower_yy", "jvp_lower_xy"):
        return getattr(problem, name)(i, p, v, lane)
    return getattr(problem, name)(i, p, lane)


def _batched(problem, name, ids, x, y, v, lanes):
    if name in ("hvp_lower_yy", "jvp_lower_xy"):
        return getattr(problem, name + "_batch")(ids, x, y, v, lanes)
    return getattr(problem, name + "_batch")(ids, x, y, lanes)


@pytest.mark.parametrize("mode,make,stochastic", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
def test_batched_rows_match_single_client(mode, make, stochastic, stacked):
    problem = make()
    gen = RngStream(2).child("points").generator()
    rng = RngStream(31).child("est", 7)
    for ids in (np.array([0, 2, 3]), np.arange(problem.m), np.array([4])):
        k = ids.size
        shape = lambda d: (k, d) if stacked else (d,)  # noqa: E731
        x = 0.5 * gen.normal(size=shape(problem.d1))
        y = 0.5 * gen.normal(size=shape(problem.d2))
        v = gen.normal(size=shape(problem.d2))
        for name in ORACLES:
            tags = (name, 3)
            lanes = rng.lanes(ids, *tags) if stochastic else None
            if stochastic:
                assert list(lanes.hashes) == [rng.child(i, *tags)._hash for i in ids.tolist()]
            problem.audit.reset()
            got = _batched(problem, name, ids, x, y, v, lanes)
            batched_audit = dict(problem.audit.by_purpose)
            problem.audit.reset()
            rows = [_single(problem, name, i, *(a[r] if stacked else a for a in (x, y, v)),
                            rng.child(i, *tags) if stochastic else None)
                    for r, i in enumerate(ids.tolist())]
            assert got.shape == (k, problem.d1 if name in ("grad_upper_x", "jvp_lower_xy")
                                 else problem.d2)
            for r in range(k):
                assert np.array_equal(got[r], rows[r]), (name, ids, r)
            assert batched_audit == problem.audit.by_purpose, name
            if stochastic:
                assert batched_audit == {name: problem.batch_size * k}


def _reference(problem, name, i, x, y, v, lane):
    """The quadratic oracles written per client, as plain numpy on row i of the
    instance arrays."""
    q = problem.inst
    A, B, n = q.A[i], q.B[i], q.n_samples
    k = min(problem.batch_size, n)

    def mean(a):
        a = a[i]
        if k == 1:
            return a[lane.index(n)]
        return a.mean(axis=0) if k >= n else a[lane.subset(np.arange(n), k)].mean(axis=0)
    gauss = q.noise_mode == NOISE_GAUSSIAN
    if name == "grad_lower_y":
        g = A @ y + B @ x + q.c[i]
        if lane is None:
            return g
        if gauss:
            return g + lane.normal(q.noise_std, g.shape)
        return g + mean(q.dA) @ y + mean(q.dB) @ x + mean(q.dc)
    if name == "grad_upper_x":
        g = q.rho_x * x + q.e[i]
        if lane is None:
            return g
        return g + (lane.normal(q.noise_std, g.shape) if gauss else mean(q.de))
    if name == "grad_upper_y":
        g = y - q.d[i]
        if lane is None:
            return g
        return g + lane.normal(q.noise_std, g.shape) if gauss else g - mean(q.dd)
    if name == "hvp_lower_yy":
        if lane is None:
            return A @ v
        if not gauss:
            return A @ v + mean(q.dA) @ v
        S = lane.normal(q.noise_std, A.shape)
        S = 0.5 * (S + S.T)
        nrm = np.linalg.norm(S, 2)
        if nrm > q.hess_margin[i]:
            S *= q.hess_margin[i] / nrm
        return (A + S) @ v
    if lane is None:
        return B.T @ v
    if not gauss:
        return B.T @ v + mean(q.dB).T @ v
    return (B + lane.normal(q.noise_std, B.shape)).T @ v


@pytest.mark.parametrize("mode,make,stochastic",
                         [m for m in MODES if m[0].startswith("quadratic")],
                         ids=[m[0] for m in MODES if m[0].startswith("quadratic")])
def test_quadratic_batched_rows_match_per_client_reference(mode, make, stochastic):
    problem = make()
    gen = RngStream(5).child("points").generator()
    rng = RngStream(17).child("est", 2)
    ids = np.array([0, 1, 3, 4])
    x, y, v = (gen.normal(size=(4, d)) for d in (problem.d1, problem.d2, problem.d2))
    for name in ORACLES:
        lanes = rng.lanes(ids, name) if stochastic else None
        got = _batched(problem, name, ids, x, y, v, lanes)
        for r, i in enumerate(ids.tolist()):
            ref = _reference(problem, name, i, x[r], y[r], v[r],
                             rng.child(i, name) if stochastic else None)
            assert np.array_equal(got[r], ref), (name, i)


def _hyperrep_reference(problem, name, i, x, y, v, lane):
    """The hyperrep oracles written per client, as plain numpy on the splits."""
    spec = problem.spec
    E = x.reshape(spec.embed_dim, spec.feature_dim)
    H = y.reshape(spec.classes, spec.embed_dim)
    lower = name in ("grad_lower_y", "hvp_lower_yy", "jvp_lower_xy")
    pool = (problem.train_idx if lower else problem.val_idx)[i]
    idx = pool if lane is None else lane.subset(pool, problem.batch_size)
    Us = problem.U[idx]
    Z = Us @ E.T
    logits = Z @ H.T
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    R = P - np.eye(spec.classes)[problem.labels[idx]]
    b = len(idx)
    if name == "grad_lower_y":
        return (R.T @ Z / b).ravel() + spec.ridge * y
    if name == "grad_upper_y":
        return (R.T @ Z / b).ravel()
    if name == "grad_upper_x":
        return ((R @ H).T @ Us / b).ravel()
    V = v.reshape(H.shape)
    W = Z @ V.T
    DW = P * W - P * (P * W).sum(axis=1, keepdims=True)
    if name == "hvp_lower_yy":
        return (DW.T @ Z / b).ravel() + spec.ridge * v
    return ((DW @ H + R @ V).T @ Us / b).ravel()


@pytest.mark.parametrize("mode,make,stochastic", HYPERREP_MODES,
                         ids=[m[0] for m in HYPERREP_MODES])
@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
def test_hyperrep_batched_rows_match_per_client_reference(mode, make, stochastic, stacked):
    problem = make()
    gen = RngStream(5).child("points").generator()
    rng = RngStream(17).child("est", 2)
    ids = np.array([0, 2, 3, 4])
    shape = lambda d: (4, d) if stacked else (d,)  # noqa: E731
    x, y, v = (gen.normal(size=shape(d)) for d in (problem.d1, problem.d2, problem.d2))
    for name in ORACLES:
        lanes = rng.lanes(ids, name) if stochastic else None
        got = _batched(problem, name, ids, x, y, v, lanes)
        for r, i in enumerate(ids.tolist()):
            ref = _hyperrep_reference(problem, name, i,
                                      *(a[r] if stacked else a for a in (x, y, v)),
                                      rng.child(i, name) if stochastic else None)
            np.testing.assert_allclose(got[r], ref, rtol=1e-13, err_msg=f"{name} {i}")


@pytest.mark.parametrize("batch_size", [1, 3, 4, 5, 100])
def test_hyperrep_draws_match_stream_subsets(batch_size):
    # the kernels draw every row's minibatch positions with one Lanes.subset
    # over the padded split table; mapped through the table they must be the
    # per-stream subset of the client's split, followed only by padding
    problem = _hyperrep(batch_size)
    rng = RngStream(23).child("est", 1)
    ids = np.arange(problem.m)
    lanes = rng.lanes(ids, "zeta", 0)
    for split, pools in (("train", problem.train_idx), ("val", problem.val_idx)):
        table, sizes = problem._tables[split]
        assert sizes.tolist() == [len(p) for p in pools]
        pos = lanes.subset(np.arange(table.shape[1]), batch_size, sizes)
        for i in ids.tolist():
            want = rng.child(i, "zeta", 0).subset(pools[i], batch_size)
            assert np.array_equal(table[i, pos[i, :len(want)]], want), (split, i)
            assert (pos[i, len(want):] >= sizes[i]).all(), (split, i)
    assert problem._tables["train"][1].tolist() == [5, 5, 5, 4, 4]


def test_lane_batch_draws_match_streams():
    rng = RngStream(9).child("lower", 2)
    ids = np.array([1, 4, 6])
    lanes = rng.lanes(ids, "zeta", 0)
    streams = [rng.child(i, "zeta", 0) for i in ids.tolist()]
    assert lanes.purpose == "zeta"
    assert [lanes.stream(r) for r in range(3)] == streams
    assert lanes.index(7).tolist() == [s.index(7) for s in streams]
    pool = np.arange(10, 20)
    assert np.array_equal(lanes.subset(pool, 4), np.stack([s.subset(pool, 4) for s in streams]))
    assert np.array_equal(lanes.normal(0.2, (2, 3)),
                          np.stack([s.normal(0.2, (2, 3)) for s in streams]))
    one = Lanes.of(streams[1])
    assert one.stream(0) == streams[1] and one.purpose == "zeta"
    assert one.index(7).tolist() == [streams[1].index(7)]


def test_batched_contract_violations():
    problem = _quadratic(1)
    x, y = np.zeros(3), np.zeros(4)
    rng = RngStream(0)
    with pytest.raises(ContractViolation, match="increasing"):
        problem.grad_lower_y_batch(np.array([2, 1]), x, y, None)
    with pytest.raises(ContractViolation, match="increasing"):
        problem.grad_lower_y_batch(np.array([1, 1]), x, y, None)
    with pytest.raises(ClientLookupError):
        problem.grad_lower_y_batch(np.array([0, 5]), x, y, None)
    with pytest.raises(ProtocolError):
        problem.grad_lower_y_batch(np.array([], dtype=int), x, y, None)
    with pytest.raises(ContractViolation, match="integer array"):
        problem.grad_lower_y_batch([0, 1], x, y, None)
    with pytest.raises(ContractViolation, match="shape"):
        problem.grad_lower_y_batch(np.array([0, 1]), x, np.zeros((3, 4)), None)
    with pytest.raises(ContractViolation, match="non-finite"):
        problem.hvp_lower_yy_batch(np.array([0]), x, y, np.array([np.nan, 0, 0, 0]), None)
    with pytest.raises(ContractViolation, match="lanes"):
        problem.grad_lower_y_batch(np.array([0, 1]), x, y, rng.lanes([0], "zeta"))
    with pytest.raises(ContractViolation, match="Lanes"):
        problem.grad_lower_y_batch(np.array([0]), x, y, rng.child(0, "zeta"))
    assert problem.audit.total == 0


def test_instance_rejects_disagreeing_shapes():
    # every array is stacked with one row per client, so a ragged instance
    # (here: clients with one and with two samples) cannot be expressed
    good = manual_instance([2.0], d1=1, m=2)
    fields = {f: getattr(good, f) for f in ("A", "B", "c", "d", "e", "dA", "dB", "dc",
                                            "dd", "de", "hess_margin", "mu", "L_g")}
    QuadraticInstance(**fields)
    bad = [("dc", np.zeros((2, 2, 1))),       # two samples where the others have one
           ("e", np.zeros((3, 1))),           # three clients where the others have two
           ("hess_margin", np.zeros(1)),
           ("B", np.zeros((2, 1, 2))),        # d1 = 2 where e has d1 = 1
           ("A", np.zeros((2, 1))),           # missing an axis
           ("dA", np.zeros((2, 0, 1, 1)))]    # empty sample axis
    for name, arr in bad:
        with pytest.raises(ParameterError):
            QuadraticInstance(**{**fields, name: arr})
