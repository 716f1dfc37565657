"""Batched oracles: each row equals the client's batch of one bit for bit.

For every oracle and sampling mode, on quadratic and hyper-representation
problems, a call over a participant id array must give, row for row, the
result of a batch of one on the same client, point and lane; its lanes must
hash like ``rng.child(i, *tags)``; and it must audit the same samples.
"""

import numpy as np
import pytest

from fedbilevel import (ContractViolation, HyperRepSpec, ParameterError, Point,
                        QuadraticInstance, QuadraticProblem, QuadraticSpec,
                        RngStream, make_hyperrep, make_quadratic)
from fedbilevel.problems import NOISE_GAUSSIAN
from fedbilevel.rng import CLIENT, lane_steps

from conftest import batch_of_one, manual_instance

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
    if name in ("hvp_lower_yy", "jvp_lower_xy"):
        return batch_of_one(problem, name, i, Point(x, y), v, lane)
    return batch_of_one(problem, name, i, Point(x, y), lane)


def _batched(problem, name, ids, x, y, v, lanes):
    if name in ("hvp_lower_yy", "jvp_lower_xy"):
        return getattr(problem, name)(ids, x, y, v, lanes)
    return getattr(problem, name)(ids, x, y, lanes)


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


@pytest.mark.parametrize("mode,make,stochastic", MODES, ids=[m[0] for m in MODES])
def test_grad_lower_y_stacked_copy_of_shared_y(mode, make, stochastic):
    # One-Round-Lower and One-Round-Upper skip their first svrg pair,
    # grad(Z) - grad(z) on the same lanes with Z a stacked copy of the start
    # point z (y, or x for the upper phase), because this difference is
    # exactly zero
    problem = make()
    gen = RngStream(3).child("points").generator()
    rng = RngStream(32).child("est", 2)
    for ids in (np.array([0, 2, 3]), np.arange(problem.m), np.array([4])):
        x = 0.5 * gen.normal(size=problem.d1)
        y = 0.5 * gen.normal(size=problem.d2)
        lanes = rng.lanes(ids, "zeta", 0) if stochastic else None
        shared = problem.grad_lower_y(ids, x, y, lanes)
        stacked = problem.grad_lower_y(ids, x, np.repeat(y[None], ids.size, 0), lanes)
        assert np.array_equal(stacked, shared), ids
        lanes = rng.lanes(ids, "xi_up", 0) if stochastic else None
        shared = problem.grad_upper_x(ids, x, y, lanes)
        stacked = problem.grad_upper_x(ids, np.repeat(x[None], ids.size, 0), y, lanes)
        assert np.array_equal(stacked, shared), ids


@pytest.mark.parametrize("mode,make,stochastic", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
def test_full_set_rows_match_subset_calls(mode, make, stochastic, stacked):
    # a call on all m clients reads, on a lane table step, the set's block of
    # draws, and calls on client subsets their own rows of it; each row's
    # minibatch is gathered at its own client's row offset, so every call
    # gives each client's row with the same bits. On lanes None or a free
    # stream's lanes, the full set runs in any id order: the problem's own ids
    # read a full slice of its arrays, and a fresh, reversed or shuffled
    # array a gather; each row is its client's one-client call, bit for bit
    problem = make()
    gen = RngStream(6).child("points").generator()
    step = next(lane_steps(RngStream(41), "est", 1, problem.m, [(CLIENT, n) for n in ORACLES]))
    everyone = np.arange(problem.m)
    shape = lambda d: (problem.m, d) if stacked else (d,)  # noqa: E731
    x, y, v = (0.5 * gen.normal(size=shape(d)) for d in (problem.d1, problem.d2, problem.d2))
    part = lambda a, ids: a[ids] if stacked else a  # noqa: E731
    for name in ORACLES:
        lanes = (lambda ids: step.lanes(ids, name)) if stochastic else (lambda ids: None)
        full = _batched(problem, name, everyone, x, y, v, lanes(everyone))
        for ids in (np.array([0, 2, 3]), np.array([1, 4]), np.array([3]), everyone[:-1]):
            got = _batched(problem, name, ids, *(part(a, ids) for a in (x, y, v)), lanes(ids))
            assert got.tobytes() == full[ids].tobytes(), (name, ids)
    own = problem.checked(range(problem.m), np.zeros(problem.d1), np.zeros(problem.d2)).ids
    shuffled = RngStream(7).child("order").permutation(everyone)
    assert 0 < np.count_nonzero(np.diff(shuffled) > 0) < problem.m - 1   # neither order
    free = RngStream(43).child("free")
    for name in ORACLES:
        for lanes in [lambda ids: None] + [lambda ids: free.lanes(ids, name)] * stochastic:
            for ids in (own, everyone.copy(), everyone[::-1].copy(), shuffled):
                got = _batched(problem, name, ids, *(part(a, ids) for a in (x, y, v)), lanes(ids))
                for r in range(problem.m):
                    one = ids[r:r + 1]
                    want = _batched(problem, name, one, *(part(a, one) for a in (x, y, v)),
                                    lanes(one))
                    assert got[r].tobytes() == want[0].tobytes(), (name, ids, r)


@pytest.mark.parametrize("make", [lambda: _quadratic(3), lambda: _hyperrep(3)],
                         ids=["quadratic", "hyperrep"])
def test_checked_full_set_is_every_client_in_order(make):
    # checked() gives the full set from any order or repetition of the
    # participants as the problem's own ids, 0..m-1 in order, which is also
    # the order a lane table step's lanes read m ids in; every client's row
    # of a call on them is its own
    problem = make()
    x, y = np.zeros(problem.d1), np.zeros(problem.d2)
    step = next(lane_steps(RngStream(2), "est", 1, problem.m, [(CLIENT, "zeta")]))
    order = np.arange(problem.m)
    for participants in (order[::-1], [2, 0, 4, 1, 3, 2]):
        ids = problem.checked(participants, x, y).ids
        assert ids.tolist() == order.tolist()
        full = problem.grad_lower_y(ids, x, y, step.lanes(ids, "zeta"))
        for i in order:
            one = problem.grad_lower_y(order[i:i + 1], x, y, step.lanes(order[i:i + 1], "zeta"))
            assert one.tobytes() == full[i:i + 1].tobytes()


def _reference(problem, name, i, x, y, v, lane):
    """The quadratic oracles written per client, as plain numpy on row i of the
    instance arrays. A finite-sum sample folds its offsets into the client
    data (a minibatch averages the folded samples), and its lower gradient is
    one product with [y; x; 1]; a full batch reads the client data."""
    q = problem.inst
    n = q.n_samples
    k = min(problem.batch_size, n)
    gauss = q.noise_mode == NOISE_GAUSSIAN
    folded = lane is not None and not gauss and k < n

    def sample(a, da):
        if not folded:
            return a[i]
        s = a[i] + da[i]
        return s[lane.index(n)] if k == 1 else s[lane.subset(np.arange(n), k)].mean(axis=0)
    A, B, c, d, e = (sample(a, da) for a, da in ((q.A, q.dA), (q.B, q.dB), (q.c, q.dc),
                                                   (q.d, q.dd), (q.e, q.de)))
    noisy = lane is not None and gauss
    if name == "grad_lower_y":
        if folded:
            return np.hstack((A, B, c[:, None])) @ np.concatenate((y, x, [1.0]))
        g = A @ y + B @ x + c
        return g + lane.normal(q.noise_std, g.shape) if noisy else g
    if name == "grad_upper_x":
        g = q.rho_x * x + e
        return g + lane.normal(q.noise_std, g.shape) if noisy else g
    if name == "grad_upper_y":
        g = y - d
        return g + lane.normal(q.noise_std, g.shape) if noisy else g
    if name == "hvp_lower_yy":
        if not noisy:
            return A @ v
        S = lane.normal(q.noise_std, A.shape)
        S = 0.5 * (S + S.T)
        nrm = np.linalg.norm(S, 2)
        if nrm > q.hess_margin[i]:
            S *= q.hess_margin[i] / nrm
        return (A + S) @ v
    if not noisy:
        return B.T @ v
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
        sizes = np.array([len(p) for p in pools])
        table = np.zeros((problem.m, sizes.max()), dtype=np.intp)
        for i, p in enumerate(pools):
            table[i, :len(p)] = p
        pos = lanes.subset(np.arange(table.shape[1]), batch_size, sizes)
        for i in ids.tolist():
            want = rng.child(i, "zeta", 0).subset(pools[i], batch_size)
            assert np.array_equal(table[i, pos[i, :len(want)]], want), (split, i)
            assert (pos[i, len(want):] >= sizes[i]).all(), (split, i)
    assert [len(t) for t in problem.train_idx] == [5, 5, 5, 4, 4]


def test_lane_batch_draws_match_streams():
    rng = RngStream(9).child("lower", 2)
    ids = np.array([1, 4, 6])
    lanes = rng.lanes(ids, "zeta", 0)
    streams = [rng.child(i, "zeta", 0) for i in ids.tolist()]
    assert lanes.purpose == "zeta"
    assert lanes.index(7).tolist() == [s.index(7) for s in streams]
    pool = np.arange(10, 20)
    assert np.array_equal(lanes.subset(pool, 4), np.stack([s.subset(pool, 4) for s in streams]))
    assert np.array_equal(lanes.normal(0.2, (2, 3)),
                          np.stack([s.normal(0.2, (2, 3)) for s in streams]))
    one = rng.declare([(CLIENT, "zeta", 0)], 7).lanes(ids[1:2], "zeta", 0)
    assert one.purpose == "zeta"
    assert one.index(7).tolist() == [streams[1].index(7)]


def test_batched_contract_violations():
    # checked() owns the id and shape checks (test_problems::test_error_cases);
    # per call an oracle checks only its lanes, None or Lanes with one row per
    # id, and raises ContractViolation before it audits anything
    problem = _quadratic(1)
    x, y, v = np.zeros(3), np.zeros(4), np.zeros(4)
    full = problem.checked(range(problem.m), x, y).ids
    sub = problem.checked([3, 1], x, y).ids
    step = next(lane_steps(RngStream(0), "est", 1, problem.m, [(CLIENT, "zeta")]))
    miscounted = ((full, step.lanes(sub, "zeta")), (sub, step.lanes(full, "zeta")),
                  (full, RngStream(0).lanes(full[1:], "zeta")),
                  (sub, RngStream(0).lanes([1], "zeta")),
                  (sub[:1], RngStream(0).lanes(np.array([], dtype=int), "zeta")))
    for ids, lanes in miscounted:
        for name in ORACLES:
            with pytest.raises(ContractViolation, match="lanes for"):
                _batched(problem, name, ids, x, y, v, lanes)
    for lanes in (RngStream(0).child(1, "zeta"), RngStream(0).generator()):
        for name in ORACLES:
            with pytest.raises(ContractViolation, match="Lanes or None"):
                _batched(problem, name, sub, x, y, v, lanes)
    assert problem.audit.total == 0


def test_instance_rejects_disagreeing_shapes():
    # every array is stacked with one row per client, so a ragged instance
    # (here: clients with one and with two samples) cannot be expressed
    good = manual_instance([2.0], d1=1, m=2)
    fields = {f: getattr(good, f) for f in ("A", "B", "c", "d", "e", "dA", "dB", "dc",
                                            "dd", "de", "mu", "L_g")}
    QuadraticInstance(**fields)
    bad = [("dc", np.zeros((2, 2, 1))),       # two samples where the others have one
           ("e", np.zeros((3, 1))),           # three clients where the others have two
           ("B", np.zeros((2, 1, 2))),        # d1 = 2 where e has d1 = 1
           ("A", np.zeros((2, 1))),           # missing an axis
           ("dA", np.zeros((2, 0, 1, 1)))]    # empty sample axis
    for name, arr in bad:
        with pytest.raises(ParameterError):
            QuadraticInstance(**{**fields, name: arr})
