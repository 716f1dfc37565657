"""Synthetic instance generation and closed-form ground truth."""

import functools
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fedbilevel
from fedbilevel import (ParameterError, QuadraticInstance, QuadraticProblem,
                        QuadraticSpec, RngStream, make_quadratic)
from fedbilevel.oracle import fd_hypergradient

from conftest import exact_mean, manual_instance


def test_hetero_zero_identical_clients():
    inst = make_quadratic(QuadraticSpec(m=5, hetero=0.0, seed=1))
    for a in (inst.A, inst.B, inst.c, inst.d):
        for row in a[1:]:
            np.testing.assert_array_equal(row, a[0])


def test_eigenvalues_inside_declared_range():
    inst = make_quadratic(QuadraticSpec(mu=1.0, L_g=10.0, m=4, n_per_client=6,
                                        hetero=1.0, noise_spread=0.4, seed=2))
    for i in range(inst.m):
        for j in range(inst.n_samples):
            w = np.linalg.eigvalsh(inst.A[i] + inst.dA[i, j])
            assert 1.0 - 1e-12 <= w[0] and w[-1] <= 10.0 + 1e-12


def test_same_seed_bit_identical():
    a = make_quadratic(QuadraticSpec(seed=42, hetero=0.7))
    b = make_quadratic(QuadraticSpec(seed=42, hetero=0.7))
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.dA, b.dA)
    np.testing.assert_array_equal(a.de, b.de)


def test_hetero_scales_monotonically():
    spreads = []
    for h in (0.0, 0.25, 0.5, 1.0):
        inst = make_quadratic(QuadraticSpec(m=6, hetero=h, seed=3))
        spreads.append(max(np.linalg.norm(A_i - inst.A_bar, 2) for A_i in inst.A))
    assert spreads[0] <= 1e-14  # identical clients up to the mean's rounding
    assert all(a < b for a, b in zip(spreads, spreads[1:]))


def test_A_bar_is_exact_mean():
    inst = make_quadratic(QuadraticSpec(m=7, hetero=0.9, seed=4))
    np.testing.assert_array_equal(inst.A_bar, np.mean(list(inst.A), axis=0))


def test_infeasible_spec_rejected():
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(mu=2.0, L_g=1.0))
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(mu=-1.0))
    with pytest.raises(ParameterError):
        make_quadratic(QuadraticSpec(hetero=1.5))
    for field in ("noise_spread", "noise_std"):
        with pytest.raises(ParameterError, match=field):
            make_quadratic(QuadraticSpec(**{field: -0.5}))
        make_quadratic(QuadraticSpec(**{field: 0.0}))


def test_unknown_noise_mode_rejected():
    # an unknown mode used to build an instance whose oracles ran noise-free
    with pytest.raises(ParameterError, match="unknown noise mode 'bogus'"):
        make_quadratic(QuadraticSpec(noise_mode="bogus"))
    doc = make_quadratic(QuadraticSpec(d1=2, d2=2, m=2, n_per_client=2)).to_json_dict()
    with pytest.raises(ParameterError, match="unknown noise mode 'Finite-Sum'"):
        QuadraticInstance.from_json_dict({**doc, "noise_mode": "Finite-Sum"})


def test_closed_form_lower_opt_examples():
    inst = manual_instance([1.0, 1.0], d1=2, m=1, lin_scale=0.0, B_norm=1e-12)
    inst = replace(inst, c=np.array([[-1.0, -2.0]]))
    np.testing.assert_allclose(inst.y_star(np.zeros(2)), [1.0, 2.0],
                               atol=1e-10)
    inst2 = replace(inst, c=np.zeros((1, 2)))
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
    inst = replace(inst, B=np.ones((1, 1, 1)))
    x = np.array([1.0])
    assert inst.y_star(x)[0] == pytest.approx(-0.5)
    assert inst.hypergradient(x)[0] == pytest.approx(1.25)


def test_hypergradient_decoupled_is_direct_part():
    inst = manual_instance([2.0, 4.0], d1=2, m=2, B_norm=1e-300)
    inst = replace(inst, B=np.zeros_like(inst.B))
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
    np.testing.assert_array_equal(inst.A, back.A)
    np.testing.assert_array_equal(inst.dA, back.dA)
    np.testing.assert_array_equal(inst.de, back.de)
    x = np.ones(3)
    np.testing.assert_array_equal(inst.hypergradient(x), back.hypergradient(x))


def test_lower_samples_fold_each_sample_once():
    # the oracles read each sample's data folded once at construction, packed
    # per sample as [A + dA | B + dB | c + dc], read-only and shared by every
    # problem on the instance; the instance keeps its own copies of the
    # caller's arrays, which stay writable
    inst = make_quadratic(QuadraticSpec(d1=3, d2=2, m=2, n_per_client=4, hetero=0.5, seed=8))
    S = inst.lower_samples
    assert S.shape == (2, 4, 2, 2 + 3 + 1) and not S.flags.writeable
    for block, a, da in ((S[..., :2], inst.A, inst.dA), (S[..., 2:5], inst.B, inst.dB),
                         (S[..., 5], inst.c, inst.dc), (inst.d_samples, inst.d, inst.dd),
                         (inst.e_samples, inst.e, inst.de)):
        assert np.ascontiguousarray(block).tobytes() == (a[:, None] + da).tobytes()
    one, two = QuadraticProblem(inst), QuadraticProblem(inst, batch_size=2)
    assert one.inst.lower_samples is two.inst.lower_samples is S
    dc = -inst.dc   # still mean zero
    back = replace(inst, dc=dc)
    assert back.lower_samples is not S and not np.shares_memory(back.lower_samples, S)
    assert dc.flags.writeable and not np.shares_memory(back.dc, dc)
    assert back.lower_samples[..., :5].tobytes() == S[..., :5].tobytes()
    assert np.ascontiguousarray(back.lower_samples[..., 5]).tobytes() == (
        inst.c[:, None] + dc).tobytes()


def test_problem_keeps_flat_sample_stores():
    # a finite-sum problem gathers its folded samples with one take from flat
    # (m * n, ...) stores, client i's sample j at row i * n + j: C-contiguous
    # and read-only, views of the instance's folds except the A and B blocks
    inst = make_quadratic(QuadraticSpec(d1=3, d2=2, m=3, n_per_client=4, hetero=0.5, seed=8))
    problem = QuadraticProblem(inst, batch_size=2)
    S = inst.lower_samples
    for store, folded, shared in ((problem._lower, S, True), (problem._A, S[..., :2], False),
                                  (problem._B, S[..., 2:5], False),
                                  (problem._d, inst.d_samples, True),
                                  (problem._e, inst.e_samples, True)):
        assert store.flags.c_contiguous and not store.flags.writeable
        assert store.shape == (12, *folded.shape[2:])
        assert np.shares_memory(store, folded) == shared
        for i, j in ((0, 0), (1, 3), (2, 1)):
            assert store[i * 4 + j].tobytes() == np.ascontiguousarray(folded[i, j]).tobytes()
    lanes = RngStream(3).lanes(np.array([0, 2]), "zeta")
    for store in (problem._A, problem._B):
        assert problem._sample(np.array([0, 2]), lanes, store).flags.c_contiguous
    # additive-gaussian noise draws no sample, so its problem keeps no store
    gaussian = QuadraticProblem(make_quadratic(QuadraticSpec(
        d1=3, d2=2, m=3, n_per_client=4, seed=8, noise_mode="additive-gaussian",
        noise_std=0.1)))
    assert all(a is None for a in (gaussian._lower, gaussian._A, gaussian._B,
                                   gaussian._d, gaussian._e))


_RACE_SPEC = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5,
                           hetero=0.5, noise_spread=0.05, seed=0)
_MC_SPEC = QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=17)


@pytest.mark.parametrize("batch", [1, 3], ids=["batch1", "subset"])
@pytest.mark.parametrize("spec", [replace(_RACE_SPEC, seed=17), _MC_SPEC],
                         ids=["race", "mc_estimate"])
def test_folded_rows_match_client_plus_offset(spec, batch):
    # a finite-sum row reads its folded sample A_i + dA_ij etc.; the client
    # term plus the mean offset term, the form the oracles used before, agrees
    # to rounding
    inst = make_quadratic(spec)
    problem = QuadraticProblem(inst, batch_size=batch)
    gen = RngStream(6).child("points").generator()
    rng = RngStream(23).child("est", 1)
    n, d1, d2 = inst.n_samples, inst.d1, inst.d2
    for ids in (np.arange(inst.m), np.array([0, 2])):
        k = ids.size
        x, v = gen.normal(size=d1), gen.normal(size=(k, d2))
        y = gen.normal(size=(k, d2))
        for name in ("grad_lower_y", "grad_upper_x", "grad_upper_y", "hvp_lower_yy",
                     "jvp_lower_xy"):
            lanes = rng.lanes(ids, name)
            J = lanes.index(n)[:, None] if batch == 1 else lanes.subset(np.arange(n), batch)
            mean = lambda a: a[ids[:, None], J].mean(axis=1)   # noqa: E731
            mv = lambda M, u: (M @ u[..., None])[..., 0]   # noqa: E731
            ref = {
                "grad_lower_y": lambda: (mv(inst.A[ids], y) + inst.B[ids] @ x + inst.c[ids]
                                         + mv(mean(inst.dA), y) + mean(inst.dB) @ x
                                         + mean(inst.dc)),
                "grad_upper_x": lambda: inst.rho_x * x + inst.e[ids] + mean(inst.de),
                "grad_upper_y": lambda: y - inst.d[ids] - mean(inst.dd),
                "hvp_lower_yy": lambda: mv(inst.A[ids], v) + mv(mean(inst.dA), v),
                "jvp_lower_xy": lambda: (mv(inst.B[ids].swapaxes(1, 2), v)
                                         + mv(mean(inst.dB).swapaxes(1, 2), v)),
            }[name]()
            args = (v,) if name in ("hvp_lower_yy", "jvp_lower_xy") else ()
            got = getattr(problem, name)(ids, x, y, *args, lanes)
            err = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
            assert err.max() <= 1e-13, (name, ids, err.max())


def test_instance_json_digest_pinned():
    # odd n_per_client and d1 != d2 cover the +/- offset pairs' zero slot and
    # their symmetric (spectral-norm) branch; pinned on x86_64 with OpenBLAS,
    # re-pinned when the set-up draws became keyed lane draws, and when the
    # document dropped the derived hess_margin (schema v3)
    inst = make_quadratic(QuadraticSpec(d1=4, d2=3, m=3, n_per_client=5, hetero=0.5,
                                        noise_spread=0.2, seed=7))
    assert hashlib.sha256(inst.to_json().encode()).hexdigest() == (
        "146afe3fafa6eac664beb63b298d84993a4652d6b5b0ac429985d22b30214640")


# sha256 of every field of make_quadratic(d1=d2=d, m=4, seed=7), the bytes its
# JSON document serializes, for each d, and of the iterates and the metrics rows
# of a K = 3 fused and AID run on the d = 120 instance; one process per BLAS
# thread count
_DIGEST_SCRIPT = """
import hashlib, sys
from dataclasses import fields
import numpy as np
from fedbilevel import QuadraticSpec, RunConfig, make_quadratic, run
for d in map(int, sys.argv[1:]):
    inst = make_quadratic(QuadraticSpec(d1=d, d2=d, m=4, seed=7))
    h = hashlib.sha256()
    for f in fields(inst):
        v = getattr(inst, f.name)
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    print(d, h.hexdigest())
for est in ("aggitd", "aid"):
    rep = run(RunConfig(problem=QuadraticSpec(d1=120, d2=120, m=4, seed=7), estimator=est,
                        K=3, seed=7, eval_every=1))
    rows = np.array([r.values() for r in rep.rows], dtype=float)
    iterates = rep.final_x.tobytes() + rep.final_y.tobytes()
    print(est + "-iterates", hashlib.sha256(iterates).hexdigest())
    print(est + "-rows", hashlib.sha256(rows.tobytes()).hexdigest())
"""
_BLAS_DIMS = (10, 40, 101, 120)


@functools.lru_cache(maxsize=None)
def _thread_digests(threads: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedbilevel.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, *map(str, _BLAS_DIMS)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.mark.parametrize("d", _BLAS_DIMS)
def test_instance_bytes_blas_thread_boundary(d):
    # make_quadratic's products and norms make no BLAS call (U diag(eigs) U^T
    # is an einsum, a norm a pairwise sum), so instances are byte-identical
    # under 1 and 2 BLAS threads; d = 101 used to differ through both the gemm
    # of U diag(eigs) U^T and a ddot per row of the dB offsets, d = 120
    # through the ddot alone
    assert _thread_digests(1)[str(d)] == _thread_digests(2)[str(d)]


@pytest.mark.parametrize("name", ["aggitd-iterates", "aid-iterates", "aggitd-rows",
                                  "aid-rows"])
def test_run_blas_thread_boundary(name):
    # a run's iterates go through gemv kernels only (the stacked and packed
    # oracle products), and its metrics rows also read the stored inverse of
    # A_bar, V diag(1/w) V^T from one eigh formed by einsum; both agree under
    # 1 and 2 threads at d = 120. The rows used to differ through
    # np.linalg.inv, LAPACK over threaded level-3 BLAS
    assert _thread_digests(1)[name] == _thread_digests(2)[name]


# sha256 of the metrics rows of the demo-05 hyperrep runs (K = 60, every
# fifth step a row) and of a d = 120 quadratic run whose rows keep estimate
# points between them; one process per BLAS thread count
_STACKED_ROWS_SCRIPT = """
import hashlib
import numpy as np
from fedbilevel import HyperRepSpec, QuadraticSpec, RunConfig, run
hyperrep = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4, n_points=240,
                        partition="label-skew", shards_per_client=1)
cfgs = {est: RunConfig(problem=hyperrep, K=60, seed=3, eval_every=5, alpha=0.5, N=8,
                       batch_size=8, estimator=est) for est in ("aggitd", "aid", "local")}
cfgs["quadratic-120"] = RunConfig(problem=QuadraticSpec(d1=120, d2=120, m=4, seed=7), K=8,
                                  seed=7, eval_every=3)
for name, cfg in cfgs.items():
    rows = np.array([r.values() for r in run(cfg).rows], dtype=float)
    print(name, hashlib.sha256(rows.tobytes()).hexdigest())
"""


@functools.lru_cache(maxsize=None)
def _stacked_row_digests(threads: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedbilevel.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    out = subprocess.run([sys.executable, "-c", _STACKED_ROWS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.mark.parametrize("name", ["aggitd", "aid", "local", "quadratic-120"])
def test_stacked_rows_blas_thread_boundary(name):
    # a run's rows are one stacked pass after the loop: quadratic rows are
    # einsums and single-threaded ddots, hyperrep rows batched gemms, one per
    # row and client, and LAPACK solves per row, so stacking the rows reaches
    # no BLAS path that depends on the thread count
    assert _stacked_row_digests(1)[name] == _stacked_row_digests(2)[name]


def test_json_rejects_other_schemas_and_disagreeing_arrays():
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=3, n_per_client=2, seed=9))
    doc = inst.to_json_dict()
    assert doc["schema"] == "quadratic-instance-v3"
    assert np.shape(doc["dA"]) == (3, 2, 2, 2) and "hess_margin" not in doc
    for old in ("quadratic-instance-v1", "quadratic-instance-v2"):
        with pytest.raises(ParameterError, match="schema"):
            QuadraticInstance.from_json_dict({**doc, "schema": old})
    with pytest.raises(ParameterError, match="de has shape"):
        QuadraticInstance.from_json_dict({**doc, "de": doc["de"][:2]})
    ragged = [doc["dc"][0], doc["dc"][1][:1], doc["dc"][2]]  # one client with one sample
    with pytest.raises(ParameterError, match="malformed"):
        QuadraticInstance.from_json_dict({**doc, "dc": ragged})
    with pytest.raises(ParameterError, match="malformed"):
        QuadraticInstance.from_json_dict({k: v for k, v in doc.items() if k != "noise_std"})


def _one_inf(a):
    a = a.copy()
    a.flat[1] = np.inf
    return a


def _upper_corner(A):
    # eigvalsh reads one triangle, so this A passed the client check, with
    # margins 0.39 on a (d2 = 3, m = 2, seed 3) instance whose A[0] has
    # eigenvalues -0.34, 1.51 and 3.40
    A = A.copy()
    A[:, 0, 2] += 50.0
    return A


def _skewed_pair(dA):
    # still mean zero over the samples, but the folded samples would apply it as stored
    dA = dA.copy()
    dA[:, 0, 0, 1] += 0.01
    dA[:, 1, 0, 1] -= 0.01
    return dA


def _shift_two_clients(A):
    # clients 0 and 1 move by +/- 8 I, outside [mu, L_g] = [1, 10]; A_bar keeps its value
    return A + np.array([8.0, -8.0, 0.0])[:, None, None] * np.eye(A.shape[-1])


@pytest.mark.parametrize("name,spoil,match", [
    ("A", lambda a: np.full_like(a, np.nan), "A has a non-finite entry"),
    ("de", _one_inf, "de has a non-finite entry"),
    ("A", np.negative, "not positive definite"),
    ("mu", lambda v: "x", r"\bmu\b"),
    ("rho_x", lambda v: np.inf, r"\brho_x\b"),
    ("noise_std", lambda v: -1.0, r"\bnoise_std\b"),
    ("seed", lambda v: "a", r"\bseed\b"),
    ("mu", lambda v: 6.0, r"client 0's .*\[mu=6\.0, "),   # lambda_min(A[i]) is 5.533
    ("A", _shift_two_clients, r"client 0's .*\[mu=1\.0, L_g=10\.0\]"),
    ("A", _upper_corner, r"^A is not symmetric"),
    ("dA", _skewed_pair, r"^dA is not symmetric"),
    ("dc", lambda a: a + 1.0, r"^dc does not average to zero"),
    ("hess_margin", lambda v: np.full_like(v, 50.0), r"unknown instance keys: \['hess_margin'\]"),
])
def test_bad_instance_fails_by_name(name, spoil, match):
    # a negated A used to end in a raw LinAlgError from the factorization,
    # and an all-NaN A was accepted; the scalar fields went unchecked (a string
    # mu ended in a raw TypeError, the other rows were accepted); client
    # Hessians outside [mu, L_g] whose mean is inside, and a declared
    # hess_margin that A does not have, were accepted, and so were A and dA
    # that are not symmetric and offsets whose mean is not zero (a full batch
    # reads the client arrays); both from a library caller and a JSON, but
    # hess_margin is derived, so only a document can declare it
    inst = make_quadratic(QuadraticSpec(d1=2, d2=3, m=3, n_per_client=4, seed=4))
    bad = spoil(getattr(inst, name))
    if name != "hess_margin":
        with pytest.raises(ParameterError, match=match):
            replace(inst, **{name: bad})
    doc_value = bad.tolist() if isinstance(bad, np.ndarray) else bad
    with pytest.raises(ParameterError, match=match):
        QuadraticInstance.from_json_dict({**inst.to_json_dict(), name: doc_value})


@pytest.mark.parametrize("spec", [_RACE_SPEC, QuadraticSpec(d1=120, d2=120, m=4, seed=7)],
                         ids=["race", "d120"])
def test_solve_A_bar_matches_numpy_solve(spec):
    inst = make_quadratic(spec)
    gen = RngStream(3).child("solve").generator()
    for v in gen.normal(size=(5, inst.d2)):
        s = inst.solve_A_bar(v)
        ref = np.linalg.solve(inst.A_bar, v)
        assert np.linalg.norm(s - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(inst.A_bar @ s - v) <= 1e-13 * np.linalg.norm(v)


def test_instance_arrays_read_only():
    # the means and the inverse of A_bar are computed once, so writing into an
    # array would leave y_star and the hypergradient on the old values
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=3, hetero=0.5, seed=4))
    for name in ("A", "B", "c", "d", "e", "dA", "dB", "dc", "dd", "de", "hess_margin",
                 "lower_samples", "d_samples", "e_samples"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[...] = 0.0
    other = replace(inst, B=np.zeros_like(inst.B))
    x = np.ones(2)
    np.testing.assert_allclose(other.y_star(x), -np.linalg.solve(inst.A_bar, inst.c_bar))
    problem = QuadraticProblem(other)
    g = exact_mean(problem, "grad_lower_y", x, other.y_star(x))
    np.testing.assert_allclose(g, 0.0, atol=1e-12)
    assert not other.B.flags.writeable
