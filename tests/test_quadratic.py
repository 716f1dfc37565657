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
from fedbilevel import (ParameterError, Point, QuadraticInstance, QuadraticProblem,
                        QuadraticSpec, RngStream, make_quadratic)
from fedbilevel.oracle import fd_hypergradient

from conftest import manual_instance


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


def test_lower_offsets_are_kept_once():
    # dA, dB and dc are read-only views of the instance's one packed array,
    # which every problem built on it reads with no copy of its own
    inst = make_quadratic(QuadraticSpec(d1=3, d2=2, m=2, n_per_client=4, seed=8))
    P = inst.lower_offsets
    assert P.shape == (2, 4, 2 * (2 + 3 + 1)) and not P.flags.writeable
    for part, cols in ((inst.dA, np.s_[:4]), (inst.dB, np.s_[4:10]), (inst.dc, np.s_[10:])):
        assert np.shares_memory(part, P) and not part.flags.writeable
        assert part.reshape(2, 4, -1).tobytes() == np.ascontiguousarray(P[..., cols]).tobytes()
        assert all(part[i, j].flags.c_contiguous for i in range(2) for j in range(4))
    one, two = QuadraticProblem(inst), QuadraticProblem(inst, batch_size=2)
    assert one.inst.lower_offsets is two.inst.lower_offsets is P
    back = replace(inst, dc=np.zeros_like(inst.dc))
    assert back.lower_offsets is not P and not np.shares_memory(back.dA, P)
    assert back.dA.tobytes() == inst.dA.tobytes() and not back.dc.any()


def test_instance_json_digest_pinned():
    # odd n_per_client and d1 != d2 cover the +/- offset pairs' zero slot and
    # their symmetric (spectral-norm) branch; pinned on x86_64 with OpenBLAS
    inst = make_quadratic(QuadraticSpec(d1=4, d2=3, m=3, n_per_client=5, hetero=0.5,
                                        noise_spread=0.2, seed=7))
    assert hashlib.sha256(inst.to_json().encode()).hexdigest() == (
        "3f5f7b344d5633065cc94dcfc7741f07e6c3c90d80f0d34baaa97ce78671adac")


# sha256 of every field of make_quadratic(d1=d2=d, m=4, seed=7), the bytes its
# JSON document serializes, for each d, after the name of the BLAS numpy was
# built against; one process per BLAS thread count
_DIGEST_SCRIPT = """
import hashlib, sys
from dataclasses import fields
import numpy as np
from fedbilevel import QuadraticSpec, make_quadratic
blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
print("blas", blas.get("name") or "unknown")
for d in map(int, sys.argv[1:]):
    inst = make_quadratic(QuadraticSpec(d1=d, d2=d, m=4, seed=7))
    h = hashlib.sha256()
    for f in fields(inst):
        v = getattr(inst, f.name)
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    print(d, h.hexdigest())
"""
_BLAS_DIMS = (10, 40, 120)
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _instance_digests(threads: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedbilevel.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, *map(str, _BLAS_DIMS)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.mark.parametrize("d", [10, 40, pytest.param(120, marks=[
    pytest.mark.skipif(_CPUS < 2, reason="two BLAS threads need two CPUs"),
    pytest.mark.xfail(strict=True, raises=AssertionError,
                      reason="observed with OpenBLAS: the d=120 instance's last bits "
                      "differ between 1 and 2 threads, because quadratic._norms' "
                      "one ddot per row of the dB offsets (d2*d1 entries) is "
                      "threaded above about 10,000 entries")])])
def test_instance_bytes_blas_thread_boundary(d):
    # instances, and so runs, are byte-identical under 1 and 2 BLAS threads
    # only up to a size; the d=120 case pins where that stops holding, which
    # was seen with OpenBLAS only, so other BLAS builds skip it
    one, two = _instance_digests(1), _instance_digests(2)
    if d == 120 and "openblas" not in one["blas"].lower():
        pytest.skip(f"the d=120 boundary was observed with OpenBLAS, numpy uses {one['blas']}")
    assert one[str(d)] == two[str(d)]


def test_json_rejects_other_schemas_and_disagreeing_arrays():
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=3, n_per_client=2, seed=9))
    doc = inst.to_json_dict()
    assert doc["schema"] == "quadratic-instance-v2"
    assert np.shape(doc["dA"]) == (3, 2, 2, 2) and np.shape(doc["hess_margin"]) == (3,)
    with pytest.raises(ParameterError, match="schema"):
        QuadraticInstance.from_json_dict({**doc, "schema": "quadratic-instance-v1"})
    with pytest.raises(ParameterError, match="de has shape"):
        QuadraticInstance.from_json_dict({**doc, "de": doc["de"][:2]})
    ragged = [doc["dc"][0], doc["dc"][1][:1], doc["dc"][2]]  # one client with one sample
    with pytest.raises(ParameterError, match="malformed"):
        QuadraticInstance.from_json_dict({**doc, "dc": ragged})
    with pytest.raises(ParameterError, match="malformed"):
        QuadraticInstance.from_json_dict({k: v for k, v in doc.items() if k != "noise_std"})


def test_instance_arrays_read_only():
    # the means and the Cholesky factor are computed once, so writing into an
    # array would leave y_star and the hypergradient on the old values
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=3, hetero=0.5, seed=4))
    for name in ("A", "B", "c", "d", "e", "dA", "dB", "dc", "dd", "de", "hess_margin"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[...] = 0.0
    other = replace(inst, B=np.zeros_like(inst.B))
    x = np.ones(2)
    np.testing.assert_allclose(other.y_star(x), -np.linalg.solve(inst.A_bar, inst.c_bar))
    problem = QuadraticProblem(other)
    g = problem.agg_grad_lower_y(Point(x, other.y_star(x)))
    np.testing.assert_allclose(g, 0.0, atol=1e-12)
    assert not other.B.flags.writeable
