import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fedbilevel import ParameterError, QuadraticInstance, RngStream
from fedbilevel.rng import CLIENT


def zero_offsets(m, n, d1, d2):
    """The per-sample offset arrays of a noise-free instance: n zero samples per client."""
    return dict(dA=np.zeros((m, n, d2, d2)), dB=np.zeros((m, n, d2, d1)),
                dc=np.zeros((m, n, d2)), dd=np.zeros((m, n, d2)), de=np.zeros((m, n, d1)))


def manual_instance(eigs, d1, m, seed=0, hetero_B=0.0, rho_x=1.0,
                    lin_scale=0.5, B_norm=1.0):
    """Instance with an exact diagonal lower Hessian spectrum, identical across
    clients except for optional mean-zero B heterogeneity; no sample noise."""
    gen = RngStream(seed).child("manual").generator()
    d2 = len(eigs)
    A = np.diag(np.array(eigs, dtype=float))
    B0 = gen.normal(size=(d2, d1))
    B0 *= B_norm / np.linalg.norm(B0, 2)
    c = lin_scale * gen.normal(size=d2)
    d = lin_scale * gen.normal(size=d2)
    e = lin_scale * gen.normal(size=d1)
    dBs = gen.normal(size=(m, d2, d1))
    dBs -= dBs.mean(axis=0)
    return QuadraticInstance(
        A=np.tile(A, (m, 1, 1)), B=B0 + hetero_B * dBs, c=np.tile(c, (m, 1)),
        d=np.tile(d, (m, 1)), e=np.tile(e, (m, 1)), **zero_offsets(m, 1, d1, d2),
        mu=float(min(eigs)), L_g=float(max(eigs)), seed=seed, rho_x=rho_x)


def two_sample_instance(grads=(1.0, -1.0)):
    """1-D single-client instance whose two lower-gradient samples differ only
    by +/- offsets."""
    off = (grads[0] - grads[1]) / 2.0
    return QuadraticInstance(
        A=np.array([[[2.0]]]), B=np.array([[[1.0]]]), c=np.zeros((1, 1)),
        d=np.zeros((1, 1)), e=np.zeros((1, 1)),
        **{**zero_offsets(1, 2, 1, 1), "dc": np.array([[[off], [-off]]])},
        mu=1.0, L_g=2.0)


def batch_of_one(problem, name, i, p, *args):
    """Client i's oracle ``name`` at the Point p, as a batch of one: args are
    ([v,] stream), and the stream (None: the exact oracle) is the one lane.
    Its key is ``scope.key + (i, *tags)``, i at the last part equal to i, so
    the lane is row i of the declared set ``(CLIENT, *tags)`` on scope."""
    *v, stream = args
    lanes = None
    if stream is not None:
        at = max(j for j, c in enumerate(stream.key) if type(c) is int and c == i)
        scope, tags = RngStream(stream.seed, stream.key[:at]), stream.key[at + 1:]
        lanes = scope.declare([(CLIENT, *tags)], problem.m).lanes(np.array([i]), *tags)
    return getattr(problem, name)(np.array([i]), p.x, p.y, *v, lanes)[0]


def count_schedule_resolutions(monkeypatch) -> list:
    """Empty ``lower._schedule``'s cache and return a list that gets the ids,
    as a tuple, of every ``client_taus`` resolution of a participant set's
    tau_i from then on (a config's check on no clients is not one)."""
    from fedbilevel import lower
    resolved, client_taus = [], lower.client_taus

    def counted(tau, ids, m=None):
        if ids.size:
            resolved.append(tuple(ids.tolist()))
        return client_taus(tau, ids, m)
    monkeypatch.setattr(lower, "client_taus", counted)
    lower._schedule.cache_clear()
    return resolved


def exact_mean(problem, name, x, y, *v):
    """The client mean of the exact oracle ``name`` over every client at
    (x, y) [, v]: the full-participation, noise-off aggregate."""
    return getattr(problem, name)(problem._all_ids, x, y, *v, None).mean(axis=0)


@dataclass(frozen=True)
class McMoments:
    """Monte-Carlo bias/variance of an estimator with standard errors."""

    mean: np.ndarray
    bias_norm: float
    bias_se: float
    var: float
    var_se: float
    trials: int


def estimator_bias_mc(estimator_fn, inst: QuadraticInstance, x: np.ndarray,
                      y0: np.ndarray, trials: int) -> McMoments:
    """Sample estimator_fn(x, y0, trial) and compare its mean to the oracle.

    bias_norm = ||mean(h) - grad f(x)||, var = mean ||h - mean(h)||^2;
    bias_se is the norm-perturbation bound sqrt(tr cov / trials).
    """
    if trials < 10 ** 3:
        raise ParameterError("need at least 1000 trials")
    draws = np.stack([np.asarray(estimator_fn(x, y0, t), dtype=float)
                      for t in range(trials)])
    mean = draws.mean(axis=0)
    dev = draws - mean
    sq = np.sum(dev ** 2, axis=1)
    var = float(sq.mean())
    var_se = float(sq.std(ddof=1) / np.sqrt(trials))
    bias = float(np.linalg.norm(mean - inst.hypergradient(x)))
    bias_se = float(np.sqrt(np.sum(dev.var(axis=0, ddof=1)) / trials))
    return McMoments(mean=mean, bias_norm=bias, bias_se=bias_se, var=var,
                     var_se=var_se, trials=trials)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """The benchmark's perfbench/<name>.py, loaded by path once as the module
    perfbench_<name>; it is registered before it runs, as dataclasses need."""
    full = f"perfbench_{name}"
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, PERFBENCH / f"{name}.py")
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


@pytest.fixture
def rng_root():
    return RngStream(1234)
