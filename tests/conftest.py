import numpy as np
import pytest

from fedbilevel import QuadraticInstance, RngStream


def zero_offsets(m, n, d1, d2):
    """The per-sample offset arrays of a noise-free instance: n zero samples per client."""
    return dict(dA=np.zeros((m, n, d2, d2)), dB=np.zeros((m, n, d2, d1)),
                dc=np.zeros((m, n, d2)), dd=np.zeros((m, n, d2)), de=np.zeros((m, n, d1)),
                hess_margin=np.zeros(m))


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


@pytest.fixture
def rng_root():
    return RngStream(1234)
