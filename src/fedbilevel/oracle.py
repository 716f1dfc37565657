"""Independent ground-truth machinery for tests and acceptance runs.

Everything here is algorithmically independent of the code paths it checks:
finite differences against the implicit-function formula, dense solves against
Neumann chains, the estimators' exact conditional means on quadratic
instances (``expected_*``, from the instance's closed forms and one truncated
Neumann sum, ``neumann_sum``), and constant measurement (eigenvalue
extremes, gradient bounds, noise levels) on a declared compact region, since
quadratics are not globally Lipschitz. All region points are one stacked
pass, sliced to MEASURE_BUDGET, over the instance's (m, ...) and (m, n, ...)
arrays, with exact gradients from this module's own closed forms, not from
the oracle kernels it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .problems import (NOISE_FINITE_SUM, Point, ProblemConstants, check_count,
                       check_positive)
from .quadratic import QuadraticInstance, QuadraticProblem, _mv, _norms
from .rng import CLIENT, RngStream, lane_steps

# the most elements one of measure_constants' stacked temporaries holds
MEASURE_BUDGET = 1 << 18


@dataclass(frozen=True)
class TestRegion:
    """Ball around a center point; regularity constants are measured on it."""

    __test__ = False  # not a pytest class despite the name

    center: Point
    radius: float

    def __post_init__(self):
        check_positive("radius", self.radius)

    def draw(self, stream: RngStream, samples: int) -> tuple:
        """samples uniform points of the ball, stacked as X (samples, d1), Y (samples, d2):
        the rows of a normal block on ``stream.child("direction")``, each scaled to norm
        radius * u ** (1 / (d1 + d2)) by its uniform u on ``stream.child("radius")``."""
        d1, d = self.center.d1, self.center.d1 + self.center.d2
        g = stream.child("direction").normal(1.0, (samples, d))
        u = stream.child("radius").uniform((samples,))
        g *= (self.radius * u ** (1.0 / d) / _norms(g))[:, None]
        return self.center.x + g[:, :d1], self.center.y + g[:, d1:]


def fd_hypergradient(obj, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of x -> f(x, y*(x)); error O(step^2). obj is any
    exact-truth surface, a ``BilevelProblem`` or a ``QuadraticInstance``, read
    through one ``objective(X, y_star(X))`` over the stack X of the 2 d1
    points x + step e_j, then x - step e_j."""
    check_positive("step", step)
    d = x.shape[0]
    X = x + np.concatenate((step * np.eye(d), -step * np.eye(d)))
    f = obj.objective(X, obj.y_star(X))
    return (f[:d] - f[d:]) / (2 * step)


def measure_constants(inst: QuadraticInstance, region: TestRegion,
                      samples: int = 200, seed: int = 0) -> ProblemConstants:
    """Empirical regularity constants of an instance.

    mu and L_g are exact eigenvalue extremes over the aggregate Hessian and
    every per-sample Hessian. M is the max upper-gradient norm over the
    region (per-sample members enumerated in finite-sum mode). sigma_f and
    sigma_g are sqrt(E||.||^2) noise levels, with sigma_g the max of the
    gradient-noise and client-dissimilarity components.

    The S region points, two stacked draws on the stream ``child("measure")``,
    are stacked as (S, m, ...) and (S, m, n, ...) closed forms, independent of
    the oracle kernels, in slices of at most MEASURE_BUDGET elements per
    temporary. Per point there remains, for additive-gaussian noise only, one
    batched oracle call per purpose on the lanes ``child("mc", k, i, tag)``.
    samples must be an integer >= 100 and seed one in [0, 2**64), else
    ParameterError names the setting.
    """
    check_count("samples", samples, 100)
    check_count("seed", seed, 0, 1 << 64)
    eigs = np.concatenate([np.linalg.eigvalsh(inst.A_bar), np.linalg.eigvalsh(inst.A).ravel(),
                           np.linalg.eigvalsh(inst.lower_samples[..., :inst.d2]).ravel()])
    mu, L_g = float(eigs.min()), float(eigs.max())

    X, Y = region.draw(RngStream(seed).child("measure"), samples)
    finite_sum = inst.noise_mode == NOISE_FINITE_SUM
    if finite_sum:  # the upper-gradient sample variance does not depend on the point
        var_f = float(((inst.de ** 2).sum(axis=2) + (inst.dd ** 2).sum(axis=2))
                      .mean(axis=1).max())
        offsets = np.concatenate([inst.de, -inst.dd], axis=2)
    else:
        # additive-gaussian noise is homoscedastic by construction, so its
        # squared draws are pooled per client across points; one contiguous
        # row per client and purpose, so each mean is a pairwise sum over a row
        noise = np.empty((2, inst.m, samples))
        problem = QuadraticProblem(inst)
        ids = problem._all_ids   # the full set's own ids: the oracles read a full slice
        steps = lane_steps(RngStream(seed), "mc", samples, inst.m,
                           [(CLIENT, "fx"), (CLIENT, "fy"), (CLIENT, "gg")])
    per = max(1, MEASURE_BUDGET // (inst.m * inst.n_samples * (inst.d1 + inst.d2)))
    M_hat = var_g1 = var_g2 = 0.0
    for a in range(0, samples, per):
        x, y = X[a:a + per, None], Y[a:a + per, None]   # (s, 1, d1) and (s, 1, d2)
        gu = np.concatenate([inst.rho_x * x + inst.e, y - inst.d], axis=2)
        gl = _mv(inst.A, y) + _mv(inst.B, x) + inst.c
        if finite_sum:  # every sample's gradients, enumerated exactly
            fu = gu[:, :, None] + offsets
            dg = _mv(inst.dA, y[:, None]) + _mv(inst.dB, x[:, None]) + inst.dc
            var_g1 = max(var_g1, float((dg ** 2).sum(axis=3).mean(axis=2).max()))
        else:
            fu, gg = np.empty(gu.shape), np.empty(gl.shape)
            for k, (xk, yk, step) in enumerate(zip(X[a:a + per], Y[a:a + per], steps)):
                fu[k, :, :inst.d1] = problem.grad_upper_x(ids, xk, yk, step.lanes(ids, "fx"))
                fu[k, :, inst.d1:] = problem.grad_upper_y(ids, xk, yk, step.lanes(ids, "fy"))
                gg[k] = problem.grad_lower_y(ids, xk, yk, step.lanes(ids, "gg"))
            noise[:, :, a:a + per] = [((f - g) ** 2).sum(axis=2).T
                                      for f, g in ((fu, gu), (gg, gl))]
        M_hat = max(M_hat, float(_norms(fu).max()))
        var_g2 = max(var_g2, float(((gl - gl.mean(axis=1, keepdims=True)) ** 2).sum(axis=2)
                                   .mean(axis=1).max()))
    if not finite_sum:
        var_f, var_g1 = noise.mean(axis=2).max(axis=1).tolist()

    return ProblemConstants(
        mu=mu, L_g=L_g, L_f=inst.constants.L_f, M=M_hat,
        rho=0.0,  # all second derivatives of a quadratic are constant
        sigma_f=float(np.sqrt(var_f)),
        sigma_g=float(np.sqrt(max(var_g1, var_g2))))


# -- the estimators' exact conditional means on quadratic instances ----------

def neumann_sum(A: np.ndarray, v: np.ndarray, lam: float, T: int) -> np.ndarray:
    """The truncated Neumann sum lam * sum_{j<T} (I - lam A)^j v, by the
    recursion s <- s - lam A s, for one matrix A and vector v or for a stack
    of per-client matrices and vectors."""
    s, acc = v, v.copy()
    for _ in range(1, T):
        s = s - lam * _mv(A, s)
        acc += s
    return lam * acc


def expected_aggitd_indirect(inst: QuadraticInstance, x: np.ndarray,
                             y_iterates: Sequence[np.ndarray], lam: float,
                             N: int) -> np.ndarray:
    """Exact conditional mean of the fused estimator's indirect part.

    Given the iterate trajectory y^0..y^N, averages the chain over the seeding
    index analytically:
        lam * Bbar^T * sum_Q prod_{t=N..Q+1} (I - lam*Abar) * grad_y f(x, y^Q).
    """
    if len(y_iterates) != N + 1:
        raise ParameterError(f"need N+1={N + 1} iterates, got {len(y_iterates)}")
    Ident = np.eye(inst.d2)
    factor = Ident - lam * inst.A_bar
    S = np.zeros(inst.d2)
    M = Ident
    for Qi in range(N, -1, -1):
        S = S + M @ inst.grad_upper_y_exact(x, y_iterates[Qi])
        if Qi > 0:
            M = M @ factor
    return lam * inst.B_bar.T @ S


def expected_aid_hessiv(inst: QuadraticInstance, x: np.ndarray,
                        y_N: np.ndarray, lam: float, T: int) -> np.ndarray:
    """T'-marginalized baseline chain: lam * sum_{j<T} (I - lam*Abar)^j grad_y f."""
    return neumann_sum(inst.A_bar, inst.grad_upper_y_exact(x, y_N), lam, T)


def expected_aid_fhe(inst: QuadraticInstance, x: np.ndarray, y_N: np.ndarray,
                     lam: float, T: int) -> np.ndarray:
    """Exact mean of the baseline estimator (noise off, T' marginalized)."""
    hiv = expected_aid_hessiv(inst, x, y_N, lam, T)
    return inst.grad_upper_x_exact(x, y_N) - inst.B_bar.T @ hiv


def expected_local_fhe(inst: QuadraticInstance, x: np.ndarray, y: np.ndarray,
                       lam: float | None = None, T: int | None = None) -> np.ndarray:
    """Exact mean of the fully local estimator: the chain of T steps of size
    lam, or with neither given, its exact-inverse limit."""
    if (lam is None) != (T is None):
        raise ParameterError(f"expected_local_fhe takes lam and T together or neither, "
                             f"got lam={lam!r}, T={T!r}")
    gy = y - inst.d
    if T is None:
        hiv = np.linalg.solve(inst.A, gy[..., None])[..., 0]
    else:
        check_positive("lam", lam)
        check_count("T", T)
        hiv = neumann_sum(inst.A, gy, lam, T)
    return np.mean(inst.rho_x * x + inst.e - _mv(np.swapaxes(inst.B, 1, 2), hiv), axis=0)
