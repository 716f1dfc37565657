"""Independent ground-truth machinery for tests and acceptance runs.

Everything here is algorithmically independent of the code paths it checks:
finite differences against the implicit-function formula, dense factorization
against Neumann chains, Monte-Carlo moments against analytic bounds, and
constant measurement (eigenvalue extremes, gradient bounds, noise levels) on
a declared compact region, since quadratics are not globally Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedProblemError
from .problems import NOISE_FINITE_SUM, Point, ProblemConstants
from .quadratic import QuadraticInstance, QuadraticProblem
from .rng import RngStream


@dataclass(frozen=True)
class TestRegion:
    """Ball around a center point; regularity constants are measured on it."""

    __test__ = False  # not a pytest class despite the name

    center: Point
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("radius must be positive")

    def sample(self, gen: np.random.Generator) -> Point:
        d1, d2 = self.center.d1, self.center.d2
        g = gen.normal(size=d1 + d2)
        g *= self.radius * gen.uniform() ** (1.0 / (d1 + d2)) / np.linalg.norm(g)
        return Point(self.center.x + g[:d1], self.center.y + g[d1:])


def fd_hypergradient(inst: QuadraticInstance, x: np.ndarray,
                     step: float = 1e-5) -> np.ndarray:
    """Central differences of x -> f(x, y*(x)); error O(step^2)."""
    if not isinstance(inst, QuadraticInstance):
        raise UnsupportedProblemError("fd_hypergradient needs a quadratic instance")
    if step <= 0:
        raise ParameterError("step must be positive")
    g = np.zeros_like(x, dtype=float)
    for j in range(x.shape[0]):
        e = np.zeros_like(g)
        e[j] = step
        g[j] = (inst.objective(x + e) - inst.objective(x - e)) / (2 * step)
    return g


def measure_constants(inst: QuadraticInstance, region: TestRegion,
                      samples: int = 200, seed: int = 0) -> ProblemConstants:
    """Empirical regularity constants of an instance.

    mu and L_g are exact eigenvalue extremes over the aggregate Hessian and
    every per-sample Hessian. M is the max upper-gradient norm over the
    region (per-sample members enumerated in finite-sum mode). sigma_f and
    sigma_g are sqrt(E||.||^2) noise levels, with sigma_g the max of the
    gradient-noise and client-dissimilarity components.
    """
    if samples < 100:
        raise ParameterError("need at least 100 region samples")
    eigs = np.concatenate([np.linalg.eigvalsh(inst.A_bar), np.linalg.eigvalsh(inst.A).ravel(),
                           np.linalg.eigvalsh(inst.A[:, None] + inst.dA).ravel()])
    mu, L_g = float(eigs.min()), float(eigs.max())

    gen = RngStream(seed).child("measure").generator()
    pts = [region.sample(gen) for _ in range(samples)]
    finite_sum = inst.noise_mode == NOISE_FINITE_SUM
    problem = QuadraticProblem(inst, batch_size=1)
    n = inst.n_samples

    M_hat = 0.0
    var_f = 0.0
    if finite_sum:  # the upper-gradient sample variance does not depend on the point
        var_f = max(float(np.mean([np.sum(de[j] ** 2) + np.sum(dd[j] ** 2) for j in range(n)]))
                    for de, dd in zip(inst.de, inst.dd))
    var_g1 = 0.0
    var_g2 = 0.0
    # additive-gaussian noise is homoscedastic by construction, so its draws
    # are pooled across points; finite-sum variances are enumerated exactly
    # per point and maximized over the region.
    pool_f = {i: [] for i in range(inst.m)}
    pool_g = {i: [] for i in range(inst.m)}
    for k, p in enumerate(pts):
        grads_g = []
        for i in range(inst.m):
            gx = inst.rho_x * p.x + inst.e[i]
            gy = p.y - inst.d[i]
            gl = inst.A[i] @ p.y + inst.B[i] @ p.x + inst.c[i]
            grads_g.append(gl)
            if finite_sum:
                dA, dB, dc, dd, de = inst.dA[i], inst.dB[i], inst.dc[i], inst.dd[i], inst.de[i]
                for j in range(n):
                    fu = np.concatenate([gx + de[j], gy - dd[j]])
                    M_hat = max(M_hat, float(np.linalg.norm(fu)))
                vg = np.mean([np.sum((dA[j] @ p.y + dB[j] @ p.x + dc[j]) ** 2)
                              for j in range(n)])
                var_g1 = max(var_g1, float(vg))
            else:
                st = RngStream(seed).child("mc", k, i)
                fx = problem.grad_upper_x(i, p, st.child("fx"))
                fy = problem.grad_upper_y(i, p, st.child("fy"))
                gg = problem.grad_lower_y(i, p, st.child("gg"))
                fu = np.concatenate([fx, fy])
                M_hat = max(M_hat, float(np.linalg.norm(fu)))
                pool_f[i].append(np.sum((fu - np.concatenate([gx, gy])) ** 2))
                pool_g[i].append(np.sum((gg - gl) ** 2))
        gbar = np.mean(grads_g, axis=0)
        var_g2 = max(var_g2, float(np.mean([np.sum((g - gbar) ** 2) for g in grads_g])))
    if not finite_sum:
        var_f = max(float(np.mean(pool_f[i])) for i in range(inst.m))
        var_g1 = max(float(np.mean(pool_g[i])) for i in range(inst.m))

    return ProblemConstants(
        mu=mu, L_g=L_g, L_f=max(1.0, inst.rho_x), M=M_hat,
        rho=0.0,  # all second derivatives of a quadratic are constant
        sigma_f=float(np.sqrt(var_f)),
        sigma_g=float(np.sqrt(max(var_g1, var_g2))))


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
