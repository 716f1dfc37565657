"""Independent ground-truth machinery for tests and acceptance runs.

Everything here is algorithmically independent of the code paths it checks:
finite differences against the implicit-function formula, dense factorization
against Neumann chains, Monte-Carlo moments against analytic bounds, and
constant measurement (eigenvalue extremes, gradient bounds, noise levels) on
a declared compact region, since quadratics are not globally Lipschitz. Each
region point is one stacked pass over the instance's (m, ...) and (m, n, ...)
arrays, with exact gradients from this module's own closed forms, not from
the oracle kernels it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedProblemError
from .problems import NOISE_FINITE_SUM, Point, ProblemConstants
from .quadratic import QuadraticInstance, QuadraticProblem, _norms
from .rng import CLIENT, RngStream, lane_steps


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

    Each region point is one stacked pass over every client and, in
    finite-sum mode, every sample; the exact gradients are closed forms,
    independent of the oracle kernels. Additive-gaussian noise takes one
    batched oracle call per purpose on the lanes ``child("mc", k, i, tag)``.
    """
    if samples < 100:
        raise ParameterError("need at least 100 region samples")
    eigs = np.concatenate([np.linalg.eigvalsh(inst.A_bar), np.linalg.eigvalsh(inst.A).ravel(),
                           np.linalg.eigvalsh(inst.A[:, None] + inst.dA).ravel()])
    mu, L_g = float(eigs.min()), float(eigs.max())

    gen = RngStream(seed).child("measure").generator()
    pts = [region.sample(gen) for _ in range(samples)]
    finite_sum = inst.noise_mode == NOISE_FINITE_SUM
    if finite_sum:  # the upper-gradient sample variance does not depend on the point
        var_f = float(((inst.de ** 2).sum(axis=2) + (inst.dd ** 2).sum(axis=2))
                      .mean(axis=1).max())
        steps = [None] * samples
    else:
        # additive-gaussian noise is homoscedastic by construction, so its
        # squared draws are pooled per client across points; one contiguous
        # row per client and purpose, so each mean is a pairwise sum over a row
        noise = np.empty((2, inst.m, samples))
        problem, ids = QuadraticProblem(inst), np.arange(inst.m)
        steps = lane_steps(RngStream(seed), "mc", samples, inst.m,
                           [(CLIENT, "fx"), (CLIENT, "fy"), (CLIENT, "gg")])
    M_hat = var_g1 = var_g2 = 0.0
    for k, (p, step) in enumerate(zip(pts, steps)):
        gx = inst.rho_x * p.x + inst.e
        gy = p.y - inst.d
        gl = inst.A @ p.y + inst.B @ p.x + inst.c
        if finite_sum:  # every sample's gradients, enumerated exactly per point
            fu = np.concatenate([gx[:, None] + inst.de, gy[:, None] - inst.dd], axis=2)
            dg = inst.dA @ p.y + inst.dB @ p.x + inst.dc
            var_g1 = max(var_g1, float((dg ** 2).sum(axis=2).mean(axis=1).max()))
        else:
            fu = np.concatenate([problem.grad_upper_x_batch(ids, p.x, p.y, step.lanes(ids, "fx")),
                                 problem.grad_upper_y_batch(ids, p.x, p.y, step.lanes(ids, "fy"))],
                                axis=1)
            gg = problem.grad_lower_y_batch(ids, p.x, p.y, step.lanes(ids, "gg"))
            noise[0, :, k] = ((fu - np.concatenate([gx, gy], axis=1)) ** 2).sum(axis=1)
            noise[1, :, k] = ((gg - gl) ** 2).sum(axis=1)
        M_hat = max(M_hat, float(_norms(fu).max()))
        var_g2 = max(var_g2, float(((gl - gl.mean(axis=0)) ** 2).sum(axis=1).mean()))
    if not finite_sum:
        var_f, var_g1 = noise.mean(axis=2).max(axis=1).tolist()

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
