"""Client oracle contract for federated bilevel problems.

A problem bundles ``m`` clients, each exposing stochastic first- and
second-order oracles for its upper objective F_i and lower objective G_i.
Every estimator and solver in the library consumes only this contract:

* ``grad_lower_y``  -> stochastic gradient of G_i in y
* ``grad_upper_x``  -> stochastic gradient of F_i in x
* ``grad_upper_y``  -> stochastic gradient of F_i in y
* ``hvp_lower_yy``  -> stochastic Hessian-vector product of G_i in y
* ``jvp_lower_xy``  -> stochastic mixed-partial product, mapping a y-direction
  to x-space

Passing ``stream=None`` evaluates the exact (noise-off) client-level quantity.
Oracles are pure functions of (problem, point, stream): evaluating clients in
parallel must give results bit-identical to sequential evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClientLookupError, ContractViolation
from .rng import RngStream

NOISE_FINITE_SUM = "finite-sum"
NOISE_GAUSSIAN = "additive-gaussian"


@dataclass(frozen=True)
class Point:
    """Joint iterate (x, y): upper variable of dimension d1, lower of dimension d2."""

    x: np.ndarray
    y: np.ndarray

    @property
    def d1(self) -> int:
        return self.x.shape[0]

    @property
    def d2(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class ProblemConstants:
    """Regularity constants of a problem instance.

    mu and L_g bound the eigenvalues of every sampled lower-level Hessian,
    L_f bounds the upper-gradient Lipschitz modulus, M bounds the upper
    gradient norm on a declared compact test region (quadratics are not
    globally Lipschitz), rho is the second-derivative Lipschitz modulus and
    sigma_f/sigma_g are gradient-noise levels in the sqrt(E||.||^2) sense.
    """

    mu: float
    L_g: float
    L_f: float = 0.0
    M: float = 0.0
    rho: float = 0.0
    sigma_f: float = 0.0
    sigma_g: float = 0.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.L_g < self.mu:
            raise ValueError("L_g must be >= mu")

    @property
    def kappa_g(self) -> float:
        return self.L_g / self.mu


class SampleAudit:
    """Counts oracle samples drawn, keyed by purpose tag (the lane's innermost tag)."""

    def __init__(self):
        self.by_purpose: dict[str, int] = {}
        self.total = 0

    def record(self, purpose: str, n: int) -> None:
        self.by_purpose[purpose] = self.by_purpose.get(purpose, 0) + n
        self.total += n

    def reset(self) -> None:
        self.by_purpose.clear()
        self.total = 0


class BilevelProblem:
    """Base class: dimension checks, client lookup and the sample audit.

    Subclasses implement the per-client oracle kernels ``_grad_lower_y`` etc.,
    each taking (client, x, y, [v,] lane) where ``lane`` is the call's
    RngStream, whose counter-based draws pick the sample, or None for the
    exact evaluation.
    """

    def __init__(self, m: int, d1: int, d2: int, constants: ProblemConstants,
                 batch_size: int = 1):
        if m < 1:
            raise ValueError("need at least one client")
        self.m = m
        self.d1 = d1
        self.d2 = d2
        self.constants = constants
        self.batch_size = batch_size
        self.audit = SampleAudit()

    # -- contract plumbing -------------------------------------------------

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.m:
            raise ClientLookupError(f"client {client} not in [0, {self.m})")

    def _check_point(self, p: Point) -> None:
        if p.x.shape != (self.d1,) or p.y.shape != (self.d2,):
            raise ContractViolation(
                f"point dims {p.x.shape}/{p.y.shape} do not match problem ({self.d1},)/({self.d2},)")

    def _check_vec(self, v: np.ndarray, dim: int, name: str) -> None:
        if v.shape != (dim,):
            raise ContractViolation(f"{name} has shape {v.shape}, expected ({dim},)")
        if not np.all(np.isfinite(v)):
            raise ContractViolation(f"{name} contains non-finite entries")

    def _audited_lane(self, stream):
        if stream is None:
            return None
        if not isinstance(stream, RngStream):
            raise ContractViolation(
                f"oracle stream must be an RngStream or None, got {type(stream).__name__}")
        purpose = next((c for c in reversed(stream.key) if isinstance(c, str)), "unkeyed")
        self.audit.record(purpose, self.batch_size)
        return stream

    def initial_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Default (x0, y0) for solvers; the origin unless a subclass overrides."""
        return np.zeros(self.d1), np.zeros(self.d2)

    # -- oracle surface ----------------------------------------------------

    def grad_lower_y(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client lower objective in y."""
        self._check_client(client)
        self._check_point(p)
        return self._grad_lower_y(client, p.x, p.y, self._audited_lane(stream))

    def grad_upper_x(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client upper objective in x."""
        self._check_client(client)
        self._check_point(p)
        return self._grad_upper_x(client, p.x, p.y, self._audited_lane(stream))

    def grad_upper_y(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client upper objective in y."""
        self._check_client(client)
        self._check_point(p)
        return self._grad_upper_y(client, p.x, p.y, self._audited_lane(stream))

    def hvp_lower_yy(self, client: int, p: Point, v: np.ndarray,
                     stream: RngStream | None) -> np.ndarray:
        """Sampled lower Hessian times v; linear in v, eigenvalues in [mu, L_g]."""
        self._check_client(client)
        self._check_point(p)
        self._check_vec(v, self.d2, "v")
        return self._hvp_lower_yy(client, p.x, p.y, v, self._audited_lane(stream))

    def jvp_lower_xy(self, client: int, p: Point, v: np.ndarray,
                     stream: RngStream | None) -> np.ndarray:
        """Sampled mixed partial of G_i applied to a y-direction, result in x-space."""
        self._check_client(client)
        self._check_point(p)
        self._check_vec(v, self.d2, "v")
        return self._jvp_lower_xy(client, p.x, p.y, v, self._audited_lane(stream))

    # -- exact full-participation aggregates (diagnostics / evaluation) ----

    def agg_grad_lower_y(self, p: Point) -> np.ndarray:
        return np.mean([self.grad_lower_y(i, p, None) for i in range(self.m)], axis=0)

    def agg_grad_upper_x(self, p: Point) -> np.ndarray:
        return np.mean([self.grad_upper_x(i, p, None) for i in range(self.m)], axis=0)

    def agg_grad_upper_y(self, p: Point) -> np.ndarray:
        return np.mean([self.grad_upper_y(i, p, None) for i in range(self.m)], axis=0)

    def agg_hvp_lower_yy(self, p: Point, v: np.ndarray) -> np.ndarray:
        return np.mean([self.hvp_lower_yy(i, p, v, None) for i in range(self.m)], axis=0)

    def agg_jvp_lower_xy(self, p: Point, v: np.ndarray) -> np.ndarray:
        return np.mean([self.jvp_lower_xy(i, p, v, None) for i in range(self.m)], axis=0)

    # -- kernels to override -----------------------------------------------

    def _grad_lower_y(self, client, x, y, lane):
        raise NotImplementedError

    def _grad_upper_x(self, client, x, y, lane):
        raise NotImplementedError

    def _grad_upper_y(self, client, x, y, lane):
        raise NotImplementedError

    def _hvp_lower_yy(self, client, x, y, v, lane):
        raise NotImplementedError

    def _jvp_lower_xy(self, client, x, y, v, lane):
        raise NotImplementedError


@dataclass
class ClientData:
    """Per-client sample store for the synthetic quadratic family.

    The client-level lower objective is
        g_i(x, y) = 1/2 y^T A y + y^T B x + c^T y
    and the upper objective is
        f_i(x, y) = 1/2 ||y - d||^2 + rho_x/2 ||x||^2 + e^T x.

    Finite-sum sampling perturbs (A, B, c, d, e) with per-sample offsets whose
    means are exactly zero, so sample means reproduce the client objectives
    exactly. In additive-gaussian mode gradients get N(0, std^2 I) noise and
    Hessian draws get symmetric perturbations kept inside [mu, L_g].
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    rho_x: float
    dA: np.ndarray  # (n, d2, d2), zero-mean, spectrally safe
    dB: np.ndarray  # (n, d2, d1), zero-mean
    dc: np.ndarray  # (n, d2), zero-mean
    dd: np.ndarray  # (n, d2), zero-mean
    de: np.ndarray  # (n, d1), zero-mean
    noise_mode: str = NOISE_FINITE_SUM
    gauss_std_g: float = 0.0
    gauss_std_f: float = 0.0
    hess_margin: float = field(default=0.0)  # spectral room left for gaussian Hessian noise

    @property
    def n_samples(self) -> int:
        return self.dA.shape[0]
