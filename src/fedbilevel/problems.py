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

Each oracle also has a batched form, ``grad_lower_y_batch(ids, x, y, lanes)``
and so on, which evaluates a whole participant set in one call:

* ``ids`` is a strictly increasing int array of client ids;
* x, y (and v) are either shared vectors or stacks with one row per id;
* ``lanes`` is ``rng.lanes(ids, *tags)`` (or None for the exact oracle), so
  row r uses the lane ``rng.child(ids[r], *tags)``;
* the result is a ``(len(ids), dim)`` stack in id order whose row r equals
  the single-client oracle on that client, point and lane, bit for bit.

There is no per-client fallback: each problem implements the five stacked
kernels ``_grad_lower_y_batch`` etc., and a single-client call is a batch of
one. ``QuadraticProblem`` stacks its client tensors, which needs one sample
count for every client; ``HyperRepProblem`` pads unequal splits into index
tables and weights the padding 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClientLookupError, ContractViolation, ProtocolError
from .rng import Lanes, RngStream

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
    """Base class: id and dimension checks, the sample audit, and the public
    single-client and batched oracles.

    A subclass implements the five batched kernels ``_grad_lower_y_batch``,
    ``_grad_upper_x_batch``, ``_grad_upper_y_batch``, ``_hvp_lower_yy_batch``
    and ``_jvp_lower_xy_batch``, taking (ids, x, y, [v,] lanes) after the
    checks, where ``lanes`` is the Lanes whose counter-based draws pick each
    row's sample, or None for the exact evaluation. There is no per-client
    fallback; a single-client oracle call is a batch of one.
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
        self._all_ids = np.arange(m)

    # -- contract plumbing -------------------------------------------------

    def _check_batch(self, ids, lanes, **arrays) -> None:
        """ids sorted, distinct and in range; each array a shared vector or one
        row per id; lanes one per id; then audit the batch's samples."""
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            raise ContractViolation("ids must be a 1-D integer array")
        id_list = ids.tolist()
        if not id_list:
            raise ProtocolError("empty participant set")
        if id_list[0] < 0 or id_list[-1] >= self.m:
            raise ClientLookupError(f"client ids {id_list} not in [0, {self.m})")
        if sorted(set(id_list)) != id_list:
            raise ContractViolation(f"ids must be strictly increasing, got {id_list}")
        k = len(id_list)
        for name, a in arrays.items():
            dim = self.d1 if name == "x" else self.d2
            if a.shape != (dim,) and a.shape != (k, dim):
                raise ContractViolation(
                    f"{name} has shape {a.shape}, expected ({dim},) or ({k}, {dim})")
        if "v" in arrays and not np.isfinite(arrays["v"]).all():
            raise ContractViolation("v contains non-finite entries")
        if lanes is None:
            return
        if not isinstance(lanes, Lanes):
            raise ContractViolation(
                f"batched oracle lanes must be Lanes or None, got {type(lanes).__name__}")
        if len(lanes.hashes) != k:
            raise ContractViolation(f"{len(lanes.hashes)} lanes for {k} clients")
        self.audit.record(lanes.purpose, self.batch_size * k)

    @staticmethod
    def _single(client: int, stream) -> tuple[np.ndarray, Lanes | None]:
        """(ids, lanes) of a single-client call."""
        if stream is None:
            return np.array([client]), None
        if not isinstance(stream, RngStream):
            raise ContractViolation(
                f"oracle stream must be an RngStream or None, got {type(stream).__name__}")
        return np.array([client]), Lanes.of(stream)

    def initial_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Default (x0, y0) for solvers; the origin unless a subclass overrides."""
        return np.zeros(self.d1), np.zeros(self.d2)

    # -- single-client oracles ---------------------------------------------

    def grad_lower_y(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client lower objective in y."""
        ids, lanes = self._single(client, stream)
        return self.grad_lower_y_batch(ids, p.x, p.y, lanes)[0]

    def grad_upper_x(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client upper objective in x."""
        ids, lanes = self._single(client, stream)
        return self.grad_upper_x_batch(ids, p.x, p.y, lanes)[0]

    def grad_upper_y(self, client: int, p: Point, stream: RngStream | None) -> np.ndarray:
        """Stochastic gradient of the client upper objective in y."""
        ids, lanes = self._single(client, stream)
        return self.grad_upper_y_batch(ids, p.x, p.y, lanes)[0]

    def hvp_lower_yy(self, client: int, p: Point, v: np.ndarray,
                     stream: RngStream | None) -> np.ndarray:
        """Sampled lower Hessian times v; linear in v, eigenvalues in [mu, L_g]."""
        ids, lanes = self._single(client, stream)
        return self.hvp_lower_yy_batch(ids, p.x, p.y, v, lanes)[0]

    def jvp_lower_xy(self, client: int, p: Point, v: np.ndarray,
                     stream: RngStream | None) -> np.ndarray:
        """Sampled mixed partial of G_i applied to a y-direction, result in x-space."""
        ids, lanes = self._single(client, stream)
        return self.jvp_lower_xy_batch(ids, p.x, p.y, v, lanes)[0]

    # -- batched oracles: one row per client id ------------------------------

    def grad_lower_y_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x=x, y=y)
        return self._grad_lower_y_batch(ids, x, y, lanes)

    def grad_upper_x_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x=x, y=y)
        return self._grad_upper_x_batch(ids, x, y, lanes)

    def grad_upper_y_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x=x, y=y)
        return self._grad_upper_y_batch(ids, x, y, lanes)

    def hvp_lower_yy_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x=x, y=y, v=v)
        return self._hvp_lower_yy_batch(ids, x, y, v, lanes)

    def jvp_lower_xy_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x=x, y=y, v=v)
        return self._jvp_lower_xy_batch(ids, x, y, v, lanes)

    # -- exact full-participation aggregates (diagnostics / evaluation) ----

    def agg_grad_lower_y(self, p: Point) -> np.ndarray:
        return self.grad_lower_y_batch(self._all_ids, p.x, p.y, None).mean(axis=0)

    def agg_grad_upper_x(self, p: Point) -> np.ndarray:
        return self.grad_upper_x_batch(self._all_ids, p.x, p.y, None).mean(axis=0)

    def agg_grad_upper_y(self, p: Point) -> np.ndarray:
        return self.grad_upper_y_batch(self._all_ids, p.x, p.y, None).mean(axis=0)

    def agg_hvp_lower_yy(self, p: Point, v: np.ndarray) -> np.ndarray:
        return self.hvp_lower_yy_batch(self._all_ids, p.x, p.y, v, None).mean(axis=0)

    def agg_jvp_lower_xy(self, p: Point, v: np.ndarray) -> np.ndarray:
        return self.jvp_lower_xy_batch(self._all_ids, p.x, p.y, v, None).mean(axis=0)


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
