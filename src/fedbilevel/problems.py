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
* ``lanes`` is ``rng.lanes(ids, *tags)`` or the same rows of a lane table
  (or None for the exact oracle), so row r uses the lane
  ``rng.child(ids[r], *tags)``;
* the result is a ``(len(ids), dim)`` stack in id order whose row r equals
  the single-client oracle on that client, point and lane, bit for bit.

A public batched call checks its ids, shapes and lanes on every call. The
internal calls of the estimators, One-Round-Lower and One-Round-Upper check
once per call of theirs instead: ``problem.checked(participants, x, y)``
checks the participants' ids and the points once, and its oracles skip those
checks but still audit every call's samples by purpose.

There is no per-client fallback: each problem implements the five stacked
kernels ``_grad_lower_y_batch`` etc., and a single-client call is a batch of
one. ``QuadraticProblem`` reads the stacked (m, ...) client arrays of its
``QuadraticInstance``, the only home of the quadratic client data, so every
client has the same noise mode and sample count; ``HyperRepProblem`` pads
unequal splits into index tables and weights the padding 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClientLookupError, ContractViolation, ProtocolError
from .rng import Lanes, RngStream
from .runtime import client_ids

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

    The public ``*_batch`` methods check every call. ``checked(participants,
    x, y)`` checks once for the internal oracle calls of one estimator call.
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

    def _check_batch(self, ids, lanes, x, y, v=None) -> None:
        """ids sorted, distinct and in range; x, y and v each a shared vector or
        one row per id; lanes one per id; then audit the batch's samples."""
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            raise ContractViolation("ids must be a 1-D integer array")
        id_list = ids.tolist()
        if not id_list:
            raise ProtocolError("empty participant set")
        self._check_rows(id_list, x, y, v)
        if sorted(set(id_list)) != id_list:
            raise ContractViolation(f"ids must be strictly increasing, got {id_list}")
        k = len(id_list)
        if v is not None and not np.isfinite(v).all():
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

    def _check_rows(self, id_list: list, x, y, v=None) -> None:
        """ids in range; x, y and v each a shared vector or one row per id."""
        if id_list[0] < 0 or id_list[-1] >= self.m:
            raise ClientLookupError(f"client ids {id_list} not in [0, {self.m})")
        k = len(id_list)
        for name, a, dim in (("x", x, self.d1), ("y", y, self.d2), ("v", v, self.d2)):
            if a is not None and a.shape != (dim,) and a.shape != (k, dim):
                raise ContractViolation(
                    f"{name} has shape {a.shape}, expected ({dim},) or ({k}, {dim})")

    def checked(self, participants, x: np.ndarray, y: np.ndarray) -> "CheckedOracles":
        """The batched oracles of one estimator call on the participants'
        ``client_ids``, checked once against the problem and the points."""
        ids = client_ids(participants)
        self._check_rows(ids.tolist(), x, y)
        return CheckedOracles(self, ids)

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
        self._check_batch(ids, lanes, x, y)
        return self._grad_lower_y_batch(ids, x, y, lanes)

    def grad_upper_x_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x, y)
        return self._grad_upper_x_batch(ids, x, y, lanes)

    def grad_upper_y_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x, y)
        return self._grad_upper_y_batch(ids, x, y, lanes)

    def hvp_lower_yy_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x, y, v)
        return self._hvp_lower_yy_batch(ids, x, y, v, lanes)

    def jvp_lower_xy_batch(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                           v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        self._check_batch(ids, lanes, x, y, v)
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


class CheckedOracles:
    """The batched oracles of one estimator call, on ids its problem checked once.

    Each call takes the checked ``ids`` or a row subset of them, points of
    the checked shapes, and the call's Lanes. It skips the per-call checks of
    the public ``*_batch`` methods but audits its samples by purpose, as they do.
    """

    __slots__ = ("problem", "ids")

    def __init__(self, problem: BilevelProblem, ids: np.ndarray):
        self.problem, self.ids = problem, ids

    def _audit(self, ids: np.ndarray, lanes: Lanes | None) -> None:
        if lanes is not None:
            self.problem.audit.record(lanes.purpose, self.problem.batch_size * ids.shape[0])

    def grad_lower_y(self, ids, x, y, lanes):
        self._audit(ids, lanes)
        return self.problem._grad_lower_y_batch(ids, x, y, lanes)

    def grad_upper_x(self, ids, x, y, lanes):
        self._audit(ids, lanes)
        return self.problem._grad_upper_x_batch(ids, x, y, lanes)

    def grad_upper_y(self, ids, x, y, lanes):
        self._audit(ids, lanes)
        return self.problem._grad_upper_y_batch(ids, x, y, lanes)

    def hvp_lower_yy(self, ids, x, y, v, lanes):
        self._audit(ids, lanes)
        return self.problem._hvp_lower_yy_batch(ids, x, y, v, lanes)

    def jvp_lower_xy(self, ids, x, y, v, lanes):
        self._audit(ids, lanes)
        return self.problem._jvp_lower_xy_batch(ids, x, y, v, lanes)
