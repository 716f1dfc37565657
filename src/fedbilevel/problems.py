"""Client oracle contract for federated bilevel problems.

A problem bundles ``m`` clients, each exposing stochastic first- and
second-order oracles for its upper objective F_i and lower objective G_i.
Every estimator and solver in the library consumes only this contract, five
oracles that each evaluate a participant set in one call:

* ``grad_lower_y(ids, x, y, lanes)``  -> stochastic gradient of G_i in y
* ``grad_upper_x(ids, x, y, lanes)``  -> stochastic gradient of F_i in x
* ``grad_upper_y(ids, x, y, lanes)``  -> stochastic gradient of F_i in y
* ``hvp_lower_yy(ids, x, y, v, lanes)`` -> Hessian-vector product of G_i in y
* ``jvp_lower_xy(ids, x, y, v, lanes)`` -> mixed partial of G_i applied to a
  y-direction, in x-space

Each returns a ``(len(ids), dim)`` stack in id order. x, y (and v) are shared
vectors or stacks with one row per id. Row r draws its sample from the lane
``rng.child(ids[r], *tags)`` when ``lanes`` is ``rng.lanes(ids, *tags)``,
which on a lane table over the problem's clients 0..m-1 reads the same rows;
``lanes=None`` evaluates the exact (noise-off) quantities. A row does not
depend on the other rows of its call.

``problem.checked(participants, x, y)`` checks a participant set: it sorts
and deduplicates the ids, checks them and the points' shapes, and returns
them as ``CheckedOracles``. The full client set has one ``CheckedOracles``
per problem, so the local-step schedules kept on it serve every direct call
and every run on that problem; a partial set gets its own. Library calls pass
those ids or a row subset of them, but an oracle serves any id order: it picks
the call's rows of the problem's (m, ...) arrays once, a full slice (no copy)
for the full set's own ids array, else the ids. Per call it checks only that
``lanes`` is None or Lanes with one row per id, audits the call's samples by
purpose and calls the problem's stacked kernel on those rows. A lane-table
step's ``lanes`` reads m ids as clients 0..m-1 in order (``RngStream.lanes``);
only library code builds table steps. A run checks one set per run (full
participation) or per outer step. Each estimator and local phase opens with
``problem.entry``: its participants are client ids or checked oracles, and its
rng an ``RngStream``, on a lane table or free (then put on a table of the
phase's lane sets over clients 0..m-1 by ``RngStream.declare``); any other rng
raises ContractViolation naming it.

There is no per-client fallback: each problem implements the five kernels
``_grad_lower_y_batch`` etc. ``QuadraticProblem`` reads the stacked (m, ...)
client arrays of its ``QuadraticInstance``, so every client has the same
noise mode and sample count; ``HyperRepProblem`` pads unequal splits into
whole-split arrays on first use and weights the padding 0. Each problem also
gives the exact truth over every client that metrics rows are judged against
(``BilevelProblem``).
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ClientLookupError, ContractViolation, ParameterError
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
        check_positive("mu", self.mu)
        check_positive("L_g", self.L_g)
        if not self.L_g >= self.mu:
            raise ParameterError(f"L_g={self.L_g} must be >= mu={self.mu}")
        if not self.kappa_g < np.inf:
            raise ParameterError(f"kappa_g = L_g/mu = {self.L_g}/{self.mu} is not finite")

    @property
    def kappa_g(self) -> float:
        return self.L_g / self.mu


class SampleAudit:
    """The algorithm's sample bill by purpose tag (the lane's innermost tag): the
    oracle calls' samples, and those charged uncomputed (``lower``, ``aid_fhe``).
    ``by_purpose`` is a Counter, so an oracle call charges its purpose with one
    ``+=`` (``BilevelProblem._audit``), and ``total`` is its sum."""

    def __init__(self):
        self.by_purpose: Counter[str] = Counter()

    @property
    def total(self) -> int:
        return sum(self.by_purpose.values())

    def record(self, purpose: str, n: int) -> None:
        self.by_purpose[purpose] += n

    def reset(self) -> None:
        self.by_purpose.clear()


def check_count(name: str, value, least: int = 1, bound=np.inf) -> None:
    """Raise ParameterError naming the setting unless value is an integer
    >= least and < bound (bools are not counts), such as batch_size, the
    samples one oracle row draws, or a seed (below 2**64, the bits a lane
    keeps of it, so no two seeds share their draws)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value < bound):
        below = "" if bound == np.inf else f" and < {bound}"
        raise ParameterError(f"{name} must be an integer >= {least}{below}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise ParameterError naming the setting unless value is a finite real > 0 (no bool)."""
    if not ((type(value) is float or isinstance(value, numbers.Real)
             and not isinstance(value, bool)) and 0 < value < np.inf):
        raise ParameterError(f"{name} must be a finite number > 0, got {value!r}")


def check_real(name: str, value, low: float = -np.inf, high: float = np.inf) -> None:
    """Raise ParameterError naming the setting unless value is a finite real
    in [low, high] (no bool)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and low <= value <= high and abs(value) < np.inf):
        raise ParameterError(f"{name} must be a finite number in [{low}, {high}], got {value!r}")


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r] . b[r] over the last axis, broadcasting the others: one ddot per
    row, so each equals ``a[r] @ b[r]``, the product ``np.linalg.norm`` takes,
    bit for bit (OpenBLAS threads a ddot only above 10,000 elements)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class BilevelProblem:
    """Base class: the five oracles, the participant-set check and the sample audit.

    A subclass implements the five kernels ``_grad_lower_y_batch``,
    ``_grad_upper_x_batch``, ``_grad_upper_y_batch``, ``_hvp_lower_yy_batch``
    and ``_jvp_lower_xy_batch``, taking (rows, x, y, [v,] lanes) after the
    checks: ``rows`` indexes the call's clients (``_audit``), and ``lanes`` is
    the Lanes whose draws pick each row's sample, or None for the exact
    evaluation. It also implements the exact truth over every client that
    ``drivers.Evaluator`` and ``estimate`` read, on a stack of points: x of
    shape (rows, d1) and y of shape (rows, d2), one row per point, each row
    independent of the others; a single point, x of shape (d1,), is the stack
    of one row. They are ``y_star(x, y0=None)`` (y0 each row's start for an
    iterative solve), ``hypergradient(x, ys)`` and ``objective(x, ys)`` at
    ys = y*(x), and the task metric ``test_metric(x, y)`` of iterates; the
    last two give one value per row.
    """

    def __init__(self, m: int, d1: int, d2: int, constants: ProblemConstants,
                 batch_size: int = 1):
        if m < 1:
            raise ValueError("need at least one client")
        check_count("batch_size", batch_size)
        self.m = m
        self.d1 = d1
        self.d2 = d2
        self.constants = constants
        self.batch_size = batch_size
        self.audit = SampleAudit()
        self._all_ids = np.arange(m)
        self._all_ids.flags.writeable = False
        self._every = range(m)
        self._everyone = CheckedOracles(self, self._all_ids)
        self.taus = {}   # repr(tau setting) -> tau_i of every client (lower._taus)
        self.steps_passed = None, None   # (config, constants) (hypergrad._check_steps)

    # -- contract plumbing -------------------------------------------------

    def checked(self, participants, x: np.ndarray, y: np.ndarray) -> "CheckedOracles":
        """The participant set, its ``client_ids``, checked on every call: ids in
        [0, m), and x and y each a shared vector or one row per id. The full
        client set is the problem's one ``CheckedOracles`` for it, so its
        schedules outlive the call; a partial set gets a new one. ``range(m)``,
        every client in order, is the full set's own ids, with nothing to sort."""
        if type(participants) is range and participants == self._every:
            ids = self._all_ids
        else:
            ids = client_ids(participants)
            if ids[0] < 0 or ids[-1] >= self.m:
                raise ClientLookupError(f"client ids {ids.tolist()} not in [0, {self.m})")
        k = ids.size
        for name, a, dim in (("x", x, self.d1), ("y", y, self.d2)):
            if a.shape != (dim,) and a.shape != (k, dim):
                raise ContractViolation(
                    f"{name} has shape {a.shape}, expected ({dim},) or ({k}, {dim})")
        return self._everyone if k == self.m else CheckedOracles(self, ids)

    def entry(self, participants, x: np.ndarray, y: np.ndarray, rng, lane_sets) -> tuple:
        """The prologue of every estimator and local phase: (oracles, rng).
        oracles is ``checked(participants, x, y)``, or participants as they
        are if they are this problem's CheckedOracles. rng must be an
        RngStream, else ContractViolation names it; a stream that declares no
        lane sets becomes a step of a table of the phase's lane sets
        ``lane_sets()`` over clients 0..m-1 (``RngStream.declare``: a chunk of
        its siblings after a call on its parent if its key ends in an int,
        else a one-step table), and a stream on a table is returned as is."""
        if not isinstance(participants, CheckedOracles):
            participants = self.checked(participants, x, y)
        elif participants.problem is not self:
            raise ContractViolation("the checked oracles belong to another problem")
        if not isinstance(rng, RngStream):
            raise ContractViolation(f"rng must be an RngStream, got {rng!r}")
        if rng.table is None:
            rng = rng.declare(lane_sets(), self.m)
        return participants, rng

    def _audit(self, ids: np.ndarray, lanes: Lanes | None):
        """The call's rows of the (m, ...) arrays, a full slice for the problem's own ids
        (no copy), else ids; lanes must be None or one Lanes row per id, audited."""
        if lanes is not None:
            if not isinstance(lanes, Lanes):
                raise ContractViolation(
                    f"oracle lanes must be Lanes or None, got {type(lanes).__name__}")
            n, k = lanes.ids.shape[0], ids.shape[0]
            if n != k:
                raise ContractViolation(f"{n} lanes for {k} clients")
            self.audit.by_purpose[lanes.purpose] += self.batch_size * k
        return slice(None) if ids is self._all_ids else ids

    def initial_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Default (x0, y0) for solvers; the origin unless a subclass overrides."""
        return np.zeros(self.d1), np.zeros(self.d2)

    # -- the oracles: one row per client id ----------------------------------

    def grad_lower_y(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                     lanes: Lanes | None) -> np.ndarray:
        """Stochastic gradients of the clients' lower objectives in y."""
        return self._grad_lower_y_batch(self._audit(ids, lanes), x, y, lanes)

    def grad_upper_x(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                     lanes: Lanes | None) -> np.ndarray:
        """Stochastic gradients of the clients' upper objectives in x."""
        return self._grad_upper_x_batch(self._audit(ids, lanes), x, y, lanes)

    def grad_upper_y(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                     lanes: Lanes | None) -> np.ndarray:
        """Stochastic gradients of the clients' upper objectives in y."""
        return self._grad_upper_y_batch(self._audit(ids, lanes), x, y, lanes)

    def hvp_lower_yy(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                     v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        """Sampled lower Hessians times v; linear in v, eigenvalues in [mu, L_g]."""
        return self._hvp_lower_yy_batch(self._audit(ids, lanes), x, y, v, lanes)

    def jvp_lower_xy(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                     v: np.ndarray, lanes: Lanes | None) -> np.ndarray:
        """Sampled mixed partials of G_i applied to y-directions, results in x-space."""
        return self._jvp_lower_xy_batch(self._audit(ids, lanes), x, y, v, lanes)


class CheckedOracles:
    """A participant set its problem checked: the ``problem``, the set's
    sorted distinct ``ids``, and the local-step ``schedules`` that
    One-Round-Lower/Upper build for it (``lower._schedule``, a bounded memo).

    ``BilevelProblem.checked`` and ``entry`` return it: for the full client
    set, always the problem's one instance, whose schedules persist across
    direct estimator calls and runs; for a partial set, a new one per check.
    The estimators and One-Round-Lower/Upper take it as their
    ``participants`` and call the problem's oracles on its ids or a row
    subset of them.
    """

    __slots__ = ("problem", "ids", "schedules")

    def __init__(self, problem: BilevelProblem, ids: np.ndarray):
        self.problem, self.ids = problem, ids
        self.schedules = {}
