"""Heterogeneous synthetic quadratic bilevel instances with closed-form truth.

Client i holds
    g_i(x, y) = 1/2 y^T A_i y + y^T B_i x + c_i^T y
    f_i(x, y) = 1/2 ||y - d_i||^2 + rho_x/2 ||x||^2 + e_i^T x

so the aggregate lower problem has the closed-form minimizer
    y*(x) = -Abar^{-1} (Bbar x + cbar)
and the hypergradient of f(x) = mean_i f_i(x, y*(x)) is
    rho_x x + ebar - Bbar^T Abar^{-1} (y*(x) - dbar).

Every sampled lower Hessian A_i + dA_{i,j} keeps its eigenvalues inside
[mu, L_g] (the instance checks each A_i). Offsets come in +/- pairs of mean
zero; an oracle reads each sample folded once, unbiased up to that rounding.

Neither make_quadratic nor the inverse of A_bar (one eigh and an einsum) calls
BLAS, so an instance's bytes depend on the seed, numpy's log, sqrt, cos and
sin, and LAPACK (at the sizes tested, not on BLAS threads). The closed forms
take one point or a stack of points; their matrix products are einsums and
their dot products one ddot per row (``row_dots``), so a row's bits depend
neither on the rows beside it nor on BLAS threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .problems import (NOISE_FINITE_SUM, NOISE_GAUSSIAN, BilevelProblem,
                       ProblemConstants, check_count, check_real, row_dots)
from .rng import CLIENT, Lanes, RngStream


@dataclass(frozen=True)
class QuadraticSpec:
    """The knobs of a generated synthetic instance.

    hetero in [0, 1] scales mean-zero client perturbations of (A, B, c, d)
    jointly; hetero=0 gives identical clients. noise_spread >= 0 sets the size
    of the zero-mean per-sample offsets (finite-sum mode); noise_std >= 0 is
    the additive-gaussian alternative. coupling and lin_scale shape the cross
    block and the linear terms. Every field is checked here, by name: counts
    are integers >= 1 (seed in [0, 2**64)), 0 < mu <= L_g, and the rest finite reals.
    """

    d1: int = 5
    d2: int = 5
    m: int = 4
    n_per_client: int = 8
    mu: float = 1.0
    L_g: float = 10.0
    hetero: float = 0.0
    noise_mode: str = NOISE_FINITE_SUM
    noise_spread: float = 0.1
    noise_std: float = 0.1
    seed: int = 0
    coupling: float = 0.5
    lin_scale: float = 0.5

    def __post_init__(self):
        for name in ("d1", "d2", "m", "n_per_client"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0, 1 << 64)
        ProblemConstants(mu=self.mu, L_g=self.L_g)   # 0 < mu <= L_g
        check_real("hetero", self.hetero, 0.0, 1.0)
        for name in ("noise_spread", "noise_std"):
            check_real(name, getattr(self, name), 0.0)
        for name in ("coupling", "lin_scale"):
            check_real(name, getattr(self, name))


# the axes of each stacked array: m clients, n samples per client, d2 (y) and d1 (x)
_AXES = {"A": "myy", "B": "myx", "c": "my", "d": "my", "e": "mx",
         "dA": "mnyy", "dB": "mnyx", "dc": "mny", "dd": "mny", "de": "mnx"}
_SCHEMA = "quadratic-instance-v3"


def _client_margins(A: np.ndarray, mu: float, L_g: float) -> np.ndarray:
    """Each client's room inside [mu, L_g], by one eigvalsh of the stack A;
    ParameterError names the first client outside it by more than 1e-12."""
    w = np.linalg.eigvalsh(A)
    margin = np.minimum(w[:, 0] - mu, L_g - w[:, -1])
    bad = np.flatnonzero(margin < -1e-12)
    if bad.size:
        i = bad[0]
        raise ParameterError(f"client {i}'s lower Hessian has eigenvalues in "
                             f"[{w[i, 0]}, {w[i, -1]}], outside [mu={mu}, L_g={L_g}]")
    return np.maximum(margin, 0.0)


@dataclass
class QuadraticInstance:
    """The client data of a quadratic instance, stacked with one row per client.

    Client i has the lower objective
        g_i(x, y) = 1/2 y^T A[i] y + y^T B[i] x + c[i]^T y
    and the upper objective
        f_i(x, y) = 1/2 ||y - d[i]||^2 + rho_x/2 ||x||^2 + e[i]^T x.

    Finite-sum sampling perturbs (A, B, c, d, e)[i] by the per-sample offsets
    dA[i, j] ... de[i, j], whose means over j are zero, so a full batch is the
    client's own data. The oracles read each sample folded once: the
    read-only ``lower_samples`` (m, n, d2, d2 + d1 + 1) packs
    [A + dA | B + dB | c + dc] per sample, and ``d_samples`` and
    ``e_samples`` are d + dd and e + de (derived, not fields). In
    additive-gaussian mode gradients get N(0, noise_std^2 I) noise, and
    Hessian draws get symmetric perturbations shrunk to norm hess_margin[i],
    each client's room inside [mu, L_g], derived from A. m, n_samples, d1 and
    d2 are read off the shapes, and A_bar ... e_bar are the client means. A
    non-finite array, an A or dA not exactly symmetric, offsets whose mean
    exceeds 1e-12 of their largest entry, A_bar not positive definite, a
    client Hessian outside [mu, L_g] (1e-12 slack), a non-finite rho_x,
    noise_std < 0 or so large that a draw overflows, a seed not an integer in
    [0, 2**64) or bad ``constants`` raise ParameterError naming the field (or
    the client). The instance keeps read-only copies of the arrays, so nothing
    it derives can go stale; ``dataclasses.replace`` builds a changed instance.
    """

    A: np.ndarray            # (m, d2, d2)
    B: np.ndarray            # (m, d2, d1)
    c: np.ndarray            # (m, d2)
    d: np.ndarray            # (m, d2)
    e: np.ndarray            # (m, d1)
    dA: np.ndarray           # (m, n, d2, d2), zero-mean over n, spectrally safe
    dB: np.ndarray           # (m, n, d2, d1), zero-mean over n
    dc: np.ndarray           # (m, n, d2)
    dd: np.ndarray           # (m, n, d2)
    de: np.ndarray           # (m, n, d1)
    mu: float
    L_g: float
    seed: int = 0
    rho_x: float = 1.0
    noise_mode: str = NOISE_FINITE_SUM
    noise_std: float = 0.0

    def __post_init__(self):
        if self.noise_mode not in (NOISE_FINITE_SUM, NOISE_GAUSSIAN):
            raise ParameterError(f"unknown noise mode {self.noise_mode!r}")
        check_real("rho_x", self.rho_x)
        self.constants = ProblemConstants(mu=self.mu, L_g=self.L_g, L_f=max(1.0, self.rho_x))
        # the largest std whose Box-Muller draws, |z| <= sqrt(-2 ln 2**-53), and _sym sums are finite
        check_real("noise_std", self.noise_std, 0.0,
                   np.finfo(float).max / 2 / np.sqrt(-2.0 * np.log(2.0 ** -53)))
        check_count("seed", self.seed, 0, 1 << 64)
        sizes = {}
        for name, axes in _AXES.items():
            a = np.array(getattr(self, name))   # a copy: the caller's stays writable
            if a.ndim != len(axes) or any(sizes.setdefault(k, s) != s or s < 1
                                          for k, s in zip(axes, a.shape)):
                raise ParameterError(f"{name} has shape {a.shape}; expected nonempty "
                                     f"axes {axes!r} agreeing with {sizes}")
            if not np.isfinite(a).all():
                raise ParameterError(f"{name} has a non-finite entry")
            if name in ("A", "dA") and not np.array_equal(a, a.swapaxes(-1, -2)):
                raise ParameterError(f"{name} is not symmetric")   # eigvalsh reads one triangle
            if axes[1] == "n" and np.abs(a.mean(axis=1)).max() > 1e-12 * np.abs(a).max():
                raise ParameterError(f"{name} does not average to zero over the samples")
            a.setflags(write=False)
            setattr(self, name, a)
        self.m, self.n_samples, self.d2, self.d1 = (sizes[k] for k in "mnyx")
        self.A_bar, self.B_bar, self.c_bar, self.d_bar, self.e_bar = (
            getattr(self, k).mean(axis=0) for k in "ABcde")
        w, V = np.linalg.eigh(self.A_bar)
        if not w[0] > 0:
            raise ParameterError("the client-mean lower Hessian A_bar is not positive definite")
        # A_bar's smallest eigenvalue is at least the smallest client's, so the
        # client check also keeps A_bar inside [mu, L_g]
        self.hess_margin = _client_margins(self.A, self.mu, self.L_g)
        self._A_bar_inv = np.einsum("ik,jk->ij", V / w, V)   # V diag(1/w) V^T, no BLAS
        self.lower_samples = np.concatenate(
            (self.A[:, None] + self.dA, self.B[:, None] + self.dB,
             (self.c[:, None] + self.dc)[..., None]), axis=-1)
        self.d_samples = self.d[:, None] + self.dd
        self.e_samples = self.e[:, None] + self.de
        for a in (self.hess_margin, self.lower_samples, self.d_samples, self.e_samples):
            a.setflags(write=False)

    def solve_A_bar(self, v: np.ndarray) -> np.ndarray:
        """Abar^{-1} v for v of shape (..., d2): the inverse stored at construction."""
        return np.einsum("ij,...j->...i", self._A_bar_inv, v)

    def y_star(self, x: np.ndarray) -> np.ndarray:
        return -self.solve_A_bar(np.einsum("ij,...j->...i", self.B_bar, x) + self.c_bar)

    def grad_upper_y_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - self.d_bar

    def grad_upper_x_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.rho_x * x + self.e_bar

    def hypergradient(self, x: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """grad f(x); ys is y*(x) when the caller has already solved it."""
        if ys is None:
            ys = self.y_star(x)
        return self.rho_x * x + self.e_bar - np.einsum(
            "ji,...j->...i", self.B_bar, self.solve_A_bar(ys - self.d_bar))

    def objective(self, x: np.ndarray, y: np.ndarray | None = None):
        """f(x, y) averaged over clients, one value per row; y defaults to y*(x)."""
        if y is None:
            y = self.y_star(x)
        vals = (0.5 * np.add.reduce((y[..., None, :] - self.d) ** 2, -1)
                + 0.5 * self.rho_x * row_dots(x, x)[..., None] + row_dots(self.e, x[..., None, :]))
        return np.add.reduce(vals, -1) / self.m   # the bits of np.mean

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The fields by name, each array as a row-major nested list."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"schema": _SCHEMA, **{k: v.tolist() if k in _AXES else v for k, v in doc.items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuadraticInstance":
        if doc.get("schema") != _SCHEMA:
            raise ParameterError(f"unknown instance schema: {doc.get('schema')!r}")
        unknown = sorted(set(doc) - {"schema", *(f.name for f in fields(cls))})
        if unknown:   # such as a derived value, hess_margin
            raise ParameterError(f"unknown instance keys: {unknown}")
        try:
            kw = {f.name: np.array(doc[f.name], dtype=float) if f.name in _AXES
                  else doc[f.name] for f in fields(cls)}
        except (KeyError, TypeError, ValueError) as exc:  # a missing field, a ragged array
            raise ParameterError(f"malformed instance document: {exc!r}") from exc
        return cls(**kw)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "QuadraticInstance":
        return cls.from_json_dict(json.loads(text))


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise products M[r] @ v for a shared v, or M[r] @ v[r] for a stack.

    Both forms run one BLAS gemv per row, so each row matches the
    single-matrix product bit for bit (einsum does not)."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


_ONE = np.ones(1)


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: pairwise sums of each row's squares,
    no BLAS call, so the bits do not depend on the BLAS thread count."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _pm_pairs(lanes: Lanes, n: int, shape: tuple, scale, symmetric: bool = False):
    """Per lane row (client), n zero-mean offsets as +/- pairs (odd n leaves one
    zero slot), each of norm scale (one, or one per client; spectral when
    symmetric), stacked (clients, n, *shape): one ``lanes.normal`` draw."""
    m = lanes.hashes.shape[0]
    out = np.zeros((m, n, *shape))
    if n < 2 or not np.any(scale):
        return out
    raw = lanes.normal(1.0, (n // 2, *shape))
    if symmetric:
        raw = _sym(raw)
    nrm = np.linalg.norm(raw, 2, axis=(2, 3)) if symmetric else _norms(raw.reshape(m, n // 2, -1))
    factor = np.reshape(scale, (-1, 1)) / np.where(nrm > 0, nrm, 1.0)  # a zero draw stays zero
    out[:, 0:n - 1:2] = raw * factor.reshape(*nrm.shape, *(1,) * len(shape))
    out[:, 1:n:2] = -out[:, 0:n - 1:2]
    return out


def make_quadratic(spec: QuadraticSpec) -> QuadraticInstance:
    """Generate a heterogeneous instance satisfying the eigenvalue invariants
    (the spec checked its fields' ranges). Each array is one draw on its lane
    ``child("make_quadratic", name)``, or per client i on ``(..., i, name)``;
    the five per-sample offset arrays read their lanes from one lane table."""
    root = RngStream(spec.seed).child("make_quadratic")
    d1, d2, m = spec.d1, spec.d2, spec.m
    span = spec.L_g - spec.mu

    # base lower Hessian: eigenvalues in the middle of [mu, L_g] so that client
    # and sample perturbations cannot leave the interval
    eigs = spec.mu + span * (0.3 + 0.4 * root.child("eigs").uniform((d2,)))
    q, r = np.linalg.qr(root.child("U").normal(1.0, (d2, d2)))
    U = q * np.sign(np.diag(r))   # Haar-random orthogonal
    A_base = _sym(np.einsum("ik,jk->ij", U * eigs, U))   # U diag(eigs) U^T, no BLAS

    B_base = root.child("B").normal(1.0, (d2, d1))
    nB = np.linalg.norm(B_base, 2)
    if nB > 0:
        B_base *= spec.coupling / nB
    c_base, d_base, e_base = (spec.lin_scale * root.child(name).normal(1.0, (size,))
                              for name, size in (("c", d2), ("d", d2), ("e", d1)))

    # mean-zero client perturbations, jointly scaled by hetero
    def demeaned(name, shape, scale):
        p = root.child(name).normal(1.0, (m, *shape))
        return scale * (p - p.mean(axis=0))

    dA_cl = _sym(root.child("dA_cl").normal(1.0, (m, d2, d2)))
    dA_cl -= dA_cl.mean(axis=0)
    dA_cl *= 0.15 * span / (np.linalg.norm(dA_cl, 2, axis=(1, 2)).max() or 1.0)
    dB_cl = demeaned("dB_cl", (d2, d1), 0.3 * spec.coupling)
    dc_cl = demeaned("dc_cl", (d2,), spec.lin_scale)
    dd_cl = demeaned("dd_cl", (d2,), spec.lin_scale)
    A = A_base + spec.hetero * dA_cl

    margin = _client_margins(A, spec.mu, spec.L_g)
    spread = spec.noise_spread if spec.noise_mode == NOISE_FINITE_SUM else 0.0
    n, clients = spec.n_per_client, np.arange(m)
    shapes = {"dA": (d2, d2), "dB": (d2, d1), "dc": (d2,), "dd": (d2,), "de": (d1,)}
    step = root.declare([(CLIENT, name) for name in shapes], m)
    offsets = {name: _pm_pairs(step.lanes(clients, name), n, shape,
                               np.minimum(spread, 0.9 * margin) if name == "dA" else spread,
                               symmetric=name == "dA")
               for name, shape in shapes.items()}

    return QuadraticInstance(
        A=A, B=B_base + spec.hetero * dB_cl, c=c_base + spec.hetero * dc_cl,
        d=d_base + spec.hetero * dd_cl, e=np.tile(e_base, (spec.m, 1)), **offsets,
        mu=spec.mu, L_g=spec.L_g, seed=spec.seed, noise_mode=spec.noise_mode,
        noise_std=spec.noise_std if spec.noise_mode == NOISE_GAUSSIAN else 0.0)


class QuadraticProblem(BilevelProblem):
    """Stochastic oracle bundle over a QuadraticInstance.

    The problem keeps a reference to the instance's stacked (m, ...) arrays,
    with no copy, and every oracle is a stacked kernel over the call's client
    rows (``BilevelProblem._audit``). The folded samples sit in flat,
    C-contiguous, read-only (m * n, ...) stores built once per finite-sum
    problem, client i's sample j at row i * n + j: the packed
    [A + dA | B + dB | c + dc] rows and the d + dd and e + de vectors are
    views of the instance's arrays, and the A and B blocks contiguous copies.
    A finite-sum row of batch 1 gathers its folded sample with one ``take``
    of its draw, which comes back as a flat store row: a lower gradient is one
    gemv of the packed row with [y; x; 1], a Hessian- or Jacobian-vector
    product one gemv on its A or B block. A minibatch of 1 < k < n averages
    the folded samples, so it is unbiased up to the rounding of each fold; a
    full batch and lanes=None read the client arrays and are exact.
    """

    def __init__(self, inst: QuadraticInstance, batch_size: int = 1):
        super().__init__(m=inst.m, d1=inst.d1, d2=inst.d2, constants=inst.constants,
                         batch_size=batch_size)
        self.inst = inst
        self.finite_sum = inst.noise_mode == NOISE_FINITE_SUM
        self._n, self._k = inst.n_samples, min(batch_size, inst.n_samples)   # k of n per row
        # a row draws only a finite-sum sample of fewer than all n (whose offsets average out)
        self._draws = self.finite_sum and self._k < self._n
        self._lower = self._A = self._B = self._d = self._e = None
        self._pool = None
        if self.finite_sum:     # additive-gaussian noise reads no sample store
            n, d2, S = inst.n_samples, inst.d2, inst.lower_samples
            # the stores of the A and B blocks are copies, the others views
            self._lower, self._A, self._B, self._d, self._e = (
                np.ascontiguousarray(a).reshape(inst.m * n, *a.shape[2:])
                for a in (S, S[..., :d2], S[..., d2:-1], inst.d_samples, inst.e_samples))
            self._pool = np.arange(n)
            for a in (self._lower, self._A, self._B, self._d, self._e, self._pool):
                a.setflags(write=False)

    # the exact truth: the instance's closed forms, with no task metric
    def y_star(self, x, y0=None):
        return self.inst.y_star(x)

    def hypergradient(self, x, ys):
        return self.inst.hypergradient(x, ys)

    def objective(self, x, ys):
        return self.inst.objective(x, ys)

    def test_metric(self, x, y):
        return np.zeros(x.shape[:-1])

    def _sample(self, rows, lanes, store, client=None):
        """Each row's sample from a flat (m * n, ...) store of folded samples:
        the drawn one (batch 1) or the mean over the drawn subset, gathered by
        one ``take`` of the draws as store rows (``flat=True``), which the
        lane table holds with their clients' offsets. With no draw (lanes
        None, additive-gaussian noise, or all n samples, whose offsets
        average to zero) the rows of ``client`` instead, or None without
        it."""
        if lanes is None or not self._draws:
            return None if client is None else client[rows]
        if self._k == 1:
            return store.take(lanes.index(self._n, flat=True), 0)
        return store.take(lanes.subset(self._pool, self._k, flat=True), 0).mean(axis=1)

    def _grad_lower_y_batch(self, rows, x, y, lanes):
        q = self.inst
        S = self._sample(rows, lanes, self._lower)
        if S is not None:   # the packed [A | B | c] rows times [y; x; 1], one row per id
            if y.ndim == x.ndim == 1:   # a shared point: _mv's gemv per row
                return S @ np.concatenate((y, x, _ONE))
            u = np.ones(((y if y.ndim == 2 else x).shape[0], self.d2 + self.d1 + 1))
            u[:, :self.d2], u[:, self.d2:-1] = y, x
            return _mv(S, u)
        g = _mv(q.A[rows], y) + _mv(q.B[rows], x) + q.c[rows]
        return g if lanes is None or self.finite_sum else g + lanes.normal(q.noise_std, (self.d2,))

    def _grad_upper_x_batch(self, rows, x, y, lanes):
        q = self.inst
        g = q.rho_x * x + self._sample(rows, lanes, self._e, q.e)
        return g if lanes is None or self.finite_sum else g + lanes.normal(q.noise_std, (self.d1,))

    def _grad_upper_y_batch(self, rows, x, y, lanes):
        q = self.inst
        g = y - self._sample(rows, lanes, self._d, q.d)
        return g if lanes is None or self.finite_sum else g + lanes.normal(q.noise_std, (self.d2,))

    def _hvp_lower_yy_batch(self, rows, x, y, v, lanes):
        q = self.inst
        A = self._sample(rows, lanes, self._A, q.A)
        if lanes is not None and not self.finite_sum:
            S = _sym(lanes.normal(q.noise_std, (self.d2, self.d2)))
            nrm = np.linalg.norm(S, 2, axis=(1, 2))
            margin = q.hess_margin[rows]
            over = nrm > margin   # shrink to keep sampled eigenvalues inside [mu, L_g]
            S[over] *= (margin[over] / nrm[over])[:, None, None]
            A = A + S
        return _mv(A, v)

    def _jvp_lower_xy_batch(self, rows, x, y, v, lanes):
        q = self.inst
        B = self._sample(rows, lanes, self._B, q.B)
        if lanes is not None and not self.finite_sum:
            B = B + lanes.normal(q.noise_std, (self.d2, self.d1))
        return _mv(B.swapaxes(-1, -2), v)


def make_problem(spec: QuadraticSpec, batch_size: int = 1) -> QuadraticProblem:
    return QuadraticProblem(make_quadratic(spec), batch_size=batch_size)
