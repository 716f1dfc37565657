"""Heterogeneous synthetic quadratic bilevel instances with closed-form truth.

Client i holds
    g_i(x, y) = 1/2 y^T A_i y + y^T B_i x + c_i^T y
    f_i(x, y) = 1/2 ||y - d_i||^2 + rho_x/2 ||x||^2 + e_i^T x

so the aggregate lower problem has the closed-form minimizer
    y*(x) = -Abar^{-1} (Bbar x + cbar)
and the hypergradient of f(x) = mean_i f_i(x, y*(x)) is
    rho_x x + ebar - Bbar^T Abar^{-1} (y*(x) - dbar).

Every sampled lower Hessian A_i + dA_{i,j} keeps its eigenvalues inside
[mu, L_g]; per-sample offsets come in +/- pairs so their mean is exactly zero
and finite-sum oracles stay exactly unbiased.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import ParameterError
from .problems import (NOISE_FINITE_SUM, NOISE_GAUSSIAN, BilevelProblem,
                       ProblemConstants)
from .rng import RngStream


@dataclass(frozen=True)
class QuadraticSpec:
    """Generator knobs for a synthetic instance.

    hetero in [0, 1] scales mean-zero client perturbations of (A, B, c, d)
    jointly; hetero=0 gives identical clients. noise_spread >= 0 sets the size
    of the zero-mean per-sample offsets (finite-sum mode); noise_std >= 0 is
    the additive-gaussian alternative. coupling and lin_scale shape the cross
    block and the linear terms.
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


# the axes of each stacked array: m clients, n samples per client, d2 (y) and d1 (x)
_AXES = {"A": "myy", "B": "myx", "c": "my", "d": "my", "e": "mx",
         "dA": "mnyy", "dB": "mnyx", "dc": "mny", "dd": "mny", "de": "mnx",
         "hess_margin": "m"}
_SCHEMA = "quadratic-instance-v2"


@dataclass
class QuadraticInstance:
    """The client data of a quadratic instance, stacked with one row per client.

    Client i has the lower objective
        g_i(x, y) = 1/2 y^T A[i] y + y^T B[i] x + c[i]^T y
    and the upper objective
        f_i(x, y) = 1/2 ||y - d[i]||^2 + rho_x/2 ||x||^2 + e[i]^T x.

    Finite-sum sampling perturbs (A, B, c, d, e)[i] by the per-sample offsets
    dA[i, j] ... de[i, j], whose means over j are exactly zero, so sample means
    reproduce the client objectives exactly. In additive-gaussian mode
    gradients get N(0, noise_std^2 I) noise, and Hessian draws get symmetric
    perturbations shrunk to norm hess_margin[i], which keeps them inside
    [mu, L_g]. m, n_samples, d1 and d2 are read off the array shapes, and
    A_bar ... e_bar are the client means. The arrays are made read-only, so
    the means and the factor of A_bar cannot go stale; ``dataclasses.replace``
    builds a changed instance.
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
    hess_margin: np.ndarray  # (m,), spectral room left for gaussian Hessian noise
    mu: float
    L_g: float
    seed: int = 0
    rho_x: float = 1.0
    noise_mode: str = NOISE_FINITE_SUM
    noise_std: float = 0.0

    def __post_init__(self):
        if self.noise_mode not in (NOISE_FINITE_SUM, NOISE_GAUSSIAN):
            raise ParameterError(f"unknown noise mode {self.noise_mode!r}")
        sizes = {}
        for name, axes in _AXES.items():
            shape = np.shape(getattr(self, name))
            if len(shape) != len(axes) or any(sizes.setdefault(a, s) != s or s < 1
                                               for a, s in zip(axes, shape)):
                raise ParameterError(f"{name} has shape {shape}; expected nonempty "
                                     f"axes {axes!r} agreeing with {sizes}")
        self.m, self.n_samples, self.d2, self.d1 = (sizes[a] for a in "mnyx")
        for name in _AXES:
            getattr(self, name).setflags(write=False)
        self.A_bar = self.A.mean(axis=0)
        self.B_bar = self.B.mean(axis=0)
        self.c_bar = self.c.mean(axis=0)
        self.d_bar = self.d.mean(axis=0)
        self.e_bar = self.e.mean(axis=0)
        self._cho = cho_factor(self.A_bar, check_finite=False)

    def solve_A_bar(self, v: np.ndarray) -> np.ndarray:
        # LAPACK on the stored factor: what cho_solve runs, without its checks
        c, lower = self._cho
        out, info = dpotrs(c, v, lower=lower)
        if info != 0:
            raise ValueError(f"dpotrs failed with info={info}")
        return out

    def y_star(self, x: np.ndarray) -> np.ndarray:
        return -self.solve_A_bar(self.B_bar @ x + self.c_bar)

    def grad_upper_y_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - self.d_bar

    def grad_upper_x_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.rho_x * x + self.e_bar

    def hypergradient(self, x: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """grad f(x); ys is y*(x) when the caller has already solved it."""
        if ys is None:
            ys = self.y_star(x)
        return self.rho_x * x + self.e_bar - self.B_bar.T @ self.solve_A_bar(ys - self.d_bar)

    def objective(self, x: np.ndarray, y: np.ndarray | None = None) -> float:
        """f(x, y) averaged over clients; defaults to y = y*(x)."""
        if y is None:
            y = self.y_star(x)
        vals = (0.5 * np.add.reduce((y - self.d) ** 2, 1) + 0.5 * self.rho_x * float(x @ x)
                + (self.e[:, None, :] @ x)[:, 0])
        return float(np.add.reduce(vals) / self.m)   # the bits of np.mean

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The fields by name, each array as a row-major nested list."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"schema": _SCHEMA, **{k: v.tolist() if k in _AXES else v for k, v in doc.items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuadraticInstance":
        if doc.get("schema") != _SCHEMA:
            raise ParameterError(f"unknown instance schema: {doc.get('schema')!r}")
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


def _random_orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise products M[r] @ v for a shared v, or M[r] @ v[r] for a stack.

    Both forms run one BLAS gemv per row, so each row matches the
    single-matrix product bit for bit (einsum does not)."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each the 1-D ``np.linalg.norm`` of
    its row bit for bit: one BLAS dot per row (``axis=-1`` sums pairwise)."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def _pm_pairs(gen: np.random.Generator, n: int, shape: tuple, scale: float,
              symmetric: bool = False) -> np.ndarray:
    """n zero-mean offsets arranged as +/- pairs (odd n leaves one zero slot),
    each of norm scale (spectral when symmetric). The n // 2 raw offsets are
    one draw, which consumes gen as n // 2 draws of one offset would."""
    out = np.zeros((n, *shape))
    if scale <= 0.0 or n < 2:
        return out
    raw = gen.normal(size=(n // 2, *shape))
    if symmetric:
        raw = _sym(raw)
        nrm = np.linalg.norm(raw, 2, axis=(1, 2))
    else:
        nrm = _norms(raw.reshape(n // 2, -1))
    nrm = np.where(nrm > 0, nrm, scale)  # a zero draw stays zero
    raw *= (scale / nrm).reshape(-1, *(1,) * len(shape))
    out[0:n - 1:2] = raw
    out[1:n:2] = -raw
    return out


def make_quadratic(spec: QuadraticSpec) -> QuadraticInstance:
    """Generate a heterogeneous instance satisfying the eigenvalue invariants."""
    if spec.mu <= 0 or spec.L_g < spec.mu:
        raise ParameterError(f"infeasible eigenvalue range [{spec.mu}, {spec.L_g}]")
    if not 0.0 <= spec.hetero <= 1.0:
        raise ParameterError("hetero must lie in [0, 1]")
    if min(spec.d1, spec.d2, spec.m, spec.n_per_client) < 1:
        raise ParameterError("need d1, d2 >= 1 dimensions, m >= 1 clients and "
                             "n_per_client >= 1 samples")
    for name in ("noise_spread", "noise_std"):
        if not getattr(spec, name) >= 0.0:
            raise ParameterError(f"{name} must be >= 0, got {getattr(spec, name)}")

    root = RngStream(spec.seed).child("make_quadratic")
    gen = root.generator()
    span = spec.L_g - spec.mu

    # base lower Hessian: eigenvalues in the middle of [mu, L_g] so that client
    # and sample perturbations cannot leave the interval
    eigs = spec.mu + span * (0.3 + 0.4 * gen.uniform(size=spec.d2))
    U = _random_orthogonal(gen, spec.d2)
    A_base = _sym(U @ np.diag(eigs) @ U.T)

    B_base = gen.normal(size=(spec.d2, spec.d1))
    nB = np.linalg.norm(B_base, 2)
    if nB > 0:
        B_base *= spec.coupling / nB
    c_base = spec.lin_scale * gen.normal(size=spec.d2)
    d_base = spec.lin_scale * gen.normal(size=spec.d2)
    e_base = spec.lin_scale * gen.normal(size=spec.d1)

    # mean-zero client perturbations, jointly scaled by hetero
    dA_cl = _sym(gen.normal(size=(spec.m, spec.d2, spec.d2)))
    dA_cl -= dA_cl.mean(axis=0)
    max_norm = np.linalg.norm(dA_cl, 2, axis=(1, 2)).max() or 1.0
    dA_cl *= 0.15 * span / max_norm

    def demeaned(shape, scale):
        p = gen.normal(size=(spec.m, *shape))
        p -= p.mean(axis=0)
        return scale * p

    dB_cl = demeaned((spec.d2, spec.d1), 0.3 * spec.coupling)
    dc_cl = demeaned((spec.d2,), spec.lin_scale)
    dd_cl = demeaned((spec.d2,), spec.lin_scale)
    A = A_base + spec.hetero * dA_cl

    w = np.linalg.eigvalsh(A)
    margin = np.minimum(w[:, 0] - spec.mu, spec.L_g - w[:, -1])
    if (margin < -1e-12).any():
        raise ParameterError("client Hessian left the eigenvalue interval")
    margin = np.maximum(margin, 0.0)
    spread = spec.noise_spread if spec.noise_mode == NOISE_FINITE_SUM else 0.0
    n, shapes = spec.n_per_client, ((spec.d2, spec.d1), (spec.d2,), (spec.d2,), (spec.d1,))
    samples = []  # per client: its dA, dB, dc, dd, de offsets, from its own stream
    for i in range(spec.m):
        cg = root.child("samples", i).generator()
        samples.append([_pm_pairs(cg, n, (spec.d2, spec.d2), min(spread, 0.9 * margin[i]),
                                  symmetric=True),
                        *(_pm_pairs(cg, n, shape, spread) for shape in shapes)])
    dA, dB, dc, dd, de = map(np.array, zip(*samples))

    return QuadraticInstance(
        A=A, B=B_base + spec.hetero * dB_cl, c=c_base + spec.hetero * dc_cl,
        d=d_base + spec.hetero * dd_cl, e=np.tile(e_base, (spec.m, 1)),
        dA=dA, dB=dB, dc=dc, dd=dd, de=de, hess_margin=margin,
        mu=spec.mu, L_g=spec.L_g, seed=spec.seed, noise_mode=spec.noise_mode,
        noise_std=spec.noise_std if spec.noise_mode == NOISE_GAUSSIAN else 0.0)


class QuadraticProblem(BilevelProblem):
    """Stochastic oracle bundle over a QuadraticInstance.

    The problem keeps a reference to the instance's stacked (m, ...) arrays,
    with no copy, and every oracle is a stacked kernel over a participant id
    array: row r reads the rows ids[r] of the arrays.
    """

    def __init__(self, inst: QuadraticInstance, batch_size: int = 1):
        constants = ProblemConstants(mu=inst.mu, L_g=inst.L_g, L_f=max(1.0, inst.rho_x))
        super().__init__(m=inst.m, d1=inst.d1, d2=inst.d2, constants=constants,
                         batch_size=batch_size)
        self.inst = inst
        self.finite_sum = inst.noise_mode == NOISE_FINITE_SUM

    def _rows(self, ids):
        """Index of the clients' rows in the stacked arrays: a full slice
        (no copy) when every client takes part."""
        return slice(None) if ids.shape[0] == self.m else ids

    def _offsets(self, ids, lanes, *offsets):
        """Per-row batch means of the given (m, n, ...) per-sample offsets;
        sorted indices keep the full-batch mean exactly equal to the population mean."""
        n = self.inst.n_samples
        k = min(self.batch_size, n)
        if k == 1:
            j = lanes.index(n)
            return tuple([a[ids, j] for a in offsets])
        if k >= n:
            return tuple(a[self._rows(ids)].mean(axis=1) for a in offsets)
        idx = lanes.subset(np.arange(n), k)
        return tuple(a[ids[:, None], idx].mean(axis=1) for a in offsets)

    def _grad_lower_y_batch(self, ids, x, y, lanes):
        q, r = self.inst, self._rows(ids)
        g = _mv(q.A[r], y) + _mv(q.B[r], x) + q.c[r]
        if lanes is None:
            return g
        if self.finite_sum:
            mA, mB, mc = self._offsets(ids, lanes, q.dA, q.dB, q.dc)
            return g + _mv(mA, y) + _mv(mB, x) + mc
        return g + lanes.normal(q.noise_std, (self.d2,))

    def _grad_upper_x_batch(self, ids, x, y, lanes):
        q = self.inst
        g = q.rho_x * x + q.e[self._rows(ids)]
        if lanes is None:
            return g
        if self.finite_sum:
            (me,) = self._offsets(ids, lanes, q.de)
            return g + me
        return g + lanes.normal(q.noise_std, (self.d1,))

    def _grad_upper_y_batch(self, ids, x, y, lanes):
        q = self.inst
        g = y - q.d[self._rows(ids)]
        if lanes is None:
            return g
        if self.finite_sum:
            (md,) = self._offsets(ids, lanes, q.dd)
            return g - md
        return g + lanes.normal(q.noise_std, (self.d2,))

    def _hvp_lower_yy_batch(self, ids, x, y, v, lanes):
        q, r = self.inst, self._rows(ids)
        A = q.A[r]
        if lanes is None:
            return _mv(A, v)
        if self.finite_sum:
            (mA,) = self._offsets(ids, lanes, q.dA)
            return _mv(A, v) + _mv(mA, v)
        S = _sym(lanes.normal(q.noise_std, (self.d2, self.d2)))
        nrm = np.linalg.norm(S, 2, axis=(1, 2))
        margin = q.hess_margin[r]
        over = nrm > margin   # shrink to keep sampled eigenvalues inside [mu, L_g]
        S[over] *= (margin[over] / nrm[over])[:, None, None]
        return _mv(A + S, v)

    def _jvp_lower_xy_batch(self, ids, x, y, v, lanes):
        q = self.inst
        B = q.B[self._rows(ids)]
        if lanes is None:
            return _mv(B.swapaxes(-1, -2), v)
        if self.finite_sum:
            (mB,) = self._offsets(ids, lanes, q.dB)
            return _mv(B.swapaxes(-1, -2), v) + _mv(mB.swapaxes(-1, -2), v)
        W = lanes.normal(q.noise_std, (self.d2, self.d1))
        return _mv((B + W).swapaxes(-1, -2), v)


def make_problem(spec: QuadraticSpec, batch_size: int = 1) -> QuadraticProblem:
    return QuadraticProblem(make_quadratic(spec), batch_size=batch_size)
