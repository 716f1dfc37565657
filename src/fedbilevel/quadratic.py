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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import ParameterError
from .problems import (NOISE_FINITE_SUM, NOISE_GAUSSIAN, BilevelProblem,
                       ClientData, ProblemConstants)
from .rng import RngStream


@dataclass(frozen=True)
class QuadraticSpec:
    """Generator knobs for a synthetic instance.

    hetero in [0, 1] scales mean-zero client perturbations of (A, B, c, d)
    jointly; hetero=0 gives identical clients. noise_spread sets the size of
    the zero-mean per-sample offsets (finite-sum mode); noise_std is the
    additive-gaussian alternative. coupling and lin_scale shape the cross
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


@dataclass
class QuadraticInstance:
    d1: int
    d2: int
    m: int
    mu: float
    L_g: float
    seed: int
    clients: list[ClientData]
    A_bar: np.ndarray = field(init=False)
    B_bar: np.ndarray = field(init=False)
    c_bar: np.ndarray = field(init=False)
    d_bar: np.ndarray = field(init=False)
    e_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A_bar = np.mean([cd.A for cd in self.clients], axis=0)
        self.B_bar = np.mean([cd.B for cd in self.clients], axis=0)
        self.c_bar = np.mean([cd.c for cd in self.clients], axis=0)
        self.d_bar = np.mean([cd.d for cd in self.clients], axis=0)
        self.e_bar = np.mean([cd.e for cd in self.clients], axis=0)
        self._cho = cho_factor(self.A_bar, check_finite=False)
        self._D = _stack(self.clients, "d")
        self._E = _stack(self.clients, "e")
        self._rho = _stack(self.clients, "rho_x")

    @property
    def rho_x(self) -> float:
        return self.clients[0].rho_x

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
        vals = (0.5 * np.sum((y - self._D) ** 2, axis=1) + 0.5 * self._rho * float(x @ x)
                + (self._E[:, None, :] @ x)[:, 0])
        return float(np.mean(vals))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        def arr(a):
            return np.asarray(a).tolist()  # row-major
        return {
            "schema": "quadratic-instance-v1",
            "d1": self.d1, "d2": self.d2, "m": self.m,
            "mu": self.mu, "L_g": self.L_g, "seed": self.seed,
            "clients": [{
                "A": arr(cd.A), "B": arr(cd.B), "c": arr(cd.c),
                "d": arr(cd.d), "e": arr(cd.e), "rho_x": cd.rho_x,
                "dA": arr(cd.dA), "dB": arr(cd.dB), "dc": arr(cd.dc),
                "dd": arr(cd.dd), "de": arr(cd.de),
                "noise_mode": cd.noise_mode,
                "gauss_std_g": cd.gauss_std_g, "gauss_std_f": cd.gauss_std_f,
                "hess_margin": cd.hess_margin,
            } for cd in self.clients],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuadraticInstance":
        if doc.get("schema") != "quadratic-instance-v1":
            raise ParameterError(f"unknown instance schema: {doc.get('schema')!r}")
        clients = [ClientData(
            A=np.array(c["A"], dtype=float), B=np.array(c["B"], dtype=float),
            c=np.array(c["c"], dtype=float), d=np.array(c["d"], dtype=float),
            e=np.array(c["e"], dtype=float), rho_x=float(c["rho_x"]),
            dA=np.array(c["dA"], dtype=float), dB=np.array(c["dB"], dtype=float),
            dc=np.array(c["dc"], dtype=float), dd=np.array(c["dd"], dtype=float),
            de=np.array(c["de"], dtype=float), noise_mode=c["noise_mode"],
            gauss_std_g=float(c["gauss_std_g"]), gauss_std_f=float(c["gauss_std_f"]),
            hess_margin=float(c["hess_margin"]),
        ) for c in doc["clients"]]
        return cls(d1=doc["d1"], d2=doc["d2"], m=doc["m"], mu=doc["mu"],
                   L_g=doc["L_g"], seed=doc["seed"], clients=clients)

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
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _stack(clients: list[ClientData], name: str) -> np.ndarray:
    return np.array([getattr(cd, name) for cd in clients])


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise products M[r] @ v for a shared v, or M[r] @ v[r] for a stack.

    Both forms run one BLAS gemv per row, so each row matches the
    single-matrix product bit for bit (einsum does not)."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def _pm_pairs(gen: np.random.Generator, n: int, shape: tuple, scale: float,
              symmetric: bool = False) -> np.ndarray:
    """n zero-mean offsets arranged as +/- pairs (odd n leaves one zero slot)."""
    out = np.zeros((n, *shape))
    if scale <= 0.0:
        return out
    for j in range(n // 2):
        raw = gen.normal(size=shape)
        if symmetric:
            raw = _sym(raw)
            nrm = np.linalg.norm(raw, 2)
        else:
            nrm = np.linalg.norm(raw)
        if nrm > 0:
            raw *= scale / nrm
        out[2 * j] = raw
        out[2 * j + 1] = -raw
    return out


def make_quadratic(spec: QuadraticSpec) -> QuadraticInstance:
    """Generate a heterogeneous instance satisfying the eigenvalue invariants."""
    if spec.mu <= 0 or spec.L_g < spec.mu:
        raise ParameterError(f"infeasible eigenvalue range [{spec.mu}, {spec.L_g}]")
    if not 0.0 <= spec.hetero <= 1.0:
        raise ParameterError("hetero must lie in [0, 1]")
    if spec.m < 1 or spec.n_per_client < 1:
        raise ParameterError("need m >= 1 clients and n_per_client >= 1 samples")

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
    rho_x = 1.0

    # mean-zero client perturbations, jointly scaled by hetero
    dA_cl = np.array([_sym(gen.normal(size=(spec.d2, spec.d2))) for _ in range(spec.m)])
    dA_cl -= dA_cl.mean(axis=0)
    max_norm = max(np.linalg.norm(p, 2) for p in dA_cl) or 1.0
    dA_cl *= 0.15 * span / max_norm

    def demeaned(shape, scale):
        p = gen.normal(size=(spec.m, *shape))
        p -= p.mean(axis=0)
        return scale * p

    dB_cl = demeaned((spec.d2, spec.d1), 0.3 * spec.coupling)
    dc_cl = demeaned((spec.d2,), spec.lin_scale)
    dd_cl = demeaned((spec.d2,), spec.lin_scale)

    clients = []
    for i in range(spec.m):
        A_i = A_base + spec.hetero * dA_cl[i]
        B_i = B_base + spec.hetero * dB_cl[i]
        c_i = c_base + spec.hetero * dc_cl[i]
        d_i = d_base + spec.hetero * dd_cl[i]

        w = np.linalg.eigvalsh(A_i)
        margin = min(w[0] - spec.mu, spec.L_g - w[-1])
        if margin < -1e-12:
            raise ParameterError("client Hessian left the eigenvalue interval")
        cg = root.child("samples", i).generator()
        spread = spec.noise_spread if spec.noise_mode == NOISE_FINITE_SUM else 0.0
        dA = _pm_pairs(cg, spec.n_per_client, (spec.d2, spec.d2),
                       min(spread, 0.9 * max(margin, 0.0)), symmetric=True)
        dB = _pm_pairs(cg, spec.n_per_client, (spec.d2, spec.d1), spread)
        dc = _pm_pairs(cg, spec.n_per_client, (spec.d2,), spread)
        dd = _pm_pairs(cg, spec.n_per_client, (spec.d2,), spread)
        de = _pm_pairs(cg, spec.n_per_client, (spec.d1,), spread)

        clients.append(ClientData(
            A=A_i, B=B_i, c=c_i, d=d_i, e=e_base.copy(), rho_x=rho_x,
            dA=dA, dB=dB, dc=dc, dd=dd, de=de,
            noise_mode=spec.noise_mode,
            gauss_std_g=spec.noise_std if spec.noise_mode == NOISE_GAUSSIAN else 0.0,
            gauss_std_f=spec.noise_std if spec.noise_mode == NOISE_GAUSSIAN else 0.0,
            hess_margin=max(margin, 0.0),
        ))

    return QuadraticInstance(d1=spec.d1, d2=spec.d2, m=spec.m, mu=spec.mu,
                             L_g=spec.L_g, seed=spec.seed, clients=clients)


class QuadraticProblem(BilevelProblem):
    """Stochastic oracle bundle over a QuadraticInstance.

    The client data is stacked into (m, ...) tensors when the problem is
    built, and every oracle is a stacked kernel over a participant id array.
    Stacking needs every client to share the noise mode and the sample count.
    """

    def __init__(self, inst: QuadraticInstance, batch_size: int = 1,
                 constants: ProblemConstants | None = None):
        if constants is None:
            constants = ProblemConstants(mu=inst.mu, L_g=inst.L_g,
                                         L_f=max(1.0, inst.rho_x))
        super().__init__(m=inst.m, d1=inst.d1, d2=inst.d2, constants=constants,
                         batch_size=batch_size)
        self.inst = inst
        clients = inst.clients
        if len({(cd.noise_mode, cd.n_samples) for cd in clients}) != 1:
            raise ParameterError("every client needs the same noise mode and sample count")
        self.finite_sum = clients[0].noise_mode == NOISE_FINITE_SUM
        self.n_samples = clients[0].n_samples
        self.A, self.B = _stack(clients, "A"), _stack(clients, "B")
        self.c, self.d, self.e = _stack(clients, "c"), _stack(clients, "d"), _stack(clients, "e")
        self.rho = _stack(clients, "rho_x")[:, None]
        self.std_g, self.std_f = _stack(clients, "gauss_std_g"), _stack(clients, "gauss_std_f")
        self.margin = _stack(clients, "hess_margin")
        self._offset = {n: _stack(clients, n)                   # (m, n_samples, ...)
                        for n in ("dA", "dB", "dc", "dd", "de")}

    def _rows(self, ids):
        """Index of the clients' rows in the stacked tensors: a full slice
        (no copy) when every client takes part."""
        return slice(None) if ids.shape[0] == self.m else ids

    def _offsets(self, ids, lanes, *names):
        """Per-row batch means of the named per-sample offsets; sorted indices
        keep the full-batch mean exactly equal to the population mean."""
        n = self.n_samples
        k = min(self.batch_size, n)
        if k == 1:
            j = lanes.index(n)
            return tuple(self._offset[a][ids, j] for a in names)
        if k >= n:
            return tuple(self._offset[a][self._rows(ids)].mean(axis=1) for a in names)
        idx = lanes.subset(np.arange(n), k)
        return tuple(self._offset[a][ids[:, None], idx].mean(axis=1) for a in names)

    def _grad_lower_y_batch(self, ids, x, y, lanes):
        r = self._rows(ids)
        g = _mv(self.A[r], y) + _mv(self.B[r], x) + self.c[r]
        if lanes is None:
            return g
        if self.finite_sum:
            mA, mB, mc = self._offsets(ids, lanes, "dA", "dB", "dc")
            return g + _mv(mA, y) + _mv(mB, x) + mc
        return g + lanes.normal(self.std_g[r], (self.d2,))

    def _grad_upper_x_batch(self, ids, x, y, lanes):
        r = self._rows(ids)
        g = self.rho[r] * x + self.e[r]
        if lanes is None:
            return g
        if self.finite_sum:
            (me,) = self._offsets(ids, lanes, "de")
            return g + me
        return g + lanes.normal(self.std_f[r], (self.d1,))

    def _grad_upper_y_batch(self, ids, x, y, lanes):
        r = self._rows(ids)
        g = y - self.d[r]
        if lanes is None:
            return g
        if self.finite_sum:
            (md,) = self._offsets(ids, lanes, "dd")
            return g - md
        return g + lanes.normal(self.std_f[r], (self.d2,))

    def _hvp_lower_yy_batch(self, ids, x, y, v, lanes):
        r = self._rows(ids)
        A = self.A[r]
        if lanes is None:
            return _mv(A, v)
        if self.finite_sum:
            (mA,) = self._offsets(ids, lanes, "dA")
            return _mv(A, v) + _mv(mA, v)
        S = _sym(lanes.normal(self.std_g[r], (self.d2, self.d2)))
        nrm = np.linalg.norm(S, 2, axis=(1, 2))
        margin = self.margin[r]
        over = nrm > margin   # shrink to keep sampled eigenvalues inside [mu, L_g]
        S[over] *= (margin[over] / nrm[over])[:, None, None]
        return _mv(A + S, v)

    def _jvp_lower_xy_batch(self, ids, x, y, v, lanes):
        r = self._rows(ids)
        B = self.B[r]
        if lanes is None:
            return _mv(np.swapaxes(B, 1, 2), v)
        if self.finite_sum:
            (mB,) = self._offsets(ids, lanes, "dB")
            return _mv(np.swapaxes(B, 1, 2), v) + _mv(np.swapaxes(mB, 1, 2), v)
        W = lanes.normal(self.std_g[r], (self.d2, self.d1))
        return _mv(np.swapaxes(B + W, 1, 2), v)


def make_problem(spec: QuadraticSpec, batch_size: int = 1) -> QuadraticProblem:
    return QuadraticProblem(make_quadratic(spec), batch_size=batch_size)
