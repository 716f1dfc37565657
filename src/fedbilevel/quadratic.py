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
from scipy.linalg import cho_factor, cho_solve

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
        self._cho = cho_factor(self.A_bar)

    @property
    def rho_x(self) -> float:
        return self.clients[0].rho_x

    def solve_A_bar(self, v: np.ndarray) -> np.ndarray:
        return cho_solve(self._cho, v)

    def y_star(self, x: np.ndarray) -> np.ndarray:
        return -self.solve_A_bar(self.B_bar @ x + self.c_bar)

    def grad_upper_y_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - self.d_bar

    def grad_upper_x_exact(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.rho_x * x + self.e_bar

    def hypergradient(self, x: np.ndarray) -> np.ndarray:
        ys = self.y_star(x)
        return self.rho_x * x + self.e_bar - self.B_bar.T @ self.solve_A_bar(ys - self.d_bar)

    def objective(self, x: np.ndarray, y: np.ndarray | None = None) -> float:
        """f(x, y) averaged over clients; defaults to y = y*(x)."""
        if y is None:
            y = self.y_star(x)
        vals = [0.5 * float(np.sum((y - cd.d) ** 2)) + 0.5 * cd.rho_x * float(x @ x)
                + float(cd.e @ x) for cd in self.clients]
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
    return 0.5 * (a + a.T)


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
    """Stochastic oracle bundle over a QuadraticInstance."""

    def __init__(self, inst: QuadraticInstance, batch_size: int = 1,
                 constants: ProblemConstants | None = None):
        if constants is None:
            constants = ProblemConstants(mu=inst.mu, L_g=inst.L_g,
                                         L_f=max(1.0, inst.rho_x))
        super().__init__(m=inst.m, d1=inst.d1, d2=inst.d2, constants=constants,
                         batch_size=batch_size)
        self.inst = inst

    def _mean_offsets(self, cd, lane, *arrays):
        """Batch-mean of per-sample offset arrays; sorted indices keep the
        full-batch mean exactly equal to the population mean."""
        n = cd.n_samples
        k = min(self.batch_size, n)
        if k == 1:
            j = lane.index(n)
            return tuple(a[j] for a in arrays)
        if k >= n:
            return tuple(a.mean(axis=0) for a in arrays)
        idx = lane.subset(np.arange(n), k)
        return tuple(a[idx].mean(axis=0) for a in arrays)

    def _grad_lower_y(self, client, x, y, lane):
        cd = self.inst.clients[client]
        g = cd.A @ y + cd.B @ x + cd.c
        if lane is None:
            return g
        if cd.noise_mode == NOISE_FINITE_SUM:
            mA, mB, mc = self._mean_offsets(cd, lane, cd.dA, cd.dB, cd.dc)
            return g + mA @ y + mB @ x + mc
        return g + lane.normal(cd.gauss_std_g, g.shape)

    def _grad_upper_x(self, client, x, y, lane):
        cd = self.inst.clients[client]
        g = cd.rho_x * x + cd.e
        if lane is None:
            return g
        if cd.noise_mode == NOISE_FINITE_SUM:
            (me,) = self._mean_offsets(cd, lane, cd.de)
            return g + me
        return g + lane.normal(cd.gauss_std_f, g.shape)

    def _grad_upper_y(self, client, x, y, lane):
        cd = self.inst.clients[client]
        g = y - cd.d
        if lane is None:
            return g
        if cd.noise_mode == NOISE_FINITE_SUM:
            (md,) = self._mean_offsets(cd, lane, cd.dd)
            return g - md
        return g + lane.normal(cd.gauss_std_f, g.shape)

    def _hvp_lower_yy(self, client, x, y, v, lane):
        cd = self.inst.clients[client]
        if lane is None:
            return cd.A @ v
        if cd.noise_mode == NOISE_FINITE_SUM:
            (mA,) = self._mean_offsets(cd, lane, cd.dA)
            return cd.A @ v + mA @ v
        S = _sym(lane.normal(cd.gauss_std_g, cd.A.shape))
        nrm = np.linalg.norm(S, 2)
        if nrm > cd.hess_margin:  # keep sampled eigenvalues inside [mu, L_g]
            S *= cd.hess_margin / nrm if nrm > 0 else 0.0
        return (cd.A + S) @ v

    def _jvp_lower_xy(self, client, x, y, v, lane):
        cd = self.inst.clients[client]
        if lane is None:
            return cd.B.T @ v
        if cd.noise_mode == NOISE_FINITE_SUM:
            (mB,) = self._mean_offsets(cd, lane, cd.dB)
            return cd.B.T @ v + mB.T @ v
        W = lane.normal(cd.gauss_std_g, cd.B.shape)
        return (cd.B + W).T @ v


def make_problem(spec: QuadraticSpec, batch_size: int = 1) -> QuadraticProblem:
    return QuadraticProblem(make_quadratic(spec), batch_size=batch_size)
