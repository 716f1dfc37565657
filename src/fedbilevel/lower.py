"""The local SVRG-type phase of both levels (One-Round-Lower and One-Round-Upper).

Given an aggregated correction c (the global lower gradient q at (x, y), or
the hypergradient estimate h at x), each participating client runs tau_i
local steps from the start point z with stepsize stepsize/tau_i:

    z_{v+1} = z_v - (stepsize/tau_i) ((g_i(z_v; s_v) - g_i(z; s_v)) + c)   (svrg)
    z_{v+1} = z_v - (stepsize/tau_i) g_i(z_v; s_v)                         (sgd)

where g_i is the client's gradient in the stepped variable (grad G_i in y for
One-Round-Lower, grad F_i in x for One-Round-Upper), with the same sample s_v
for both evaluations of the correction; that shared sample is what makes the
correction variance-reducing. The server then averages the client iterates,
which costs one communication round. The aggregation that produced c is
charged by the caller.

Every client starts at one shared z_0 = z (``BilevelProblem.entry`` rejects a
stacked start), and a batched oracle gives the same rows, bit for bit, on a
stacked copy of z as on z itself. So the sgd step v = 0 evaluates z, and the
svrg pair at v = 0 cancels exactly, (g - g) + c is c: the first svrg step is
z - (stepsize/tau_i) c with no oracle call. The sample audit still charges
the pair's samples, since it reports the algorithm's sample bill, as the
ledger reports its round bill. When every participant takes one step (each
tau_i = 1), every client uploads the same iterate z - stepsize c, so the
round's mean is that common iterate: the phase returns it and charges the
round's k * dim scalars without averaging k copies, whose float mean would
move its last bit at some k (3, or 8). Any other tau setting reads its step
schedule from one cache, ``_schedule``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, ParameterError
from .problems import BilevelProblem, CheckedOracles, check_count, check_positive
from .rng import CLIENT, RngStream
from .runtime import CommLedger, aggregate_mean

VARIANT_SVRG = "svrg"
VARIANT_SGD = "sgd"


@dataclass(frozen=True)
class LowerStepConfig:
    """Global stepsize beta and per-client local step counts tau_i.

    The effective local stepsize is beta/tau_i. When used inside the fused
    estimator, beta must also satisfy beta <= min{1, lambda, 1/(6 L_g)}; that
    cap is enforced at the estimator boundary where lambda is known. tau is
    checked here; ``_schedule`` resolves it to the participants' tau_i.
    """

    beta: float
    tau: int | Sequence[int] = 1
    variant: str = VARIANT_SVRG

    def __post_init__(self):
        check_positive("beta", self.beta)
        if self.variant not in (VARIANT_SVRG, VARIANT_SGD):
            raise ParameterError(f"unknown lower variant {self.variant!r}")
        client_taus(self.tau, np.arange(0))  # checks every tau_i is an integer >= 1


def client_taus(tau: int | Sequence[int], ids: np.ndarray, m: int | None = None) -> np.ndarray:
    """tau_i for each client id: its entry of a per-client list, or the shared
    count. Raises ParameterError if any tau_i, listed or shared, is not an
    integer >= 1 (bools are not counts), if a list holds no entry, or if m,
    the problem's client count, is given and a list does not hold m entries."""
    listed = type(tau) is not int and isinstance(tau, Sequence)   # an int skips the ABC check
    for t in (tau if listed else (tau,)):
        check_count("every tau_i", t)
    if listed and m is not None and len(tau) != m:
        raise ParameterError(f"tau lists {len(tau)} local step counts for {m} clients")
    if listed and not len(tau):
        raise ParameterError("tau lists no local step counts")
    return np.asarray(tau, dtype=int)[ids] if listed else np.full(ids.shape, int(tau))


def max_tau(tau: int | Sequence[int]) -> int:
    """The largest tau_i of a tau setting, checked by ``client_taus`` unless an
    int: the local steps a lane-set declaration covers."""
    if type(tau) is int:   # the shared count, without the Sequence ABC check
        return tau
    client_taus(tau, np.arange(0))
    return int(max(tau) if isinstance(tau, Sequence) else tau)


@functools.lru_cache(maxsize=256)
def local_lanes(tag: str, max_tau: int, *prefix, variant: str = VARIANT_SVRG) -> tuple:
    """The lane sets of a local phase drawing its samples under tag ("zeta"
    for One-Round-Lower, "xi_up" for One-Round-Upper) and the key parts
    prefix: the lanes ``child(*prefix, i, tag, v)`` of every local step
    v < max_tau that draws a sample. The svrg variant draws none at v = 0
    (its pair cancels), so its sets start at v = 1. Like every lane-set
    declaration, a cached tuple, keyed on the resolved parameters."""
    return tuple((*prefix, CLIENT, tag, v)
                 for v in range(1 if variant == VARIANT_SVRG else 0, max_tau))


@functools.lru_cache(maxsize=256)
def lower_phase_lanes(N: int, max_tau: int, variant: str = VARIANT_SVRG) -> tuple:
    """The lane sets of the fused and two-loop estimators' N-step lower phase:
    "zeta_q" at each t < N, and One-Round-Lower's under ("lower", t)."""
    return tuple((CLIENT, "zeta_q", t) for t in range(N)) + tuple(
        s for t in range(N) for s in local_lanes("zeta", max_tau, "lower", t, variant=variant))


class _Setting(str):
    """A tau setting as its repr, a key that tells 1 from True and 1.0 (and
    hashes a list), holding the setting itself as ``tau``."""

    def __new__(cls, tau):
        key = super().__new__(cls, repr(tau))
        key.tau = tau
        return key


@functools.lru_cache(maxsize=256)
def _schedule(tau: _Setting, stepsize: float, ids: bytes, m: int) -> tuple:
    """(stepsize / tau_i column, ((v, rows, sub) per local step v >= 1)) of the
    clients whose intp ids are the bytes ids, of m: the positions and ids with
    tau_i > v, or a full slice and None (the caller's ids) while all step."""
    ids = np.frombuffer(ids, dtype=np.intp)
    taus = client_taus(tau.tau, ids, m)
    return (stepsize / taus)[:, None], tuple(
        (v, slice(None), None) if v < taus.min() else (v, np.flatnonzero(taus > v), ids[taus > v])
        for v in range(1, taus.max()))


def _local_phase(problem: BilevelProblem, oracles: CheckedOracles, rng: RngStream,
                 grad, z: np.ndarray, correction: np.ndarray, stepsize: float,
                 tau: int | Sequence[int], tag: str, variant: str,
                 ledger: CommLedger) -> np.ndarray:
    """The participant mean of z_tau^i after the local phase from the shared
    start z (module docstring); grad(ids, Z, lanes) is the oracle in the
    stepped variable, the other one bound. All participants step together, one
    batched call of grad per local step (two for svrg, on the same lanes and so
    on the same draws); the svrg step v = 0 makes none, and the audit charges
    its pair's 2 * batch_size tag samples per participant. Charges one round.
    A correction that is no ndarray of shape (d,) raises ContractViolation first (sgd's too)."""
    if getattr(correction, "shape", None) != z.shape:
        name = "One-Round-Lower q" if tag == "zeta" else "One-Round-Upper h"
        raise ContractViolation(f"{name} must be an ndarray of shape {z.shape}, got "
                                f"{getattr(correction, 'shape', type(correction).__name__)}")
    ids = oracles.ids
    rates, steps = ((stepsize, ()) if type(tau) is int and tau == 1   # the shared count 1
                    else _schedule(_Setting(tau), stepsize, ids.tobytes(), problem.m))
    if variant == VARIANT_SVRG:  # v = 0: every client steps, and its pair cancels
        problem.audit.record(tag, 2 * problem.batch_size * ids.size)
        if not steps:   # every tau_i is 1: each client uploads the same iterate
            ledger.record_round(ids.size * z.size)
            return z - stepsize * correction
        Z = z - rates * correction
    else:
        Z = z - rates * grad(ids, z, rng.lanes(ids, tag, 0))
    for v, rows, sub in steps:
        sub = ids if sub is None else sub
        lanes = rng.lanes(sub, tag, v)
        step = grad(sub, Z[rows], lanes)
        if variant == VARIANT_SVRG:
            step = step - grad(sub, z, lanes) + correction
        Z[rows] = Z[rows] - rates[rows] * step
    return aggregate_mean(Z, ledger)


def one_round_lower(problem: BilevelProblem, x: np.ndarray, y: np.ndarray,
                    q: np.ndarray, cfg: LowerStepConfig,
                    participants: Sequence[int] | CheckedOracles, rng: RngStream,
                    ledger: CommLedger) -> np.ndarray:
    """The lower local phase from y with correction q and stepsize beta, on
    the "zeta" lanes; returns the participant mean of y_tau^i.

    q must be the aggregated global lower gradient at (x, y) from the same
    outer step, an ndarray of shape (d2,), which sgd checks but does not read.
    participants may be checked oracles (``BilevelProblem.checked``), taken
    without a second check. rng is the scope stream, free or on a table of
    ``local_lanes("zeta", ...)``. Charges exactly one round.
    """
    oracles, rng = problem.entry(participants, x, y, rng,
                                 lambda: local_lanes("zeta", max_tau(cfg.tau),
                                                     variant=cfg.variant))
    return _local_phase(problem, oracles, rng,
                        lambda ids, Y, lanes: problem.grad_lower_y(ids, x, Y, lanes),
                        y, q, cfg.beta, cfg.tau, "zeta", cfg.variant, ledger)
