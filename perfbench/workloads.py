"""The benchmark's workloads: generated inputs, repetitions and checks.

A workload builds its inputs from the run's seed and runs them in
repetitions. One repetition is the seed's driver runs (``race``,
``hyperrep``) or one batch of fused estimates on fresh lanes
(``mc_estimate``). Repetitions of one run rebuild the same inputs and repeat
the same work, so each outer step can be timed several times. Every library
call goes through the package's module attributes at call time, so a tracer
that patches them sees it.

Each operation (a driver run or one estimate) carries its own checks. None
compares bytes with stored output: they test the paper's round bill and
statistical or convergence properties, which hold under any declared change
of the random streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import fedbilevel as fb


@dataclass
class Op:
    """One timed library operation and what its checks found."""

    kind: str                # fused | baseline | local | estimate
    iters: int               # outer iterations (1 for an estimate)
    rounds: int
    loops: int
    scalars: int
    failures: list = field(default_factory=list)
    output: object = None    # rows or estimate, compared across repetitions and runs
    steps: list = field(default_factory=list)   # (seconds, burst seconds) per timed step


def derive_seed(seed: int) -> int:
    """Library seed for a benchmark seed; the same seed gives the same inputs."""
    return (int(seed) * 1_000_003 + 17) % (2 ** 31)


def _finite_rows(rep) -> bool:
    return all(math.isfinite(v) for r in rep.rows for v in r.values())


def _drive(clock, kind, driver, cfg, problem, step_bill, extra_check) -> Op:
    """Run one outer-loop driver and check its per-step (rounds, loops) bill.

    The clock, when set, is hooked on ``CommLedger.finish_outer``, so a run
    of K outer iterations yields K-1 whole-step times.
    """
    if clock is not None:
        clock.take()
    rep = driver(cfg, problem)
    steps = clock.take() if clock is not None else []
    failures = []
    if rep.outer_history != [step_bill] * cfg.K:
        bad = [s for s in rep.outer_history if s != step_bill][:1] or rep.outer_history[:1]
        failures.append(f"{kind}: step bill {bad} != {step_bill} x {cfg.K}")
    if not _finite_rows(rep):
        failures.append(f"{kind}: non-finite metrics row")
    msg = extra_check(rep)
    if msg:
        failures.append(f"{kind}: {msg}")
    return Op(kind=kind, iters=cfg.K, rounds=rep.rounds_total, loops=rep.loops_total,
              scalars=rep.scalars_sent, failures=failures,
              output=([r.values() for r in rep.rows], rep.final_x.tobytes()), steps=steps)


class Workload:
    name = ""
    rep_seconds = 1.0                 # rough untraced cost of one repetition
    clock = None                      # a clock.StepClock while steps are timed

    def build(self, seed: int) -> dict:
        """Generated inputs; always holds the built problem under "problem"."""
        raise NotImplementedError

    def run(self, inputs: dict, seed: int, short: bool = False) -> list:
        """One repetition; ``short`` runs a few steps only, for warm-up."""
        raise NotImplementedError

    def check(self, inputs: dict, ops: list) -> list:
        """Checks over one whole repetition; returns failure messages."""
        return []

    def describe(self) -> dict:
        """Workload parameters worth recording next to the results."""
        return {k: v for k, v in vars(type(self)).items()
                if k.isupper() and isinstance(v, (int, float, str))}


# -- race: the criterion-7 configuration ---------------------------------------

class Race(Workload):
    name = "race"
    K = 450          # criterion 7's K: runs cross grad^2 <= 1e-3 near k = 160-280
    N = T = 2        # ceil(kappa_g) for L_g/mu = 1.5, passed explicitly
    rep_seconds = 3.0

    def build(self, seed):
        spec = fb.QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5,
                                hetero=0.5, noise_spread=0.05, seed=seed)
        return {"spec": spec, "problem": fb.make_problem(spec)}

    def run(self, inputs, seed, short=False):
        spec, problem = inputs["spec"], inputs["problem"]
        cfg = fb.RunConfig(problem=spec, K=3 if short else self.K, seed=seed,
                           eval_every=1, alpha=0.02, N=self.N, T=self.T)
        N, T = self.N, self.T

        def reached(rep):
            best = min(r.grad_norm_sq for r in rep.rows)
            return None if short or best <= 1e-3 else f"min grad^2 {best:.2e} > 1e-3"
        return [_drive(self.clock, "fused", fb.run_fbo_aggitd, cfg, problem,
                       (2 * N + 3, 1), reached),
                _drive(self.clock, "baseline", fb.run_fednest_baseline, cfg, problem,
                       (2 * N + T + 3, 2), reached)]


# -- mc_estimate: the criterion-4 configuration -------------------------------

class McEstimate(Workload):
    name = "mc_estimate"
    N = 3
    ESTIMATES = 1000   # fresh lanes per repetition: enough for a p99 and the variance bound
    rep_seconds = 1.5

    def build(self, seed):
        spec = fb.QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0,
                                hetero=0.3, noise_spread=0.1, seed=seed)
        problem = fb.make_problem(spec)
        inst = problem.inst
        x = np.ones(3)
        y0 = inst.y_star(x) + 0.3
        consts = fb.measure_constants(inst, fb.TestRegion(fb.Point(x, y0), 1.5),
                                      samples=100)
        lam = min(10.0, 1.0 / max(consts.L_g, inst.L_g))
        beta = min(1.0, lam, 1.0 / (6.0 * inst.L_g))
        cfg = fb.AggITDConfig(lam=lam, N=self.N,
                              lower=fb.LowerStepConfig(beta=beta, tau=1))
        sigma_h2 = lam * (self.N + 1) * consts.L_g ** 2 * consts.M ** 2 / consts.mu
        return {"problem": problem, "x": x, "y0": y0, "cfg": cfg, "sigma_h2": sigma_h2}

    def run(self, inputs, seed, short=False):
        problem, x, y0, cfg = inputs["problem"], inputs["x"], inputs["y0"], inputs["cfg"]
        root = fb.RngStream(seed)
        bill = (2 * self.N + 2, 1)
        ops = []
        clock = self.clock
        if clock is not None:
            clock.take()
            clock.mark()
        for t in range(10 if short else self.ESTIMATES):
            ledger = fb.CommLedger()
            h, _, tr = fb.aggitd(problem, x, y0, cfg, range(problem.m),
                                 root.child("mc", t), ledger)
            if clock is not None:
                clock.mark()
            failures = []
            if (ledger.rounds_total, ledger.loops_total) != bill:
                failures.append(f"aggitd bill {(ledger.rounds_total, ledger.loops_total)} "
                                f"!= {bill}")
            sample = tr.h_indirect_clients[0]
            if not (np.all(np.isfinite(h)) and np.all(np.isfinite(sample))):
                failures.append("non-finite estimate")
            ops.append(Op(kind="estimate", iters=1, rounds=ledger.rounds_total,
                          loops=ledger.loops_total, scalars=ledger.scalars_sent,
                          failures=failures, output=(h.tobytes(), sample.tobytes())))
        if clock is not None:
            for op, step in zip(ops, clock.take()):
                op.steps = [step]
        return ops

    def check(self, inputs, ops):
        # criterion 4: the client-0 indirect part's variance respects sigma_h^2
        vals = np.stack([np.frombuffer(op.output[1]) for op in ops])
        sq = np.sum((vals - vals.mean(axis=0)) ** 2, axis=1)
        var = float(sq.mean())
        se = float(sq.std(ddof=1) / np.sqrt(len(sq)))
        self.variance = {"var": var, "se": se, "sigma_h2": inputs["sigma_h2"],
                         "estimates": len(sq)}
        if not var + 4 * se <= inputs["sigma_h2"]:
            return [f"variance bound: var {var:.3e} + 4SE {4 * se:.1e} "
                    f"> sigma_h^2 {inputs['sigma_h2']:.3e}"]
        return []

    def describe(self):
        return {**super().describe(), "variance": getattr(self, "variance", None)}


# -- hyperrep: the demo-05 configuration --------------------------------------

class HyperRep(Workload):
    name = "hyperrep"
    K = 20
    N = T = 8        # passed explicitly, as in the demo: the hyperrep defaults are unusable
    DATA_SEED = 3    # demo 05's dataset; the run seed drives the random lanes only
    rep_seconds = 3.5

    SPEC = dict(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4, n_points=240,
                partition="label-skew", shards_per_client=1)

    def build(self, seed):
        # Newton work per metrics row depends on the dataset (+-10% across data
        # seeds) but hardly on the lanes (<0.5%), so the data stays fixed
        spec = fb.HyperRepSpec(**self.SPEC)
        return {"spec": spec, "problem": fb.make_hyperrep(spec, self.DATA_SEED, batch_size=8)}

    def run(self, inputs, seed, short=False):
        spec, problem = inputs["spec"], inputs["problem"]
        base = dict(problem=spec, K=2 if short else self.K, seed=seed, eval_every=1,
                    alpha=0.5, N=self.N, T=self.T, batch_size=8)
        N, T = self.N, self.T
        chance = 1.0 / spec.classes

        def learned(rep):
            acc = rep.rows[-1].test_metric
            return None if short or acc > chance else f"final accuracy {acc:.3f} <= chance"
        return [
            _drive(self.clock, "fused", fb.run_fbo_aggitd, fb.RunConfig(**base), problem,
                   (2 * N + 3, 1), learned),
            _drive(self.clock, "baseline", fb.run_fednest_baseline,
                   fb.RunConfig(**base, estimator="aid"), problem, (2 * N + T + 3, 2), learned),
            _drive(self.clock, "local", fb.run_fednest_baseline,
                   fb.RunConfig(**base, estimator="local"), problem, (2 * N + 2, 1), learned),
        ]


WORKLOADS = {w.name: w for w in (Race, McEstimate, HyperRep)}
