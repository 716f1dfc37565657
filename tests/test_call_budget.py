"""Call budgets: the Python calls into the package per unit of work.

A call count from ``cProfile`` is deterministic, so it pins the per-call
plumbing of an outer step without a wall-clock gate. Each budget is the count
measured when it was set; a change that adds calls to the step must remove
others or raise the budget on purpose. Before the per-call invariants were
resolved once (the purpose with the lane rows, the sample counts once per
problem, the local-step schedule once per setting) the same counts were
123.65 (fused), 129.55 (AID) and 138.17 (estimate); before Q and T' were
read from their lane table's one draw per step, and the trace's per-client
dict built on read, 103.1, 106.9 and 115.76; before a direct call stopped
re-deriving what it was handed (range(m) without a sort, the stepsize caps
once per config, an oracle's audit in one ``+=``, a lower gradient's packed
product inline), 97.35, 100.2 and 109.76; before a local phase whose
clients all take one step returned their common iterate without averaging k
copies of it, 82.9, 88.75 and 89.29, and 408.75 (fused), 411.0 (AID) and
448.0 (local) per step of a short run on the hyperrep benchmark spec.
"""

import cProfile
import os
import pstats

import numpy as np
import pytest

import fedbilevel
from fedbilevel import (AggITDConfig, CommLedger, HyperRepSpec, LowerStepConfig, QuadraticSpec,
                        RngStream, RunConfig, aggitd, make_hyperrep, make_problem,
                        run_fbo_aggitd, run_fednest_baseline)

PACKAGE = os.path.dirname(os.path.abspath(fedbilevel.__file__)) + os.sep
K = 20
# calls per outer step of a K-step run of the criterion-7 race spec, its set-up
# included: 82.825 per step over both drivers
RACE_BUDGET = {"fused": 79.9, "aid": 85.75}
ESTIMATE_BUDGET = 86.29   # calls per aggitd call on the criterion-4 Monte Carlo spec
# calls per outer step of a HYPERREP_K-step run on the benchmark's hyperrep spec
# (demo 05's, N = T = 8, batch 8, a metrics row per step), its set-up included
HYPERREP_K = 4
HYPERREP_BUDGET = {"aggitd": 399.75, "aid": 402.0, "local": 439.0}


def _calls(fn) -> int:
    """The calls fn makes into the package's files, run once before to warm the caches."""
    fn()
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(s[1] for (path, _, _), s in pstats.Stats(prof).stats.items()
               if path.startswith(PACKAGE))


@pytest.mark.parametrize("driver", ["fused", "aid"])
def test_race_outer_step_call_budget(driver):
    spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5, hetero=0.5,
                         noise_spread=0.05, seed=0)
    cfg = RunConfig(problem=spec, K=K, seed=0, eval_every=1, alpha=0.02, N=2, T=2)
    problem = make_problem(spec)
    run = {"fused": run_fbo_aggitd, "aid": run_fednest_baseline}[driver]
    per_step = _calls(lambda: run(cfg, problem)) / K
    print(f"{driver}: {per_step:.2f} calls per outer step (budget {RACE_BUDGET[driver]})")
    assert per_step <= RACE_BUDGET[driver]


def test_monte_carlo_estimate_call_budget():
    spec = QuadraticSpec(d1=3, d2=3, m=3, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.3,
                         noise_spread=0.1, seed=0)
    problem = make_problem(spec)
    x = np.ones(3)
    y0 = problem.inst.y_star(x) + 0.3
    cfg = AggITDConfig(lam=0.5, N=3, lower=LowerStepConfig(beta=1.0 / 12, tau=1))
    root = RngStream(0)

    def estimates():
        for t in range(100):
            aggitd(problem, x, y0, cfg, range(3), root.child("mc", t), CommLedger())
    per_call = _calls(estimates) / 100
    print(f"aggitd: {per_call:.2f} calls per estimate (budget {ESTIMATE_BUDGET})")
    assert per_call <= ESTIMATE_BUDGET


@pytest.mark.parametrize("estimator", sorted(HYPERREP_BUDGET))
def test_hyperrep_outer_step_call_budget(estimator):
    spec = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4, n_points=240,
                        partition="label-skew", shards_per_client=1)
    cfg = RunConfig(problem=spec, K=HYPERREP_K, seed=0, eval_every=1, alpha=0.5, N=8, T=8,
                    batch_size=8, estimator=estimator)
    problem = make_hyperrep(spec, 3, batch_size=8)
    run = run_fbo_aggitd if estimator == "aggitd" else run_fednest_baseline
    per_step = _calls(lambda: run(cfg, problem)) / HYPERREP_K
    print(f"{estimator}: {per_step:.2f} calls per outer step "
          f"(budget {HYPERREP_BUDGET[estimator]})")
    assert per_step <= HYPERREP_BUDGET[estimator]
