"""The abstract's first claim as a measured order: the fused estimator has the
same sample complexity as the AID baseline, with fewer rounds.

Cells: the criterion-7 race spec (d1 = d2 = 10, m = 8, n = 8 per client,
mu = 1, L_g = 1.5, hetero 0.5, spread 0.05), instance and run seed s in
0..9, K in {100, 400, 1600}, both drivers, every parameter at its default
(N = T = 2, lambda and beta at their caps, alpha = kappa^-4 / sqrt(K)). A
run's value is the mean of grad_norm_sq over its rows 1..K; a driver's slope
is the least-squares slope of log(seed mean of that value) against log K.

The bounds were fixed before the first run, from an earlier measurement on 5
seeds (slopes -0.483 to -0.496 fused and -0.485 to -0.500 AID; 96 against 104
samples per step):

* each driver's slope lies in [-0.6, -0.4]: the mean squared gradient falls
  as 1/sqrt(K), within 0.1, so the samples to reach eps grow as eps^-2 for both
* the two slopes differ by less than 0.05
* on at least 8 of the 10 seeds, the fused run's samples per outer step at
  K = 1600 are at most the AID run's

A run's samples are its ``problem.audit`` total, which must equal the sum of
``verify.expected_sample_bill`` over its steps, each fused step with its Q.
"""

import numpy as np
import pytest

from fedbilevel import QuadraticSpec, RngStream, RunConfig, run_fbo_aggitd, run_fednest_baseline
from fedbilevel.drivers import build_problem, resolve_params
from fedbilevel.verify import expected_sample_bill

SEEDS, KS = range(10), (100, 400, 1600)
DRIVERS = {"aggitd": run_fbo_aggitd, "aid": run_fednest_baseline}
SLOPE_BAND, SLOPE_MARGIN, SAMPLE_WINS = (-0.6, -0.4), 0.05, 8


def _samples_billed(estimator, cfg, problem) -> int:
    N, T = resolve_params(cfg, problem.constants)[:2]
    taus, root = [1] * problem.m, RngStream(cfg.seed)
    return sum(sum(expected_sample_bill(estimator, N, T, taus, problem.batch_size,
                                        root.child("est", k, "Q").index(N + 1)).values())
               for k in range(cfg.K))


@pytest.fixture(scope="module")
def cells():
    """(estimator, seed, K) -> (mean grad^2 over rows 1..K, samples per outer step)."""
    out = {}
    for seed in SEEDS:
        spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5, hetero=0.5,
                             noise_spread=0.05, seed=seed)
        for K in KS:
            cfg = RunConfig(problem=spec, K=K, seed=seed, eval_every=1)
            for estimator, driver in DRIVERS.items():
                problem = build_problem(cfg)
                rep = driver(cfg, problem)
                assert problem.audit.total == _samples_billed(estimator, cfg, problem)
                out[estimator, seed, K] = (float(rep.column("grad_norm_sq")[1:].mean()),
                                           problem.audit.total / K)
    return out


def _slope(cells, estimator) -> float:
    means = [np.mean([cells[estimator, s, K][0] for s in SEEDS]) for K in KS]
    return float(np.polyfit(np.log(KS), np.log(means), 1)[0])


@pytest.mark.parametrize("estimator", sorted(DRIVERS))
def test_mean_grad_sq_falls_as_one_over_sqrt_k(cells, estimator):
    slope = _slope(cells, estimator)
    print(f"{estimator}: slope {slope:.4f}, band {SLOPE_BAND}")
    assert SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]


def test_fused_and_aid_share_the_order(cells):
    gap = abs(_slope(cells, "aggitd") - _slope(cells, "aid"))
    print(f"slope gap {gap:.4f}, margin {SLOPE_MARGIN}")
    assert gap < SLOPE_MARGIN


def test_fused_draws_no_more_samples_per_step(cells):
    K = KS[-1]
    per_step = [(cells["aggitd", s, K][1], cells["aid", s, K][1]) for s in SEEDS]
    print("samples per step (fused, aid):", per_step)
    assert sum(f <= a for f, a in per_step) >= SAMPLE_WINS
