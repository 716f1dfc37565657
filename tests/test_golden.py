"""The demo-04 race CSVs reproduce byte for byte from the library, the
demo-05 hyperrep CSVs to a relative tolerance and its iterates to their pinned
digests, and runs on paths the race does not take reproduce their pinned row
digests."""

import hashlib
import json
import os

import numpy as np
import pytest

from fedbilevel import (HyperRepSpec, QuadraticSpec, RunConfig, export_csv, run,
                        run_fbo_aggitd, run_fednest_baseline)
from fedbilevel.drivers import build_problem

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "out")


def test_race_csvs_byte_identical(tmp_path):
    spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5,
                         hetero=0.5, noise_spread=0.05, seed=0)
    cfg = RunConfig(problem=spec, K=400, seed=0, eval_every=1, alpha=0.02)
    for driver, name in ((run_fbo_aggitd, "race_fused.csv"),
                         (run_fednest_baseline, "race_baseline.csv")):
        export_csv(driver(cfg), tmp_path / name)
        with open(os.path.join(OUT, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def _demo05(estimator):
    """The demo-05 run configuration."""
    spec = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4,
                        n_points=240, partition="label-skew", shards_per_client=1)
    return RunConfig(problem=spec, K=60, seed=3, eval_every=5, alpha=0.5, N=8,
                     batch_size=8, estimator=estimator)


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
def test_hyperrep_csvs_match_demo(estimator):
    # hyperrep rows go through BLAS-backed stacked products, which are
    # byte-stable only on one platform and BLAS
    rep = run(_demo05(estimator))
    want = np.loadtxt(os.path.join(OUT, f"hyperrep_{rep.label}.csv"), delimiter=",",
                      skiprows=2)
    np.testing.assert_allclose(np.array([r.values() for r in rep.rows], dtype=float), want,
                               rtol=1e-12, atol=0)


# sha256 of final_x, final_y and the sorted SampleAudit.by_purpose JSON of the
# demo-05 runs, pinned on x86_64 with OpenBLAS: the metrics rows may move in
# their last digits, the iterates and the sample bill may not. The iterates
# re-pinned when One-Round-Upper took One-Round-Lower's association, and when
# the dataset, the splits and the initial point became keyed lane draws
HYPERREP_ITERATES = {
    "aggitd": ("b604337c1243d35c8d9c140fa638f2d4dba57c3a439bd8202281760e59021a7a",
               "7b92d58b80ee6e481d12072d6dcd17c8fa133acdc02c571e22e04265e4b42583",
               "6cf68df27b0e65b709311d0e2dbca040899846b4fc88742a3faabe275576afb1"),
    "aid": ("0e337f3fc5675adcf7910eda8e759de86a19dea64a29045b19440fd0ce826f8d",
            "71ae4a963da61a5f7bd1e0b81129c6c701dbb9a6236c4968019931ab65d99e17",
            "50c5a85447925a55c36660db0d9e0a15f6922ab8c11f00700d57818595abf59b"),
    "local": ("87624ab689bdbf94a18808c817f593b152637c35d0f867207059f9de1f4915d9",
              "bb1b6542c1416d4e7ef396c61ae3bc0133684b61e9f0c9719fb1c2474ba8181f",
              "d66aa50d0f327dddeaeb6a6a8510e795df6b998a49ef0bd5ea40b4cd4084db6a"),
}


@pytest.mark.parametrize("estimator", sorted(HYPERREP_ITERATES))
def test_hyperrep_iterates_pinned(estimator):
    cfg = _demo05(estimator)
    problem = build_problem(cfg)
    driver = run_fbo_aggitd if estimator == "aggitd" else run_fednest_baseline
    rep = driver(cfg, problem)
    audit = json.dumps(problem.audit.by_purpose, sort_keys=True).encode()
    got = tuple(hashlib.sha256(b).hexdigest()
                for b in (rep.final_x.tobytes(), rep.final_y.tobytes(), audit))
    assert got == HYPERREP_ITERATES[estimator]


# sha256 of final_x, final_y and the sorted SampleAudit.by_purpose JSON of a
# hyperrep run off the demo-05 path: half the clients per step (a client
# subset in every oracle call), SVRG pairs at v >= 1 (tau up to 3) and
# minibatches of 4 from train splits of 6, 6, 6 and 5 points; pinned on
# x86_64 with OpenBLAS
HYPERREP_PARTIAL = "0b9e680164bb413cd7f142f3167847ed3127ba4952e8ebd792a02b4f5f106cba"


def test_hyperrep_partial_participation_pinned():
    spec = HyperRepSpec(embed_dim=2, feature_dim=3, classes=3, ridge=0.2, m=4, n_points=58)
    cfg = RunConfig(problem=spec, K=12, seed=7, eval_every=4, alpha=0.5, N=4, batch_size=4,
                    participation=0.5, tau=[1, 2, 3, 1])
    problem = build_problem(cfg)
    assert [len(t) for t in problem.train_idx] == [6, 6, 6, 5]
    rep = run_fbo_aggitd(cfg, problem)
    audit = json.dumps(problem.audit.by_purpose, sort_keys=True).encode()
    got = hashlib.sha256(rep.final_x.tobytes() + rep.final_y.tobytes() + audit).hexdigest()
    assert got == HYPERREP_PARTIAL


def _spec(**kw):
    base = dict(d1=4, d2=4, m=4, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.5,
                noise_spread=0.1, seed=5)
    return QuadraticSpec(**{**base, **kw})


# sha256 of the float64 metrics rows and the final x, pinned on x86_64 with
# OpenBLAS; all but "local" re-pinned when Q, T' and the participant sets
# became counter-based draws, "tau_list" and "gaussian" when One-Round-Upper
# took One-Round-Lower's association, and all five when the closed forms began
# solving with a stored inverse of A_bar (final_x kept its bits; the metrics
# moved by at most 4.3e-14 relative), all five when the instances became
# keyed lane draws, all five when that inverse came from one eigh instead
# of LAPACK inv (final_x and final_y kept their bits), and all but "gaussian"
# when the finite-sum oracles began reading each sample folded once,
# A_i + dA_ij etc. (the iterates move in their last bits), and all five
# when the rows became one stacked pass of einsum closed forms after the
# loop (final_x kept its bits; grad_norm_sq and est_err moved by at most
# 5.5e-16 and 1.6e-15 relative), and "participation" and
# "participation_batch" when a local phase whose participants all take one
# step began returning their common iterate instead of the mean of its k
# identical rows: that mean is the row itself at k = 1, 2 and 4, but moves
# the last bit of some coordinates at the k = 3 of these two runs and the
# k = 8 of the race CSVs, which re-pinned with them (no round moved;
# the race metrics moved by at most 5.5e-13 relative)
GOLDEN_RUNS = {
    "tau_list": (dict(problem=_spec(), tau=[1, 3, 2, 1]),
                 "b8b5fc81ee2d4b1ff465890291cea1c3ccb209f22f462940bd621c5ff60c9d64"),
    "participation": (dict(problem=_spec(m=6), estimator="aid", participation=0.5),
                      "7c36703dd241253ae3c6400e25b09f7dc541313045827f8b60a50fb1e0d206b4"),
    "local": (dict(problem=_spec(), estimator="local", tau=2),
              "8c0ec07fca6c0a13766a9144f0a5a3f0d6feaa835c0561cccee3040dc793336a"),
    "batch_size": (dict(problem=_spec(), batch_size=4),
                   "54ab1e4d2c92a366dc2d447da0c294cf483a1f1fbe9f8105abdc97fa7233bddf"),
    "gaussian": (dict(problem=_spec(noise_mode="additive-gaussian", noise_std=0.15),
                      estimator="aid", tau=2),
                 "d5426e6f49581f6278546ef4435b52265a75bebfbe08b8a2163607e8e9eae196"),
    # a minibatch mean over a client subset in every oracle call
    "participation_batch": (dict(problem=_spec(m=6), participation=0.5, batch_size=3),
                            "49fa6855fca2acd8f14466b160065158b4b061d08ba83ad587a518ec003ef6ca"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_row_digests_pinned(name):
    kw, expected = GOLDEN_RUNS[name]
    rep = run(RunConfig(K=25, seed=11, eval_every=1, alpha=0.05, **kw))
    rows = np.array([r.values() for r in rep.rows], dtype=float)
    assert hashlib.sha256(rows.tobytes() + rep.final_x.tobytes()).hexdigest() == expected
