"""The demo-04 race CSVs reproduce byte for byte from the library, the
demo-05 hyperrep CSVs to a relative tolerance, and runs on paths the race
does not take reproduce their pinned row digests."""

import hashlib
import os

import numpy as np
import pytest

from fedbilevel import (HyperRepSpec, QuadraticSpec, RunConfig, export_csv, run,
                        run_fbo_aggitd, run_fednest_baseline)

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


@pytest.mark.parametrize("estimator", ["aggitd", "aid", "local"])
def test_hyperrep_csvs_match_demo(estimator):
    # the demo-05 configuration; hyperrep rows go through BLAS-backed stacked
    # products, which are byte-stable only on one platform and BLAS
    spec = HyperRepSpec(embed_dim=3, feature_dim=6, classes=3, ridge=0.2, m=4,
                        n_points=240, partition="label-skew", shards_per_client=1)
    rep = run(RunConfig(problem=spec, K=60, seed=3, eval_every=5, alpha=0.5, N=8,
                        batch_size=8, estimator=estimator))
    want = np.loadtxt(os.path.join(OUT, f"hyperrep_{rep.label}.csv"), delimiter=",",
                      skiprows=2)
    np.testing.assert_allclose(np.array([r.values() for r in rep.rows], dtype=float), want,
                               rtol=1e-12, atol=0)


def _spec(**kw):
    base = dict(d1=4, d2=4, m=4, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.5,
                noise_spread=0.1, seed=5)
    return QuadraticSpec(**{**base, **kw})


# sha256 of the float64 metrics rows and the final x, pinned on x86_64 with
# OpenBLAS; all but "local" re-pinned when Q, T' and the participant sets
# became counter-based draws
GOLDEN_RUNS = {
    "tau_list": (dict(problem=_spec(), tau=[1, 3, 2, 1]),
                 "458378276afd25b3c64e75c07c3e6594c92e4747520e0104cfa792b45df25947"),
    "participation": (dict(problem=_spec(m=6), estimator="aid", participation=0.5),
                      "76dc6e10f3b15d9beb80d103dc61024a731553028762b729a7a1545d6f4a7cc2"),
    "local": (dict(problem=_spec(), estimator="local", tau=2),
              "8284dd00f377194e232748af61eb6287e44db8840777d2dd7f20ea2aa30c4a9f"),
    "batch_size": (dict(problem=_spec(), batch_size=4),
                   "b3c72f7bde98ec03129bf333144a4d49f0e9f308b34c33230b1f6c7afdb587a9"),
    "gaussian": (dict(problem=_spec(noise_mode="additive-gaussian", noise_std=0.15),
                      estimator="aid", tau=2),
                 "783b0e3c52c5e124068488b5a4c38348adde23345a4ca820faba2979f8c99141"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_row_digests_pinned(name):
    kw, expected = GOLDEN_RUNS[name]
    rep = run(RunConfig(K=25, seed=11, eval_every=1, alpha=0.05, **kw))
    rows = np.array([r.values() for r in rep.rows], dtype=float)
    assert hashlib.sha256(rows.tobytes() + rep.final_x.tobytes()).hexdigest() == expected
