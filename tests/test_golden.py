"""The demo-04 race CSVs reproduce byte for byte from the library, and runs
on paths the race does not take reproduce their pinned row digests."""

import hashlib
import os

import numpy as np
import pytest

from fedbilevel import (QuadraticSpec, RunConfig, export_csv, run, run_fbo_aggitd,
                        run_fednest_baseline)

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


def _spec(**kw):
    base = dict(d1=4, d2=4, m=4, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.5,
                noise_spread=0.1, seed=5)
    return QuadraticSpec(**{**base, **kw})


# sha256 of the float64 metrics rows and the final x, pinned on x86_64 with
# OpenBLAS before the oracles were batched across clients
GOLDEN_RUNS = {
    "tau_list": (dict(problem=_spec(), tau=[1, 3, 2, 1]),
                 "906f95b89e3f9941ac13c0e1ddecd28fa78152427fea741f63366b1493de850e"),
    "participation": (dict(problem=_spec(m=6), estimator="aid", participation=0.5),
                      "fc8d0d63e221e055c33a5abb88e9d6b2378bb6d510a9e015654db51c865627b0"),
    "local": (dict(problem=_spec(), estimator="local", tau=2),
              "8284dd00f377194e232748af61eb6287e44db8840777d2dd7f20ea2aa30c4a9f"),
    "batch_size": (dict(problem=_spec(), batch_size=4),
                   "939d574d271d73ec8e1dc961af6a4b081704193eca4581a986d5b63bd14a0725"),
    "gaussian": (dict(problem=_spec(noise_mode="additive-gaussian", noise_std=0.15),
                      estimator="aid", tau=2),
                 "5789d07a72239f96607c968dfd9d1a6c91689a7e8a1c26f5fd783294f7304248"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_row_digests_pinned(name):
    kw, expected = GOLDEN_RUNS[name]
    rep = run(RunConfig(K=25, seed=11, eval_every=1, alpha=0.05, **kw))
    rows = np.array([r.values() for r in rep.rows], dtype=float)
    assert hashlib.sha256(rows.tobytes() + rep.final_x.tobytes()).hexdigest() == expected
