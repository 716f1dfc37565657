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
# re-pinned when One-Round-Upper took One-Round-Lower's association
HYPERREP_ITERATES = {
    "aggitd": ("afbe05ff74ed1f219afa2f4d04ddb9f569fa65d0a0b98cc17cf0e6d188d18222",
               "dd013d7ee7f95f5ec81d8796dd864fee42f917105d6db40da2b223b4ddcbeea8",
               "6cf68df27b0e65b709311d0e2dbca040899846b4fc88742a3faabe275576afb1"),
    "aid": ("91406e02248d31347a7d80495a366e68d7b4d1a4341e9e9ec1632c6b7ed5ab43",
            "f1a9299a3b07f2c96081f7bc26725fcfe912f8256bdc60fd61c89d1e4970986b",
            "50c5a85447925a55c36660db0d9e0a15f6922ab8c11f00700d57818595abf59b"),
    "local": ("0b16cd4793cb90a62cda04489f665c8207d8a838f75c5fe280581982203dea95",
              "663f2ece9424cd3edc659a741d58f848e24a68bd4462953600a597cbabf1b423",
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


def _spec(**kw):
    base = dict(d1=4, d2=4, m=4, n_per_client=8, mu=1.0, L_g=2.0, hetero=0.5,
                noise_spread=0.1, seed=5)
    return QuadraticSpec(**{**base, **kw})


# sha256 of the float64 metrics rows and the final x, pinned on x86_64 with
# OpenBLAS; all but "local" re-pinned when Q, T' and the participant sets
# became counter-based draws, "tau_list" and "gaussian" when One-Round-Upper
# took One-Round-Lower's association, and all five when the closed forms began
# solving with a stored inverse of A_bar (final_x kept its bits; the metrics
# moved by at most 4.3e-14 relative)
GOLDEN_RUNS = {
    "tau_list": (dict(problem=_spec(), tau=[1, 3, 2, 1]),
                 "ac9f57c0019b3d31d0bf380a4f50b1be45b3064348041df8438fa6f39fa6fe08"),
    "participation": (dict(problem=_spec(m=6), estimator="aid", participation=0.5),
                      "5ae67ed2c32d869f3c5799b80f8877d74e1c6b4a96c66cb97bb4e04691728e7b"),
    "local": (dict(problem=_spec(), estimator="local", tau=2),
              "39a139615fe2dd093111dc481c3ec0fe3c212322f64ddad53599a57e87bd3f78"),
    "batch_size": (dict(problem=_spec(), batch_size=4),
                   "250cd1d5f6ee440eda54d3a52c2019166e90c69f9ec826f5d928eedb88255ceb"),
    "gaussian": (dict(problem=_spec(noise_mode="additive-gaussian", noise_std=0.15),
                      estimator="aid", tau=2),
                 "32a0e108353975d20b06f7d7cca4fc692f0e7e8ed6e390502e8eae799dab5a45"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_row_digests_pinned(name):
    kw, expected = GOLDEN_RUNS[name]
    rep = run(RunConfig(K=25, seed=11, eval_every=1, alpha=0.05, **kw))
    rows = np.array([r.values() for r in rep.rows], dtype=float)
    assert hashlib.sha256(rows.tobytes() + rep.final_x.tobytes()).hexdigest() == expected
