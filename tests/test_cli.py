"""CLI surface: subcommands, exit codes, byte-determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fedbilevel.cli import main

DEMO_OUT = Path(__file__).resolve().parent.parent / "demos" / "out"


def _cfg(tmp_path, extra=None):
    doc = {"problem": {"type": "quadratic", "d1": 2, "d2": 2, "m": 2,
                       "mu": 1.0, "L_g": 2.0},
           "K": 3, "seed": 5}
    doc.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_writes_metrics_and_plot(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", _cfg(tmp_path), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "fbo-aggitd_metrics.csv").exists()
    assert (out / "fbo-aggitd_grad_norm.svg").exists()
    assert "rounds=" in capsys.readouterr().out


def test_run_twice_byte_identical(tmp_path):
    cfg = _cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out-dir", str(out2)]) == 0
    a = (out1 / "fbo-aggitd_metrics.csv").read_bytes()
    b = (out2 / "fbo-aggitd_metrics.csv").read_bytes()
    assert a == b


def test_set_overrides(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", _cfg(tmp_path), "--set", "estimator=aid",
               "--set", "K=2", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "fednest_metrics.csv").exists()


def test_set_batch_size_and_variant(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", _cfg(tmp_path), "--set", "batch_size=2",
                 "--set", "variant=sgd", "--out-dir", str(out)]) == 0
    assert (out / "fbo-aggitd_metrics.csv").exists()


def test_estimate_dumps_trace(tmp_path):
    out = tmp_path / "out"
    rc = main(["estimate", "--config", _cfg(tmp_path), "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "estimate_trace.json").read_text())
    assert {"Q", "y_iterates", "z_final", "p", "h_direct", "h_indirect"} <= set(doc)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_bytes(b"\xff{")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", _cfg(tmp_path, {"beta": 0.9})]) == 2


_NONFINITE = ("NaN", "Infinity", "-Infinity")

# (--set overrides on the base config, expected exit code)
BAD_CONFIGS = [
    (['beta=0.9'], 2),
    (['K="abc"'], 2),
    (['tau=["a"]'], 2),
    (['participation="x"'], 2),
    (['noise={"spread": "x"}'], 2),
    (['problem={"type": "quadratic", "d1": "x"}'], 2),
    (['problem={"type": "quadratic", "mystery": 1}'], 2),
    (['K=2.5'], 2),
    (['tau=1.7'], 2),
    (['seed=3.9'], 2),
    (['tau=[1, 2.5]'], 2),
    (['K=true'], 2),
    (['alpha=true'], 2),
    (['problem={"type": "quadratic", "m": 2.5}'], 2),
    (['K=1e400'], 2),
    (['tau=[1]'], 2),
    (['tau=[1, 1, 1]'], 2),
    (['problem={"type": "quadratic", "d1": 0}'], 2),
    (['problem={"type": "quadratic", "d2": 0}'], 2),
    *((['problem={"type": "hyperrep", %s}' % field], 2) for field in (
        '"test_fraction": -0.5', '"test_fraction": 0', '"test_fraction": 1',
        '"classes": 0', '"m": 0', '"embed_dim": 0', '"feature_dim": 0',
        '"partition": "label-skew", "shards_per_client": 0')),
    (['noise={"spread": -0.5}'], 2),
    (['noise={"mode": "additive-gaussian", "std": -1}'], 2),
    # every float key at each non-finite JSON number
    *(([f"{key}={v}"], 2) for v in _NONFINITE
      for key in ("lambda", "alpha", "beta", "participation", "hetero")),
    *(([f'noise={{"{key}": {v}}}'], 2) for v in _NONFINITE for key in ("spread", "std")),
    *(([f'problem={{"type": "quadratic", "{key}": {v}}}'], 2) for v in _NONFINITE
      for key in ("mu", "L_g", "coupling", "lin_scale", "noise_spread", "noise_std",
                  "hetero")),
    *(([f'problem={{"type": "hyperrep", "{key}": {v}}}'], 2) for v in _NONFINITE
      for key in ("ridge", "test_fraction")),
    (['problem={"type": "quadratic", "mu": -1, "L_g": -0.5}'], 2),
    # these parse and fail when the run resolves them
    (['N=-1'], 2),
    (['T=0'], 2),
    (['alpha=0'], 2),
    (['lambda=0'], 2),
    # top-level quadratic keys have no effect on a hyperrep problem
    (['problem="hyperrep"', 'hetero=0.9'], 2),
    (['problem="hyperrep"', 'noise={"mode": "additive-gaussian", "std": 5}'], 2),
]


@pytest.mark.parametrize("sets,code", BAD_CONFIGS)
def test_bad_config_table(tmp_path, capsys, sets, code):
    args = ["run", "--config", _cfg(tmp_path), "--out-dir", str(tmp_path / "o")]
    for s in sets:
        args += ["--set", s]
    assert main(args) == code
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_integral_floats_accepted_for_integer_keys(tmp_path):
    # JSON writers may emit 3.0 for 3: an integral float is taken as the integer
    from fedbilevel.config import config_from_dict
    cfg = config_from_dict({"K": 3.0, "tau": [1.0, 2.0], "seed": 4.0,
                            "problem": {"type": "quadratic", "m": 2.0}})
    assert (cfg.K, cfg.tau, cfg.seed, cfg.problem.m) == (3, [1, 2], 4, 2)
    assert all(type(v) is int for v in (cfg.K, *cfg.tau, cfg.seed, cfg.problem.m))
    assert main(["run", "--config", _cfg(tmp_path, {"K": 2.0}),
                 "--out-dir", str(tmp_path / "o")]) == 0


def test_divergence_exit_code(tmp_path):
    assert main(["run", "--config", _cfg(tmp_path, {"alpha": 1e7, "K": 40}),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_verify_battery(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_round_accounting_check_covers_every_estimator(monkeypatch):
    # 2N+3 / 1 fused, 2N+T+3 / 2 AID, 2N+2 / 1 local at N = 4, T = 3; a local
    # run billed one extra round fails the check
    from fedbilevel import verify
    ok, detail = verify._check_rounds(0)
    assert ok, detail
    assert "aggitd (11, 1), aid (14, 2), local (10, 1)" in detail
    real = verify.run

    def one_more_round(cfg):
        rep = real(cfg)
        if cfg.estimator == "local":
            rep.outer_history[-1] = (rep.outer_history[-1][0] + 1, 1)
        return rep
    monkeypatch.setattr(verify, "run", one_more_round)
    assert not verify._check_rounds(0)[0]


def test_sweep_cli(tmp_path):
    out = tmp_path / "cells"
    rc = main(["sweep", "--config", _cfg(tmp_path), "--grid", '{"tau": [1, 2]}',
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "index.json").exists()
    assert main(["sweep", "--config", _cfg(tmp_path), "--grid", "not-json"]) == 2


def test_sweep_resolves_defaults_per_cell(tmp_path):
    # the L_g=2 cell's default lambda=0.5 breaks the L_g=20 cell's cap of 0.05
    out = tmp_path / "cells"
    problems = [{"type": "quadratic", "d1": 2, "d2": 2, "m": 2, "mu": 1.0, "L_g": L_g}
                for L_g in (2.0, 20.0)]
    rc = main(["sweep", "--config", _cfg(tmp_path), "--grid",
               json.dumps({"problem": problems}), "--out-dir", str(out)])
    assert rc == 0
    assert len(list(out.glob("run__*.csv"))) == 2


def test_malformed_sweep_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    assert main(["sweep", "--config", str(bad), "--grid", '{"tau": [1]}']) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert main(["sweep", "--config", str(listed), "--grid", '{"tau": [1]}']) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--grid", '{"tau": [1]}']) == 2
    err = capsys.readouterr().err
    assert "malformed config" in err
    assert "Traceback" not in err


def test_library_error_exit_code(tmp_path, capsys):
    # lambda=0.01 breaks the built default hyperrep instance's cap of 0.00655
    assert main(["run", "--set", 'problem="hyperrep"', "--set", "lambda=0.01",
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "lambda" in err
    assert "Traceback" not in err


def test_default_hyperrep_run_learns(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--set", 'problem="hyperrep"', "--set", "K=2",
                 "--out-dir", str(out)]) == 0
    last = (out / "fbo-aggitd_metrics.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[-1]) > 1 / 3  # test accuracy over 3 classes


def test_default_hyperrep_estimate(tmp_path, capsys):
    assert main(["estimate", "--set", 'problem="hyperrep"', "--out-dir", str(tmp_path)]) == 0
    assert float(capsys.readouterr().out.split("||h||=")[1].split()[0]) > 0


@pytest.mark.parametrize("estimator,label,golden", [
    ("aggitd", "fbo-aggitd", "race_fused.csv"),
    ("aid", "fednest", "race_baseline.csv")])
def test_cli_reproduces_race_csvs(tmp_path, estimator, label, golden):
    # demo 04's config through parse -> run; N, T, lambda and beta left unset
    doc = {"problem": {"type": "quadratic", "d1": 10, "d2": 10, "m": 8, "n_per_client": 8,
                       "mu": 1.0, "L_g": 1.5, "seed": 0},
           "hetero": 0.5, "noise": {"spread": 0.05}, "K": 400, "seed": 0,
           "eval_every": 1, "alpha": 0.02, "estimator": estimator}
    path = tmp_path / "race.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    assert ((tmp_path / "o" / f"{label}_metrics.csv").read_bytes()
            == (DEMO_OUT / golden).read_bytes())


def test_estimate_starts_from_initial_point(tmp_path, capsys):
    # the hyperrep origin is a saddle where the hypergradient vanishes
    rc = main(["estimate", "--set", 'problem="hyperrep"', "--set", "lambda=0.005",
               "--set", "beta=0.0005", "--set", "N=2", "--out-dir", str(tmp_path)])
    assert rc == 0
    norm = float(capsys.readouterr().out.split("||h||=")[1].split()[0])
    assert norm > 0


@pytest.mark.parametrize("doc,key", [
    ({"problem": "hyperrep", "hetero": 0.9}, "hetero"),
    ({"problem": "hyperrep", "noise": {"mode": "additive-gaussian", "std": 5}}, "noise"),
    ({"problem": {"type": "hyperrep"}, "hetero": "x", "noise": {"std": "y"}}, "hetero")])
def test_hyperrep_rejects_quadratic_keys_by_name(doc, key):
    from fedbilevel.config import config_from_dict
    from fedbilevel.errors import ConfigError
    with pytest.raises(ConfigError, match=f"^{key} does not apply to a hyperrep problem"):
        config_from_dict(doc)


@pytest.mark.parametrize("estimator", ["aid", "local"])
def test_estimate_rejects_other_estimators(tmp_path, capsys, estimator):
    out = tmp_path / "o"
    assert main(["estimate", "--config", _cfg(tmp_path), "--set", f'estimator="{estimator}"',
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "estimator" in err and estimator in err
    assert "Traceback" not in err
    assert not (out / "estimate_trace.json").exists()


@pytest.mark.parametrize("participation", [1.0, 0.7])
def test_estimate_is_the_first_step_of_a_fused_run(tmp_path, participation):
    # the trace's h = h_direct - h_indirect gives rows[1].est_err of a K = 1
    # fused run on the same config, bit for bit: estimate draws the same
    # participants, Q and lanes as the run's first outer step
    from fedbilevel import run
    from fedbilevel.config import config_from_dict
    from fedbilevel.drivers import Evaluator, build_problem
    doc = {"problem": {"type": "quadratic", "d1": 3, "d2": 3, "m": 5, "mu": 1.0,
                       "L_g": 2.0, "seed": 4},
           "hetero": 0.4, "noise": {"spread": 0.1}, "K": 1, "N": 3, "seed": 9,
           "tau": [1, 3, 2, 1, 2], "participation": participation}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "estimate_trace.json").read_text())
    h = np.array(trace["h_direct"]) - np.array(trace["h_indirect"])
    cfg = config_from_dict(doc)
    problem = build_problem(cfg)
    r = h - Evaluator(problem).hypergradient(problem.initial_point()[0])
    rep = run(cfg)
    assert math.sqrt(r @ r) == rep.rows[1].est_err
    assert len(trace["h_indirect_clients"]) == (5 if participation == 1.0 else 4)
