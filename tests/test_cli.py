"""CLI surface: subcommands, exit codes, byte-determinism."""

import dataclasses
import json
import math
import sys
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
    (['noise={"mode": "additive-gaussian", "sdt": 1}'], 2),   # a misspelt key
    (['noise={"mode": "additive-gaussian", "std": 1e308}'], 2),   # its draws overflow
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
    (['problem={"type": "quadratic", "mu": 1e-300, "L_g": 1e300}'], 2),   # kappa_g = inf
    # these parse and fail when the run resolves them
    (['N=-1'], 2),
    (['T=0'], 2),
    (['alpha=0'], 2),
    (['lambda=0'], 2),
    # top-level quadratic keys have no effect on a hyperrep problem
    (['problem="hyperrep"', 'hetero=0.9'], 2),
    (['problem="hyperrep"', 'noise={"mode": "additive-gaussian", "std": 5}'], 2),
    # a number key takes a JSON number, not a string holding one
    (['K="3"'], 2),
    (['lambda="1e-3"'], 2),
    (['problem={"type": "quadratic", "m": 4}', 'tau=["2","2","2","2"]'], 2),
    (['problem={"type": "quadratic", "d1": "3"}'], 2),
    (['noise={"spread": "0.1"}'], 2),
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


def test_additive_gaussian_std_bound(tmp_path, capsys):
    # noise_std is at most the largest std whose Box-Muller draws, |z| <=
    # sqrt(-2 ln 2**-53), and their symmetrized sums stay finite; above it a
    # run or an estimate exits 2 naming noise_std, not with a raw LinAlgError
    # from the spectral norm of an overflowed Hessian draw
    from fedbilevel import ParameterError, QuadraticSpec, make_quadratic
    z = float(np.sqrt(-2.0 * np.log(2.0 ** -53)))
    bound = sys.float_info.max / 2 / z
    above = math.nextafter(bound, math.inf)
    assert math.isfinite(2 * (bound * z)) and not math.isfinite(2 * (above * z))
    spec = QuadraticSpec(d1=2, d2=2, m=2, noise_mode="additive-gaussian", noise_std=bound)
    assert make_quadratic(spec).noise_std == bound
    for std in (above, 1e308):
        with pytest.raises(ParameterError, match="noise_std"):
            make_quadratic(dataclasses.replace(spec, noise_std=std))
    for std, commands, code in ((bound, ["run"], 3), (above, ["run", "estimate"], 2),
                                (1e308, ["run", "estimate"], 2)):
        for command in commands:
            argv = [command, "--config", _cfg(tmp_path), "--out-dir", str(tmp_path / "o"),
                    "--set", "noise=" + json.dumps({"mode": "additive-gaussian", "std": std})]
            if code == 3:   # the draws are finite and the iterates diverge
                with pytest.warns(RuntimeWarning):
                    assert main(argv) == 3
            else:
                assert main(argv) == 2
            err = capsys.readouterr().err
            assert ("noise_std" in err) == (code == 2) and "Traceback" not in err


def test_estimate_of_non_finite_value_exit_code(tmp_path, capsys):
    # the draws at std 1e200 are finite but the estimate overflows: estimate
    # names the divergence and exits 3 as run does, writing no trace
    out = tmp_path / "o"
    argv = ["estimate", "--config", _cfg(tmp_path), "--out-dir", str(out),
            "--set", 'noise={"mode": "additive-gaussian", "std": 1e200}']
    with pytest.warns(RuntimeWarning):
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical divergence" in err and "estimate is not finite" in err
    assert "Traceback" not in err and not (out / "estimate_trace.json").exists()


def test_divergence_exit_code(tmp_path):
    assert main(["run", "--config", _cfg(tmp_path, {"alpha": 1e7, "K": 40}),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_verify_battery(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_bad_seed_is_a_config_error(capsys):
    # a negative seed is rejected once, before any check runs, not reported
    # as seven failed checks
    from fedbilevel import ParameterError
    from fedbilevel.verify import run_verification
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        run_verification(-1)
    assert main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_seeds_from_2_to_the_64_are_rejected(tmp_path):
    # a lane keeps a seed's low 64 bits, so seed 2**64 would draw seed 0's
    # instance and run; every entry point rejects it, and the CLI exits 2
    from fedbilevel import (HyperRepSpec, ParameterError, QuadraticSpec, RunConfig,
                            make_hyperrep, make_quadratic)
    from fedbilevel.verify import run_verification
    match = "seed must be an integer >= 0 and < 18446744073709551616, got 18446744073709551616"
    inst = make_quadratic(QuadraticSpec(d1=2, d2=2, m=2))
    for build in (lambda s: RunConfig(seed=s), lambda s: QuadraticSpec(seed=s),
                  lambda s: dataclasses.replace(inst, seed=s), run_verification,
                  lambda s: make_hyperrep(HyperRepSpec(), s)):
        with pytest.raises(ParameterError, match=match):
            build(2 ** 64)
    assert RunConfig(seed=2 ** 64 - 1).seed == QuadraticSpec(seed=2 ** 64 - 1).seed
    out = tmp_path / "o"
    for argv in (["run", "--config", _cfg(tmp_path, {"seed": 2 ** 64})],
                 ["run", "--config", _cfg(tmp_path, {"problem": {
                     "type": "quadratic", "d1": 2, "d2": 2, "m": 2, "seed": 2 ** 64}})],
                 ["verify", "--seed", str(2 ** 64)]):
        assert main([*argv, "--out-dir", str(out)] if argv[0] == "run" else argv) == 2
    assert not out.exists()


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


def test_sweep_set_clashing_with_the_grid_exit_code(tmp_path, capsys):
    # --set pairs are the sweep's overrides, so a key in both is the
    # library's clash error, not a grid that silently wins
    out = tmp_path / "cells"
    assert main(["sweep", "--config", _cfg(tmp_path), "--set", "tau=3", "--grid",
                 '{"tau": [1, 2]}', "--out-dir", str(out)]) == 2
    assert "grid keys conflict with overrides: ['tau']" in capsys.readouterr().err
    assert not (out / "index.json").exists()
    assert main(["sweep", "--config", _cfg(tmp_path), "--set", "K=2", "--grid",
                 '{"tau": [1, 2]}', "--out-dir", str(out)]) == 0
    assert json.loads((out / "index.json").read_text()) == {
        "tau=1": "run__tau=1.csv", "tau=2": "run__tau=2.csv"}


@pytest.mark.parametrize("grid", ['{"K": 5}', '{"K": []}'], ids=["scalar", "empty"])
def test_sweep_grid_axis_no_nonempty_list_exit_code(tmp_path, capsys, grid):
    out = tmp_path / "cells"
    assert main(["sweep", "--config", _cfg(tmp_path), "--grid", grid,
                 "--out-dir", str(out)]) == 2
    assert "grid key 'K'" in capsys.readouterr().err
    assert not (out / "index.json").exists()


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
    # the hyperrep origin is a saddle where the hypergradient vanishes; est_err
    # is printed for every problem, against the problem's exact hypergradient
    from fedbilevel.config import apply_overrides, config_from_dict, parse_set_args
    from fedbilevel.drivers import build_problem
    sets = ['problem="hyperrep"', "lambda=0.005", "beta=0.0005", "N=2"]
    rc = main(["estimate", *[a for s in sets for a in ("--set", s)], "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    norm = float(out.split("||h||=")[1].split()[0])
    assert norm > 0
    trace = json.loads((tmp_path / "estimate_trace.json").read_text())
    h = np.array(trace["h_direct"]) - np.array(trace["h_indirect"])
    problem = build_problem(config_from_dict(apply_overrides({}, parse_set_args(sets))))
    x0 = problem.initial_point()[0]
    err = np.linalg.norm(h - problem.hypergradient(x0, problem.y_star(x0)))
    assert float(out.split("est_err=")[1].split()[0]) == pytest.approx(err, rel=1e-6)


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
    x0 = problem.initial_point()[0][None]   # the stack of one point
    r = h - Evaluator(problem).hypergradient(x0, problem.y_star(x0))[0]
    rep = run(cfg)
    assert math.sqrt(r @ r) == rep.rows[1].est_err
    assert len(trace["h_indirect_clients"]) == (5 if participation == 1.0 else 4)


@pytest.mark.parametrize("command", ["run", "estimate"])
@pytest.mark.parametrize("setting,value", [("N", 2**32 - 1), ("T", 2**32)])
def test_index_range_bounds_exit_code(tmp_path, capsys, command, setting, value):
    # N + 1 and T are the ranges of the table-wide draws of Q and T', below 2**32
    args = [command, "--config", _cfg(tmp_path), "--out-dir", str(tmp_path / "o"),
            "--set", f"{setting}={value}"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"config error: {setting} must be an integer" in err and "Traceback" not in err


def test_huge_chain_exits_2_before_any_lane_set(tmp_path, capsys):
    # N = 10**8 would declare 3 * 10**8 lane sets for each step; the bound on
    # them stops the run at resolve_params, before a lane-set tuple is built
    import time
    from fedbilevel.hypergrad import aggitd_lanes
    before, t0 = aggitd_lanes.cache_info().misses, time.perf_counter()
    assert main(["run", "--set", "N=100000000", "--out-dir", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert aggitd_lanes.cache_info().misses == before
    err = capsys.readouterr().err
    assert "config error: N = 100000000, T = 100000000 and tau = 1 declare up to" in err
    assert "STEP_LANE_SETS = 65536" in err and "Traceback" not in err


# sha256 of estimate_trace.json as written when EstimatorTrace built its
# per-client dict in the estimator, before it was built on read
ESTIMATE_TRACE_SHA256 = {
    1.0: "68753e94e19117d3173d7096fb980c791f99eb2da089d23f9559cca25a1704d5",
    0.7: "8d18c26fed5d50ae12f3eadc8372e6365425bd9869752770fe3fd89a6c341cb2"}


@pytest.mark.parametrize("participation", [1.0, 0.7])
def test_estimate_trace_bytes_are_pinned(tmp_path, participation):
    import hashlib
    doc = {"problem": {"type": "quadratic", "d1": 3, "d2": 3, "m": 5, "mu": 1.0,
                       "L_g": 2.0, "seed": 4},
           "hetero": 0.4, "noise": {"spread": 0.1}, "K": 1, "N": 3, "seed": 9,
           "tau": [1, 3, 2, 1, 2], "participation": participation}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "estimate_trace.json").read_bytes()).hexdigest()
    assert got == ESTIMATE_TRACE_SHA256[participation]
