"""CLI surface: subcommands, exit codes, byte-determinism."""

import json

import pytest

from fedbilevel.cli import main


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


# (--set overrides on the base config, expected exit code)
BAD_CONFIGS = [
    (['beta=0.9'], 2),
    (['K="abc"'], 2),
    (['tau=["a"]'], 2),
    (['participation="x"'], 2),
    (['noise={"spread": "x"}'], 2),
    (['problem={"type": "quadratic", "d1": "x"}'], 2),
    (['problem={"type": "quadratic", "mystery": 1}'], 2),
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


def test_divergence_exit_code(tmp_path):
    assert main(["run", "--config", _cfg(tmp_path, {"alpha": 1e7, "K": 40}),
                 "--out-dir", str(tmp_path / "o")]) == 3


def test_verify_battery(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


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
    # the default hyperrep stepsizes break the built instance's lambda cap
    assert main(["run", "--set", 'problem="hyperrep"',
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "lambda" in err
    assert "Traceback" not in err


def test_estimate_starts_from_initial_point(tmp_path, capsys):
    # the hyperrep origin is a saddle where the hypergradient vanishes
    rc = main(["estimate", "--set", 'problem="hyperrep"', "--set", "lambda=0.005",
               "--set", "beta=0.0005", "--set", "N=2", "--out-dir", str(tmp_path)])
    assert rc == 0
    norm = float(capsys.readouterr().out.split("||h||=")[1].split()[0])
    assert norm > 0
