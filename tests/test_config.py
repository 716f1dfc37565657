"""Config parsing, validation, round-trips and sweeps."""

import json

import pytest

from fedbilevel import ConfigError, ParameterError
from fedbilevel.config import (config_from_dict, parse_config, serialize_config,
                               sweep)
from fedbilevel.drivers import RunConfig, build_problem, resolve_params, run
from fedbilevel.hyperrep import HyperRepSpec
from fedbilevel.quadratic import QuadraticSpec


def _write(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, {"problem": "quadratic", "K": 10}))
    assert isinstance(cfg.problem, QuadraticSpec)
    assert (cfg.N, cfg.T, cfg.lam, cfg.alpha, cfg.beta) == (None,) * 5
    N, T, lam, _, beta = resolve_params(cfg, build_problem(cfg).constants)
    assert (N, T) == (10, 10)  # ceil(kappa) for the default mu=1, L_g=10
    assert lam == pytest.approx(0.1)
    assert beta == pytest.approx(1 / 60)


def test_unset_fields_parse_to_none_and_round_trip():
    doc = {"problem": {"type": "quadratic", "d1": 3, "d2": 3, "m": 2, "mu": 0.5,
                       "L_g": 4.0}, "K": 9, "T": 3}
    cfg = config_from_dict(doc)
    assert (cfg.N, cfg.T, cfg.lam, cfg.alpha, cfg.beta) == (None, 3, None, None, None)
    again = serialize_config(cfg)
    assert (again["N"], again["lambda"], again["alpha"], again["beta"]) == (None,) * 4
    assert config_from_dict(json.loads(json.dumps(again))) == cfg


@pytest.mark.parametrize("problem,unset", [("quadratic", 1), ("hyperrep", 4)])
def test_batch_size_is_unset_or_taken_as_given(problem, unset):
    # an unset batch_size resolves against the problem being built; a set one,
    # below hyperrep's unset 4 too, is the one the problem draws
    cfg = config_from_dict({"problem": problem})
    assert cfg.batch_size is None and build_problem(cfg).batch_size == unset
    cfg = config_from_dict({"problem": problem, "batch_size": 2, "variant": "sgd"})
    assert (cfg.batch_size, cfg.variant) == (2, "sgd")
    assert build_problem(cfg).batch_size == 2
    assert config_from_dict(serialize_config(cfg)) == cfg


def test_null_is_the_default():
    from fedbilevel.config import FIELDS
    doc = {key: None for name, (key, _) in FIELDS.items() if name != "problem"}
    assert config_from_dict(doc) == RunConfig()


def test_string_keys_take_only_strings():
    for doc in ({"estimator": ["aid"]}, {"variant": {"x": 1}}, {"out_dir": 3},
                {"problem": {"type": "hyperrep", "partition": [1]}}):
        with pytest.raises(ConfigError, match="must be a string"):
            config_from_dict(doc)


def test_beta_cap_rejection_names_cap(tmp_path):
    doc = {"problem": {"type": "quadratic", "L_g": 10.0}, "K": 5, "beta": 0.2}
    with pytest.raises(ParameterError, match="1/\\(6 L_g\\)"):
        run(parse_config(_write(tmp_path, doc)))


def test_lambda_cap_rejection(tmp_path):
    doc = {"problem": {"type": "quadratic", "L_g": 10.0}, "K": 5, "lambda": 0.5}
    with pytest.raises(ParameterError, match="lambda"):
        run(parse_config(_write(tmp_path, doc)))


def test_default_beta_capped_at_explicit_lambda(tmp_path):
    # beta defaults to its cap at the lambda in use: lambda alone, set below
    # 1/(6 L_g), must not make the default beta violate its own cap
    doc = {"problem": {"type": "quadratic", "L_g": 10.0}, "K": 5, "lambda": 0.01}
    cfg = parse_config(_write(tmp_path, doc))
    _, _, lam, _, beta = resolve_params(cfg, build_problem(cfg).constants)
    assert (lam, beta) == (0.01, 0.01)


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(_write(tmp_path, {"K": 5, "momentum": 0.9}))


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"K": 5,\n  "seed": }')
    with pytest.raises(ConfigError, match=r"line 2 column"):
        parse_config(path)


def test_round_trip_identity(tmp_path):
    doc = {"problem": {"type": "quadratic", "d1": 4, "d2": 3, "m": 5},
           "estimator": "aid", "K": 7, "N": 3, "T": 2, "tau": 2,
           "participation": 0.5, "hetero": 0.4,
           "noise": {"mode": "finite-sum", "spread": 0.2}, "seed": 11}
    cfg = parse_config(_write(tmp_path, doc))
    again = config_from_dict(serialize_config(cfg))
    assert again == cfg


def test_round_trip_preserves_distinct_instance_seed(tmp_path):
    doc = {"problem": {"type": "quadratic", "seed": 5}, "K": 3, "seed": 9}
    cfg = parse_config(_write(tmp_path, doc))
    assert cfg.problem.seed == 5
    assert cfg.seed == 9
    assert config_from_dict(serialize_config(cfg)) == cfg


def test_hetero_and_noise_keys_reach_problem_spec(tmp_path):
    doc = {"problem": "quadratic", "K": 2, "hetero": 0.7,
           "noise": {"mode": "additive-gaussian", "std": 0.05}}
    cfg = parse_config(_write(tmp_path, doc))
    assert cfg.problem.hetero == 0.7
    assert cfg.problem.noise_mode == "additive-gaussian"
    assert cfg.problem.noise_std == 0.05


def test_hyperrep_problem_config(tmp_path):
    doc = {"problem": {"type": "hyperrep", "m": 3, "n_points": 120,
                       "classes": 3, "ridge": 0.2}, "K": 2}
    cfg = parse_config(_write(tmp_path, doc))
    assert isinstance(cfg.problem, HyperRepSpec)
    assert cfg.problem.ridge == 0.2


def test_bad_values_rejected(tmp_path):
    for doc in ({"K": -1}, {"participation": 0.0}, {"tau": 0},
                {"eval_every": 0}, {"problem": "mystery"},
                {"noise": {"mode": "poisson"}}):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, {"problem": "quadratic", **doc}))


def _fast_base():
    return {"problem": {"type": "quadratic", "d1": 2, "d2": 2, "m": 2,
                        "mu": 1.0, "L_g": 2.0},
            "K": 2, "seed": 3}


def test_sweep_grid(tmp_path):
    out = tmp_path / "cells"
    index = sweep(_fast_base(), {"tau": [1, 5]}, out)
    assert len(index) == 2
    assert all("tau=" in name for name in index)
    for fname in index.values():
        assert (out / fname).exists()
    idx_doc = json.loads((out / "index.json").read_text())
    assert idx_doc == index


def test_sweep_seeds_fixed_across_cells(tmp_path):
    out = tmp_path / "cells"
    index = sweep(_fast_base(), {"tau": [1, 2]}, out)
    # both cells ran with the same seed: identical initial row
    rows = []
    for fname in index.values():
        first = (out / fname).read_bytes().decode().splitlines()[2]
        rows.append(first)
    assert rows[0] == rows[1]


def test_sweep_errors(tmp_path):
    with pytest.raises(ParameterError):
        sweep(_fast_base(), {}, tmp_path)
    with pytest.raises(ParameterError):
        sweep(_fast_base(), {"tau": [1]}, tmp_path, overrides={"tau": 3})
    with pytest.raises(ParameterError):
        sweep(_fast_base(), {"warp": [1]}, tmp_path)
