"""JSON run configuration: parsing, validation, serialization and sweeps.

Schema (every key is optional; unknown keys are rejected):

    problem        "quadratic" | "hyperrep" | {"type": ..., <spec fields>}
    estimator      "aggitd" | "aid" | "local"
    K, N, T        integers (N, T default from the condition number)
    lambda         Neumann stepsize; must satisfy lambda <= min{10, 1/L_g}
    alpha, beta    stepsizes; beta must satisfy beta <= min{1, lambda, 1/(6 L_g)}
    tau            local step count (int or per-client list)
    participation  ratio in (0, 1]
    hetero         heterogeneity scale in [0, 1] (quadratic only)
    noise          {"mode": "finite-sum"|"additive-gaussian", "spread": s, "std": s}, s >= 0
                   (quadratic only)
    seed, eval_every, out_dir

Unset N, T and stepsizes stay None in the parsed config and round-trip as
null. A run fills them, and checks explicit ones, with ``drivers.resolve_params``
against the built problem's constants before its first step, so ``sweep``
resolves them per cell.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

from .drivers import ESTIMATOR_AGGITD, RunConfig, run
from .errors import ConfigError, ParameterError, ProtocolError
from .hyperrep import HyperRepSpec
from .problems import NOISE_FINITE_SUM, NOISE_GAUSSIAN
from .quadratic import QuadraticSpec
from .reporting import export_csv

CONFIG_KEYS = {"problem", "estimator", "K", "N", "T", "lambda", "alpha", "beta",
               "tau", "participation", "hetero", "noise", "seed", "eval_every",
               "out_dir"}


def _cast(key: str, value, cast):
    """value converted by cast (int or float), or a ConfigError naming the key.

    Booleans are rejected, and an int key takes a float only when it is
    integral (3.0 gives 3; 2.5 is an error, not a silent truncation).
    """
    kind = "an integer" if cast is int else "a number"
    try:
        if isinstance(value, bool):
            raise TypeError("booleans are not numbers here")
        out = cast(value)
        if cast is int and isinstance(value, float) and out != value:
            raise ValueError("not integral")
        return out
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from exc


def _build_spec(cls, kind: str, fields: dict):
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    unknown = sorted(set(fields) - set(types))
    if unknown:
        raise ConfigError(f"bad {kind} problem field(s): {unknown}")
    return cls(**{k: _cast(k, v, types[k]) if types[k] in (int, float) else v
                  for k, v in fields.items()})


def _problem_spec(doc: dict):
    raw = doc.get("problem", "quadratic")
    if isinstance(raw, str):
        raw = {"type": raw}
    if not isinstance(raw, dict):
        raise ConfigError("problem must be a string or an object")
    kind = raw.get("type", "quadratic")
    fields = {k: v for k, v in raw.items() if k != "type"}
    if kind == "hyperrep":
        for key in sorted({"hetero", "noise"} & set(doc)):
            raise ConfigError(f"{key} does not apply to a hyperrep problem")
        return _build_spec(HyperRepSpec, kind, fields)
    if kind != "quadratic":
        raise ConfigError(f"unknown problem type {kind!r}")
    noise = doc.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError("noise must be an object with mode/spread/std")
    mode = noise.get("mode", NOISE_FINITE_SUM)
    if mode not in (NOISE_FINITE_SUM, NOISE_GAUSSIAN):
        raise ConfigError(f"unknown noise mode {mode!r}")
    if "hetero" in doc:
        fields["hetero"] = doc["hetero"]
    if "noise" in doc:
        fields["noise_mode"] = mode
        fields.update({f"noise_{k}": v for k, v in noise.items() if k in ("spread", "std")})
    fields.setdefault("seed", doc.get("seed", 0))
    return _build_spec(QuadraticSpec, kind, fields)


def _opt(doc: dict, key: str, cast, default=None):
    return _cast(key, doc[key], cast) if doc.get(key) is not None else default


def config_from_dict(doc: dict) -> RunConfig:
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    spec = _problem_spec(doc)
    tau = doc.get("tau", 1)
    tau = [_cast("tau", t, int) for t in tau] if isinstance(tau, list) else _opt(doc, "tau", int, 1)
    try:
        return RunConfig(problem=spec, estimator=doc.get("estimator", ESTIMATOR_AGGITD),
                         K=_opt(doc, "K", int, 100), N=_opt(doc, "N", int),
                         T=_opt(doc, "T", int), lam=_opt(doc, "lambda", float),
                         alpha=_opt(doc, "alpha", float), beta=_opt(doc, "beta", float),
                         tau=tau, participation=_opt(doc, "participation", float, 1.0),
                         seed=_opt(doc, "seed", int, 0),
                         eval_every=_opt(doc, "eval_every", int, 1),
                         out_dir=doc.get("out_dir"))
    except (ParameterError, ProtocolError) as exc:
        raise ConfigError(str(exc)) from exc


def load_doc(path) -> dict:
    """Read a JSON config file whose root must be an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object in {path}")
    return doc


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    return config_from_dict(load_doc(path))


def serialize_config(cfg: RunConfig) -> dict:
    """JSON document of cfg as written, unset fields as null; parse(serialize(cfg)) == cfg."""
    if isinstance(cfg.problem, QuadraticSpec):
        pf = dataclasses.asdict(cfg.problem)
        noise = {"mode": pf.pop("noise_mode"), "spread": pf.pop("noise_spread"),
                 "std": pf.pop("noise_std")}
        hetero = pf.pop("hetero")
        # the instance seed stays inside the problem object: it may legitimately
        # differ from the run seed when set explicitly
        doc_problem = {"type": "quadratic", **pf}
    else:
        doc_problem = {"type": "hyperrep", **dataclasses.asdict(cfg.problem)}
        noise = None
        hetero = None
    doc = {
        "problem": doc_problem,
        "estimator": cfg.estimator,
        "K": cfg.K, "N": cfg.N, "T": cfg.T,
        "lambda": cfg.lam, "alpha": cfg.alpha, "beta": cfg.beta,
        "tau": cfg.tau if isinstance(cfg.tau, int) else list(cfg.tau),
        "participation": cfg.participation,
        "seed": cfg.seed, "eval_every": cfg.eval_every,
    }
    if hetero is not None:
        doc["hetero"] = hetero
    if noise is not None:
        doc["noise"] = noise
    if cfg.out_dir is not None:
        doc["out_dir"] = cfg.out_dir
    return doc


def apply_overrides(doc: dict, overrides: dict) -> dict:
    """Merge --set style overrides into a raw config document."""
    out = dict(doc)
    for key, value in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        out[key] = value
    return out


def parse_set_args(pairs) -> dict:
    """Parse key=value strings; values are JSON when possible, else strings."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def sweep(base_doc: dict, grid: dict, out_dir, overrides: dict | None = None) -> dict:
    """Run the Cartesian product of grid overrides; one CSV per cell.

    Returns the cell -> file index, which is also written last as index.json.
    Seeds stay fixed across cells unless the grid itself varies them.
    """
    if not grid:
        raise ParameterError("sweep grid must be nonempty")
    overrides = overrides or {}
    clash = set(grid) & set(overrides)
    if clash:
        raise ParameterError(f"grid keys conflict with overrides: {sorted(clash)}")
    for key in grid:
        if key not in CONFIG_KEYS:
            raise ParameterError(f"unknown grid key {key!r}")

    os.makedirs(out_dir, exist_ok=True)
    keys = sorted(grid)
    index = {}
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = {k: v for k, v in zip(keys, combo)}
        doc = apply_overrides(apply_overrides(base_doc, overrides), cell)
        cfg = config_from_dict(doc)
        label = "__".join(f"{k}={json.dumps(v)}" for k, v in cell.items())
        fname = "run__" + label.replace('"', "").replace(" ", "") + ".csv"
        report = run(cfg)
        export_csv(report, os.path.join(out_dir, fname))
        index[label] = fname
    with open(os.path.join(out_dir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    return index
