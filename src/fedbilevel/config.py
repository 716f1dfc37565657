"""JSON run configuration: parsing, validation, serialization and sweeps.

Schema (every key is optional; unknown keys are rejected):

    problem        "quadratic" | "hyperrep" | {"type": ..., <spec fields>}
    estimator      "aggitd" | "aid" | "local"
    K, N, T        integers (N, T default from the condition number)
    lambda         Neumann stepsize; must satisfy lambda <= min{10, 1/L_g}
    alpha, beta    stepsizes; beta must satisfy beta <= min{1, lambda, 1/(6 L_g)}
    tau            local step count (int or per-client list)
    variant        One-Round-Lower's local steps: "svrg" | "sgd"
    participation  ratio in (0, 1]
    batch_size     samples per oracle row, integer >= 1 (unset: 1 quadratic, 4 hyperrep)
    hetero         heterogeneity scale in [0, 1] (quadratic only)
    noise          {"mode": "finite-sum"|"additive-gaussian", "spread": s, "std": s}, s >= 0
                   (quadratic only)
    seed, eval_every, out_dir

Each key but hetero and noise is a ``RunConfig`` field, listed once in
``FIELDS``; a null value is the field's default. Unset N, T, stepsizes and
batch_size stay None in the parsed config and round-trip as null. A run fills
them, and checks explicit ones, against the built problem before its first
step (``drivers.build_problem`` and ``drivers.resolve_params``), so ``sweep``
resolves them per cell.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os

from .drivers import RunConfig, run
from .errors import ConfigError, ParameterError, ProtocolError
from .hyperrep import HyperRepSpec
from .problems import NOISE_FINITE_SUM, NOISE_GAUSSIAN
from .quadratic import QuadraticSpec
from .reporting import export_csv

# RunConfig field -> (its JSON key, its cast): the one list of run settings
# that parsing, writing and the key checks read; the problem has its own parser
FIELDS = {"problem": ("problem", None), "estimator": ("estimator", str),
          "K": ("K", int), "N": ("N", int), "T": ("T", int), "lam": ("lambda", float),
          "alpha": ("alpha", float), "beta": ("beta", float), "tau": ("tau", int),
          "variant": ("variant", str), "participation": ("participation", float),
          "seed": ("seed", int), "eval_every": ("eval_every", int),
          "batch_size": ("batch_size", int), "out_dir": ("out_dir", str)}
CONFIG_KEYS = {key for key, _ in FIELDS.values()} | {"hetero", "noise"}


def _cast(key: str, value, cast):
    """value converted by cast (int, float or str), or a ConfigError naming the key.

    Booleans are rejected, an int key takes a float only when it is integral
    (3.0 gives 3; 2.5 is an error, not a silent truncation), and a str key
    takes only a string.
    """
    if cast is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
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
    return cls(**{k: _cast(k, v, types[k]) for k, v in fields.items()})


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
    seed = doc.get("seed")
    fields.setdefault("seed", 0 if seed is None else seed)
    return _build_spec(QuadraticSpec, kind, fields)


def _value(key: str, value, cast):
    if key == "tau" and isinstance(value, list):
        return [_cast(key, t, cast) for t in value]
    return _cast(key, value, cast)


def config_from_dict(doc: dict) -> RunConfig:
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given = {name: _value(key, doc[key], cast) for name, (key, cast) in FIELDS.items()
             if name != "problem" and doc.get(key) is not None}
    try:
        return RunConfig(problem=_problem_spec(doc), **given)
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
    """JSON document of cfg as written, unset fields as null; parse(serialize(cfg)) == cfg.

    The problem object holds every spec field, so a quadratic's hetero, noise
    and instance seed (which may differ from the run seed) stay inside it."""
    doc = {key: getattr(cfg, name) for name, (key, _) in FIELDS.items()}
    kind = "quadratic" if isinstance(cfg.problem, QuadraticSpec) else "hyperrep"
    doc["problem"] = {"type": kind, **dataclasses.asdict(cfg.problem)}
    if not isinstance(cfg.tau, int):
        doc["tau"] = list(cfg.tau)
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
