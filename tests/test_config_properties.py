"""Property tests of the JSON run configuration: every valid ``RunConfig``
survives serialize -> parse, and every config document either runs or fails
with its documented exit code."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel.cli import main
from fedbilevel.config import CONFIG_KEYS, FIELDS, config_from_dict, serialize_config
from fedbilevel.drivers import RunConfig
from fedbilevel.hyperrep import HyperRepSpec
from fedbilevel.quadratic import QuadraticSpec

# Fixed before the first run. The documents of the run property set K = 1,
# N and T <= 4 (N always, so hyperrep's default N of about 1,500 is never
# resolved), at most 4 clients, dimensions <= 4, <= 4 samples per quadratic
# client and <= 120 hyperrep points. Junk is a small JSON value, its numbers
# in [-4, 4] or non-finite, so it never asks for a large size. out_dir stays
# out of the documents: the run writes to a temporary --out-dir.
FIXED = {"derandomize": True, "deadline": None, "database": None}

finite = st.floats(-1e3, 1e3, allow_nan=False)
words = st.text("ax λ/\\\"", max_size=3)   # a fixed alphabet needs no Unicode table
positive = st.floats(1e-3, 10.0)
nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
scalar = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4.0, 4.0) | nonfinite | words
junk = scalar | st.lists(scalar, max_size=2) | st.dictionaries(words, scalar, max_size=2)


def test_fields_table_lists_every_run_config_field():
    # each JSON key is its field's name, except lambda for lam
    from dataclasses import fields
    assert list(FIELDS) == [f.name for f in fields(RunConfig)]
    assert {name: key for name, (key, _) in FIELDS.items() if key != name} == {"lam": "lambda"}
    assert CONFIG_KEYS - {key for key, _ in FIELDS.values()} == {"hetero", "noise"}


quadratic_specs = st.builds(
    QuadraticSpec, d1=st.integers(1, 4), d2=st.integers(1, 4), m=st.integers(1, 4),
    n_per_client=st.integers(1, 4), mu=positive, L_g=positive,
    hetero=st.floats(0.0, 1.0), noise_mode=st.sampled_from(["finite-sum",
                                                            "additive-gaussian"]),
    noise_spread=st.floats(0.0, 1.0), noise_std=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32), coupling=finite, lin_scale=finite)
hyperrep_specs = st.builds(
    HyperRepSpec, embed_dim=st.integers(1, 4), feature_dim=st.integers(1, 4),
    classes=st.integers(1, 4), ridge=positive,
    partition=st.sampled_from(["iid", "label-skew"]), shards_per_client=st.integers(1, 3),
    m=st.integers(1, 4), n_points=st.integers(100, 400),
    test_fraction=st.floats(0.01, 0.99))


@st.composite
def run_configs(draw):
    spec = draw(quadratic_specs | hyperrep_specs)
    maybe = lambda s: draw(st.none() | s)   # noqa: E731
    return RunConfig(
        problem=spec, estimator=draw(st.sampled_from(["aggitd", "aid", "local"])),
        K=draw(st.integers(0, 10**6)), N=maybe(st.integers(0, 10**4)),
        T=maybe(st.integers(1, 10**4)), lam=maybe(positive), alpha=maybe(positive),
        beta=maybe(positive),
        tau=draw(st.integers(1, 5) | st.lists(st.integers(1, 5), min_size=spec.m,
                                              max_size=spec.m)),
        variant=draw(st.sampled_from(["svrg", "sgd"])),
        participation=draw(st.floats(0.01, 1.0)), seed=draw(st.integers(0, 2**40)),
        eval_every=draw(st.integers(1, 100)), batch_size=maybe(st.integers(1, 64)),
        out_dir=maybe(words))


@settings(max_examples=50, **FIXED)
@given(run_configs())
def test_parse_of_serialize_is_identity(cfg):
    doc = json.loads(json.dumps(serialize_config(cfg)))
    assert config_from_dict(doc) == cfg


def _some(draw, target: dict, options: dict) -> dict:
    """target with each key of options left out or drawn from its strategy."""
    for key, strategy in options.items():
        if draw(st.booleans()):
            target[key] = draw(strategy)
    return target


BAD = {"problem": st.sampled_from(["x", {"type": "x"}, {"type": "quadratic", "mystery": 1}]),
       "K": st.sampled_from([-1, 2.5]), "N": st.just(-1), "T": st.just(0),
       "lambda": st.sampled_from([0.0, -1.0, 1e3]) | nonfinite,
       "alpha": st.sampled_from([0.0, 1e6]) | nonfinite, "beta": st.sampled_from([0.9, 0.0]),
       "estimator": st.just("x"), "variant": st.just("x"), "tau": st.just(0),
       "participation": st.sampled_from([0.0, 1.5]), "batch_size": st.sampled_from([0, 2.5]),
       "seed": st.sampled_from([-1, 2**70]), "eval_every": st.just(0),
       "hetero": st.sampled_from([-0.5, 2.0]),
       "noise": st.sampled_from([{"mode": "x"}, {"spread": -1.0}, {"std": math.nan}])}


@st.composite
def documents(draw):
    """Valid settings, each key present or not; then, half the time, one
    top-level key or problem field set to a bad value or junk."""
    m = draw(st.integers(1, 4))
    dims = st.integers(1, 4)
    if draw(st.booleans()):
        problem = _some(draw, {"type": "quadratic", "m": m}, {
            "d1": dims, "d2": dims, "n_per_client": dims,
            "mu": st.sampled_from([0.5, 1.0]), "L_g": st.sampled_from([1.0, 2.0]),
            "hetero": st.floats(0.0, 1.0), "noise_spread": st.floats(0.0, 0.5),
            "noise_std": st.floats(0.0, 0.5),
            "noise_mode": st.sampled_from(["finite-sum", "additive-gaussian"])})
        quadratic_only = {"hetero": st.floats(0.0, 1.0), "noise": st.fixed_dictionaries(
            {}, optional={"mode": st.sampled_from(["finite-sum", "additive-gaussian"]),
                          "spread": st.floats(0.0, 0.5), "std": st.floats(0.0, 0.5)})}
    else:
        problem = _some(draw, {"type": "hyperrep", "m": m, "n_points": draw(st.integers(20, 120)),
                               "embed_dim": draw(dims), "feature_dim": draw(dims)}, {
            "classes": dims, "ridge": st.floats(0.05, 1.0),
            "partition": st.sampled_from(["iid", "label-skew"]),
            "shards_per_client": st.integers(1, 2), "test_fraction": st.floats(0.1, 0.5)})
        quadratic_only = {}
    doc = _some(draw, {"problem": problem, "K": 1, "N": draw(st.integers(0, 4))}, {
        "T": st.integers(1, 4), "estimator": st.sampled_from(["aggitd", "aid", "local"]),
        "lambda": st.floats(1e-3, 0.02), "alpha": st.floats(1e-3, 1.0),
        "beta": st.floats(1e-4, 1e-3),
        "tau": st.integers(1, 3) | st.lists(st.integers(1, 3), min_size=m, max_size=m),
        "variant": st.sampled_from(["svrg", "sgd"]), "participation": st.floats(0.1, 1.0),
        "batch_size": st.none() | st.integers(1, 5), "seed": st.integers(0, 2**64),
        "eval_every": st.integers(1, 2), **quadratic_only})
    if draw(st.booleans()):
        target, key = draw(st.sampled_from(
            [(doc, k) for k in sorted(BAD)] + [(problem, k) for k in sorted(problem)]))
        bad = BAD.get(key, nonfinite | st.sampled_from([0, -1])) | junk
        # a null K or N is the default, which the bounds above leave out
        target[key] = draw(bad.filter(lambda v: v is not None) if key in ("K", "N") else bad)
    return doc


@settings(max_examples=100, **FIXED)
@given(documents())
def test_every_document_runs_or_exits_with_its_code(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["run", "--config", path, "--out-dir", os.path.join(tmp, "o")])
    # the one warning a run may give: a zero gradient norm on the SVG's log axis
    assert all(str(w.message).startswith("log-scale clamped") for w in caught)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(("config error", "numerical divergence"))
