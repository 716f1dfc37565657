"""Source hygiene of the package modules, checked with the standard ast
module, and the dependencies a run loads."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedbilevel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    # each name an import binds is read somewhere in its module, so a deletion
    # leaves no import behind; __init__.py is left out, its imports being the
    # package's exports
    tree = ast.parse(path.read_text())
    bound = {(a.asname or a.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - read) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_stdlib_numpy_or_relative(path):
    # numpy is the one third-party dependency, so a run loads one BLAS, numpy's
    tree = ast.parse(path.read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    top = {name.split(".")[0] for name in names}
    assert sorted(top - sys.stdlib_module_names - {"numpy"}) == []


def _dotted(node) -> str:
    """The dotted name of a Name/Attribute/Call chain, such as "np.random.normal"
    or "RngStream().child().generator"."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{_dotted(node.func)}()"
    return node.id if isinstance(node, ast.Name) else "?"


def _generator_uses(tree) -> list:
    """(line, name) of each call to default_rng, to np.random.* or to a
    .generator() method, and of each import from numpy.random, outside the
    body of RngStream.generator."""
    exempt = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "RngStream"
              for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "generator"
              for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if (name.split(".")[-1] in ("default_rng", "generator")
                    or name.startswith(("np.random.", "numpy.random."))):
                found.append((node.lineno, name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            found += [(node.lineno, n) for n in names if n.startswith("numpy.random")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_generator_on_library_paths(path):
    # every library draw is a keyed lane draw (rng's hash), so no module calls
    # a numpy Generator; RngStream.generator is kept for callers outside src
    assert _generator_uses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_matrix_inverse_on_library_paths(path):
    # LAPACK inv runs over threaded level-3 BLAS, so its last bits depend on
    # the BLAS thread count; the inverse of A_bar is built from one eigh
    calls = [(node.lineno, _dotted(node.func)) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    assert [c for c in calls if c[1] in ("np.linalg.inv", "numpy.linalg.inv")] == []


@pytest.mark.parametrize("name", ["hypergrad.py", "lower.py"])
def test_estimators_import_no_problem_module(name):
    # the estimators and local phases read only the oracle contract; the
    # quadratic closed-form references live in oracle.py
    tree = ast.parse((SRC / name).read_text())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    modules |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    assert sorted(modules & {"quadratic", "hyperrep", "fedbilevel.quadratic",
                             "fedbilevel.hyperrep"}) == []


_NO_SCIPY_SCRIPT = """
import sys
from fedbilevel.cli import main
out = sys.argv[1]
assert main(["run", "--set", "K=2", "--out-dir", out]) == 0
assert main(["run", "--set", 'problem="hyperrep"', "--set", "K=1", "--set", "N=4",
             "--out-dir", out]) == 0
assert main(["estimate", "--out-dir", out]) == 0
print("loaded:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_load_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "loaded:"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lane_tables_are_private_to_rng(path):
    # RngStream is the one scope type: a lane table's step is a stream, so
    # no module but rng names the table class or a second stream type
    if path.name != "rng.py":
        assert re.findall(r"\b(?:LaneTable|TableStream)\b", path.read_text()) == []


@pytest.mark.parametrize("name", ["drivers.py", "hypergrad.py", "lower.py"])
def test_estimators_read_no_table_internals(name):
    # the estimators and local phases draw through RngStream and Lanes only
    # (Q and T' as rng.child(...).index(...)): they read no stream's table,
    # path below its step or step number, and name no table draw
    text = (SRC / name).read_text()
    read = {node.attr for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)}
    assert sorted(read & {"table", "path", "s"}) == []
    assert "step_index" not in text


def _callers(*tail) -> set:
    """module.function (module.Class.method) around each call, in every
    package module, whose dotted callee ends in the names tail."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        defs = [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                for f in c.body if isinstance(f, ast.FunctionDef)]
        defs += [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and tuple(_dotted(node.func).split("."))[-len(tail):] == tail):
                name = next((n for n, f in defs if f.lineno <= node.lineno <= f.end_lineno),
                            "<module>")
                found.add(f"{path.stem}.{name}")
    return found


def test_charges_without_a_payload_stay_in_two_places():
    # a round is charged by aggregating its payloads, and samples by an
    # oracle's audit; only the AID chain past T' charges rounds it does not
    # compute, a local phase whose clients all take one step charges the round
    # whose mean it knows (their common iterate) without averaging copies, and
    # only the AID chain and the cancelling svrg pair of a local phase charge
    # samples they do not draw
    assert _callers("record_round") == {"runtime.aggregate_mean", "hypergrad.aid_fhe",
                                        "lower._local_phase"}
    assert {c for c in _callers("audit", "record") if not c.startswith("problems.")} == {
        "lower._local_phase", "hypergrad.aid_fhe"}


def _sizes_against_m(tree) -> list:
    """Lines of comparisons that read a size (a .shape, a .size or a len())
    and a client count (m or an .m attribute)."""
    def reads(node, test):
        return any(test(n) for n in ast.walk(node))

    def is_m(n):
        return (isinstance(n, ast.Name) and n.id == "m"
                or isinstance(n, ast.Attribute) and n.attr == "m")

    def is_size(n):
        return (isinstance(n, ast.Attribute) and n.attr in ("shape", "size")
                or isinstance(n, ast.Call) and _dotted(n.func) == "len")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and reads(node, is_m) and reads(node, is_size)]


@pytest.mark.parametrize("name", ["quadratic.py", "hyperrep.py"])
def test_kernels_take_the_rows_the_oracles_pick(name):
    # BilevelProblem._audit picks a call's client rows once, a full slice for
    # the problem's own ids, so no kernel guesses the full set by comparing a
    # call's id count with m
    assert _sizes_against_m(ast.parse((SRC / name).read_text())) == []


def test_readme_names_resolve():
    # every backticked dotted name in README.md that starts with a package
    # module, such as `rng.ROW_BUDGET` or `drivers.Evaluator.record`, or with
    # a class a package module binds, such as `RngStream.declare`, names
    # something that module or class has, so the README names no deleted object
    import functools
    import importlib
    heads = {p.stem: importlib.import_module(f"fedbilevel.{p.stem}") for p in MODULES
             if p.stem != "__main__"}   # importing __main__ would run the CLI
    heads = {**{name: obj for module in heads.values() for name, obj in vars(module).items()
                if isinstance(obj, type)}, **heads}
    readme = (SRC.parents[1] / "README.md").read_text()
    names = [n for n in re.findall(r"`(\w+(?:\.\w+)+)`", readme) if n.split(".")[0] in heads]
    missing = []
    for name in names:
        head, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, heads[head])
        except AttributeError:
            missing.append(name)
    assert len(names) > 8 and missing == []
