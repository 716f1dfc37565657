"""Demos 01-03 run in-process and print their headline results.

Demo 01 is also the one user of the instance JSON round trip, so its replayed
hypergradient must come out bit for bit.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,expect", [
    ("01_closed_forms_and_oracles", "hypergradient bit-identical = True"),
    ("02_estimator_anatomy", "rounds used: 14 (= 2N+2"),
    ("03_round_accounting", "fused:       2560 scalars in 130 rounds"),
])
def test_demo_prints(name, expect, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert expect in capsys.readouterr().out
