"""The benchmark harness (perfbench/workloads.py and tracer.py) runs on the
library as it stands: every workload builds, gives the same outputs traced
and untraced, and passes its own checks over one whole repetition."""

import contextlib

import pytest

import fedbilevel

from conftest import perfbench_module


def _ops(ops):
    """What the benchmark compares across repetitions, one tuple per operation."""
    return [(op.kind, op.iters, op.rounds, op.loops, op.scalars, op.output) for op in ops]


@pytest.mark.parametrize("name", ["race", "mc_estimate", "hyperrep"])
def test_workload_runs_traced_and_passes_its_checks(name):
    workloads, tracer = perfbench_module("workloads"), perfbench_module("tracer")
    w = workloads.WORKLOADS[name]()
    seed = workloads.derive_seed(0)
    traced = tracer.Tracer(fedbilevel, "test")
    runs, audits = [], []
    for spans in (contextlib.nullcontext(), traced):
        inputs = w.build(seed)
        with spans:
            runs.append(w.run(inputs, seed, short=True))
        audits.append(inputs["problem"].audit.total)
    assert [f for op in runs[0] + runs[1] for f in op.failures] == []
    assert _ops(runs[1]) == _ops(runs[0]) and audits[1] == audits[0]
    assert traced.table()["problems.grad_lower_y"]["calls"] > 0
    inputs = w.build(seed)
    ops = w.run(inputs, seed)
    assert [f for op in ops for f in op.failures] + w.check(inputs, ops) == []
