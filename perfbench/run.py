"""fedbilevel benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload race --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed amount of the workload twice, untraced and then
with every layer wrapped by ``perfbench/tracer.py``, checks that both runs
give identical outputs, and reports the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Details (provenance, per-kind step statistics, the full span table) go to
``perfbench/out/``. ``--workload all`` runs each workload in its own process
and ends with one combined result line, correct only if every workload is.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, set before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("race", "mc_estimate", "hyperrep")
CHILD_TIMEOUT_S = 180


def _import_library():
    """Import fedbilevel from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "fedbilevel", "__init__.py")):
        sys.stderr.write(f"benchmark: no fedbilevel sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fedbilevel
    if os.path.dirname(os.path.dirname(os.path.abspath(fedbilevel.__file__))) != SRC:
        sys.stderr.write(f"benchmark: imported fedbilevel from {fedbilevel.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    return fedbilevel


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fedbilevel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, fb) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "fedbilevel": fb.__version__,
        "src_sha256": _src_digest(),
    }


# -- measurement helpers -------------------------------------------------------

def _quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _median(values) -> float:
    return _quantile(values, 0.5)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Rep:
    """What one repetition leaves behind once checked: its outputs are dropped,
    so the memory a run keeps hardly grows with the number of repetitions."""

    attempted: int
    failed: int
    failures: list         # messages
    counts: dict
    steps: object          # numpy (steps, 2): seconds, burst seconds of each timed step


DIFFERS = "outputs differ from the first repetition"


def _same_outputs(a_ops, b_ops) -> bool:
    key = (lambda op: (op.kind, op.iters, op.rounds, op.loops, op.scalars, op.output))
    return len(a_ops) == len(b_ops) and all(key(a) == key(b) for a, b in zip(a_ops, b_ops))


def _repeat(w, seed, reps=None, seconds=None, reference=None) -> tuple[list, list]:
    """Build and run the seed's work ``reps`` times, or until ``seconds`` pass.

    Every repetition rebuilds the inputs and must give the same outputs as
    ``reference``, the operations of the first repetition. Returns the
    repetitions and the reference.
    """
    import numpy as np
    from workloads import derive_seed
    s = derive_seed(seed)
    out = []
    start = time.perf_counter()
    while True:
        try:
            inputs = w.build(s)
            ops = w.run(inputs, s)
            failures = [f for op in ops for f in op.failures]
            run_failures = w.check(inputs, ops)
            if reference is None:
                reference = ops
            elif not _same_outputs(reference, ops):
                run_failures.append(DIFFERS)
            counts = {"runtime.rounds": sum(op.rounds for op in ops),
                      "runtime.loops": sum(op.loops for op in ops),
                      "runtime.scalars_sent": sum(op.scalars for op in ops),
                      "problems.samples": inputs["problem"].audit.total}
            steps = np.array([st for op in ops for st in op.steps], dtype=float).reshape(-1, 2)
            out.append(Rep(len(ops), sum(1 for op in ops if op.failures) + len(run_failures),
                           failures + run_failures, counts, steps))
        except Exception as exc:  # a raised error counts as a failed operation
            out.append(Rep(1, 1, [f"{type(exc).__name__}: {exc}"], {}, None))
        if reps is not None and len(out) >= reps:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return out, reference


def _warm_up(w, seed) -> float:
    """First build and a short run: imports and lazy set-up, not timed."""
    from workloads import derive_seed
    t0 = time.perf_counter()
    w.run(w.build(derive_seed(seed)), derive_seed(seed), short=True)
    return time.perf_counter() - t0


# -- end-to-end measurement ----------------------------------------------------

def measure(w, seed: int, seconds: float, fb) -> dict:
    """Time every step of every repetition at the reference machine speed.

    Each step's time is scaled by the calibration burst measured next to it
    (see ``clock.py``), then the median over repetitions is taken per step.
    Set-up is sampled by the clock after each burst and scaled the same way.
    """
    import numpy as np
    from clock import StepClock
    from workloads import derive_seed
    clock = StepClock()
    clock.warm_up()
    cold_s = _warm_up(w, seed)
    w.clock = clock.hook(fb.runtime.CommLedger)
    clock.setup = lambda: w.build(derive_seed(seed))
    start = time.perf_counter()
    try:
        reps, ref = _repeat(w, seed, reps=1)
        # read after a fixed amount of work, so a faster library that fits
        # more repetitions into the run does not read as a larger one
        peak_rss_mb = _peak_rss_mb()
        more, ref = _repeat(w, seed, seconds=seconds - (time.perf_counter() - start),
                            reference=ref)
        reps += more
    finally:
        clock.unhook()
        w.clock = None
    timed = [r for r in reps if r.steps is not None]
    if not timed:
        raise SystemExit("benchmark: every repetition raised: "
                         + "; ".join(f for r in reps for f in r.failures)[:2000])
    layout = [(op.kind, op.rounds / op.iters, len(op.steps)) for op in ref]
    steps = np.stack([r.steps for r in timed])   # (repetitions, steps, 2)
    raw = steps[:, :, 0]
    scaled = raw * (clock.reference_s / steps[:, :, 1])   # step times at the reference speed
    typical = np.median(scaled, axis=0)          # each step: median over repetitions
    kind = np.array([k for k, _, n in layout for _ in range(n)])
    step_rounds = np.array([rnd for _, rnd, n in layout for _ in range(n)])
    setups = np.array(clock.setups)
    scaled_setups = setups[:, 0] * (clock.reference_s / setups[:, 1])

    metrics = {
        "setup_s": (_median(scaled_setups), "s", len(scaled_setups)),
        "iters_per_s": (typical.size / typical.sum(), "1/s", raw.size),
        "rounds_per_s": (step_rounds.sum() / typical.sum(), "1/s", raw.size),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    detail = {
        "cold_setup_s": cold_s, "repetitions": len(reps), "timed_repetitions": len(timed),
        "steps_per_repetition": int(typical.size), "bursts": len(clock.bursts),
        "machine_factor": clock.machine_factor(),
        "raw.setup_s": _median(setups[:, 0]),
        "raw.iters_per_s": typical.size / float(np.median(raw, axis=0).sum()),
        "kinds": {},
    }
    for name in sorted(set(kind)):
        sel = kind == name
        flat = scaled[:, sel].ravel()
        detail["kinds"][name] = {
            "steps": int(flat.size),
            "step_ms.p10": 1e3 * _quantile(flat, 0.1),
            "step_ms.p50": 1e3 * _median(flat),
            "step_ms.p90": 1e3 * _quantile(flat, 0.9),
            "step_ms.p99": 1e3 * _quantile(flat, 0.99),
            "iters_per_s": int(sel.sum()) / float(typical[sel].sum()),
            "raw.iters_per_s": int(sel.sum()) / float(np.median(raw[:, sel], axis=0).sum()),
        }
    detail.update(w.describe())
    return {"reps": reps, "metrics": metrics, "detail": detail}


# -- traced run ----------------------------------------------------------------

LAYER_TIMES = ("rng.generator", "problems.grad_lower_y", "problems.grad_upper_x",
               "problems.grad_upper_y", "problems.hvp_lower_yy", "problems.jvp_lower_xy",
               "runtime.aggregate_mean", "lower.one_round_lower", "hypergrad.aggitd")
LAYER_CALLS = LAYER_TIMES[:7] + (
    "runtime.select_participants", "lower.one_round_lower", "hypergrad.aggitd",
    "hypergrad.aid_fhe", "hypergrad.local_fhe", "drivers.one_round_upper",
    "drivers.Evaluator.record", "drivers.Evaluator.hypergradient",
    "hyperrep.solve_head_exact", "hyperrep.hypergradient_numeric",
    "quadratic.make_problem", "hyperrep.make_hyperrep", "oracle.measure_constants")
SETUP_LAYERS = ("quadratic.make_problem", "hyperrep.make_hyperrep", "oracle.measure_constants")
EXACT_COUNTS = ("runtime.rounds", "runtime.loops", "runtime.scalars_sent", "problems.samples")
DRIVER_LOOPS = ("drivers.run_fbo_aggitd", "drivers.run_fednest_baseline", "drivers.run")


def trace(w, seed: int, seconds: float, fb) -> dict:
    """Run the same repetitions untraced and traced in turn; report per-layer metrics."""
    from tracer import Tracer
    _warm_up(w, seed)
    count = max(1, int(seconds / (3.0 * w.rep_seconds)))
    tracer = Tracer(fb, f"{w.name}-{seed}-{os.getpid()}-{time.time_ns()}")
    untraced, reps, ref = [], [], None
    untraced_s = traced_s = 0.0
    for _ in range(count):   # alternate, so both sides see the same machine speed
        t0 = time.perf_counter()
        done, ref = _repeat(w, seed, reps=1, reference=ref)
        untraced += done
        untraced_s += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            done, ref = _repeat(w, seed, reps=1, reference=ref)
            reps += done
            traced_s += time.perf_counter() - t0
    # every repetition was compared with the first untraced one's outputs
    identical = all(DIFFERS not in r.failures and r.counts == untraced[0].counts
                    for r in untraced + reps)
    if not identical:
        reps[0].failures.append("traced outputs or counts differ from the untraced run")
        reps[0].failed += 1
    table = tracer.table()

    def stat(name, key):
        return table.get(name, {}).get(key, 0)

    rows = stat("drivers.Evaluator.record", "calls")
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.self_s"] = (stat(name, "self_s"), "s", stat(name, "calls"))
    metrics["setup.busy_s"] = (sum(stat(n, "busy_s") for n in SETUP_LAYERS), "s",
                               sum(stat(n, "calls") for n in SETUP_LAYERS))
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (stat(name, "calls"), "count", 1)
    metrics["hyperrep.head_solves_per_row"] = (
        stat("hyperrep.solve_head_exact", "calls") / rows if rows else 0.0, "ratio", rows)
    for name in EXACT_COUNTS:
        metrics[name] = (sum(r.counts.get(name, 0) for r in reps), "count", len(reps))
    metrics["trace.untraced_s"] = (untraced_s, "s", 1)
    metrics["trace.traced_s"] = (traced_s, "s", 1)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio", 1)
    metrics["trace.coverage"] = (tracer.self_s() / traced_s, "ratio", 1)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans_{w.name}_seed{seed}.tsv")
    tracer.write(spans_path)
    detail = {"repetitions": count, "identical_outputs": identical, "run_id": tracer.run_id,
              "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
              "bindings": tracer.bindings, "layers": table,
              "drivers.run.self_s": sum(stat(n, "self_s") for n in DRIVER_LOOPS)}
    detail.update(w.describe())
    return {"reps": reps, "metrics": metrics, "detail": detail}


# -- reporting -----------------------------------------------------------------

def report(args, prov, res) -> dict:
    reps = res["reps"]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    failures = [f for r in reps for f in r.failures]
    print(f"# fedbilevel benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()
                          if k not in ("workload", "seed", "seconds", "trace")))
    print(f"{'metric':40s} {'value':>16s} {'unit':>6s} {'samples':>8s}")
    for name, (value, unit, n) in res["metrics"].items():
        print(f"{name:40s} {value:16.6g} {unit:>6s} {n:8d}")
    print(f"{'fail_ratio':40s} {failed / attempted:16.6g} {'ratio':>6s} {attempted:8d}")
    d = res["detail"]
    if "kinds" in d:
        print(f"  machine factor {d['machine_factor']:.4g} ({d['bursts']} bursts); raw: "
              f"setup_s {d['raw.setup_s']:.4g}, iters_per_s {d['raw.iters_per_s']:.4g}")
    for name, k in d.get("kinds", {}).items():
        print(f"  {name:9s} steps={k['steps']:<7d} step_ms p10={k['step_ms.p10']:.4g} "
              f"p50={k['step_ms.p50']:.4g} p90={k['step_ms.p90']:.4g} "
              f"p99={k['step_ms.p99']:.4g}  iters/s {k['iters_per_s']:.4g} "
              f"(raw {k['raw.iters_per_s']:.4g})")
    if "layers" in res["detail"]:
        print(f"  {'span':36s} {'calls':>9s} {'self_s':>10s} {'busy_s':>10s}")
        for name, st in sorted(res["detail"]["layers"].items(),
                               key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:36s} {st['calls']:9d} {st['self_s']:10.4f} {st['busy_s']:10.4f}")
    for msg in failures[:20]:
        print(f"  FAILED: {msg}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "attempted": attempted, "failed": failed,
                   "failures": failures,
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in res["metrics"].items()},
                   "counts": [r.counts for r in reps], "detail": res["detail"]},
                  fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in res["metrics"].items()}}


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; then one combined
    result line, with every metric named ``<workload>.<metric>``. A workload
    that times out or ends without a result counts as one failed operation."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                res = json.loads(lines[-1])
            else:
                print(f"{name}: exited {proc.returncode} without a result")
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {CHILD_TIMEOUT_S} s")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    fb = _import_library()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]()
    prov = provenance(args, fb)
    res = (trace if args.trace else measure)(w, args.seed, args.seconds, fb)
    print(json.dumps(report(args, prov, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
