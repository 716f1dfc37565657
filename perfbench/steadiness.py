"""Run the benchmark on several seeds per workload and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 10 [--first-seed 0] [--trace]
                                    [--write perfbench/baseline.json]

It runs every workload of BENCHMARK.json at its ``run_seconds``. For every
end-to-end metric it prints the median over the seeds and the distance
between the first and third quartile (``statistics.quantiles``, n=4) as a
share of the median, next to the bound in BENCHMARK.json. A spread above a
third of its bound is flagged. With ``--trace`` it adds one traced run per
workload. ``--write`` stores the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for w in [b["name"] for b in bench["workloads"]]:
        values: dict[str, list] = {}
        for seed in seeds:
            res = _run(w, seed, seconds, 0)
            if not res["correct"]:
                print(f"{w} seed {seed}: incorrect ({res['failed']}/{res['attempted']} failed)")
                steady = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        entry = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            ok = spread < bounds[name] / 3
            steady &= ok
            entry[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                           "bound": bounds[name], "values": vals}
            print(f"  {w:12s} {name:14s} median {med:12.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]:.2f}{'' if ok else '  <-- above bound/3'}")
        summary["workloads"][w] = {"end_to_end": entry}
        if args.trace:
            res = _run(w, seeds[0], seconds, 1)
            summary["workloads"][w]["per_layer"] = {
                k: v["value"] for k, v in res["metrics"].items()}
            summary["workloads"][w]["trace_correct"] = res["correct"]
            steady &= res["correct"]
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
