"""Same samples, fewer rounds: the abstract's first claim on the race spec.

Both drivers run the criterion-7 race instance on 10 seeds at K = 1600, with
every parameter at its default (N = T = 2, alpha = kappa^-4 / sqrt(K)). Each
step's samples are its ``verify.expected_sample_bill`` (the fused one with
that step's Q), and their sum is checked against the problem's audit. The
seed-mean grad^2 of each metrics row is written against cumulative samples
and against cumulative rounds, as one CSV and one two-panel SVG in demos/out/:
the curves meet on the samples panel and part on the rounds panel.
"""

import os

import numpy as np

from fedbilevel import QuadraticSpec, RngStream, RunConfig, run_fbo_aggitd, run_fednest_baseline
from fedbilevel.drivers import build_problem, resolve_params
from fedbilevel.verify import expected_sample_bill

out = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out, exist_ok=True)

SEEDS, K = range(10), 1600
DRIVERS = {"fbo-aggitd": ("aggitd", run_fbo_aggitd), "fednest": ("aid", run_fednest_baseline)}

curves = {}   # label -> (cumulative rounds, seed-mean cumulative samples, seed-mean grad^2)
for label, (estimator, driver) in DRIVERS.items():
    grads, samples = [], []
    for seed in SEEDS:
        spec = QuadraticSpec(d1=10, d2=10, m=8, n_per_client=8, mu=1.0, L_g=1.5, hetero=0.5,
                             noise_spread=0.05, seed=seed)
        cfg = RunConfig(problem=spec, K=K, seed=seed, eval_every=1)
        problem = build_problem(cfg)
        rep = driver(cfg, problem)
        N, T = resolve_params(cfg, problem.constants)[:2]
        per_step = [sum(expected_sample_bill(
            estimator, N, T, [1] * problem.m, problem.batch_size,
            RngStream(seed).child("est", k, "Q").index(N + 1)).values()) for k in range(K)]
        assert sum(per_step) == problem.audit.total, "the audit and the bill disagree"
        grads.append(rep.column("grad_norm_sq"))
        samples.append(np.concatenate(([0], np.cumsum(per_step))))
    curves[label] = (rep.column("rounds_cum"), np.mean(samples, axis=0), np.mean(grads, axis=0))

eps = 1e-3
for label, (rounds, samples, g) in curves.items():
    hit = int(np.argmax(g <= eps)) if np.any(g <= eps) else None
    where = (f"{samples[hit]:.0f} samples, {rounds[hit]:.0f} rounds" if hit is not None
             else "not reached")
    print(f"{label:11s}: {samples[-1] / K:6.2f} samples and {rounds[-1] / K:.0f} rounds per "
          f"step; mean grad^2 <= {eps:g} first at {where}; final {g[-1]:.2e}")

with open(os.path.join(out, "sample_complexity.csv"), "wb") as fh:
    lines = ["driver,k,rounds_cum,samples_cum,grad_norm_sq_mean"]
    for label, (rounds, samples, g) in curves.items():
        lines += [f"{label},{k},{int(r)},{s!r},{v!r}"
                  for k, (r, s, v) in enumerate(zip(rounds, samples.tolist(), g.tolist()))]
    fh.write(("\n".join(lines) + "\n").encode("ascii"))

# two panels side by side, log10 of the mean grad^2 against each x axis
W, H, M = 420, 360, 50
y_all = np.log10(np.concatenate([c[2] for c in curves.values()]))
y_lo, y_hi = float(y_all.min()), float(y_all.max())
parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * W}" height="{H}" '
         f'viewBox="0 0 {2 * W} {H}">', f'<rect width="{2 * W}" height="{H}" fill="white"/>']
for p, (axis, col) in enumerate((("samples_cum", 1), ("rounds_cum", 0))):
    x0, pw, ph = p * W + M, W - M - 15, H - 2 * M
    x_hi = max(float(c[col][-1]) for c in curves.values())
    parts += [f'<line x1="{x0}" y1="{M + ph}" x2="{x0 + pw}" y2="{M + ph}" stroke="black"/>',
              f'<line x1="{x0}" y1="{M}" x2="{x0}" y2="{M + ph}" stroke="black"/>',
              f'<text x="{x0 + pw // 2 - 30}" y="{H - 15}" font-size="12">{axis}</text>',
              f'<text x="{x0 + pw - 50}" y="{H - 30}" font-size="12">{x_hi:.0f}</text>',
              f'<text x="{x0 - 45}" y="{M + 4}" font-size="12">{y_hi:.2f}</text>',
              f'<text x="{x0 - 45}" y="{M + ph}" font-size="12">{y_lo:.2f}</text>',
              f'<text x="{x0}" y="{M - 15}" font-size="12">log10(mean grad_norm_sq)</text>']
    for i, (label, c) in enumerate(curves.items()):
        color = ("#1f77b4", "#d62728")[i]
        ys = (np.log10(c[2]) - y_lo) / (y_hi - y_lo)
        pts = " ".join(f"{x0 + pw * float(a) / x_hi:.2f},{M + ph * (1.0 - float(b)):.2f}"
                       for a, b in zip(c[col], ys))
        parts += [f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>',
                  f'<text x="{x0 + pw - 90}" y="{M + 16 * (i + 1)}" font-size="12" '
                  f'fill="{color}">{label}</text>']
parts.append("</svg>")
with open(os.path.join(out, "sample_complexity.svg"), "wb") as fh:
    fh.write("\n".join(parts).encode("ascii"))
print(f"\nwrote sample_complexity.csv and sample_complexity.svg under {out}")
