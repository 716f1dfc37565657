"""Closed-form ground truth on the synthetic quadratic family.

Builds a heterogeneous instance, solves the lower level in closed form,
evaluates the hypergradient two independent ways (implicit-function formula
vs central finite differences of x -> f(x, y*(x))), and cross-checks the
dense Hessian-inverse solve against a long Neumann series. Finally shows the
JSON round trip used to replay instances across runs.

The instance holds every client's data as stacked arrays with one row per
client (inst.A is (m, d2, d2), inst.dA is (m, n, d2, d2), ...); the JSON
document stores one entry per array, and the replay rebuilds the same arrays.
"""

import numpy as np

from fedbilevel import (QuadraticInstance, QuadraticSpec, RngStream,
                        dense_hessiv, fd_hypergradient, make_quadratic)

spec = QuadraticSpec(d1=5, d2=5, m=4, n_per_client=8, mu=1.0, L_g=10.0,
                     hetero=0.6, noise_spread=0.2, seed=2024)
inst = make_quadratic(spec)
print(f"instance: {spec.m} clients, dims ({spec.d1}, {spec.d2}), "
      f"hetero={spec.hetero}, declared eigenvalue range [{spec.mu}, {spec.L_g}]")
w = np.linalg.eigvalsh(inst.A_bar)
print(f"aggregate lower Hessian spectrum: [{w[0]:.3f}, {w[-1]:.3f}]")

x = RngStream(1).child("x").generator().normal(size=spec.d1)
ys = inst.y_star(x)
residual = np.linalg.norm(inst.A_bar @ ys + inst.B_bar @ x + inst.c_bar)
print(f"\nlower-level optimum: aggregate gradient norm at y*(x) = {residual:.2e}")

h_formula = inst.hypergradient(x)
h_fd = fd_hypergradient(inst, x, step=1e-5)
rel = np.linalg.norm(h_formula - h_fd) / np.linalg.norm(h_fd)
print(f"hypergradient: implicit formula vs finite differences, rel err {rel:.2e}")

# dense factorization vs truncated Neumann series for the Hessian-inverse product
v = inst.grad_upper_y_exact(x, ys)
direct = dense_hessiv(inst, x, ys, v)
lam = 1.0 / inst.L_g
s, acc = v.copy(), v.copy()
for _ in range(1, 500):
    s = s - lam * (inst.A_bar @ s)
    acc += s
series = lam * acc
print(f"HessIV: dense solve vs 500-term Neumann series, rel err "
      f"{np.linalg.norm(series - direct) / np.linalg.norm(direct):.2e}")

doc = inst.to_json()
replay = QuadraticInstance.from_json(doc)
same = np.array_equal(replay.hypergradient(x), h_formula)
print(f"\nJSON round trip ({len(doc)} bytes): hypergradient bit-identical = {same}")
