"""Desk-scale hyper-representation task: linear embedding over a logistic head.

Upper variable x = vec(E) is a linear embedding (embed_dim x feature_dim)
trained on each client's held-out split; lower variable y = vec(H) is a
ridge-regularized multinomial logistic head (classes x embed_dim) trained on
the client's training split. The ridge makes every per-sample lower objective
ridge-strongly-convex in y. All second-order products (Hessian-vector in the
head, mixed partial mapping head directions to embedding space) are analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .problems import BilevelProblem, Point, ProblemConstants
from .rng import RngStream

PARTITION_IID = "iid"
PARTITION_LABEL_SKEW = "label-skew"


@dataclass(frozen=True)
class HyperRepSpec:
    embed_dim: int = 4
    feature_dim: int = 8
    classes: int = 3
    ridge: float = 0.1
    partition: str = PARTITION_IID
    shards_per_client: int = 1
    m: int = 4
    n_points: int = 240
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.ridge <= 0:
            raise ParameterError("ridge must be > 0 for a strongly convex head objective")
        if min(self.embed_dim, self.feature_dim, self.classes, self.m,
               self.shards_per_client) < 1:
            raise ParameterError("embed_dim, feature_dim, classes, m and "
                                 "shards_per_client must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test_fraction must lie in (0, 1)")


def partition(labels: np.ndarray, mode: str, m: int, seed: int,
              shards_per_client: int = 1) -> list[np.ndarray]:
    """Split dataset indices across m clients; disjoint lists covering everything."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if m > n:
        raise ParameterError(f"cannot split {n} points across {m} clients")
    gen = RngStream(seed).child("partition", mode).generator()
    if mode == PARTITION_IID:
        perm = gen.permutation(n)
        return [np.sort(part) for part in np.array_split(perm, m)]
    if mode == PARTITION_LABEL_SKEW:
        k = shards_per_client
        n_shards = m * k
        if n_shards > n:
            raise ParameterError(f"{m} clients x {k} shards exceed {n} points")
        order = np.lexsort((np.arange(n), labels))  # by label, ties by index
        shards = np.array_split(order, n_shards)
        assignment = gen.permutation(n_shards)
        return [np.sort(np.concatenate([shards[s] for s in assignment[i * k:(i + 1) * k]]))
                for i in range(m)]
    raise ParameterError(f"unknown partition mode {mode!r}")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _index_table(splits: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-client index lists as an (m, w) table, padded with 0, and their lengths."""
    sizes = np.array([len(s) for s in splits])
    table = np.zeros((len(splits), sizes.max()), dtype=np.intp)
    for i, s in enumerate(splits):
        table[i, :len(s)] = s
    return table, sizes


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _minibatch_mean(A: np.ndarray, B: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per-row mean of the outer products a_j b_j^T over n points, flattened."""
    return (_swap(A) @ B / n).reshape(n.shape[0], -1)


def _directional(Z: np.ndarray, P: np.ndarray, H: np.ndarray, v: np.ndarray):
    """The head direction V of v, and the rows D_j (V z_j)."""
    V = v.reshape(*v.shape[:-1], *H.shape[-2:])
    W = Z @ _swap(V)
    return V, P * W - P * (P * W).sum(axis=-1, keepdims=True)


class HyperRepProblem(BilevelProblem):
    """Oracle bundle over the synthetic mixture data.

    Stochasticity is finite-sum only: each oracle call draws batch indices
    from the relevant split (training split for lower-level quantities,
    held-out split for upper-level ones). Each split is stored as a padded
    (m, w) index table, so clients may hold splits of unequal size; padded
    entries get weight 0.
    """

    def __init__(self, U: np.ndarray, labels: np.ndarray,
                 train_idx: list[np.ndarray], val_idx: list[np.ndarray],
                 test_idx: np.ndarray, spec: HyperRepSpec, batch_size: int = 8,
                 seed: int = 0):
        p, f, C = spec.embed_dim, spec.feature_dim, spec.classes
        # declared constants on a nominal region ||E||_2 <= 2
        u_max = float(np.max(np.linalg.norm(U, axis=1)))
        L_g = spec.ridge + 0.5 * (2.0 * u_max) ** 2
        constants = ProblemConstants(mu=spec.ridge, L_g=L_g, L_f=L_g, M=0.0)
        super().__init__(m=len(train_idx), d1=p * f, d2=C * p,
                         constants=constants, batch_size=batch_size)
        self.U = U
        self.labels = labels
        self.train_idx = train_idx
        self.val_idx = val_idx
        self.test_idx = test_idx
        self.spec = spec
        self.seed = seed
        self._tables = {"train": _index_table(train_idx), "val": _index_table(val_idx)}

    def initial_point(self):
        # the origin is a stationary saddle of the bilinear embedding/head pair,
        # so start from a small seeded embedding with a zero head
        gen = RngStream(self.seed).child("init").generator()
        p, f = self.spec.embed_dim, self.spec.feature_dim
        x0 = (0.5 / np.sqrt(f)) * gen.normal(size=p * f)
        return x0, np.zeros(self.d2)

    # vec conventions: y -> H (C, p) row-major, x -> E (p, f) row-major; a
    # stacked x or y unpacks to one matrix per row
    def _unpack(self, x, y):
        p, f, C = self.spec.embed_dim, self.spec.feature_dim, self.spec.classes
        return x.reshape(*x.shape[:-1], p, f), y.reshape(*y.shape[:-1], C, p)

    def _forward(self, ids, x, y, lanes, split):
        """Stacked forward pass over each row's minibatch from a split.

        Row r takes min(batch_size, n_i) points drawn by lane r, or its whole
        split when lanes is None. Returns (H, Us, Z, P, R, n): (k, b, .) stacks
        over the b columns of the minibatch table, and each row's point count.
        Padded points get zero features, so they add nothing to any mean.
        """
        table, sizes = self._tables[split]
        table, sizes = table[ids], sizes[ids]
        cols = np.arange(table.shape[1])
        if lanes is None or self.batch_size >= cols.size:
            pos = np.broadcast_to(cols, table.shape)
        else:
            pos = lanes.subset(cols, self.batch_size, sizes)
        idx = np.take_along_axis(table, pos, axis=1)
        mask = pos < sizes[:, None]                # False on padding
        E, H = self._unpack(x, y)
        Us = self.U[idx] * mask[..., None]         # (k, b, f)
        Z = Us @ _swap(E)                          # (k, b, p)
        P = _softmax_rows(Z @ _swap(H))            # (k, b, C)
        R = P - (self.labels[idx][..., None] == np.arange(P.shape[-1]))   # pi - onehot
        return H, Us, Z, P, R, mask.sum(axis=1)[:, None, None]

    def _grad_lower_y_batch(self, ids, x, y, lanes):
        _, _, Z, _, R, n = self._forward(ids, x, y, lanes, "train")
        return _minibatch_mean(R, Z, n) + self.spec.ridge * y

    def _grad_upper_y_batch(self, ids, x, y, lanes):
        _, _, Z, _, R, n = self._forward(ids, x, y, lanes, "val")
        return _minibatch_mean(R, Z, n)

    def _grad_upper_x_batch(self, ids, x, y, lanes):
        H, Us, _, _, R, n = self._forward(ids, x, y, lanes, "val")
        return _minibatch_mean(R @ H, Us, n)

    def _hvp_lower_yy_batch(self, ids, x, y, v, lanes):
        H, _, Z, P, _, n = self._forward(ids, x, y, lanes, "train")
        _, DW = _directional(Z, P, H, v)
        return _minibatch_mean(DW, Z, n) + self.spec.ridge * v

    def _jvp_lower_xy_batch(self, ids, x, y, v, lanes):
        H, Us, Z, P, R, n = self._forward(ids, x, y, lanes, "train")
        V, DW = _directional(Z, P, H, v)
        return _minibatch_mean(DW @ H + R @ V, Us, n)   # H^T D V z + V^T (pi - e)

    # -- evaluation helpers --------------------------------------------------

    def upper_value(self, x, y, idx=None) -> float:
        """Mean cross-entropy of the head on the pooled held-out split."""
        E, H = self._unpack(x, y)
        if idx is None:
            idx = np.concatenate(self.val_idx)
        Us = self.U[idx]
        logits = (Us @ E.T) @ H.T
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        return float(np.mean(lse - z[np.arange(len(idx)), self.labels[idx]]))

    def accuracy(self, x, y) -> float:
        E, H = self._unpack(x, y)
        Us = self.U[self.test_idx]
        pred = ((Us @ E.T) @ H.T).argmax(axis=1)
        return float(np.mean(pred == self.labels[self.test_idx]))


def make_hyperrep(spec: HyperRepSpec, seed: int, batch_size: int = 8) -> HyperRepProblem:
    """Generate the Gaussian-mixture dataset and partition it across clients."""
    root = RngStream(seed).child("make_hyperrep")
    gen = root.generator()
    C, f = spec.classes, spec.feature_dim
    centers = 2.0 * gen.normal(size=(C, f))
    labels = np.arange(spec.n_points) % C
    labels = labels[gen.permutation(spec.n_points)]
    U = centers[labels] + gen.normal(size=(spec.n_points, f))

    n_test = int(spec.test_fraction * spec.n_points)
    test_idx = np.arange(spec.n_points - n_test, spec.n_points)
    pool = np.arange(spec.n_points - n_test)

    client_idx = partition(labels[pool], spec.partition, spec.m, seed,
                           shards_per_client=spec.shards_per_client)
    train_idx, val_idx = [], []
    for i, idx in enumerate(client_idx):
        if idx.size < 2:
            raise ParameterError("each client needs at least 2 points for train/val halves")
        cg = root.child("split", i).generator()
        perm = cg.permutation(idx)
        half = idx.size // 2
        train_idx.append(np.sort(pool[perm[:half]]))
        val_idx.append(np.sort(pool[perm[half:]]))
    return HyperRepProblem(U, labels, train_idx, val_idx, test_idx, spec,
                           batch_size=batch_size, seed=seed)


def agg_hessian_lower_yy(problem: HyperRepProblem, x: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Dense aggregate head Hessian: the matrix that agg_hvp_lower_yy applies.

    Per client over its full training split, with z_j = E u_j and
    D_j = diag(p_j) - p_j p_j^T, H_i = (1/n_i) sum_j D_j kron z_j z_j^T;
    the result is mean_i H_i + ridge I.
    """
    H, _, Z, P, _, n = problem._forward(problem._all_ids, x, y, None, "train")
    D = P[..., :, None] * (np.eye(H.shape[0]) - P[..., None, :])  # p_c (delta_cd - p_d)
    H_i = np.einsum("ijcd,ija,ijb->icadb", D, Z, Z) / n[..., None, None]
    d2 = problem.d2
    return H_i.mean(axis=0).reshape(d2, d2) + problem.spec.ridge * np.eye(d2)


def solve_head_exact(problem: HyperRepProblem, x: np.ndarray,
                     tol: float = 1e-12, max_iter: int = 60,
                     y0: np.ndarray | None = None) -> np.ndarray:
    """Newton solve of the aggregate (full participation, full batch) head
    problem, started at y0 (the origin when omitted)."""
    y = np.zeros(problem.d2) if y0 is None else y0
    for _ in range(max_iter):
        g = problem.agg_grad_lower_y(Point(x, y))
        if np.linalg.norm(g) <= tol:
            break
        y = y - np.linalg.solve(agg_hessian_lower_yy(problem, x, y), g)
    return y


def hypergradient_numeric(problem: HyperRepProblem, x: np.ndarray,
                          y: np.ndarray | None = None) -> np.ndarray:
    """Implicit-function hypergradient with a dense HessIV at the exact head.

    y is the already-solved head y*(x); it is Newton-solved when omitted.
    """
    if y is None:
        y = solve_head_exact(problem, x)
    pt = Point(x, y)
    w = np.linalg.solve(agg_hessian_lower_yy(problem, x, y), problem.agg_grad_upper_y(pt))
    return problem.agg_grad_upper_x(pt) - problem.agg_jvp_lower_xy(pt, w)
