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
from .problems import BilevelProblem, ProblemConstants
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
        if not 0 < self.ridge < np.inf:
            raise ParameterError("ridge must be finite and > 0 for a strongly convex head")
        if min(self.embed_dim, self.feature_dim, self.classes, self.m,
               self.shards_per_client) < 1:
            raise ParameterError("embed_dim, feature_dim, classes, m and "
                                 "shards_per_client must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ParameterError("test_fraction must lie in (0, 1)")
        if int(self.test_fraction * self.n_points) < 1:
            raise ParameterError("test_fraction * n_points must leave at least one test point")


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
    return a.swapaxes(-1, -2)


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
        # per split, the minibatch draws' pool: the columns of its index table
        self._pools = {split: np.arange(t.shape[1]) for split, (t, _) in self._tables.items()}
        self._full = {}     # split -> its whole-split arrays, built on first use
        self._test = (U[test_idx], labels[test_idx])     # accuracy's points
        self._last_train = (None, None)     # (x, y) bytes -> its full-batch train pass

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

    def _whole_split(self, split):
        """(Us, onehot, n) of every client's whole split: the padded features,
        zeroed on padding, the one-hot labels and the point counts."""
        got = self._full.get(split)
        if got is None:
            table, sizes = self._tables[split]
            mask = np.arange(table.shape[1]) < sizes[:, None]
            got = self._full[split] = (
                self.U[table] * mask[..., None],
                self.labels[table][..., None] == np.arange(self.spec.classes),
                sizes[:, None, None])
            for a in got:
                a.flags.writeable = False
        return got

    def _train_pass(self, x, y):
        """The full-batch train ``_forward`` at (x, y) over every client. The
        last one is kept, so the Newton solve's converged iterate also serves
        ``hypergradient_numeric``'s pass at y*(x)."""
        key = (x.tobytes(), y.tobytes())
        if self._last_train[0] != key:
            _, *rest = self._forward(self._all_ids, x, y, None, "train")
            for a in rest:
                a.flags.writeable = False
            self._last_train = (key, rest)
        return (self._unpack(x, y)[1], *self._last_train[1])

    def _forward(self, ids, x, y, lanes, split):
        """Stacked forward pass over each row's minibatch from a split.

        Row r takes min(batch_size, n_i) points drawn by lane r, or its whole
        split when lanes is None. The draw is ``lanes.subset`` over the split's
        one pool of table columns, so a call on every client reads its rows out
        of its lane set's block in the lane table, and the minibatch is gathered
        at the drawn positions from ``_whole_split``. Returns (H, Us, Z, P, R, n):
        (k, b, .) stacks over the b columns of the minibatch table, and each
        row's point count. Padded points get zero features, so they add nothing
        to any mean.
        """
        Us, onehot, n = self._whole_split(split)
        pool = self._pools[split]
        if lanes is not None and self.batch_size < pool.size:
            n = n[ids]
            pos = lanes.subset(pool, self.batch_size, n[:, 0, 0])
            Us, onehot = Us[ids[:, None], pos], onehot[ids[:, None], pos]   # (k, b, .)
            n = np.minimum(n, self.batch_size)     # a short split pads its draw
        elif ids.shape[0] < self.m:
            Us, onehot, n = Us[ids], onehot[ids], n[ids]
        E, H = self._unpack(x, y)
        Z = Us @ _swap(E)                          # (k, b, p)
        P = _softmax_rows(Z @ _swap(H))            # (k, b, C)
        return H, Us, Z, P, P - onehot, n          # R = pi - onehot

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

    def upper_value(self, x, y) -> float:
        """The upper objective: the mean over clients of each client's mean
        cross-entropy on its held-out split, the function that ``grad_upper_x``
        and ``hypergradient_numeric`` differentiate."""
        Us, onehot, n = self._whole_split("val")
        E, H = self._unpack(x, y)
        z = (Us @ E.T) @ H.T
        z = z - z.max(axis=-1, keepdims=True)
        loss = np.log(np.exp(z).sum(axis=-1)) - (z * onehot).sum(axis=-1)   # (m, w)
        loss = loss * (np.arange(loss.shape[1]) < n[:, :, 0])   # padding weighs nothing
        return float(np.mean(loss.sum(axis=1) / n[:, 0, 0]))

    def accuracy(self, x, y) -> float:
        E, H = self._unpack(x, y)
        Us, labels = self._test
        return float(np.mean(((Us @ E.T) @ H.T).argmax(axis=1) == labels))


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


def _head_hessian(H: np.ndarray, Z: np.ndarray, P: np.ndarray, n: np.ndarray,
                  ridge: float) -> np.ndarray:
    """The dense aggregate head Hessian from a full-batch train forward pass.

    Per client over its full training split, with z_j = E u_j and
    D_j = diag(p_j) - p_j p_j^T, H_i = (1/n_i) sum_j D_j kron z_j z_j^T;
    the result is mean_i H_i + ridge I. Every client's points are stacked,
    point j of client i weighted w_j = 1/(k n_i) over the k clients (padded
    points have z = 0), and x_j = p_j kron z_j: the -p p^T part is the Gram
    product -X^T W X, and the diag(p) part is X^T W Z, added into the C
    diagonal (p, p) blocks.
    """
    C, p = H.shape
    X = P[..., :, None] * Z[..., None, :]                  # (k, b, C, p)
    XtW = _swap((X / (Z.shape[0] * n)[..., None]).reshape(-1, C * p))
    hess = -(XtW @ X.reshape(-1, C * p))
    blocks = hess.reshape(C, p, C, p)
    blocks[np.arange(C), :, np.arange(C)] += (XtW @ Z.reshape(-1, p)).reshape(C, p, p)
    hess[np.diag_indices(C * p)] += ridge
    return hess


def agg_hessian_lower_yy(problem: HyperRepProblem, x: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Dense aggregate head Hessian: the matrix that agg_hvp_lower_yy applies.

    One full-batch train forward pass at (x, y) serves it.
    """
    H, _, Z, P, _, n = problem._train_pass(x, y)
    return _head_hessian(H, Z, P, n, problem.spec.ridge)


def solve_head_exact(problem: HyperRepProblem, x: np.ndarray,
                     tol: float = 1e-12, max_iter: int = 60,
                     y0: np.ndarray | None = None) -> np.ndarray:
    """Newton solve of the aggregate (full participation, full batch) head
    problem, started at y0 (the origin when omitted).

    Each iterate runs one full-batch train forward pass. It serves the
    gradient (agg_grad_lower_y) and, when the iterate steps, the Hessian
    (agg_hessian_lower_yy), so the last iterate, at the solution, costs one
    pass and no Hessian; ``hypergradient_numeric`` at the solution reuses
    that pass.
    """
    y = np.zeros(problem.d2) if y0 is None else y0
    ridge = problem.spec.ridge
    problem.checked(problem._all_ids, x, y)
    for _ in range(max_iter):
        H, _, Z, P, R, n = problem._train_pass(x, y)
        g = (_minibatch_mean(R, Z, n) + ridge * y).mean(axis=0)
        if np.linalg.norm(g) <= tol:
            break
        y = y - np.linalg.solve(_head_hessian(H, Z, P, n, ridge), g)
    return y


def hypergradient_numeric(problem: HyperRepProblem, x: np.ndarray,
                          y: np.ndarray | None = None) -> np.ndarray:
    """Implicit-function hypergradient with a dense HessIV at the exact head.

    y is the already-solved head y*(x); it is Newton-solved when omitted.
    Equals agg_grad_upper_x - agg_jvp_lower_xy(w) with
    w = solve(agg_hessian_lower_yy, agg_grad_upper_y), all at (x, y), bit for
    bit, from two forward passes: one full-batch val pass serves both upper
    gradients, and one full-batch train pass serves the Hessian and the
    mixed-partial product. At a y just returned by ``solve_head_exact`` the
    train pass is the solve's last one, so it is not run again.
    """
    if y is None:
        y = solve_head_exact(problem, x)
    ids = problem._all_ids
    problem.checked(ids, x, y)
    H, Us, Z, _, R, n = problem._forward(ids, x, y, None, "val")
    grad_y = _minibatch_mean(R, Z, n).mean(axis=0)
    grad_x = _minibatch_mean(R @ H, Us, n).mean(axis=0)
    H, Us, Z, P, R, n = problem._train_pass(x, y)
    w = np.linalg.solve(_head_hessian(H, Z, P, n, problem.spec.ridge), grad_y)
    V, DW = _directional(Z, P, H, w)
    return grad_x - _minibatch_mean(DW @ H + R @ V, Us, n).mean(axis=0)
