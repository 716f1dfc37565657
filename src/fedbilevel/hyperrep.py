"""Desk-scale hyper-representation task: linear embedding over a logistic head.

Upper variable x = vec(E) is a linear embedding (embed_dim x feature_dim)
trained on each client's held-out split; lower variable y = vec(H) is a
ridge-regularized multinomial logistic head (classes x embed_dim) trained on
the client's training split. The ridge makes every per-sample lower objective
ridge-strongly-convex in y. All second-order products (Hessian-vector in the
head, mixed partial mapping head directions to embedding space) are analytic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .problems import (BilevelProblem, ProblemConstants, check_count, check_positive,
                       row_dots)
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
        for name in ("embed_dim", "feature_dim", "shards_per_client", "m"):
            check_count(name, getattr(self, name))
        check_count("classes", self.classes, 2)   # one class has a zero gradient
        if not isinstance(self.n_points, numbers.Integral) or isinstance(self.n_points, bool):
            raise ParameterError(f"n_points must be an integer, got {self.n_points!r}")
        check_positive("ridge", self.ridge)   # a strongly convex head
        check_positive("test_fraction", self.test_fraction)
        if not self.test_fraction < 1.0:
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
    stream = RngStream(seed).child("partition", mode)
    if mode == PARTITION_IID:
        perm = stream.child("perm").permutation(np.arange(n))
        return [np.sort(part) for part in np.array_split(perm, m)]
    if mode == PARTITION_LABEL_SKEW:
        k = shards_per_client
        n_shards = m * k
        if n_shards > n:
            raise ParameterError(f"{m} clients x {k} shards exceed {n} points")
        order = np.lexsort((np.arange(n), labels))  # by label, ties by index
        shards = np.array_split(order, n_shards)
        assignment = stream.child("assignment").permutation(np.arange(n_shards))
        return [np.sort(np.concatenate([shards[s] for s in assignment[i * k:(i + 1) * k]]))
                for i in range(m)]
    raise ParameterError(f"unknown partition mode {mode!r}")


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    top = logits[..., 0]   # the row max as a np.maximum fold: max(axis=-1)'s bits, faster
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c])
    e = np.exp(logits - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _minibatch_mean(A: np.ndarray, B: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Per-row mean of the outer products a_j b_j^T over n points, flattened."""
    return (_swap(A) @ B / n).reshape(*A.shape[:-2], -1)


def _directional(Z: np.ndarray, P: np.ndarray, H: np.ndarray, v: np.ndarray):
    """The head direction V of v, and the rows D_j (V z_j)."""
    V = v.reshape(*v.shape[:-1], *H.shape[-2:])
    PW = P * (Z @ _swap(V))
    return V, PW - P * PW.sum(axis=-1, keepdims=True)


class _Split(NamedTuple):
    """One split of every client, padded to its longest, w points: flat
    C-contiguous stores (m * w, .) of the features (zero on padding) and the
    float one-hot labels, client i's points at rows i * w to i * w + w - 1;
    the point counts; the minibatch draws' pool, the w padded columns; and,
    for a minibatch of b = min(batch_size, w) columns, each client's point
    count min(n_i, b) as a float (m, 1, 1)."""

    U: np.ndarray
    onehot: np.ndarray
    sizes: np.ndarray
    pool: np.ndarray
    counts: np.ndarray


class HyperRepProblem(BilevelProblem):
    """Oracle bundle over the synthetic mixture data.

    Stochasticity is finite-sum only: each oracle call draws batch indices
    from the relevant split (training split for lower-level quantities,
    held-out split for upper-level ones). Each split is its per-client index
    lists, padded on first use into flat (m * w, .) stores (``_Split``), so
    clients may hold splits of unequal size; padded points get weight 0. A
    minibatch is one ``take`` from each store. The exact truth runs the
    kernels over every client on a stack of points, x and y as (rows, 1, d)
    stacks; a kernel may take the pass ``fw`` of its split that the caller
    has already run, so one pass serves several kernels.
    """

    def __init__(self, U: np.ndarray, labels: np.ndarray,
                 train_idx: list[np.ndarray], val_idx: list[np.ndarray],
                 test_idx: np.ndarray, spec: HyperRepSpec, batch_size: int = 4,
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
        self._full = {}     # split -> its whole-split arrays, built on first use
        self._test = (U[test_idx], labels[test_idx])     # test_metric's points

    def initial_point(self):
        # the origin is a stationary saddle of the bilinear embedding/head pair,
        # so start from a small seeded embedding with a zero head
        p, f = self.spec.embed_dim, self.spec.feature_dim
        x0 = (0.5 / np.sqrt(f)) * RngStream(self.seed).child("init", "x0").normal(1.0, (p * f,))
        return x0, np.zeros(self.d2)

    # vec conventions: y -> H (C, p) row-major, x -> E (p, f) row-major; a
    # stacked x or y unpacks to one matrix per row
    def _unpack(self, x, y):
        p, f, C = self.spec.embed_dim, self.spec.feature_dim, self.spec.classes
        return x.reshape(*x.shape[:-1], p, f), y.reshape(*y.shape[:-1], C, p)

    def _whole_split(self, split):
        """The split's ``_Split``, built on first use and read-only."""
        got = self._full.get(split)
        if got is None:
            splits = self.train_idx if split == "train" else self.val_idx
            sizes = np.array([len(s) for s in splits])
            m, w = len(splits), sizes.max()
            b = min(self.batch_size, w)
            idx = np.zeros((m, w), dtype=np.intp)
            for i, s in enumerate(splits):
                idx[i, :len(s)] = s
            mask = np.arange(w) < sizes[:, None]
            got = self._full[split] = _Split(
                (self.U[idx] * mask[..., None]).reshape(m * w, -1),
                (self.labels[idx].reshape(-1, 1) == np.arange(self.spec.classes)) * 1.0,
                sizes, np.arange(w), np.minimum(sizes, b)[:, None, None] * 1.0)
            for a in got:
                a.flags.writeable = False
        return got

    def _forward(self, rows, x, y, lanes, split):
        """Stacked forward pass over each row's minibatch from a split.

        Row r takes min(batch_size, n_i) points drawn by lane r, or its whole
        split when lanes is None. The draw is ``lanes.subset`` over the split's
        one pool of padded columns, so a call on every client reads its rows out
        of its lane set's block in the lane table. The draws come back as rows
        of the split's flat stores (``flat=True``), and the minibatch is one
        ``take`` of them from each store; its count is min(n_i, b), as a short
        split pads its draw. Sizes and counts are the split's, read at
        ``rows``, the call's k clients (``BilevelProblem._audit``). Returns
        (H, Us, Z, P, R, n): (k, b, .) stacks over the b columns of the
        minibatch table, and each row's point count. Padded points get zero
        features, so they add nothing to any mean. With lanes None, x and y
        may also be (p, 1, d) stacks of p points, each evaluated over every
        client of rows: the stacks are then (p, k, b, .).
        """
        U, onehot, sizes, pool, counts = self._whole_split(split)
        w = pool.size
        if lanes is not None and self.batch_size < w:
            at = lanes.subset(pool, self.batch_size, sizes[rows], flat=True)
            Us, onehot, n = U.take(at, 0), onehot.take(at, 0), counts[rows]   # (k, b, .)
        else:
            Us, onehot = U.reshape(self.m, w, -1)[rows], onehot.reshape(self.m, w, -1)[rows]
            n = sizes[rows, None, None]
        E, H = self._unpack(x, y)
        Z = Us @ _swap(E)                          # (k, b, p)
        P = _softmax_rows(Z @ _swap(H))            # (k, b, C)
        return H, Us, Z, P, P - onehot, n          # R = pi - onehot

    def _grad_lower_y_batch(self, rows, x, y, lanes, fw=None):
        _, _, Z, _, R, n = fw or self._forward(rows, x, y, lanes, "train")
        return _minibatch_mean(R, Z, n) + self.spec.ridge * y

    def _grad_upper_y_batch(self, rows, x, y, lanes, fw=None):
        _, _, Z, _, R, n = fw or self._forward(rows, x, y, lanes, "val")
        return _minibatch_mean(R, Z, n)

    def _grad_upper_x_batch(self, rows, x, y, lanes, fw=None):
        H, Us, _, _, R, n = fw or self._forward(rows, x, y, lanes, "val")
        return _minibatch_mean(R @ H, Us, n)

    def _hvp_lower_yy_batch(self, rows, x, y, v, lanes):
        H, _, Z, P, _, n = self._forward(rows, x, y, lanes, "train")
        _, DW = _directional(Z, P, H, v)
        return _minibatch_mean(DW, Z, n) + self.spec.ridge * v

    def _jvp_lower_xy_batch(self, rows, x, y, v, lanes, fw=None):
        H, Us, Z, P, R, n = fw or self._forward(rows, x, y, lanes, "train")
        V, DW = _directional(Z, P, H, v)
        return _minibatch_mean(DW @ H + R @ V, Us, n)   # H^T D V z + V^T (pi - e)

    # -- the exact truth over every client -----------------------------------

    def y_star(self, x, y0=None):
        """The aggregate head solve ``solve_head_exact``, each row started at y0's."""
        return solve_head_exact(self, x, y0=y0)

    def hypergradient(self, x, ys):
        return hypergradient_numeric(self, x, ys)

    def objective(self, x, y):
        """The upper objective at each row: the mean over clients of each
        client's mean cross-entropy on its held-out split, the function that
        ``grad_upper_x`` and ``hypergradient_numeric`` differentiate."""
        U, onehot, sizes, pool, _ = self._whole_split("val")
        E, H = self._unpack(x[..., None, :], y[..., None, :])
        z = (U.reshape(self.m, pool.size, -1) @ _swap(E)) @ _swap(H)
        z = z - z.max(axis=-1, keepdims=True)
        loss = (np.log(np.exp(z).sum(axis=-1))
                - (z * onehot.reshape(z.shape[-3:])).sum(axis=-1))   # (rows, m, w)
        loss = loss * (pool < sizes[:, None])   # padding weighs nothing
        return np.mean(loss.sum(axis=-1) / sizes, axis=-1)

    def test_metric(self, x, y):
        """Accuracy of the head on the test split, at each row."""
        E, H = self._unpack(x, y)
        Us, labels = self._test
        return np.mean(((Us @ _swap(E)) @ _swap(H)).argmax(axis=-1) == labels, axis=-1)


def make_hyperrep(spec: HyperRepSpec, seed: int, batch_size: int = 4) -> HyperRepProblem:
    """Generate the Gaussian-mixture dataset and partition it across clients."""
    check_count("seed", seed, 0, 1 << 64)
    root = RngStream(seed).child("make_hyperrep")
    C, f = spec.classes, spec.feature_dim
    centers = 2.0 * root.child("centers").normal(1.0, (C, f))
    labels = root.child("labels").permutation(np.arange(spec.n_points) % C)
    U = centers[labels] + root.child("U").normal(1.0, (spec.n_points, f))

    n_test = int(spec.test_fraction * spec.n_points)
    test_idx = np.arange(spec.n_points - n_test, spec.n_points)
    pool = np.arange(spec.n_points - n_test)

    client_idx = partition(labels[pool], spec.partition, spec.m, seed,
                           shards_per_client=spec.shards_per_client)
    train_idx, val_idx = [], []
    for i, idx in enumerate(client_idx):
        if idx.size < 2:
            raise ParameterError("each client needs at least 2 points for train/val halves")
        perm = root.child(i, "split").permutation(idx)
        half = idx.size // 2
        train_idx.append(np.sort(pool[perm[:half]]))
        val_idx.append(np.sort(pool[perm[half:]]))
    return HyperRepProblem(U, labels, train_idx, val_idx, test_idx, spec,
                           batch_size=batch_size, seed=seed)


def _head_hessian(H: np.ndarray, Z: np.ndarray, P: np.ndarray, n: np.ndarray,
                  ridge: float) -> np.ndarray:
    """The dense aggregate head Hessian from a full-batch train forward pass,
    one per row when the pass stacks rows.

    Per client over its full training split, with z_j = E u_j and
    D_j = diag(p_j) - p_j p_j^T, H_i = (1/n_i) sum_j D_j kron z_j z_j^T;
    the result is mean_i H_i + ridge I. Every client's points are stacked,
    point j of client i weighted w_j = 1/(k n_i) over the k clients (padded
    points have z = 0), and x_j = p_j kron z_j: the -p p^T part is the Gram
    product -X^T W X, and the diag(p) part is X^T W Z, added into the C
    diagonal (p, p) blocks.
    """
    C, p = H.shape[-2:]
    rows = Z.shape[:-3]
    X = P[..., :, None] * Z[..., None, :]                  # (rows, k, b, C, p)
    XtW = _swap((X / (Z.shape[-3] * n)[..., None]).reshape(*rows, -1, C * p))
    hess = -(XtW @ X.reshape(*rows, -1, C * p))
    diag = (XtW @ Z.reshape(*rows, -1, p)).reshape(*rows, C, p, p)
    c = np.arange(C)
    hess.reshape(*rows, C, p, C, p)[..., c, :, c, :] += np.moveaxis(diag, -3, 0)
    d = np.arange(C * p)
    hess[..., d, d] += ridge
    return hess


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r]^{-1} b[r] for a matrix and vector, or for a stack of each."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def agg_hessian_lower_yy(problem: HyperRepProblem, x: np.ndarray, y: np.ndarray,
                         fw=None) -> np.ndarray:
    """Dense aggregate head Hessian at each row of (x, y): the matrix that
    ``hvp_lower_yy`` with lanes=None over every client applies, averaged over
    the clients. fw is the full-batch train pass at (x, y) when the caller has
    already run it.
    """
    H, _, Z, P, _, n = fw or problem._forward(slice(None), x[..., None, :],
                                              y[..., None, :], None, "train")
    return _head_hessian(H, Z, P, n, problem.spec.ridge)


def solve_head_exact(problem: HyperRepProblem, x: np.ndarray,
                     tol: float = 1e-12, max_iter: int = 60,
                     y0: np.ndarray | None = None) -> np.ndarray:
    """Newton solve of the aggregate (full participation, full batch) head
    problem at each row of x, each started at its row of y0 (the origin when
    omitted); one point is the stack of one row.

    All rows iterate together. Each iteration runs one full-batch train pass
    over the rows still moving, which serves their aggregate gradient (the
    client mean of exact ``grad_lower_y``) and the dense Hessians of the rows
    that step. A row stops once its gradient norm is at most tol, so it takes
    the steps its own solve would, whatever rows share the stack.
    """
    X = x.reshape(-1, problem.d1)
    Y = np.zeros((X.shape[0], problem.d2)) if y0 is None else np.array(
        y0, dtype=float).reshape(X.shape[0], problem.d2)
    every, live = slice(None), np.arange(X.shape[0])
    for _ in range(max_iter):
        xl, yl = X[live, None], Y[live, None]
        fw = problem._forward(every, xl, yl, None, "train")
        g = problem._grad_lower_y_batch(every, xl, yl, None, fw).mean(axis=-2)
        step = np.sqrt(row_dots(g, g)) > tol   # the bits of np.linalg.norm
        if not step.any():
            break
        H, _, Z, P, _, n = fw
        live = live[step]
        Y[live] -= _solve(_head_hessian(H[step], Z[step], P[step], n, problem.spec.ridge),
                          g[step])
    return Y.reshape(*x.shape[:-1], problem.d2)


def hypergradient_numeric(problem: HyperRepProblem, x: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
    """Implicit-function hypergradient with a dense HessIV at the exact head,
    at each row of x with its solved head y*(x) in y.

    It is grad_upper_x - jvp_lower_xy(w) with
    w = solve(agg_hessian_lower_yy, grad_upper_y), each oracle exact
    (lanes=None) over every client and averaged over them, all at (x, y),
    from two full-batch passes over all rows: the val pass serves both upper
    gradients, and the train pass the Hessian and the mixed-partial product.
    """
    every, x1, y1 = slice(None), x[..., None, :], y[..., None, :]
    train = problem._forward(every, x1, y1, None, "train")
    val = problem._forward(every, x1, y1, None, "val")
    w = _solve(agg_hessian_lower_yy(problem, x, y, train),
               problem._grad_upper_y_batch(every, x1, y1, None, val).mean(axis=-2))
    return (problem._grad_upper_x_batch(every, x1, y1, None, val).mean(axis=-2)
            - problem._jvp_lower_xy_batch(every, x1, y1, w[..., None, :], None, train)
            .mean(axis=-2))
