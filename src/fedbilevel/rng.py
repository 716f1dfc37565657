"""Deterministic per-lane random streams.

Every stochastic oracle call is keyed by a lane: a (seed, key-path) pair where
the key path encodes client id, purpose tag and iteration indices. Identical
lanes reproduce identical sample sequences bit-for-bit; distinct lanes are
statistically independent. This realizes the mutually independent samples
(lower/upper gradient draws, Hessian draws, mixed-partial draws) that the
algorithms consume, without any shared mutable RNG state.

Oracle samples are counter-based, as in Philox (Salmon et al., SC'11): they
hash the lane's splitmix64 key with a counter. ``index`` and ``subset`` are
pure integer arithmetic, the same on every platform; ``normal`` adds numpy's
log/cos/sin. Set-up draws use ``generator()``.

Because a lane's hash depends only on its key path, the lanes of many calls
can be hashed ahead, in any order and in bulk, without moving a draw. A
``LaneTable`` does that for consecutive outer steps: each family of lanes
(one purpose, over every client and every index of its loops) is a block of
one (steps, rows) uint64 array, hashed one key level at a time over all its
rows, and the counter-0 ``index`` draws of the whole table are one
multiply-high pass over it (in 32-bit halves, so no product overflows).
``TableStream`` stands in for a step's scope stream and reads its
``lanes(ids, *tags)`` out of the table. A table of one step serves a direct
estimator call, ``RngStream.lanes`` and ``Lanes.of``; ``Lanes`` draws every
row's samples from its hashes.

Which draws are table-wide: ``index(n)`` is one pass over every row of the
table. ``subset`` is one pass per lane set (one family at one set of loop
indices, say "zeta_q" at t = 3) over every step and client of the table,
when the call's rows cover every client; a call on a client subset
(partial participation, or the clients still stepping at a local step v)
draws its own rows. A lane set's block is hashed in slices of steps of at
most KEY_BUDGET counter keys. ``normal`` is drawn per call.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_S27, _S30, _S31, _S32 = (np.uint64(s) for s in (27, 30, 31, 32))

# a run's lane table is hashed in chunks of outer steps of at most this many rows
ROW_BUDGET = 1 << 12
# a lane set's subset block is hashed in slices of steps of at most this many keys
KEY_BUDGET = 1 << 20
CLIENT = None   # the client id's place in a lane family's key parts


def _mix64(h: int, v: int) -> int:
    # splitmix64 finalizer; cheap, stable across platforms
    h = (h + v + _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _mix64_array(h: np.ndarray, v) -> np.ndarray:
    """``_mix64`` elementwise over uint64 arrays in wrapping arithmetic; v is
    an int or a uint64 array broadcasting against h."""
    z = h + (v + np.uint64(_GOLDEN) if isinstance(v, np.ndarray)
             else np.uint64((v + _GOLDEN) & _MASK64))
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _mix64_counters(hashes: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) block ``_mix64(hashes[r], c)`` for the counters c = 0..n-1."""
    return _mix64_array(hashes[:, None], np.arange(n, dtype=np.uint64))


def _subset(hashes: np.ndarray, pool: np.ndarray, k: int, sizes: np.ndarray | None):
    """The ``Lanes.subset`` draws of the lanes with these (rows,) hashes."""
    keys = _mix64_counters(hashes, len(pool))
    if sizes is not None:
        keys[np.arange(len(pool)) >= sizes[:, None]] = _MASK64
    return np.sort(pool[np.argsort(keys, axis=1, kind="stable")[:, :k]], axis=1)


def _index(hashes: np.ndarray, n: int) -> np.ndarray:
    """``(_mix64(h, 0) * n) >> 64`` for every hash h, for 1 <= n < 2**32: the
    products of n with the 32-bit halves of the hashed counter fit in 64 bits."""
    if not 1 <= n < 1 << 32:
        raise ValueError(f"index needs 1 <= n < 2**32, got {n}")
    h, n = _mix64_array(hashes, 0), np.uint64(n)
    return (((h >> _S32) * n + ((h & _LOW32) * n >> _S32)) >> _S32).astype(np.intp)


@functools.lru_cache(maxsize=4096, typed=True)  # purpose tags repeat on every call
def _component_to_int(c) -> int:
    if isinstance(c, str):
        return zlib.crc32(c.encode("utf-8"))
    if isinstance(c, (int, np.integer)):
        return int(c) & _MASK64
    raise TypeError(f"lane key components must be int or str, got {type(c).__name__}")


def _innermost_tag(key: tuple) -> str:
    for c in reversed(key):
        if isinstance(c, str):
            return c
    return "unkeyed"


@dataclass(frozen=True)
class RngStream:
    """A derivable random lane: seed plus a tuple key path.

    ``child(*parts)`` extends the key path and its running hash. ``index``,
    ``subset`` and ``normal`` are pure functions of the lane, so evaluating
    the same lane twice draws the same sample, which is exactly what the
    variance-reduction corrections rely on when they evaluate two gradients
    on one sample. ``generator()`` materializes a ``numpy.random.Generator``.
    """

    seed: int
    key: tuple = ()
    _hash: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._hash is None:
            h = _mix64(0x243F6A8885A308D3, int(self.seed) & _MASK64)
            for c in self.key:
                h = _mix64(h, _component_to_int(c))
            object.__setattr__(self, "_hash", h)

    def child(self, *parts) -> "RngStream":
        h = self._hash
        for c in parts:
            h = _mix64(h, _component_to_int(c))
        return RngStream(self.seed, self.key + parts, h)

    def _entropy(self) -> int:
        # keep the raw seed in the high word so distinct seeds can never collide
        return ((int(self.seed) & _MASK64) << 64) | self._hash

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self._entropy())

    def lanes(self, ids, *tags) -> "Lanes":
        """The lanes ``child(i, *tags)`` for every client id i in ``ids``."""
        ids = np.array(ids, dtype=np.intp).reshape(-1)
        return Lanes(LaneTable.of(self, [(CLIENT, *tags)], ids).step(0), 0,
                     (0, slice(None)), ids, tags)

    def index(self, n: int) -> int:
        """Uniform draw from {0..n-1}: multiply-high of the hashed counter 0."""
        return (_mix64(self._hash, 0) * n) >> 64

    def subset(self, pool: np.ndarray, k: int) -> np.ndarray:
        """k members of pool without replacement, uniform, sorted: the k with
        the smallest hashed keys."""
        return Lanes.of(self).subset(pool, k)[0]

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """N(0, std^2) draws by Box-Muller over 53-bit uniforms in (0, 1]."""
        return Lanes.of(self).normal(std, shape)[0]


def _is_axis(part) -> bool:
    return part is CLIENT or isinstance(part, range)


class _Layout:
    """Where a list of lane families puts its rows in one step of a lane table.

    A step's rows hold the families one after another, the deepest key paths
    first, so the rows deeper than d are a prefix of them: ``columns[d]``
    holds their key components of depth d. A layout depends only on the
    families and the clients, so tables of one kind share it.
    """

    def __init__(self, families: tuple, clients: tuple):
        self.blocks = [None] * len(families)   # per family: (first row, axis sizes)
        rows, comps, depth = 0, [], 0
        for f in sorted(range(len(families)), key=lambda f: -len(families[f])):
            parts = families[f]
            axes = [np.array(clients) if p is CLIENT else np.arange(p.start, p.stop)
                    for p in parts if _is_axis(p)]
            grid = iter(np.meshgrid(*axes, indexing="ij"))
            size = math.prod(a.size for a in axes)
            comps.append([next(grid).reshape(-1).astype(np.uint64) if _is_axis(p)
                          else np.full(size, _component_to_int(p), dtype=np.uint64)
                          for p in parts])
            self.blocks[f] = (rows, tuple(a.size for a in axes))
            rows += size
            depth = max(depth, len(parts) if size else 0)
        self.rows = rows
        # a family without rows (an empty range) adds no key level
        self.columns = [np.concatenate([c[d] for c in comps if len(c) > d])
                        for d in range(depth)]
        tags = [tuple(p for p in parts if isinstance(p, str)) for parts in families]
        self.names = {"/".join(t): f for f, t in enumerate(tags)}
        self.purposes = [t[-1] if t else None for t in tags]
        self.clients = [[p for p in parts if _is_axis(p)].index(CLIENT)
                        if CLIENT in parts else None for parts in families]
        self.starts = [[p.start for p in parts if isinstance(p, range)] for parts in families]
        self.lookup = {}        # (path, tags) of a TableStream.lanes call -> family, axes


@functools.lru_cache(maxsize=256)
def _layout(families: tuple, clients: tuple) -> _Layout:
    return _Layout(families, clients)


class LaneTable:
    """The lanes of consecutive outer steps, hashed ahead in one uint64 block.

    Step s has the scope stream ``RngStream(seed, keys[s])`` with running
    hash ``scopes[s]``. A family is a tuple of key parts: str and int parts
    are key components, each ``range(a, n)`` part is an axis over a..n-1
    (a family leaves out the indices below a that its callers never read),
    and ``CLIENT`` is an axis over ``clients``. Its block holds the hashes of
    ``scope.child(*parts)`` for every step and every index of its axes,
    shaped (steps, *axes). The blocks are views of one (steps, rows) array,
    hashed one key level at a time over all its rows, as deep as its deepest
    family with rows. ``index(n)`` draws the counter-0 index of every row of
    the table at once, and ``subset`` the minibatch draws of one lane set at
    every step and client; both are cached on the table and read-only.
    """

    def __init__(self, seed: int, keys: list, scopes: np.ndarray, families: list,
                 clients: np.ndarray):
        self.seed, self.keys, self.scopes, self.m = seed, keys, scopes, clients.size
        self.layout = _layout(tuple(families), tuple(clients.tolist()))
        h = np.empty((scopes.size, self.layout.rows), dtype=np.uint64)
        h[:] = scopes[:, None]
        for col in self.layout.columns:
            h[:, :col.size] = _mix64_array(h[:, :col.size], col)
        h.flags.writeable = False
        self._block = h
        self.hashes = self._views(h)
        self._index = {}        # n -> the index draws, in the layout of the blocks
        self._subsets = {}      # (family, lane set, k, pool, sizes) -> a subset block

    @classmethod
    def of(cls, stream: RngStream, families: list, clients: np.ndarray) -> "LaneTable":
        """The table of one step whose scope is ``stream``."""
        return cls(stream.seed, [stream.key], np.array([stream._hash], dtype=np.uint64),
                   families, clients)

    def _views(self, flat: np.ndarray) -> list:
        return [flat[:, at:at + math.prod(shape)].reshape(flat.shape[0], *shape)
                for at, shape in self.layout.blocks]

    def purpose(self, family: int) -> str:
        """The innermost str tag of the family's key paths, or "unkeyed"."""
        return self.layout.purposes[family] or _innermost_tag(self.keys[0])

    def index(self, n: int) -> list:
        """Every row's ``index(n)`` draw, one block per family."""
        got = self._index.get(n)
        if got is None:
            flat = _index(self._block, n)
            flat.flags.writeable = False
            got = self._index[n] = self._views(flat)
        return got

    def subset(self, family: int, lane_set: tuple, pool: np.ndarray, k: int,
               sizes: np.ndarray | None) -> np.ndarray:
        """The ``subset(pool[:sizes[i]], k)`` draws of one lane set at every step
        and client i, shaped (steps, *clients, k): the rows
        ``hashes[family][:, *lane_set]``, where lane_set holds the family's loop
        indices and takes every client, and sizes (one per client) are the same
        at every step. Hashed in slices of steps of at most KEY_BUDGET keys,
        drawn once per table and read-only."""
        key = (family, tuple(None if isinstance(p, slice) else int(p) for p in lane_set), k,
               pool.tobytes(), None if sizes is None else sizes.tobytes())
        got = self._subsets.get(key)
        if got is None:
            rows = self.hashes[family][(slice(None), *lane_set)]
            per = max(1, KEY_BUDGET // max(1, math.prod(rows.shape[1:]) * len(pool)))
            parts = [_subset(r.reshape(-1), pool, k, None if sizes is None
                             else np.broadcast_to(sizes, r.shape).reshape(-1))
                     for r in (rows[a:a + per] for a in range(0, len(rows), per))]
            got = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(
                *rows.shape, parts[0].shape[1])
            got.flags.writeable = False
            self._subsets[key] = got
        return got

    def step(self, s: int) -> "TableStream":
        return TableStream(self, s, ())


def lane_steps(root: RngStream, tag: str, K: int, m: int, families: list):
    """``TableStream``s for the scopes ``root.child(tag, k)``, k = 0..K-1, over
    clients 0..m-1, from tables of at most ROW_BUDGET rows (at least one step)."""
    chunk = max(1, ROW_BUDGET // max(_layout(tuple(families), tuple(range(m))).rows, 1))
    base = np.array([root.child(tag)._hash], dtype=np.uint64)
    for k0 in range(0, K, chunk):
        ks = np.arange(k0, min(K, k0 + chunk))
        table = LaneTable(root.seed, [root.key + (tag, k) for k in ks.tolist()],
                          _mix64_array(base, ks.astype(np.uint64)), families, np.arange(m))
        yield from (table.step(s) for s in range(ks.size))


class TableStream:
    """Step s of a lane table standing in for its scope stream: ``child``
    extends the key path, ``lanes(ids, *tags)`` reads the lanes
    ``child(i, *tags)`` out of the table (the family named by the path's string
    parts, at the path's int parts) for checked client ids, sorted and
    distinct, and ``generator()`` hashes the stream. A lane that its family
    leaves out, below the start of one of its ranges, is hashed on demand
    from the scope stream, so it is the lane the table would have held."""

    __slots__ = ("table", "s", "path")

    def __init__(self, table: LaneTable, s: int, path: tuple):
        self.table, self.s, self.path = table, s, path

    def child(self, *parts) -> "TableStream":
        return TableStream(self.table, self.s, self.path + parts)

    def stream(self) -> RngStream:
        t = self.table
        return RngStream(t.seed, t.keys[self.s], int(t.scopes[self.s])).child(*self.path)

    def generator(self) -> np.random.Generator:
        return self.stream().generator()

    def lanes(self, ids: np.ndarray, *tags) -> "Lanes":
        t, layout = self.table, self.table.layout
        hit = layout.lookup.get((self.path, tags))
        if hit is None:
            parts = self.path + tags
            family = layout.names["/".join(p for p in parts if isinstance(p, str))]
            idx = tuple(p - start for p, start in zip(
                (p for p in parts if not isinstance(p, str)), layout.starts[family]))
            c = layout.clients[family]
            hit = layout.lookup[self.path, tags] = (
                (family, idx[:c], idx[c:]) if min(idx, default=0) >= 0 else ())
        if not hit:     # before its family's first index, so not in the table
            return self.stream().lanes(ids, *tags)
        family, before, after = hit
        rows = slice(None) if ids.shape[0] == t.m else ids
        return Lanes(self, family, (self.s, *before, rows, *after), ids, tags)


class Lanes:
    """The lanes of one batched oracle call, one per client row.

    Row r is the lane ``step.child(ids[r], *tags)`` of a lane table's step:
    the rows ``sel`` of the block of a family. ``hashes[r]`` is its running
    hash, so ``index``, ``subset`` and ``normal`` draw row r exactly as that
    stream would. ``index`` reads the draws the table made for all its rows
    at once. ``subset`` reads its rows out of the table's block for the lane
    set when the rows cover every client of the table (always so for
    ``RngStream.lanes`` and ``Lanes.of``, whose one-step table's clients are
    the call's ids); on a client subset it, like ``normal``, is drawn once
    per Lanes. Every draw is returned read-only, so the two evaluations of a
    variance-reduction pair share it.
    ``Lanes.of(lane)`` wraps one existing stream as a batch of one.
    """

    __slots__ = ("step", "family", "sel", "ids", "tags", "_draws")

    def __init__(self, step: TableStream, family: int, sel: tuple, ids: np.ndarray,
                 tags: tuple):
        self.step, self.family, self.sel, self.ids, self.tags = step, family, sel, ids, tags
        self._draws = None

    @classmethod
    def of(cls, lane: RngStream) -> "Lanes":
        return cls(LaneTable.of(lane, [()], np.arange(1)).step(0), 0, (slice(None),),
                   np.arange(0), ())

    @property
    def hashes(self) -> np.ndarray:
        return self.step.table.hashes[self.family][self.sel]

    @property
    def purpose(self) -> str:
        """The innermost string tag of the rows' key paths (what the samples
        are for, the same for every row), or "unkeyed"."""
        return self.step.table.purpose(self.family)

    def stream(self, r: int) -> RngStream:
        return self.step.child(*self.ids[r:r + 1].tolist(), *self.tags).stream()

    def _drawn(self, key: tuple, draw):
        if self._draws is None:
            self._draws = {}
        out = self._draws.get(key)
        if out is None:
            out = self._draws[key] = draw()
            out.flags.writeable = False
        return out

    def index(self, n: int) -> np.ndarray:
        """``stream(r).index(n)`` for every row r, for 1 <= n < 2**32."""
        table = self.step.table
        return (table._index.get(n) or table.index(n))[self.family][self.sel]

    def subset(self, pool: np.ndarray, k: int, sizes: np.ndarray | None = None) -> np.ndarray:
        """``stream(r).subset(pool[:sizes[r]], k)`` for every row r, stacked (rows, k).

        sizes defaults to the whole pool. Positions from sizes[r] on are keyed
        2**64-1, so they sort after the row's members: a row with sizes[r] < k
        also gets the pool entries from position sizes[r] on, k in all. When
        the rows cover every client of the table, they are read out of the
        table's block for their lane set; otherwise they are drawn here."""
        s, *lane_set = self.sel
        if not any(isinstance(p, np.ndarray) for p in lane_set):
            return self.step.table.subset(self.family, lane_set, pool, k, sizes)[s]
        return self._drawn(("subset", k, pool.tobytes(),
                            None if sizes is None else sizes.tobytes()),
                           lambda: _subset(self.hashes, pool, k, sizes))

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """``stream(r).normal(std, shape)`` for every row r, stacked (rows, *shape).
        Box-Muller over 53-bit uniforms in (0, 1]."""
        def draw():
            n = math.prod(shape)
            u = 1.0 - (_mix64_counters(self.hashes, n + n % 2) >> np.uint64(11)) * 2.0 ** -53
            r = std * np.sqrt(-2.0 * np.log(u[:, 0::2]))
            theta = 2.0 * np.pi * u[:, 1::2]
            z = np.concatenate((r * np.cos(theta), r * np.sin(theta)), axis=1)
            return z[:, :n].reshape(-1, *shape)
        return self._drawn(("normal", std, shape), draw)
