"""Deterministic per-lane random streams.

Every stochastic oracle call is keyed by a lane: a (seed, key-path) pair where
the key path encodes client id, purpose tag and iteration indices. Identical
lanes reproduce identical sample sequences bit-for-bit; distinct lanes are
statistically independent. This realizes the mutually independent samples
(lower/upper gradient draws, Hessian draws, mixed-partial draws) that the
algorithms consume, without any shared mutable RNG state.

Every per-step draw is counter-based, as in Philox (Salmon et al., SC'11):
it hashes the lane's splitmix64 key with a counter. That covers the oracle
samples and the three scalar draws of a run: the fused chain's seeding index
Q (lane ``child("Q")``), the baseline's truncation T' (``child("T_prime")``)
and each outer step's participant set (``subset``). ``index`` and ``subset``
are pure integer arithmetic, the same on every platform; ``normal`` adds
numpy's log/cos/sin. ``generator()`` serves set-up only: instances, data
splits, initial points and measured constants.

Because a lane's hash depends only on its key path, the lanes of many calls
can be hashed ahead, in any order and in bulk, without moving a draw. A
``LaneTable`` does that for consecutive outer steps. It holds a declared list
of lane sets: a lane set, such as ``(CLIENT, "zeta_q", 3)`` or
``("lower", 0, CLIENT, "zeta", 2)``, is a tuple of key parts with ``CLIENT``
at the client id's place, and stands for the lanes one oracle call reads,
one per client. Each set owns a contiguous run of rows of one (steps, rows)
uint64 array; the sets sit deepest first, so the array is hashed one key
level at a time over a prefix of its rows, and the counter-0 ``index`` draws
of the whole table are one multiply-high pass over it (in 32-bit halves, so
no product overflows). ``TableStream`` stands in for a step's scope stream:
its ``lanes(ids, *tags)`` is the lane set ``(*path, CLIENT, *tags)``, one
dict lookup. A table of one step serves a direct estimator call,
``RngStream.lanes`` and ``Lanes.of``; ``Lanes`` draws every row's samples
from its hashes.

Which draws are table-wide: a ``Lanes.index(n)`` is one pass over every row
of the table, and a step's own scalar ``index(n)`` hashes its path alone.
``subset`` is one pass per lane set over every step and client of the
table, when the call's rows cover every client; a call on a client subset
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

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_S27, _S30, _S31, _S32 = (np.uint64(s) for s in (27, 30, 31, 32))

# a run's lane table is hashed in chunks of outer steps of at most this many rows
ROW_BUDGET = 1 << 12
# a lane set's subset block is hashed in slices of steps of at most this many keys
KEY_BUDGET = 1 << 20
CLIENT = None   # the client id's place in a lane set's key parts


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


def _extend(h: int, parts) -> int:
    """The running hash h extended by the key components parts."""
    for c in parts:
        h = _mix64(h, _component_to_int(c))
    return h


def _scalar_index(h: int, n: int) -> int:
    """Uniform draw from {0..n-1} on the lane hashed to h: multiply-high of
    the hashed counter 0."""
    return (_mix64(h, 0) * n) >> 64


def _innermost_tag(key: tuple) -> str | None:
    for c in reversed(key):
        if isinstance(c, str):
            return c


@dataclass(frozen=True)
class RngStream:
    """A derivable random lane: seed plus a tuple key path.

    ``child(*parts)`` extends the key path and its running hash. ``index``,
    ``subset`` and ``normal`` are pure functions of the lane, so evaluating
    the same lane twice draws the same sample, which is exactly what the
    variance-reduction corrections rely on when they evaluate two gradients
    on one sample. ``generator()`` materializes a ``numpy.random.Generator``
    for set-up draws.
    """

    seed: int
    key: tuple = ()
    _hash: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._hash is None:
            h = _mix64(0x243F6A8885A308D3, int(self.seed) & _MASK64)
            object.__setattr__(self, "_hash", _extend(h, self.key))

    def child(self, *parts) -> "RngStream":
        return RngStream(self.seed, self.key + parts, _extend(self._hash, parts))

    def _entropy(self) -> int:
        # keep the raw seed in the high word so distinct seeds can never collide
        return ((int(self.seed) & _MASK64) << 64) | self._hash

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self._entropy())

    def lanes(self, ids, *tags) -> "Lanes":
        """The lanes ``child(i, *tags)`` for every client id i in ``ids``."""
        ids = np.array(ids, dtype=np.intp).reshape(-1)
        return LaneTable.of(self, [(CLIENT, *tags)], ids).step(0).lanes(ids, *tags)

    def index(self, n: int) -> int:
        """Uniform draw from {0..n-1}: multiply-high of the hashed counter 0."""
        return _scalar_index(self._hash, n)

    def subset(self, pool: np.ndarray, k: int) -> np.ndarray:
        """k members of pool without replacement, uniform, sorted: the k with
        the smallest hashed keys."""
        return _subset(np.array([self._hash], dtype=np.uint64), pool, k, None)[0]

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """N(0, std^2) draws by Box-Muller over 53-bit uniforms in (0, 1]."""
        return Lanes.of(self).normal(std, shape)[0]


class _Layout:
    """Where a list of lane sets puts its rows in one step of a lane table.

    A lane set is a tuple of key parts: str and int key components, with
    ``CLIENT`` at the client id's place. It owns one row per client, the
    contiguous run ``at[lane set]``, and its innermost string tag is
    ``tag[lane set]`` (None if it has none). The sets sit deepest first, so
    the rows deeper than d are a prefix of them: ``columns[d]`` holds their
    key components of depth d. A layout depends only on the lane sets and
    the clients, so tables of one kind share it.
    """

    def __init__(self, sets: tuple, clients: tuple):
        ids = np.array(clients, dtype=np.intp).astype(np.uint64)
        self.at, self.tag, comps = {}, {}, []
        for parts in sorted(sets, key=len, reverse=True):
            self.at[parts] = slice(len(comps) * ids.size, (len(comps) + 1) * ids.size)
            self.tag[parts] = _innermost_tag(parts)
            comps.append([ids if p is CLIENT else
                          np.full(ids.size, _component_to_int(p), dtype=np.uint64)
                          for p in parts])
        self.rows = len(comps) * ids.size
        self.columns = [np.concatenate([c[d] for c in comps if len(c) > d])
                        for d in range(len(comps[0]) if comps else 0)]


@functools.lru_cache(maxsize=256)
def _layout(sets: tuple, clients: tuple) -> _Layout:
    return _Layout(sets, clients)


class LaneTable:
    """The lanes of consecutive outer steps, hashed ahead in one uint64 block.

    Step s has the scope stream ``RngStream(seed, keys[s])`` with running
    hash ``scopes[s]``. For each of its lane sets, ``hashes[s, at]`` (at the
    set's rows in the layout) holds the running hashes of
    ``scope.child(*parts)`` with each client id in place of ``CLIENT``. The
    (steps, rows) array is hashed one key level at a time, each level over
    the prefix of rows that deep. ``index(n)`` draws the counter-0 index of
    every row of the table at once, and ``subset`` the minibatch draws of
    one lane set at every step and client; both are cached on the table and
    read-only.
    """

    def __init__(self, seed: int, keys: list, scopes: np.ndarray, sets: list,
                 clients: np.ndarray):
        self.seed, self.keys, self.scopes, self.m = seed, keys, scopes, clients.size
        self.layout = _layout(tuple(sets), tuple(clients.tolist()))
        h = np.empty((scopes.size, self.layout.rows), dtype=np.uint64)
        h[:] = scopes[:, None]
        for col in self.layout.columns:
            h[:, :col.size] = _mix64_array(h[:, :col.size], col)
        h.flags.writeable = False
        self.hashes = h
        self._index = {}        # n -> the (steps, rows) index draws
        self._subsets = {}      # (lane set, k, pool, sizes) -> a subset block

    @classmethod
    def of(cls, stream: RngStream, sets: list, clients: np.ndarray) -> "LaneTable":
        """The table of one step whose scope is ``stream``."""
        return cls(stream.seed, [stream.key], np.array([stream._hash], dtype=np.uint64),
                   sets, clients)

    def index(self, n: int) -> np.ndarray:
        """Every row's ``index(n)`` draw, shaped (steps, rows)."""
        got = self._index.get(n)
        if got is None:
            got = self._index[n] = _index(self.hashes, n)
            got.flags.writeable = False
        return got

    def subset(self, lane_set: tuple, pool: np.ndarray, k: int,
               sizes: np.ndarray | None) -> np.ndarray:
        """The ``subset(pool[:sizes[i]], k)`` draws of one lane set at every step
        and client i, shaped (steps, clients, k), where sizes (one per client)
        are the same at every step. Hashed in slices of steps of at most
        KEY_BUDGET keys, drawn once per table and read-only."""
        key = (lane_set, k, pool.tobytes(), None if sizes is None else sizes.tobytes())
        got = self._subsets.get(key)
        if got is None:
            rows = self.hashes[:, self.layout.at[lane_set]]
            per = max(1, KEY_BUDGET // max(1, rows.shape[1] * len(pool)))
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


def lane_steps(root: RngStream, tag: str, K: int, m: int, sets: list):
    """``TableStream``s for the scopes ``root.child(tag, k)``, k = 0..K-1, from
    tables of the lane sets over clients 0..m-1, each of at most ROW_BUDGET
    rows (at least one step)."""
    chunk = max(1, ROW_BUDGET // max(_layout(tuple(sets), tuple(range(m))).rows, 1))
    base = np.array([root.child(tag)._hash], dtype=np.uint64)
    for k0 in range(0, K, chunk):
        ks = np.arange(k0, min(K, k0 + chunk))
        table = LaneTable(root.seed, [root.key + (tag, k) for k in ks.tolist()],
                          _mix64_array(base, ks.astype(np.uint64)), sets, np.arange(m))
        yield from (table.step(s) for s in range(ks.size))


class TableStream:
    """Step s of a lane table standing in for its scope stream: ``child``
    extends the key path, ``lanes(ids, *tags)`` reads the lane set
    ``(*path, CLIENT, *tags)`` out of the table for checked client ids,
    sorted and distinct, and ``index(n)`` is the scalar draw of the path's
    own lane, such as ``child("Q").index(N + 1)``. Reading a lane set the
    table does not hold raises ContractViolation naming the set."""

    __slots__ = ("table", "s", "path")

    def __init__(self, table: LaneTable, s: int, path: tuple):
        self.table, self.s, self.path = table, s, path

    def child(self, *parts) -> "TableStream":
        return TableStream(self.table, self.s, self.path + parts)

    def stream(self) -> RngStream:
        t = self.table
        return RngStream(t.seed, t.keys[self.s], int(t.scopes[self.s])).child(*self.path)

    def index(self, n: int) -> int:
        """``stream().index(n)``, hashed from the scope without building the stream."""
        return _scalar_index(_extend(int(self.table.scopes[self.s]), self.path), n)

    def lanes(self, ids: np.ndarray, *tags) -> "Lanes":
        t, lane_set = self.table, (*self.path, CLIENT, *tags)
        at = t.layout.at.get(lane_set)
        if at is None:
            raise ContractViolation(f"lane set {lane_set} is not declared by its table")
        return Lanes(self, lane_set, at if ids.shape[0] == t.m else ids + at.start, ids, tags)


class Lanes:
    """The lanes of one batched oracle call, one per client row.

    Row r is the lane ``step.child(ids[r], *tags)`` of a lane table's step,
    table row ``rows[r]`` of the lane set ``lane_set``: ``rows`` is the set's
    whole run, a slice, when the call covers every client of the table
    (always so for ``RngStream.lanes`` and ``Lanes.of``, whose one-step
    table's clients are the call's ids), else an index array. ``hashes[r]``
    is row r's running hash, so ``index``, ``subset`` and ``normal`` draw row
    r exactly as that stream would. ``index`` reads the table's draws for
    all its rows; ``subset`` reads the set's block when ``rows`` is a slice,
    and is otherwise, like ``normal``, drawn once per Lanes. Every draw is
    read-only, so the two evaluations of a variance-reduction pair share it.
    ``Lanes.of(lane)`` wraps one stream as the set ``()`` of a one-client table.
    """

    __slots__ = ("step", "lane_set", "rows", "ids", "tags", "_draws")

    def __init__(self, step: TableStream, lane_set: tuple, rows: slice | np.ndarray,
                 ids: np.ndarray, tags: tuple):
        self.step, self.lane_set, self.rows, self.ids, self.tags = step, lane_set, rows, ids, tags
        self._draws = None

    @classmethod
    def of(cls, lane: RngStream) -> "Lanes":
        return cls(LaneTable.of(lane, [()], np.arange(1)).step(0), (), slice(0, 1),
                   np.arange(0), ())

    @property
    def hashes(self) -> np.ndarray:
        return self.step.table.hashes[self.step.s, self.rows]

    @property
    def purpose(self) -> str:
        """The innermost string tag of the rows' key paths (what the samples
        are for, the same for every row), or "unkeyed"."""
        table = self.step.table
        return table.layout.tag[self.lane_set] or _innermost_tag(table.keys[0]) or "unkeyed"

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
        got = table._index.get(n)
        return (table.index(n) if got is None else got)[self.step.s, self.rows]

    def subset(self, pool: np.ndarray, k: int, sizes: np.ndarray | None = None) -> np.ndarray:
        """``stream(r).subset(pool[:sizes[r]], k)`` for every row r, stacked (rows, k).

        sizes defaults to the whole pool. Positions from sizes[r] on are keyed
        2**64-1, so they sort after the row's members: a row with sizes[r] < k
        also gets the pool entries from position sizes[r] on, k in all. When
        the rows cover every client of the table, they are read out of the
        table's block for their lane set; otherwise they are drawn here."""
        if isinstance(self.rows, slice):
            return self.step.table.subset(self.lane_set, pool, k, sizes)[self.step.s]
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
