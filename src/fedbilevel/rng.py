"""Deterministic per-lane random streams.

Every stochastic oracle call is keyed by a lane: a (seed, key-path) pair where
the key path encodes client id, purpose tag and iteration indices. Identical
lanes reproduce identical sample sequences bit-for-bit; distinct lanes are
statistically independent. This realizes the mutually independent samples
(lower/upper gradient draws, Hessian draws, mixed-partial draws) that the
algorithms consume, without any shared mutable RNG state.

Every draw is counter-based, as in Philox (Salmon et al., SC'11): it hashes
the lane's splitmix64 key with a counter. That covers the oracle samples, a
run's scalar draws (the seeding index Q on ``child("Q")``, the truncation T'
on ``child("T_prime")``, the participant sets) and set-up: each set-up array
is drawn on the lane of its stage and name, e.g. ``child("make_quadratic",
"U")``. ``index``, ``subset`` and ``permutation`` are pure integer arithmetic,
``uniform`` the hash's top 53 bits, and ``normal`` adds numpy's log, sqrt, cos
and sin. A size out of range raises ValueError naming it.

``RngStream`` is the one scope type, and its ``child`` hashes nothing until
the child draws. Since a lane's hash depends only on its key path, a
``LaneTable`` hashes the lanes of consecutive outer steps ahead, in bulk,
without moving a draw. It declares lane sets over clients 0..m-1: a lane
set, such as ``(CLIENT, "zeta_q", 3)`` or ``("lower", 0, CLIENT, "zeta",
2)``, is a tuple of key parts with ``CLIENT`` at the client id's place, the
lanes one oracle call reads. Each set owns a run of m rows, client i's at
row i of it, of one (steps, rows) uint64 array, hashed one key level at a
time, deepest sets first.

Tables come from ``lane_steps``, whose outer-step scopes are streams on a
run's tables, and from ``declare(sets, m)``, which puts a free stream on a
table (``BilevelProblem.entry`` does so); a free stream's ``lanes`` reads a
one-step table of its one lane set over the distinct ids it is given. A
chunk of steps is as many as fit in ROW_BUDGET rows, from a multiple of that
count.
``declare`` keeps its last table of a free stream ``parent.child(k)``, k an
int >= 0: a later call on a sibling reads it or a new chunk, and a call on
another parent (seed, key, lane sets, m) gets one step, so a one-off call
hashes no sibling. Any other stream gets a one-step table. A table's rows
are the lanes' own hashes, so no draw depends on the order of the calls. A
stream on a table, and every child of it, reads ``lanes(ids, *tags)`` as
the declared set ``(*path, CLIENT, *tags)``, path being its key parts
below the step. A free ``RngStream(seed, key)`` declares no lane sets.

Which draws are table-wide: ``Lanes.index(n)`` and ``LaneTable.step_index``,
a scalar lane's draw at every step (the estimators' Q and T', so N + 1 and T
are below INDEX_RANGE = 2**32), are one multiply-high pass over the table,
in 32-bit halves so that no product overflows; a stream's own ``index(n)``
hashes its path. ``subset`` is one pass per lane set over every step and
client, when the call covers every client (a client subset draws its own
rows), in slices of at most KEY_BUDGET counter keys. ``normal`` is per call.
Draws come back as flat store rows: ``flat=True`` adds each row's client id
times n (or len(pool)) in the cached block, so that an oracle's draws are
rows of a client-major (m * n, ...) sample store.
"""

from __future__ import annotations

import functools
import math
import zlib

import numpy as np

from .errors import ContractViolation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_S27, _S30, _S31, _S32 = (np.uint64(s) for s in (27, 30, 31, 32))

INDEX_RANGE = 1 << 32   # a table-wide index(n) draw takes 1 <= n < INDEX_RANGE
# a run's lane table is hashed in chunks of outer steps of at most this many rows
ROW_BUDGET = 1 << 12
# a lane set's subset block is hashed in slices of steps of at most this many keys
KEY_BUDGET = 1 << 20
CLIENT = None   # the client id's place in a lane set's key parts
_new = object.__new__


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


def _uniform(hashes: np.ndarray, n: int) -> np.ndarray:
    """The (rows, n) 53-bit uniforms in (0, 1] of the counters 0..n-1."""
    return 1.0 - (_mix64_counters(hashes, n) >> np.uint64(11)) * 2.0 ** -53


def _normal(hashes: np.ndarray, std: float, shape: tuple) -> np.ndarray:
    """The (rows, *shape) N(0, std^2) draws: Box-Muller over pairs of ``_uniform``s."""
    n = math.prod(shape)
    u = _uniform(hashes, n + n % 2)
    r, theta = std * np.sqrt(-2.0 * np.log(u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    z = np.concatenate((r * np.cos(theta), r * np.sin(theta)), axis=1)
    return z[:, :n].reshape(-1, *shape)


def _check_size(draw: str, name: str, value, least: int, bound=math.inf) -> None:
    """Raise ValueError naming value unless it is an integer in [least, bound)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value < bound):
        raise ValueError(f"{draw} needs an integer {name} in [{least}, {bound}), got {value!r}")


def _permutation(hashes: np.ndarray, pool: np.ndarray, sizes: np.ndarray | None):
    """Each row's pool ordered by its hashed keys (a stable argsort), stacked
    (rows, len(pool)); positions from sizes[r] on are keyed 2**64-1."""
    keys = _mix64_counters(hashes, len(pool))
    if sizes is not None:
        keys[np.arange(len(pool)) >= sizes[:, None]] = _MASK64
    return pool[np.argsort(keys, axis=1, kind="stable")]


def _subset(hashes: np.ndarray, pool: np.ndarray, k: int, sizes: np.ndarray | None):
    """The ``Lanes.subset`` draws: the sorted length-k prefixes of ``_permutation``."""
    _check_size("subset", "k", k, 0)
    return np.sort(_permutation(hashes, pool, sizes)[:, :k], axis=1)


def _index(hashes: np.ndarray, n: int) -> np.ndarray:
    """``(_mix64(h, 0) * n) >> 64`` for every hash h, for 1 <= n < INDEX_RANGE:
    the products of n with the 32-bit halves of the hashed counter fit in 64 bits."""
    _check_size("index", "n", n, 1, INDEX_RANGE)
    h, n = _mix64_array(hashes, 0), np.uint64(n)
    return (((h >> _S32) * n + ((h & _LOW32) * n >> _S32)) >> _S32).astype(np.intp)


@functools.lru_cache(maxsize=4096, typed=True)  # purpose tags repeat on every call
def _component_to_int(c) -> int:
    if isinstance(c, str):
        return zlib.crc32(c.encode("utf-8"))
    if isinstance(c, (int, np.integer)):
        return int(c) & _MASK64
    raise TypeError(f"lane key components must be int or str, got {type(c).__name__}")


def _extend(h, parts, mix=_mix64):
    """The running hash h, an int (or uint64 array, mix ``_mix64_array``), extended by parts."""
    for c in parts:
        h = mix(h, _component_to_int(c))
    return h


def _innermost_tag(key: tuple) -> str | None:
    for c in reversed(key):
        if isinstance(c, str):
            return c


def _id_array(ids) -> np.ndarray:
    """Client ids as a flat intp array; ContractViolation names a non-integer id (or a bool)."""
    flat = np.array(ids, dtype=object).reshape(-1)
    bad = [i for i in flat if isinstance(i, bool) or not isinstance(i, (int, np.integer))]
    if bad:
        raise ContractViolation(f"lanes of client ids {flat.tolist()}: "
                                f"{bad[0]!r} is not an integer")
    return flat.astype(np.intp)


class RngStream:
    """A derivable random lane: seed plus a tuple key path.

    ``child(*parts)`` extends the key path. Every draw is a pure function of
    the lane, so evaluating the same lane twice draws the same sample, which
    is exactly what the variance-reduction corrections rely on when they
    evaluate two gradients on one sample. Streams are equal when their seeds
    and key paths are. A stream is free, or sits at ``path`` below step s of
    a lane ``table``, as do its children.
    """

    __slots__ = ("seed", "_scope", "_scope_hash", "path", "table", "s")

    def __init__(self, seed: int, key: tuple = ()):
        self.seed, self._scope, self.path, self.table, self.s = seed, key, (), None, 0
        self._scope_hash = _extend(_mix64(0x243F6A8885A308D3, int(seed) & _MASK64), key)

    @property
    def key(self) -> tuple:
        return self._scope + self.path

    @property
    def _hash(self) -> int:
        return _extend(self._scope_hash, self.path)

    def __eq__(self, other):
        return (isinstance(other, RngStream) and self.seed == other.seed
                and self.key == other.key)

    def __hash__(self):
        return hash((self.seed, self.key))

    def __repr__(self):
        return f"RngStream(seed={self.seed!r}, key={self.key!r})"

    def child(self, *parts) -> "RngStream":
        c = _new(RngStream)   # the key path is scope + path; path is hashed on a draw
        c.seed, c._scope, c._scope_hash, c.table, c.s = (
            self.seed, self._scope, self._scope_hash, self.table, self.s)
        c.path = self.path + parts
        return c

    def generator(self) -> np.random.Generator:
        """A numpy Generator on the lane (the raw seed in the high word). No
        library path draws from it: it stays for the tests' arbitrary inputs
        and for the benchmark tracer, which patches it, until the benchmark
        change of ROADMAP item 9 deletes it."""
        return np.random.default_rng(((int(self.seed) & _MASK64) << 64) | self._hash)

    def declare(self, sets, m: int) -> "RngStream":
        """This stream as a step of a table of the lane sets over clients
        0..m-1. A free ``parent.child(k)``, k an int >= 0, reads the kept
        table or, on a miss, a new kept one: a chunk of siblings if the kept
        table is its parent's, else one step. Any other stream gets one step."""
        global _kept
        sets, key = tuple(sets), self._scope + self.path
        k = key[-1] if key else None   # a chunk's ks below 2**62 fit a uint64 arange
        if self.table is not None or type(k) is not int or not 0 <= k < 1 << 62:
            return LaneTable(self.seed, key, None, np.array([self._hash], dtype=np.uint64),
                             _layout(sets, m)).step(0)
        memo, table = _kept   # the kept sets compare by identity first: no re-hash
        if memo != (self.seed, key[:-1], sets, m):
            table = LaneTable(self.seed, key[:-1], k, np.array([self._hash], dtype=np.uint64),
                              _layout(sets, m))
        elif not 0 <= k - table.k0 < len(table.scopes):
            chunk = _chunk_steps(table.layout)
            table = _sibling_table(RngStream(self.seed, key[:-1]), k - k % chunk, chunk,
                                   table.layout)
        _kept = (self.seed, key[:-1], sets, m), table
        return table.step(k - table.k0)

    def lanes(self, ids, *tags) -> "Lanes":
        """The lanes ``child(i, *tags)`` for every client id i in ids (any id
        sequence; a table step takes an ndarray as is). On a table: the lane
        set ``(*path, CLIENT, *tags)``, rows and purpose in one lookup, else
        ContractViolation names it; m ids must be 0..m-1 in order, as
        ``CheckedOracles`` gives them, and fewer read their own rows. On a free
        stream: any ids >= 0, reordered or repeated, each by row on a one-step
        table of that one set over the distinct ids only. A negative or
        non-integer id, or a converted one >= m on a table, raises ContractViolation."""
        step = self
        if self.table is None or type(ids) is not np.ndarray:
            ids = _id_array(ids)
            m = np.inf if self.table is None else self.table.layout.m
            bad = ids[(ids < 0) | (ids >= m)]
            if bad.size:
                raise ContractViolation(f"lanes of client ids {ids.tolist()}: id {bad[0]} is "
                                        + ("< 0" if bad[0] < 0 else f">= m = {m}"))
        rows = ids
        if self.table is None:   # rows of the sorted distinct ids, so one per id
            distinct, rows = np.unique(ids, return_inverse=True)
            step = LaneTable(self.seed, self.key, None, np.array([self._hash], dtype=np.uint64),
                             _Layout(((CLIENT, *tags),), distinct.size, distinct)).step(0)
        table, lane_set = step.table, (*step.path, CLIENT, *tags)
        at, tag = table.layout.at.get(lane_set, (None, None))
        if at is None:
            raise ContractViolation(f"lane set {lane_set} is not declared by its table")
        lanes = _new(Lanes)
        lanes.step, lanes.lane_set, lanes.ids, lanes.tags, lanes.purpose, lanes._draws = (
            step, lane_set, ids, tags, tag or table.purpose, None)
        lanes.rows = at if step is self and ids.shape[0] == table.layout.m else rows + at.start
        return lanes

    def index(self, n: int) -> int:
        """Uniform draw from {0..n-1}, n >= 1: multiply-high of the hashed counter 0."""
        _check_size("index", "n", n, 1)
        return (_mix64(self._hash, 0) * n) >> 64

    def subset(self, pool: np.ndarray, k: int) -> np.ndarray:
        """k members of pool without replacement, uniform: the sorted ``permutation[:k]``."""
        return _subset(np.array([self._hash], dtype=np.uint64), pool, k, None)[0]

    def permutation(self, pool: np.ndarray) -> np.ndarray:
        """pool in a uniform random order: ordered by the hashed counters 0..len-1."""
        return _permutation(np.array([self._hash], dtype=np.uint64), pool, None)[0]

    def uniform(self, shape: tuple) -> np.ndarray:
        """53-bit uniforms in (0, 1]: ``1 - (hashed counter >> 11) * 2**-53``."""
        return _uniform(np.array([self._hash], dtype=np.uint64), math.prod(shape)).reshape(shape)

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """N(0, std^2) draws by Box-Muller over the ``uniform`` values."""
        return _normal(np.array([self._hash], dtype=np.uint64), std, shape)[0]


class _Layout:
    """Where a list of lane sets puts its rows in one step of a lane table.

    A lane set owns one row per client, client ``ids[i]``'s at ``at.start + i``
    of the run ``at``: ``ids`` are the clients 0..m-1, or the m sorted distinct
    ids of a free stream's ``lanes``. ``at, tag = at[lane set]`` also gives its
    innermost string tag (None if it has none). The sets sit deepest first, so
    the rows deeper than d are a prefix of them: ``columns[d]`` holds their
    key components of depth d. Tables of the same lane sets over clients
    0..m-1 share one layout (``_layout``).
    """

    def __init__(self, sets: tuple, m: int, ids: np.ndarray | None = None):
        self.ids = np.arange(m) if ids is None else ids
        client = self.ids.astype(np.uint64)
        self.m, self.at, comps = m, {}, []
        for parts in sorted(sets, key=len, reverse=True):
            self.at[parts] = slice(len(comps) * m, (len(comps) + 1) * m), _innermost_tag(parts)
            comps.append([client if p is CLIENT else
                          np.full(m, _component_to_int(p), dtype=np.uint64)
                          for p in parts])
        self.rows = len(comps) * m
        self.columns = [np.concatenate([c[d] for c in comps if len(c) > d])
                        for d in range(len(comps[0]) if comps else 0)]


_layout = functools.lru_cache(maxsize=256)(_Layout)   # (sets, m) -> their layout
_kept = (None, None)   # (seed, parent key, sets, m) and table of declare's last sibling table


class LaneTable:
    """The lanes of consecutive outer steps, hashed ahead in one uint64 block.

    Step s has the scope stream ``step(s)``, key path ``base + (k0 + s,)``
    (``base`` if k0 is None: a one-step table of a key not ending in an int)
    and running hash ``scopes[s]``. For each lane set, ``hashes[s, at]`` (at
    the set's rows in the layout) holds the running hashes of
    ``step(s).child(*parts)`` with each client id in place of ``CLIENT``.
    ``index(n)`` draws the counter-0 index of every row at once, ``step_index``
    that of a scalar lane at every step, and ``subset`` the minibatch draws of
    one lane set at every step and client, cached and read-only (with
    ``flat=True``, as rows of a client-major sample store). A set with no
    string tag has ``purpose``, the base's innermost one or "unkeyed".
    """

    def __init__(self, seed: int, base: tuple, k0, scopes: np.ndarray, layout: _Layout):
        self.seed, self.base, self.k0, self.scopes, self.layout = seed, base, k0, scopes, layout
        self.purpose = _innermost_tag(base) or "unkeyed"
        h = np.empty((scopes.size, self.layout.rows), dtype=np.uint64)
        h[:] = scopes[:, None]
        for col in self.layout.columns:
            h[:, :col.size] = _mix64_array(h[:, :col.size], col)
        h.flags.writeable = False
        self.hashes = h
        self._index = {}    # (n, flat) -> the (steps, rows) index draws; (path, n) -> step_index
        self._subsets = {}  # (lane set, k, pool, sizes, flat) -> a subset block

    def index(self, n: int, flat: bool = False) -> np.ndarray:
        """Every row's ``index(n)`` draw, shaped (steps, rows); flat adds each
        row's client id times n, so the draws are rows of a client-major
        (m * n, ...) sample store."""
        if type(n) is not int:   # a bool or float equal to a cached n must not hit it
            _check_size("index", "n", n, 1, INDEX_RANGE)
        got = self._index.get((n, flat))
        if got is None:
            got = self._index[n, flat] = _index(self.hashes, n) + (
                np.resize(self.layout.ids, self.layout.rows) * n if flat else 0)
            got.flags.writeable = False
        return got

    def step_index(self, path: tuple, n: int) -> tuple:
        """The ints ``step(s).child(*path).index(n)`` of every step s, 1 <= n < INDEX_RANGE."""
        got = self._index.get((path, n))
        if got is None:   # one hash pass per key part over the step hashes
            h = _extend(self.scopes, path, _mix64_array)
            got = self._index[path, n] = tuple(_index(h, n).tolist())
        return got

    def subset(self, lane_set: tuple, pool: np.ndarray, k: int,
               sizes: np.ndarray | None, flat: bool = False) -> np.ndarray:
        """The ``subset(pool[:sizes[i]], k)`` draws of one lane set at every step
        and client i, shaped (steps, clients, k), where sizes (one per client)
        are the same at every step; flat adds i * len(pool), as ``index`` does.
        Hashed in slices of steps of at most KEY_BUDGET keys, drawn once per
        table and read-only."""
        key = (lane_set, k, pool.tobytes(), None if sizes is None else sizes.tobytes(), flat)
        got = self._subsets.get(key)
        if got is None:
            rows = self.hashes[:, self.layout.at[lane_set][0]]
            per = max(1, KEY_BUDGET // max(1, rows.shape[1] * len(pool)))
            parts = [_subset(r.reshape(-1), pool, k, None if sizes is None
                             else np.broadcast_to(sizes, r.shape).reshape(-1))
                     for r in (rows[a:a + per] for a in range(0, len(rows), per))]
            got = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(
                *rows.shape, parts[0].shape[1])
            if flat:
                got += np.arange(rows.shape[1])[:, None] * len(pool)
            got.flags.writeable = False
            self._subsets[key] = got
        return got

    def step(self, s: int) -> RngStream:
        c = _new(RngStream)
        c.seed, c._scope, c._scope_hash, c.path, c.table, c.s = (
            self.seed, self.base if self.k0 is None else self.base + (self.k0 + s,),
            int(self.scopes[s]), (), self, s)
        return c


def _chunk_steps(layout: _Layout) -> int:
    """The steps of a table of the layout in at most ROW_BUDGET rows (at least one)."""
    return max(1, ROW_BUDGET // max(layout.rows, 1))


def _sibling_table(parent: RngStream, k0: int, steps: int, layout: _Layout) -> LaneTable:
    """The table of the steps ``parent.child(k)``, k = k0..k0+steps-1: the
    chunk builder of ``lane_steps`` and of a free stream's ``declare``."""
    return LaneTable(parent.seed, parent.key, k0, _mix64_array(
        np.array([parent._hash], dtype=np.uint64), np.arange(k0, k0 + steps, dtype=np.uint64)),
        layout)


def lane_steps(root: RngStream, tag: str, K: int, m: int, sets: list):
    """The scope streams ``root.child(tag, k)``, k = 0..K-1, each on its step
    of a table of the lane sets over clients 0..m-1; a table holds at most
    ROW_BUDGET rows (at least one step)."""
    layout, parent = _layout(tuple(sets), m), root.child(tag)
    chunk = _chunk_steps(layout)
    for k0 in range(0, K, chunk):
        table = _sibling_table(parent, k0, min(chunk, K - k0), layout)
        yield from map(table.step, range(len(table.scopes)))


class Lanes:
    """The lanes of one batched oracle call, one per client row.

    Row r is the lane ``step.child(ids[r], *tags)`` of a stream on a lane
    table, table row ``rows[r]`` of the lane set ``lane_set``: ``rows`` is
    the set's whole run, a slice, when a table step's call covers all m
    clients, else an index array (a client subset, or any call on a free
    stream). ``hashes[r]`` is row r's running hash, so every draw of row r
    is that stream's, and ``purpose`` the innermost string tag of the rows'
    key paths (what the samples are for), or "unkeyed". ``index`` reads the
    table's draws; ``subset`` reads the set's block when ``rows`` is a slice,
    and is otherwise, like ``normal``, drawn once per Lanes. Every draw is
    read-only, so the two evaluations of a variance-reduction pair share it.
    """

    __slots__ = ("step", "lane_set", "rows", "ids", "tags", "purpose", "_draws")

    @property
    def hashes(self) -> np.ndarray:
        return self.step.table.hashes[self.step.s, self.rows]

    def stream(self, r: int) -> RngStream:
        return self.step.child(int(self.ids[r]), *self.tags)

    def _drawn(self, key: tuple, draw):
        memo = self._draws = self._draws or {}   # made on the first draw
        out = memo.get(key)
        if out is None:
            out = memo[key] = draw()
            out.flags.writeable = False
        return out

    def index(self, n: int, flat: bool = False) -> np.ndarray:
        """``stream(r).index(n)`` for every row r, for 1 <= n < INDEX_RANGE;
        flat adds ``ids[r] * n``, so the draws are rows of a client-major
        (m * n, ...) sample store, read out of the table's flat block."""
        table, rows = self.step.table, self.rows
        got = table._index.get((n, flat)) if type(n) is int else None
        got = (table.index(n, flat) if got is None else got)[self.step.s, rows]
        if type(rows) is not slice:   # index-array rows take a copy: read-only as well
            got.flags.writeable = False
        return got

    def subset(self, pool: np.ndarray, k: int, sizes: np.ndarray | None = None,
               flat: bool = False) -> np.ndarray:
        """``stream(r).subset(pool[:sizes[r]], k)`` for every row r, stacked (rows, k).

        sizes defaults to the whole pool. Positions from sizes[r] on are keyed
        2**64-1, so they sort after the row's members: a row with sizes[r] < k
        also gets the pool entries from position sizes[r] on, k in all. flat
        adds ``ids[r] * len(pool)``, as ``index`` does. When the rows cover
        every client of the table, they are read out of the table's block for
        their lane set; otherwise they are drawn here."""
        if type(k) is not int:   # a bool or float equal to a cached k must not hit it
            _check_size("subset", "k", k, 0)
        if isinstance(self.rows, slice):
            return self.step.table.subset(self.lane_set, pool, k, sizes, flat)[self.step.s]
        return self._drawn(("subset", k, pool.tobytes(),
                            None if sizes is None else sizes.tobytes(), flat),
                           lambda: _subset(self.hashes, pool, k, sizes)
                           + (self.ids[:, None] * len(pool) if flat else 0))

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """``stream(r).normal(std, shape)`` for every row r, stacked (rows, *shape)."""
        return self._drawn(("normal", std, shape), lambda: _normal(self.hashes, std, shape))
