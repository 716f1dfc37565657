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
log/cos/sin. Set-up draws use ``generator()``. ``RngStream.lanes`` hashes the
lanes ``child(i, *tags)`` of a whole participant set at once, for the batched
oracles; ``Lanes`` draws every row's samples from one (rows, n) hash block.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(h: int, v: int) -> int:
    # splitmix64 finalizer; cheap, stable across platforms
    h = (h + v + _GOLDEN) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _mix64_counters(hashes, n: int) -> np.ndarray:
    """The (rows, n) block ``_mix64(hashes[r], c)`` for the counters c = 0..n-1,
    in wrapping uint64 arithmetic."""
    z = np.arange(n, dtype=np.uint64) + np.array(hashes, dtype=np.uint64)[:, None]
    z += np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        ids = tuple(ids.tolist() if isinstance(ids, np.ndarray) else map(int, ids))
        # _mix64 inlined: this loop runs once per client and key part
        tail = [_component_to_int(c) + _GOLDEN for c in tags]
        hashes = []
        for i in ids:
            h = self._hash
            for v in ((i & _MASK64) + _GOLDEN, *tail):
                h = (h + v) & _MASK64
                h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
                h ^= h >> 31
            hashes.append(h)
        return Lanes(self.seed, self.key, ids, tags, tuple(hashes))

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


@dataclass(frozen=True)
class Lanes:
    """The lanes of one batched oracle call, one per client row.

    Row r is the lane ``RngStream(seed, prefix).child(ids[r], *tags)``:
    ``hashes[r]`` is its running hash, so ``index``, ``subset`` and ``normal``
    draw row r exactly as that stream would. ``Lanes.of(lane)`` wraps one
    existing stream as a batch of one.
    """

    seed: int
    prefix: tuple
    ids: tuple
    tags: tuple
    hashes: tuple

    @classmethod
    def of(cls, lane: RngStream) -> "Lanes":
        return cls(lane.seed, lane.key, (), (), (lane._hash,))

    @property
    def purpose(self) -> str:
        """The innermost string tag of the rows' key paths (what the samples
        are for, the same for every row), or "unkeyed"."""
        return _innermost_tag(self.prefix + self.tags)

    def stream(self, r: int) -> RngStream:
        return RngStream(self.seed, self.prefix + self.ids[r:r + 1] + self.tags,
                         self.hashes[r])

    def index(self, n: int) -> np.ndarray:
        """``stream(r).index(n)`` for every row r."""
        return np.array([(_mix64(h, 0) * n) >> 64 for h in self.hashes], dtype=np.intp)

    def subset(self, pool: np.ndarray, k: int, sizes: np.ndarray | None = None) -> np.ndarray:
        """``stream(r).subset(pool[:sizes[r]], k)`` for every row r, stacked (rows, k).

        sizes defaults to the whole pool. Positions from sizes[r] on are keyed
        2**64-1, so they sort after the row's members: a row with sizes[r] < k
        also gets the pool entries from position sizes[r] on, k in all."""
        keys = _mix64_counters(self.hashes, len(pool))
        if sizes is not None:
            keys[np.arange(len(pool)) >= sizes[:, None]] = _MASK64
        return np.sort(pool[np.argsort(keys, axis=1, kind="stable")[:, :k]], axis=1)

    def normal(self, std: float, shape: tuple) -> np.ndarray:
        """``stream(r).normal(std, shape)`` for every row r, stacked (rows, *shape).
        Box-Muller over 53-bit uniforms in (0, 1]."""
        n = math.prod(shape)
        u = 1.0 - (_mix64_counters(self.hashes, n + n % 2) >> np.uint64(11)) * 2.0 ** -53
        r = std * np.sqrt(-2.0 * np.log(u[:, 0::2]))
        theta = 2.0 * np.pi * u[:, 1::2]
        z = np.concatenate((r * np.cos(theta), r * np.sin(theta)), axis=1)
        return z[:, :n].reshape(-1, *shape)
