"""Server/client exchange simulation and communication-round accounting.

A communication round is exactly one aggregate-and-broadcast exchange:
participating clients upload their local payloads, the server averages them
and broadcasts the result back. Several vectors uploaded together in one call
piggyback on a single round; this is what makes the fused estimator's
per-outer-iteration total come out to 2N+3 against the baseline's 2N+T+3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ProtocolError
from .rng import RngStream


@dataclass
class CommLedger:
    """Running totals of rounds, loops and uploaded payload scalars.

    rounds_this_outer resets at each outer-iteration start and accumulates
    into rounds_total; scalars_sent counts uploaded floats (participants times
    payload length per round).
    """

    rounds_total: int = 0
    rounds_this_outer: int = 0
    loops_total: int = 0
    loops_this_outer: int = 0
    scalars_sent: int = 0
    outer_history: list = field(default_factory=list)  # (rounds, loops) per outer itr

    def start_outer(self) -> None:
        self.rounds_this_outer = 0
        self.loops_this_outer = 0

    def finish_outer(self) -> None:
        self.outer_history.append((self.rounds_this_outer, self.loops_this_outer))

    def begin_loop(self) -> None:
        self.loops_this_outer += 1
        self.loops_total += 1

    def record_round(self, scalars: int) -> None:
        self.rounds_this_outer += 1
        self.rounds_total += 1
        self.scalars_sent += scalars


@dataclass(frozen=True)
class Participation:
    """Uniform-without-replacement client sampling at ratio C per round."""

    ratio: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ProtocolError(f"participation ratio must be in (0, 1], got {self.ratio}")

    def size(self, m: int) -> int:
        return max(1, round(self.ratio * m))


def select_participants(participation: Participation, m: int,
                        rng: RngStream) -> list[int]:
    """Sample the participant set for one outer iteration; sorted client ids."""
    if m < 1:
        raise ProtocolError("need at least one client")
    k = participation.size(m)
    if k >= m:
        return list(range(m))
    gen = rng.generator()
    return sorted(int(i) for i in gen.choice(m, size=k, replace=False))


def aggregate_mean(payloads: Mapping[int, np.ndarray | Sequence[np.ndarray]],
                   ledger: CommLedger):
    """One aggregate-and-broadcast round over a client-id-keyed payload map.

    Each client may upload a single vector or a tuple of vectors (piggybacked:
    still one round). Returns the exact arithmetic mean with summation in
    sorted-client-id order, so the result is invariant to dict insertion order.
    """
    if not payloads:
        raise ProtocolError("empty participant set")
    ids = sorted(payloads)
    first = payloads[ids[0]]
    grouped = isinstance(first, (tuple, list))
    groups = [payloads[i] if grouped else (payloads[i],) for i in ids]

    n_parts = len(groups[0])
    if any(len(g) != n_parts for g in groups):
        raise ProtocolError("all clients must upload the same payload structure")
    means = []
    scalars = 0
    for j in range(n_parts):
        stack = np.stack([np.asarray(g[j], dtype=float) for g in groups])
        if stack.ndim != 2:
            raise ProtocolError("payload vectors must be 1-D")
        means.append(stack.mean(axis=0))
        scalars += stack.size
    ledger.record_round(scalars)
    return means if grouped else means[0]
