"""Server/client exchange simulation and communication-round accounting.

A communication round is exactly one aggregate-and-broadcast exchange:
participating clients upload their local payloads, the server averages them
and broadcasts the result back. Several vectors uploaded together in one call
piggyback on a single round; this is what makes the fused estimator's
per-outer-iteration total come out to 2N+3 against the baseline's 2N+T+3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ProtocolError
from .rng import RngStream

_FLOAT = np.dtype(float)
_NOT_STACKS = "payloads must be (clients, dim) stacks with one row per client"


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
    """Sample the participant set for one outer iteration; sorted client ids.

    k of the m clients, uniform without replacement: the counter-based
    ``rng.subset(arange(m), k)``, or every client when k >= m."""
    if m < 1:
        raise ProtocolError("need at least one client")
    k = participation.size(m)
    if k >= m:
        return list(range(m))
    return rng.subset(np.arange(m), k).tolist()


def client_ids(participants: Iterable[int]) -> np.ndarray:
    """The participant set as a sorted array of distinct client ids: the row
    order of every batched oracle call and aggregation round."""
    if isinstance(participants, np.ndarray):
        participants = participants.tolist()
    ids = np.array(sorted(set(participants)))
    if not ids.size:
        raise ProtocolError("empty participant set")
    if ids.dtype.kind not in "iu":
        raise ProtocolError(f"participant ids must be integers, got {ids.tolist()}")
    return ids.astype(np.intp, copy=False)


def aggregate_mean(payloads: np.ndarray | Sequence[np.ndarray], ledger: CommLedger):
    """One aggregate-and-broadcast round over stacked client uploads.

    ``payloads`` is a (k, d) stack holding one row per participant, in
    sorted-client-id order, or a list of such stacks uploaded together
    (piggybacked: still one round). Returns the exact arithmetic mean over
    the rows of each stack; because rows come in id order, the result does
    not depend on the order in which the participants were listed.
    """
    grouped = isinstance(payloads, (tuple, list))
    stacks, k, scalars = [], -1, 0
    for s in (payloads if grouped else (payloads,)):
        if type(s) is not np.ndarray or s.dtype is not _FLOAT:
            s = np.asarray(s, dtype=float)
        if s.ndim != 2 or (stacks and s.shape[0] != k):
            raise ProtocolError(_NOT_STACKS)
        k, scalars = s.shape[0], scalars + s.size
        stacks.append(s)
    if k < 1:   # no stacks, or empty ones
        raise ProtocolError("empty participant set" if k == 0 else _NOT_STACKS)
    ledger.record_round(scalars)
    means = [np.add.reduce(s, 0) / k for s in stacks]   # the bits of s.mean(axis=0)
    return means if grouped else means[0]
