"""The equal-work gate: an order-independent digest of a pair multiset.

A run's joined pairs must equal ``naive_window_join`` over the same
trace as a multiset.  Sorting and comparing millions of pairs costs
more than the run itself and gigabytes of memory, so both sides are
reduced to ``(count, sum of mixed pairs mod 2**64)``: the mix spreads
every ``(s0 seq, s1 seq)`` pair over 64 bits, so a missing, extra or
altered pair changes the sum.
"""

from __future__ import annotations

import numpy as np

from repro.data.tuples import TupleBatch
from repro.reference import naive_window_join

Digest = tuple[int, int]

#: Key classes the oracle is split into.  The join matches keys only
#: within a class, so per-class oracles add up to the whole one, and
#: the oracle's same-key candidate array shrinks by this factor.
ORACLE_KEY_CLASSES = 8


def _mix(pairs: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over both columns (uint64, wrapping)."""
    with np.errstate(over="ignore"):
        x = pairs[:, 0].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x ^= pairs[:, 1].astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def digest(pairs: np.ndarray | None) -> Digest:
    """``(count, mixed sum)`` of an ``(n, 2)`` pair array."""
    if pairs is None or not len(pairs):
        return 0, 0
    total = int(_mix(np.asarray(pairs)).sum(dtype=np.uint64))
    return len(pairs), total


def combine(parts: list[Digest]) -> Digest:
    return sum(c for c, _ in parts), sum(s for _, s in parts) % (1 << 64)


def oracle_digest(trace: TupleBatch, window_seconds: float) -> Digest:
    """Digest of ``naive_window_join(trace)``, one key class at a time."""
    classes = trace.key % ORACLE_KEY_CLASSES
    return combine(
        [
            digest(naive_window_join(trace.select(classes == c), window_seconds))
            for c in range(ORACLE_KEY_CLASSES)
        ]
    )
