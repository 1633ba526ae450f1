"""Flat array state for the multi-key scale engine.

At 10^5+ nodes the per-object layers — per-entry timer objects,
per-node subscriber lists — dominate memory and make every sweep a
Python loop.  This module provides the flat replacements:

* :class:`ExpiryWheel` — an append-only (deadline, a, b) record array
  with one vectorized ``np.flatnonzero(expiry <= now)`` pass per sweep.
  Records are *hints*: the wheel never cancels, callers re-validate on
  pop (a refreshed cache entry simply produces a stale hint that the
  re-validation drops).
* :class:`FlatSubscriberTable` — (holder, entry) subscription pairs as
  parallel int arrays with O(1) membership and swap-with-last removal,
  so population-wide fanout statistics are one ``np.unique`` call.

Everything here is deterministic and allocation-frugal; nothing draws
randomness.  The multi-key scale engine builds on these.
"""

from __future__ import annotations

import numpy as np

NodeId = int


class ExpiryWheel:
    """Vectorized TTL sweeps over append-only (deadline, a, b) records.

    ``push`` appends one record (amortized O(1)); ``pop_due`` compacts
    the array with a single ``np.flatnonzero(expiry <= now)`` pass and
    returns the due ``(a, b)`` tags in insertion order.  Records are
    never cancelled or updated in place — a renewed entry just pushes a
    fresh record, and the caller drops the superseded hint when it pops
    (lazy invalidation).  ``a``/``b`` are opaque int tags; the cache
    sweep uses (node, key), the lease sweep (holder, entry).
    """

    __slots__ = ("_times", "_a", "_b", "_size")

    def __init__(self, capacity: int = 256):
        capacity = max(16, int(capacity))
        self._times = np.empty(capacity, dtype=np.float64)
        self._a = np.empty(capacity, dtype=np.int64)
        self._b = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def push(self, deadline: float, a: int, b: int = 0) -> None:
        """Record that ``(a, b)`` is due at ``deadline``."""
        size = self._size
        if size == len(self._times):
            capacity = size * 2
            self._times = np.resize(self._times, capacity)
            self._a = np.resize(self._a, capacity)
            self._b = np.resize(self._b, capacity)
        self._times[size] = deadline
        self._a[size] = a
        self._b[size] = b
        self._size = size + 1

    def pop_due(self, now: float) -> list[tuple[int, int]]:
        """All records with ``deadline <= now``, removed and returned."""
        size = self._size
        if not size:
            return []
        times = self._times[:size]
        due = np.flatnonzero(times <= now)
        if not due.size:
            return []
        out = list(
            zip(self._a[due].tolist(), self._b[due].tolist())
        )
        keep = np.flatnonzero(times > now)
        kept = keep.size
        self._times[:kept] = times[keep]
        self._a[:kept] = self._a[:size][keep]
        self._b[:kept] = self._b[:size][keep]
        self._size = kept
        return out

    def next_deadline(self) -> float:
        """Earliest pending deadline (``inf`` when empty)."""
        if not self._size:
            return float("inf")
        return float(self._times[: self._size].min())

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"ExpiryWheel(pending={self._size})"


class FlatSubscriberTable:
    """(holder, entry) subscription pairs as parallel int arrays.

    O(1) add/discard/membership through a row index; removal swaps the
    last row in.  Fanout statistics over the whole population —
    per-holder counts, the max/mean fanout the telemetry layer samples —
    are single ``np.unique`` passes instead of dict iterations.
    """

    __slots__ = ("_holders", "_entries", "_rows", "_size")

    def __init__(self, capacity: int = 256):
        capacity = max(16, int(capacity))
        self._holders = np.empty(capacity, dtype=np.int64)
        self._entries = np.empty(capacity, dtype=np.int64)
        self._rows: dict[tuple[int, int], int] = {}
        self._size = 0

    def add(self, holder: NodeId, entry: NodeId) -> bool:
        """Insert the pair; returns False when it was already present."""
        pair = (holder, entry)
        if pair in self._rows:
            return False
        size = self._size
        if size == len(self._holders):
            capacity = size * 2
            self._holders = np.resize(self._holders, capacity)
            self._entries = np.resize(self._entries, capacity)
        self._holders[size] = holder
        self._entries[size] = entry
        self._rows[pair] = size
        self._size = size + 1
        return True

    def discard(self, holder: NodeId, entry: NodeId) -> bool:
        """Remove the pair; returns False when it was absent."""
        row = self._rows.pop((holder, entry), None)
        if row is None:
            return False
        last = self._size - 1
        if row != last:
            moved = (int(self._holders[last]), int(self._entries[last]))
            self._holders[row] = moved[0]
            self._entries[row] = moved[1]
            self._rows[moved] = row
        self._size = last
        return True

    def __contains__(self, pair: tuple[NodeId, NodeId]) -> bool:
        return pair in self._rows

    def __len__(self) -> int:
        return self._size

    def entries_for(self, holder: NodeId) -> np.ndarray:
        """Entries held by ``holder`` (one vectorized pass)."""
        prefix = self._holders[: self._size]
        return self._entries[: self._size][prefix == holder]

    def count_for(self, holder: NodeId) -> int:
        """Number of entries ``holder`` lists."""
        return int(
            np.count_nonzero(self._holders[: self._size] == holder)
        )

    def fanout(self) -> tuple[np.ndarray, np.ndarray]:
        """(holders, counts) over the whole table — one ``np.unique``."""
        return np.unique(self._holders[: self._size], return_counts=True)

    def max_fanout(self) -> int:
        """Largest per-holder entry count (0 when empty)."""
        if not self._size:
            return 0
        _, counts = self.fanout()
        return int(counts.max())

    def __repr__(self) -> str:
        return f"FlatSubscriberTable(pairs={self._size})"
