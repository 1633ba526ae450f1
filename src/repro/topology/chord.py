"""A Chord distributed hash table (Stoica et al., SIGCOMM 2001).

The paper targets *structured* peer-to-peer networks and cites Chord as the
canonical example: queries for a key are routed along well-defined paths to
the key's authority node, and those paths form the index search tree.  This
module implements a complete static Chord ring — identifier circle, finger
tables, successor lists, and greedy lookup — from which
:func:`repro.topology.chord_tree.chord_search_tree` derives per-key search
trees.

Identifiers live on a ``2**m`` circle.  A key ``k`` is owned by
``successor(k)``: the first node clockwise from ``k``.  Lookups hop via the
*closest preceding finger*, halving the remaining distance each step, so
paths have O(log n) hops.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import NodeNotFoundError, TopologyError


def chord_hash(label: str, bits: int) -> int:
    """Deterministic ``bits``-bit hash of a string label (SHA-1 based)."""
    digest = hashlib.sha1(label.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


class ChordRing:
    """A static Chord identifier circle with finger tables.

    Parameters
    ----------
    node_ids:
        Distinct identifiers in ``[0, 2**bits)``; one per participating
        node.
    bits:
        Size of the identifier space (``m`` in the Chord paper).
    """

    def __init__(self, node_ids: Iterable[int], bits: int = 32):
        if bits < 1:
            raise TopologyError(f"bits must be >= 1, got {bits}")
        self._bits = bits
        self._modulus = 1 << bits
        ids = sorted(set(int(i) for i in node_ids))
        if not ids:
            raise TopologyError("a Chord ring needs at least one node")
        if ids[0] < 0 or ids[-1] >= self._modulus:
            raise TopologyError(
                f"node ids must lie in [0, 2**{bits}); got range "
                f"[{ids[0]}, {ids[-1]}]"
            )
        self._ids = ids
        self._id_set = frozenset(ids)
        self._ids_np = np.asarray(ids, dtype=np.int64)
        # Finger matrix: row i is node ids[i]'s finger table, built in one
        # vectorized searchsorted over all n*bits targets instead of
        # n*bits bisect calls (the construction bottleneck at 10^5
        # nodes).  searchsorted-left is exactly bisect_left, and the
        # ``% n`` wraps an off-the-end index to ids[0] — successor().
        if bits <= 62:
            shifts = np.left_shift(
                np.int64(1), np.arange(bits, dtype=np.int64)
            )
            targets = (self._ids_np[:, None] + shifts[None, :]) % self._modulus
            rows = np.searchsorted(self._ids_np, targets, side="left")
            self._finger_np = self._ids_np[rows % len(ids)]
        else:  # pragma: no cover - identifier spaces beyond int64
            self._finger_np = np.array(
                [
                    [
                        self.successor((node + (1 << k)) % self._modulus)
                        for k in range(bits)
                    ]
                    for node in ids
                ],
                dtype=object,
            )

    # -- constructors ----------------------------------------------------
    @classmethod
    def random(
        cls, n: int, rng: np.random.Generator, bits: int = 32
    ) -> "ChordRing":
        """A ring of ``n`` nodes with distinct uniform-random identifiers."""
        if n < 1:
            raise TopologyError(f"need at least one node, got n={n}")
        if n > (1 << bits):
            raise TopologyError(
                f"cannot place {n} distinct ids in a {bits}-bit space"
            )
        chosen: set[int] = set()
        while len(chosen) < n:
            needed = n - len(chosen)
            draws = rng.integers(0, 1 << bits, size=needed * 2, dtype=np.int64)
            for draw in draws:
                chosen.add(int(draw))
                if len(chosen) == n:
                    break
        return cls(chosen, bits=bits)

    @classmethod
    def from_labels(
        cls, labels: Iterable[str], bits: int = 32
    ) -> "ChordRing":
        """A ring whose node ids are SHA-1 hashes of string labels."""
        ids = {chord_hash(label, bits) for label in labels}
        return cls(ids, bits=bits)

    # -- basic queries ---------------------------------------------------
    @property
    def bits(self) -> int:
        """Identifier-space size in bits."""
        return self._bits

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node identifiers, ascending."""
        return tuple(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def members(self) -> frozenset[int]:
        """All node identifiers, as a set (membership tests)."""
        return self._id_set

    def __contains__(self, node: int) -> bool:
        return node in self._id_set

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def successor(self, key: int) -> int:
        """The node owning ``key``: first node clockwise from ``key``."""
        key %= self._modulus
        index = bisect.bisect_left(self._ids, key)
        if index == len(self._ids):
            return self._ids[0]
        return self._ids[index]

    def predecessor(self, node: int) -> int:
        """The node immediately counter-clockwise from ``node``."""
        self._require(node)
        index = bisect.bisect_left(self._ids, node)
        return self._ids[index - 1] if index > 0 else self._ids[-1]

    def finger_table(self, node: int) -> tuple[int, ...]:
        """``node``'s finger table: entry k is successor(node + 2**k)."""
        self._require(node)
        index = bisect.bisect_left(self._ids, node)
        return tuple(int(f) for f in self._finger_np[index])

    # -- routing -----------------------------------------------------------
    def next_hop(self, node: int, key: int) -> Optional[int]:
        """Next node on the lookup route from ``node`` toward ``key``.

        Chord forwards to the closest finger preceding ``key``, or to
        the owner when ``node`` is its predecessor.  Returns ``None``
        when ``node`` already owns ``key``.

        Finger ``k`` is ``successor(node + 2**k)``, so finger distances
        from ``node`` never decrease in ``k``, and the closest preceding
        finger has a closed form.  Let ``d`` be the distance from
        ``node`` to the owner's predecessor ``p`` and ``k`` be
        ``d.bit_length() - 1``: finger ``k`` is at most ``d`` away (``p``
        itself is a candidate), while finger ``k + 1`` starts its search
        past ``p`` and so reaches the owner or beyond.  A hop costs two
        bisects and keeps no per-node finger row.
        """
        if node not in self._id_set:
            raise NodeNotFoundError(f"node {node} not on the ring")
        ids = self._ids
        modulus = self._modulus
        index = bisect.bisect_left(ids, key % modulus)
        owner = ids[index] if index < len(ids) else ids[0]
        if node == owner:
            return None
        last = ids[index - 1]  # the owner's predecessor (wraps at 0)
        if last == node:
            return owner
        step = 1 << (((last - node) % modulus).bit_length() - 1)
        return self.successor(node + step)

    def lookup_path(self, start: int, key: int) -> list[int]:
        """The full lookup route from ``start`` to the owner of ``key``.

        The returned list starts with ``start`` and ends with the owner.
        """
        self._require(start)
        path = [start]
        current = start
        for _ in range(len(self._ids) + 1):
            hop = self.next_hop(current, key)
            if hop is None:
                return path
            path.append(hop)
            current = hop
        raise TopologyError(  # pragma: no cover - defensive
            f"lookup for key {key} from {start} did not converge"
        )

    def path_length(self, start: int, key: int) -> int:
        """Number of hops on the lookup route from ``start`` to the owner."""
        return len(self.lookup_path(start, key)) - 1

    def _require(self, node: int) -> None:
        if node not in self:
            raise NodeNotFoundError(f"node {node} not on the ring")

    def __repr__(self) -> str:
        return f"ChordRing(nodes={len(self._ids)}, bits={self._bits})"
