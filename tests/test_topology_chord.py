"""Unit and property tests for the Chord ring and derived search trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, TopologyError
from repro.topology import ChordRing, chord_search_tree
from repro.topology.chord import chord_hash
from repro.topology.chord_tree import LazyChordTree


def _in_interval(value: int, low: int, high: int, modulus: int) -> bool:
    """Whether ``value`` is in the circular interval ``(low, high]``."""
    low %= modulus
    high %= modulus
    value %= modulus
    if low < high:
        return low < value <= high
    if low > high:
        return value > low or value <= high
    # low == high: the interval covers the whole circle.
    return True


def reference_next_hop(ring: ChordRing, node: int, key: int):
    """Chord's textbook next hop, scanning ``node``'s finger table.

    The specification :meth:`ChordRing.next_hop` must match: forward to
    the successor when it owns ``key``, else to the highest finger in
    ``(node, key)``, else to the successor.
    """
    modulus = 1 << ring.bits
    if node == ring.successor(key):
        return None
    fingers = ring.finger_table(node)
    successor = fingers[0]
    if _in_interval(key, node, successor, modulus):
        return successor
    for finger in reversed(fingers):
        if finger != node and _in_interval(finger, node, key - 1, modulus):
            return finger
    return successor


class TestIntervals:
    def test_plain_interval(self):
        assert _in_interval(5, 3, 8, 16)
        assert _in_interval(8, 3, 8, 16)
        assert not _in_interval(3, 3, 8, 16)
        assert not _in_interval(9, 3, 8, 16)

    def test_wrapping_interval(self):
        assert _in_interval(15, 12, 4, 16)
        assert _in_interval(2, 12, 4, 16)
        assert not _in_interval(8, 12, 4, 16)

    def test_full_circle(self):
        assert _in_interval(7, 5, 5, 16)


@st.composite
def ring_and_keys(draw):
    """A random ring plus keys on, below and above its identifier circle."""
    bits = draw(st.sampled_from((3, 4, 5, 6, 8, 32)))
    modulus = 1 << bits
    n = draw(st.integers(1, min(modulus, 48)))
    seed = draw(st.integers(0, 2**31))
    ring = ChordRing.random(n, np.random.default_rng(seed), bits=bits)
    keys = draw(
        st.lists(st.integers(-modulus, 2 * modulus - 1), min_size=1, max_size=8)
    )
    return ring, keys


class TestNextHopOracle:
    """``ChordRing.next_hop`` equals the finger-scanning reference."""

    @given(ring_and_keys())
    @settings(max_examples=200, deadline=None)
    def test_matches_finger_scan(self, scenario):
        ring, keys = scenario
        for key in keys:
            for node in ring:
                assert ring.next_hop(node, key) == reference_next_hop(
                    ring, node, key
                ), (ring.node_ids, node, key)

    @pytest.mark.parametrize("bits", [3, 4, 5, 6])
    def test_exhaustive_small_rings(self, bits):
        modulus = 1 << bits
        rng = np.random.default_rng(bits)
        for n in (1, 2, 3, modulus // 2, modulus):
            ring = ChordRing.random(n, rng, bits=bits)
            for key in range(-modulus, 2 * modulus):
                for node in ring:
                    expected = reference_next_hop(ring, node, key)
                    assert ring.next_hop(node, key) == expected

    def test_single_node_ring_owns_every_key(self):
        ring = ChordRing([5], bits=4)
        for key in (-20, -1, 0, 5, 15, 16, 40):
            assert ring.next_hop(5, key) is None

    def test_wrapping_key(self):
        # Key 1 lies past the top of the circle: from 12 the route wraps
        # through 0 to the owner 2; from 8 it first takes finger 12.
        # Keys off the circle reduce modulo 16.
        ring = ChordRing([2, 8, 12], bits=4)
        for key in (1, 17, -15):
            assert ring.next_hop(12, key) == 2
            assert ring.next_hop(8, key) == 12
            assert ring.lookup_path(8, key) == [8, 12, 2]

    def test_unknown_node_raises(self):
        ring = ChordRing([2, 8], bits=4)
        with pytest.raises(NodeNotFoundError):
            ring.next_hop(5, 0)
        with pytest.raises(NodeNotFoundError):
            ring.finger_table(5)

    @given(st.integers(1, 80), st.integers(0, 2**31), st.integers(0, 2**24))
    @settings(max_examples=30, deadline=None)
    def test_lazy_tree_parents_equal_eager_edges(self, n, seed, key):
        ring = ChordRing.random(n, np.random.default_rng(seed), bits=20)
        eager = chord_search_tree(ring, key)
        lazy = LazyChordTree(ring, key)
        assert lazy.root == eager.root
        for node in ring:
            assert lazy.parent(node) == eager.parent(node)
            assert lazy.depth(node) == eager.depth(node)


class TestChordRing:
    def test_successor_wraps(self):
        ring = ChordRing([2, 8, 14], bits=4)
        assert ring.successor(3) == 8
        assert ring.successor(8) == 8
        assert ring.successor(15) == 2  # wraps past the top

    def test_predecessor(self):
        ring = ChordRing([2, 8, 14], bits=4)
        assert ring.predecessor(8) == 2
        assert ring.predecessor(2) == 14

    def test_finger_table_definition(self):
        ring = ChordRing([2, 8, 14], bits=4)
        fingers = ring.finger_table(2)
        expected = [ring.successor((2 + 2**k) % 16) for k in range(4)]
        assert list(fingers) == expected

    def test_single_node_ring(self):
        ring = ChordRing([5], bits=4)
        assert ring.successor(0) == 5
        assert ring.lookup_path(5, 11) == [5]

    def test_lookup_reaches_owner(self):
        ring = ChordRing.random(64, np.random.default_rng(0), bits=16)
        for key in (0, 1234, 65535, 40000):
            path = ring.lookup_path(ring.node_ids[0], key)
            assert path[-1] == ring.successor(key)

    def test_lookup_is_logarithmic(self):
        rng = np.random.default_rng(1)
        ring = ChordRing.random(256, rng, bits=32)
        lengths = [
            ring.path_length(int(start), int(rng.integers(0, 1 << 32)))
            for start in rng.choice(ring.node_ids, size=50)
        ]
        # O(log n): 256 nodes -> expect ~8 hops, allow generous slack.
        assert max(lengths) <= 2 * 8 + 4

    def test_duplicate_ids_collapse(self):
        ring = ChordRing([3, 3, 9], bits=4)
        assert len(ring) == 2

    def test_invalid_ids_rejected(self):
        with pytest.raises(TopologyError):
            ChordRing([17], bits=4)
        with pytest.raises(TopologyError):
            ChordRing([], bits=4)

    def test_unknown_node_rejected(self):
        ring = ChordRing([2, 8], bits=4)
        with pytest.raises(NodeNotFoundError):
            ring.lookup_path(5, 0)

    def test_from_labels_deterministic(self):
        first = ChordRing.from_labels(["a", "b", "c"], bits=16)
        second = ChordRing.from_labels(["a", "b", "c"], bits=16)
        assert first.node_ids == second.node_ids

    def test_chord_hash_range(self):
        for label in ("x", "yy", "zzz"):
            assert 0 <= chord_hash(label, 8) < 256

    def test_random_ring_distinct_ids(self):
        ring = ChordRing.random(100, np.random.default_rng(3), bits=16)
        assert len(ring) == 100

    def test_random_too_many_nodes_rejected(self):
        with pytest.raises(TopologyError):
            ChordRing.random(20, np.random.default_rng(0), bits=4)


class TestChordSearchTree:
    def test_tree_spans_ring(self):
        ring = ChordRing.random(128, np.random.default_rng(4), bits=24)
        tree = chord_search_tree(ring, key=12345)
        assert len(tree) == len(ring)
        assert tree.root == ring.successor(12345)
        tree.validate()

    def test_tree_parent_is_next_hop(self):
        ring = ChordRing.random(64, np.random.default_rng(5), bits=20)
        key = 999
        tree = chord_search_tree(ring, key)
        for node in ring:
            if node == tree.root:
                continue
            assert tree.parent(node) == ring.next_hop(node, key)

    def test_tree_paths_match_lookup_paths(self):
        ring = ChordRing.random(64, np.random.default_rng(6), bits=20)
        key = 31337
        tree = chord_search_tree(ring, key)
        for node in list(ring)[:10]:
            assert tree.path_to_root(node) == ring.lookup_path(node, key)

    @given(st.integers(2, 100), st.integers(0, 2**31), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_tree_always_valid(self, n, seed, key):
        ring = ChordRing.random(n, np.random.default_rng(seed), bits=24)
        tree = chord_search_tree(ring, key)
        tree.validate()
        assert len(tree) == len(ring)
