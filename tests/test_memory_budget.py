"""Memory budgets for the state a multi-key run keeps per (node, key).

A multi-key run holds one interest window per (node, key) pair and
routes every query over the Chord ring, so a few hundred bytes more per
window or a cached row per routed node multiply into tens of MiB at
8192 nodes x 256 keys.  These budgets keep such per-entry overheads from
creeping back; ``tracemalloc`` counts only Python allocations, so they
do not depend on the process's resident set.
"""

import gc
import tracemalloc

import numpy as np

from repro.core.interest import WindowInterestPolicy
from repro.topology import ChordRing


def retained_bytes(build):
    """Bytes still allocated after ``build()`` returns, plus its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept, after - before


def test_window_policy_with_one_arrival_fits_budget():
    count = 2000

    def build():
        policies = []
        for i in range(count):
            policy = WindowInterestPolicy(3600.0, 2)
            policy.record(i + 0.5)
            policies.append(policy)
        return policies

    policies, retained = retained_bytes(build)
    assert all(policy.count(3600.0) == 1 for policy in policies)
    assert retained / count <= 256, f"{retained / count:.0f} B per window"


def test_chord_routing_keeps_no_per_node_rows():
    rng = np.random.default_rng(0)
    ring = ChordRing.random(8192, rng, bits=32)
    starts = [int(node) for node in rng.choice(ring.node_ids, 1000)]
    keys = [int(key) for key in rng.integers(0, 1 << 32, 1000)]
    ring.lookup_path(starts[0], keys[0])  # warm any one-off allocation

    def route():
        hops = 0
        for start, key in zip(starts, keys):
            hops += len(ring.lookup_path(start, key)) - 1
        return hops

    hops, retained = retained_bytes(route)
    assert hops > 1000
    assert retained < 64 * 1024, f"routing retained {retained} B"
