"""Tests of the multi-key simulation engine."""

import dataclasses

import pytest

from repro.core.interest import (
    AdaptiveInterestPolicy,
    EwmaInterestPolicy,
    WindowInterestPolicy,
)
from repro.engine import SimulationConfig
from repro.engine.multikey import MultiKeySimulation, _KeySlice
from repro.errors import ConfigError
from repro.index.entry import IndexVersion
from repro.workload import ChurnConfig


def multikey_config(**overrides):
    defaults = dict(
        scheme="dup",
        topology="chord",
        num_nodes=96,
        query_rate=4.0,
        duration=3600.0 * 4,
        warmup=3600.0,
        seed=8,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConstruction:
    def test_requires_chord(self):
        with pytest.raises(ConfigError):
            MultiKeySimulation(multikey_config(topology="random-tree"))

    def test_requires_positive_keys(self):
        with pytest.raises(ConfigError):
            MultiKeySimulation(multikey_config(), num_keys=0)

    def test_rejects_churn(self):
        churn = ChurnConfig(join_rate=0.1)
        with pytest.raises(ConfigError):
            MultiKeySimulation(multikey_config(churn=churn))

    def test_per_key_trees_have_distinct_roots_usually(self):
        sim = MultiKeySimulation(multikey_config(), num_keys=8)
        roots = {slice_.tree.root for slice_ in sim.slices.values()}
        assert len(roots) >= 4

    def test_every_tree_spans_the_ring(self):
        sim = MultiKeySimulation(multikey_config(), num_keys=4)
        for slice_ in sim.slices.values():
            assert len(slice_.tree) == len(sim.ring)
            slice_.tree.validate()


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return MultiKeySimulation(multikey_config(), num_keys=6).run()

    def test_queries_flow(self, result):
        assert result.queries > 100
        assert 0 <= result.hit_rate <= 1

    def test_per_key_counts_sum_to_total(self, result):
        per_key = result.extras["queries_per_key"]
        assert sum(per_key.values()) == result.queries

    def test_key_popularity_is_skewed(self, result):
        counts = sorted(result.extras["queries_per_key"].values(), reverse=True)
        assert counts[0] > counts[-1]

    def test_subscriptions_span_keys(self, result):
        assert result.extras.get("total_subscriptions", 0) > 0

    def test_runs_once(self):
        sim = MultiKeySimulation(multikey_config(), num_keys=2)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestCrossKeyIsolation:
    def test_caches_hold_multiple_keys(self):
        sim = MultiKeySimulation(multikey_config(), num_keys=4)
        sim.run()
        multi = [
            node
            for node, cache in sim._caches.items()
            if len(cache) >= 2
        ]
        assert multi  # some node cached more than one index

    def test_dup_beats_pcx_aggregate(self):
        results = {}
        for scheme in ("pcx", "dup"):
            sim = MultiKeySimulation(
                multikey_config(scheme=scheme, query_rate=8.0), num_keys=6
            )
            results[scheme] = sim.run()
        assert (
            results["dup"].mean_latency <= results["pcx"].mean_latency
        )
        assert (
            results["dup"].cost_per_query
            <= results["pcx"].cost_per_query * 1.05
        )

    def test_determinism(self):
        first = MultiKeySimulation(multikey_config(), num_keys=3).run()
        second = MultiKeySimulation(multikey_config(), num_keys=3).run()
        assert first.mean_latency == second.mean_latency
        assert first.extras["queries_per_key"] == second.extras[
            "queries_per_key"
        ]


class TestScaleEngine:
    """The sharded scale path: determinism, conservation, worker parity."""

    def _scale_config(self, **overrides):
        defaults = dict(
            scheme="dup",
            topology="chord",
            num_nodes=192,
            query_rate=6.0,
            duration=3600.0 * 2,
            warmup=1800.0,
            seed=8,
            keep_latency_samples=False,
        )
        defaults.update(overrides)
        return SimulationConfig(**defaults)

    def _fingerprint(self, merged):
        return repr(
            (
                merged.queries,
                merged.mean_latency,
                merged.hit_rate,
                merged.cost_per_query,
                merged.extras["latency_p95"],
                merged.extras["parents_touched"],
                merged.extras["swept_entries"],
                sorted(merged.extras["queries_per_key"].items()),
            )
        )

    def test_workers_1_and_4_bit_identical(self):
        from repro.engine.multikey import run_scale

        merged = {
            workers: run_scale(
                self._scale_config(),
                num_keys=24,
                key_zipf_theta=0.8,
                workers=workers,
            )
            for workers in (1, 4)
        }
        assert self._fingerprint(merged[1]) == self._fingerprint(merged[4])

    def test_shard_count_is_pure_function_of_keys(self):
        from repro.engine.multikey import default_shard_count

        assert default_shard_count(1) == 1
        assert default_shard_count(4) == 4
        assert default_shard_count(1024) == 8
        # Worker-count invariance hinges on this: the shard plan must
        # never depend on how many processes execute it.

    def test_scale_run_conserves_queries_across_shards(self):
        from repro.engine.multikey import run_scale

        merged = run_scale(
            self._scale_config(), num_keys=16, key_zipf_theta=0.8, workers=1
        )
        per_key = merged.extras["queries_per_key"]
        assert sum(per_key.values()) == merged.queries
        assert merged.queries > 0
        assert len(per_key) == 16

    def test_scale_rejects_churn_and_non_chord(self):
        from repro.engine.multikey import MultiKeyScaleSimulation

        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(topology="random-tree"), num_keys=8
            )
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(churn=ChurnConfig(join_rate=0.1)),
                num_keys=8,
            )
        with pytest.raises(ConfigError):
            MultiKeyScaleSimulation(
                self._scale_config(), num_keys=4, shard_count=8
            )


class TestScaleProgressLabels:
    def test_shards_carry_the_run_replication_not_their_index(self):
        from repro.engine.multikey import run_scale
        from repro.engine.parallel import set_default_progress

        config = multikey_config(num_nodes=48, duration=1200.0, warmup=300.0)
        lines: list[str] = []
        previous = set_default_progress(lines.append)
        try:
            run_scale(config, num_keys=4, shard_count=4, workers=1)
        finally:
            set_default_progress(previous)
        assert len(lines) == 4
        for index, line in enumerate(lines):
            assert f"'shard_index': {index}," in line
            assert " rep=0 " in line


def _scale_shard(**overrides):
    from repro.engine.multikey import MultiKeyScaleSimulation

    defaults = dict(
        scheme="dup",
        topology="chord",
        num_nodes=160,
        query_rate=6.0,
        duration=3600.0 * 2,
        warmup=1800.0,
        seed=8,
        keep_latency_samples=False,
    )
    defaults.update(overrides)
    return MultiKeyScaleSimulation(
        SimulationConfig(**defaults), num_keys=12, shard_index=0, shard_count=2
    )


class TestFlatKeySlice:
    """The facade reads shared state in place and matches the owner."""

    def test_parent_memo_hit_miss_root_and_non_member(self):
        sim = _scale_shard()
        slice_ = next(iter(sim.slices.values()))
        tree = slice_.tree
        assert slice_.parent(slice_.root) is None
        node = next(
            node for node in sim.ring.node_ids if node != slice_.root
        )
        touched = tree.touched
        expected = sim.ring.next_hop(node, tree.key)
        assert slice_.parent(node) == expected  # memo miss
        assert tree.touched == touched + 1
        assert slice_.parent(node) == expected  # memo hit
        assert tree.touched == touched + 1
        outsider = max(sim.ring.node_ids) + 1
        assert outsider not in sim.ring
        assert slice_.parent(outsider) is None
        assert not slice_.alive(outsider)
        assert not slice_.functioning(outsider)
        assert tree.touched == touched + 1
        assert all(slice_.alive(node) for node in sim.ring.node_ids)

    def test_parent_on_an_eager_tree(self):
        sim = MultiKeySimulation(multikey_config(), num_keys=2)
        for slice_ in sim.slices.values():
            for node in sim.ring.node_ids:
                assert slice_.parent(node) == slice_.tree.parent(node)
            assert slice_.parent(slice_.root) is None
            assert slice_.parent(max(sim.ring.node_ids) + 1) is None

    def test_shared_state_is_the_owners(self):
        sim = _scale_shard()
        for slice_ in sim.slices.values():
            assert slice_.env is sim.env
            assert slice_.transport is sim.transport
            assert slice_.config is sim.config
            assert slice_.ledger is sim.ledger
            assert slice_.root == slice_.tree.root

    def test_lookup_creates_the_owners_cache(self):
        from repro.engine.multikey import _SweptCache

        sim = _scale_shard()
        slice_ = next(iter(sim.slices.values()))
        node = next(
            node for node in sim.ring.node_ids if node != slice_.root
        )
        assert slice_.lookup(slice_.root) is None  # authority not started
        assert slice_.lookup(node) is None
        cache = sim._caches[node]
        assert isinstance(cache, _SweptCache)
        assert slice_.cache(node) is cache is sim.cache(node)
        version = IndexVersion(
            key=slice_.key, version=1, issued_at=0.0, ttl=60.0
        )
        cache.put(version, 0.0)
        assert slice_.lookup(node) is version
        assert (cache.stats.lookups, cache.stats.hits) == (2, 1)
        assert len(sim.wheel) == 1  # the store filed one expiry hint
        assert slice_.root not in sim._caches

    @pytest.mark.parametrize("sharded", [True, False])
    def test_run_matches_the_reference_facade(self, sharded, monkeypatch):
        """Per-node cache stats and results equal those of a facade that
        resolves everything through its owner, as it once did."""

        def build():
            if sharded:
                return _scale_shard()
            return MultiKeySimulation(multikey_config(), num_keys=4)

        def observe(sim):
            result = sim.run()
            stats = {
                node: dataclasses.asdict(cache.stats)
                for node, cache in sim._caches.items()
            }
            return stats, (
                result.queries,
                result.mean_latency,
                result.cost_per_query,
                result.hop_breakdown,
                result.extras["queries_per_key"],
            )

        flat = observe(build())
        with monkeypatch.context() as patch:
            for name, method in _REFERENCE_FACADE.items():
                patch.setattr(_KeySlice, name, method)
            reference = observe(build())
        assert flat == reference


def _reference_parent(self, node):
    if node not in self.tree:
        return None
    return self.tree.parent(node)


def _reference_cache(self, node):
    return self._owner.cache(node)


def _reference_lookup(self, node):
    if node == self.tree.root:
        if self.authority is None:
            return None
        return self.authority.current
    return self.cache(node).get(self.key, self.env.now)


def _reference_alive(self, node):
    return node in self.tree


#: The facade methods as they read before the flattening.
_REFERENCE_FACADE = {
    "parent": _reference_parent,
    "cache": _reference_cache,
    "lookup": _reference_lookup,
    "alive": _reference_alive,
    "functioning": _reference_alive,
}


class TestInterestPolicyFactory:
    """One factory serves both engines, honouring scheme overrides."""

    def test_multikey_dup_adaptive_builds_adaptive_trackers(self):
        sim = MultiKeySimulation(
            multikey_config(scheme="dup-adaptive"), num_keys=3
        )
        sim.run()
        trackers = [
            tracker
            for scheme in sim.schemes.values()
            for tracker in scheme._trackers.values()
        ]
        assert trackers
        assert all(
            isinstance(tracker, AdaptiveInterestPolicy) for tracker in trackers
        )

    @pytest.mark.parametrize(
        "scheme, policy, expected",
        [
            ("dup", "window", WindowInterestPolicy),
            ("dup", "ewma", EwmaInterestPolicy),
            ("dup", "adaptive", AdaptiveInterestPolicy),
            ("dup-adaptive", "window", AdaptiveInterestPolicy),
        ],
    )
    def test_both_engines_build_the_same_policy(self, scheme, policy, expected):
        from repro.engine.simulation import Simulation

        config = multikey_config(scheme=scheme, interest_policy=policy)
        single = Simulation(config).make_interest_policy()
        multi = next(
            iter(MultiKeySimulation(config, num_keys=1).slices.values())
        ).make_interest_policy()
        assert type(single) is type(multi) is expected
        assert repr(single) == repr(multi)
