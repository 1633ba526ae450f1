"""Tests of the multi-key simulation engine."""

import pytest

from repro.engine import SimulationConfig
from repro.engine.multikey import MultiKeySimulation
from repro.errors import ConfigError
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
