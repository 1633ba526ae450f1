"""Regression tests for the hot-path performance layers.

Covers the determinism contract of the fast path (``REPRO_FAST=0`` and
``REPRO_FAST=1`` must produce bit-identical experiment output), the
kernel's timeout pooling rules, trace inheritance edge cases, the search
tree's route memoisation under churn, and the benchmark-harness metadata.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro import fastpath
from repro.experiments import figure4_arrival_rate
from repro.index.entry import IndexVersion
from repro.net.message import PushMessage, QueryMessage, ReplyMessage
from repro.sim.core import Environment, Timeout
from repro.topology.tree import SearchTree

REPO = pathlib.Path(__file__).parent.parent
BENCHMARKS = REPO / "benchmarks"


class TestFastPathDeterminism:
    def test_flag_reflects_environment_and_toggles(self):
        previous = fastpath.set_enabled(False)
        try:
            assert fastpath.ENABLED is False
            assert fastpath.set_enabled(True) is False
            assert fastpath.ENABLED is True
        finally:
            fastpath.set_enabled(previous)

    def test_environment_captures_flag_at_construction(self):
        previous = fastpath.set_enabled(False)
        try:
            slow_env = Environment()
            fastpath.set_enabled(True)
            fast_env = Environment()
            assert slow_env._fast is False
            assert fast_env._fast is True
        finally:
            fastpath.set_enabled(previous)

    def test_figure4_identical_with_and_without_fast_path(self):
        """The tentpole contract: optimisations change wall-clock only."""

        def run():
            return figure4_arrival_rate.run(
                scale="quick", replications=1, rates=(1.0,), workers=1
            )

        previous = fastpath.set_enabled(False)
        try:
            slow = run()
            fastpath.set_enabled(True)
            fast = run()
        finally:
            fastpath.set_enabled(previous)
        # repr round-trips floats exactly, so this is a bit-level check.
        # (Shape checks need the full rate sweep, so only row equality is
        # asserted on this single-rate run.)
        assert slow.rows and repr(slow.rows) == repr(fast.rows)


class TestBatchedKernel:
    def test_batched_flag_toggles_and_is_captured_at_construction(self):
        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(False)
        try:
            unbatched_env = Environment()
            fastpath.set_batched(True)
            batched_env = Environment()
            assert unbatched_env._batched is False
            assert batched_env._batched is True
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_batched_requires_fast(self):
        previous_fast = fastpath.set_enabled(False)
        previous_batched = fastpath.set_batched(True)
        try:
            env = Environment()
            assert env._batched is False
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_defer_order_matches_call_later(self):
        """Deferred records fire in the exact slots timeouts would."""

        def run(batched):
            fastpath.set_enabled(True)
            fastpath.set_batched(batched)
            env = Environment()
            fired = []
            for index, delay in enumerate([3.0, 1.0, 1.0, 2.0, 0.0]):
                env.defer(delay, fired.append, (delay, index))
            env.run()
            return fired

        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(True)
        try:
            assert run(True) == run(False)
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_defer_urgent_runs_in_a_process_start_slot(self):
        """An urgent record runs ahead of earlier NORMAL work at its
        tick, as a process's first resume does, in every kernel."""

        def run(fast, batched, start):
            fastpath.set_enabled(fast)
            fastpath.set_batched(batched)
            env = Environment()
            fired = []
            env.defer(1.0, fired.append, "later")
            env.defer(0.0, fired.append, "normal")
            start(env, fired)
            env.defer(0.0, fired.append, "after")
            env.run()
            return fired, env._eid

        def urgent(env, fired):
            env.defer_urgent(fired.append, "start")

        def process(env, fired):
            def body():
                fired.append("start")
                yield from ()

            env.process(body())

        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(True)
        try:
            expected = ["start", "normal", "after", "later"]
            for fast, batched in ((True, True), (True, False), (False, False)):
                fired, events = run(fast, batched, urgent)
                assert fired == expected
                assert events == 4
                assert run(fast, batched, process)[0] == expected
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_defer_rejects_negative_delay(self):
        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(True)
        try:
            env = Environment()
            with pytest.raises(Exception):
                env.defer(-1.0, lambda: None)
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_step_handles_deferred_records(self):
        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(True)
        try:
            env = Environment()
            fired = []
            env.defer(2.0, fired.append, "a")
            env.step()
            assert fired == ["a"]
            assert env.now == 2.0
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)

    def test_figure4_identical_with_and_without_batching(self):
        """Same-tick batch draining changes wall-clock only."""

        def run():
            return figure4_arrival_rate.run(
                scale="quick", replications=1, rates=(1.0,), workers=1
            )

        previous_fast = fastpath.set_enabled(True)
        previous_batched = fastpath.set_batched(False)
        try:
            unbatched = run()
            fastpath.set_batched(True)
            batched = run()
        finally:
            fastpath.set_batched(previous_batched)
            fastpath.set_enabled(previous_fast)
        assert unbatched.rows and repr(unbatched.rows) == repr(batched.rows)


class TestTimeoutPooling:
    def _drain(self, env, events=64):
        def ticker():
            for _ in range(events):
                yield env.timeout(1.0)

        env.process(ticker(), name="ticker")
        env.run(until=events + 1.0)

    def test_fast_kernel_recycles_process_timeouts(self):
        previous = fastpath.set_enabled(True)
        try:
            env = Environment()
            self._drain(env)
            assert len(env._timeout_pool) >= 1
        finally:
            fastpath.set_enabled(previous)

    def test_slow_kernel_never_pools(self):
        previous = fastpath.set_enabled(False)
        try:
            env = Environment()
            self._drain(env)
            assert env._timeout_pool == []
        finally:
            fastpath.set_enabled(previous)

    def test_value_carrying_timeouts_are_not_recycled(self):
        previous = fastpath.set_enabled(True)
        try:
            env = Environment()
            held = []

            def proc():
                event = env.timeout(1.0, value="payload")
                held.append(event)
                got = yield event
                assert got == "payload"

            env.process(proc(), name="valued")
            env.run(until=5.0)
            assert held[0] not in env._timeout_pool
            # The held reference keeps its processed state.
            assert held[0].callbacks is None
        finally:
            fastpath.set_enabled(previous)

    def test_externally_observed_timeout_is_not_recycled(self):
        """An event with extra callbacks may be referenced elsewhere."""
        previous = fastpath.set_enabled(True)
        try:
            env = Environment()
            seen = []
            event = env.timeout(1.0)
            event.callbacks.append(lambda ev: seen.append(ev))
            env.run(until=2.0)
            assert seen == [event]
            assert event not in env._timeout_pool
        finally:
            fastpath.set_enabled(previous)

    def test_pooled_timeout_is_reused_with_fresh_state(self):
        previous = fastpath.set_enabled(True)
        try:
            env = Environment()
            self._drain(env, events=4)
            pooled = env._timeout_pool[-1]
            reused = env.timeout(2.5)
            assert reused is pooled
            assert isinstance(reused, Timeout)
            assert reused.callbacks == []
            assert reused.delay == 2.5
        finally:
            fastpath.set_enabled(previous)


class TestInheritTrace:
    def _version(self):
        return IndexVersion(key=1, version=1, issued_at=0.0, ttl=60.0)

    def test_adopts_trace_from_message(self):
        query = QueryMessage(key=1, origin=5, issued_at=0.0)
        query.trace_id = 42
        push = PushMessage(key=1, version=self._version(), sender=5)
        assert push.inherit_trace(query) is push
        assert push.trace_id == 42

    def test_traceless_message_source_propagates_none(self):
        query = QueryMessage(key=1, origin=5, issued_at=0.0)
        assert query.trace_id is None
        reply = ReplyMessage(
            key=1,
            version=self._version(),
            path=[5],
            position=0,
            request_hops=0,
        )
        reply.trace_id = 9
        reply.inherit_trace(query)
        assert reply.trace_id is None

    def test_raw_id_and_none_sources(self):
        push = PushMessage(key=1, version=self._version(), sender=5)
        assert push.inherit_trace(17).trace_id == 17
        assert push.inherit_trace(None).trace_id is None

    def test_self_inheritance_is_a_noop(self):
        push = PushMessage(key=1, version=self._version(), sender=5)
        push.trace_id = 7
        assert push.inherit_trace(push) is push
        assert push.trace_id == 7


class TestRouteMemoInvalidation:
    def _chain(self):
        tree = SearchTree(0)
        tree.add_leaf(0, 1)
        tree.add_leaf(1, 2)
        tree.add_leaf(2, 3)
        return tree

    def test_cached_paths_match_fresh_computation(self):
        tree = self._chain()
        first = tree.path_to_root(3)
        assert first == [3, 2, 1, 0]
        # Second call hits the memo and must be identical.
        assert tree.path_to_root(3) == first
        assert tree.depth(3) == 3

    def test_churn_join_invalidates(self):
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.insert_on_edge(1, 2, 9)
        assert tree.version > version
        assert tree.path_to_root(3) == [3, 2, 9, 1, 0]
        assert tree.depth(3) == 4

    def test_churn_leave_invalidates(self):
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.splice_out(2)
        assert tree.version > version
        assert tree.path_to_root(3) == [3, 1, 0]
        assert tree.on_path_to_root(3, 1)

    def test_promote_to_root_invalidates(self):
        """Authority failover re-roots the tree under the memo."""
        tree = self._chain()
        assert tree.path_to_root(3) == [3, 2, 1, 0]
        version = tree.version
        tree.promote_to_root(1)
        assert tree.version > version
        assert tree.root == 1
        # The failed old root leaves the tree; memoised paths through it
        # must be gone.
        assert 0 not in tree
        assert tree.path_to_root(3) == [3, 2, 1]
        assert tree.depth(3) == 2

    def test_replace_root_invalidates(self):
        tree = self._chain()
        assert tree.depth(3) == 3
        tree.replace_root(99)
        assert tree.root == 99
        assert tree.path_to_root(3) == [3, 2, 1, 99]


class TestHarnessMetadata:
    @pytest.fixture()
    def harness(self):
        sys.path.insert(0, str(BENCHMARKS))
        try:
            import _harness

            yield _harness
        finally:
            sys.path.remove(str(BENCHMARKS))

    def test_git_sha_is_short_hash_or_none(self, harness):
        sha = harness._git_sha()
        assert sha is None or (
            isinstance(sha, str) and 6 <= len(sha) <= 16
        )

    def test_load_history_tolerates_missing_and_bad_files(
        self, harness, tmp_path
    ):
        assert harness._load_history(tmp_path / "absent.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert harness._load_history(bad) == []
        no_hist = tmp_path / "nh.json"
        no_hist.write_text('{"wall_seconds": 1}', encoding="utf-8")
        assert harness._load_history(no_hist) == []

    def test_committed_figure4_record_has_metadata_and_baseline(self):
        record = json.loads(
            (BENCHMARKS / "results" / "BENCH_figure4.json").read_text(
                encoding="utf-8"
            )
        )
        assert record["python_version"].count(".") == 2
        assert record["git_sha"]
        walls = [entry["wall_seconds"] for entry in record["history"]]
        assert len(walls) >= 2
        # The committed history demonstrates the tentpole speedup.
        assert walls[0] / walls[-1] >= 1.5
