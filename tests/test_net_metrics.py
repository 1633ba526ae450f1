"""Unit tests for messages, transport, and the metric recorders."""

import numpy as np
import pytest

from repro.index.entry import IndexVersion
from repro.metrics import CostLedger, LatencyRecorder
from repro.net import (
    Category,
    ControlMessage,
    PushMessage,
    QueryMessage,
    ReplyMessage,
    Subscribe,
    Transport,
)
from repro.sim import Environment
from repro.stats.distributions import Deterministic, Exponential


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class TestMessages:
    def test_query_message_defaults(self):
        message = QueryMessage(key=1, origin=42)
        assert message.category is Category.QUERY
        assert message.path == [42]
        assert message.hops == 0
        assert message.control == []

    def test_query_hops_counts_path_edges(self):
        message = QueryMessage(key=1, origin=1)
        message.path.extend([2, 3])
        assert message.hops == 2

    def test_reply_next_hop(self):
        reply = ReplyMessage(
            key=1, version=None, path=[10, 11, 12], position=2, request_hops=2
        )
        assert reply.category is Category.REPLY
        assert reply.destination == 10
        assert reply.next_hop() == 11

    def test_reply_at_origin_has_no_next_hop(self):
        reply = ReplyMessage(
            key=1, version=None, path=[10, 11], position=0, request_hops=1
        )
        assert reply.next_hop() is None

    def test_push_and_control_categories(self):
        assert PushMessage(key=1, version=None, sender=2).category is Category.PUSH
        control = ControlMessage(key=1, payloads=[Subscribe(3)], sender=2)
        assert control.category is Category.CONTROL

    def test_sequence_numbers_increase(self):
        first = QueryMessage(key=1, origin=1)
        second = QueryMessage(key=1, origin=1)
        assert second.sequence > first.sequence


class TestCostLedger:
    def test_charges_by_category(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.QUERY, 3)
        ledger.charge(Category.PUSH, 2)
        assert ledger.hops(Category.QUERY) == 3
        assert ledger.total_hops == 5
        assert ledger.breakdown()["query"] == 3

    def test_warmup_hops_excluded(self):
        clock = FakeClock(0.0)
        ledger = CostLedger(clock=clock, warmup=100.0)
        ledger.charge(Category.QUERY, 5)
        clock.now = 150.0
        ledger.charge(Category.QUERY, 7)
        assert ledger.hops(Category.QUERY) == 7
        assert ledger.warmup_hops(Category.QUERY) == 5

    def test_keepalive_excluded_by_default(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.KEEPALIVE, 10)
        ledger.charge(Category.QUERY, 1)
        assert ledger.total_hops == 1

    def test_keepalive_included_when_asked(self):
        ledger = CostLedger(clock=FakeClock(), count_keepalive=True)
        ledger.charge(Category.KEEPALIVE, 10)
        assert ledger.total_hops == 10

    def test_cost_per_query(self):
        ledger = CostLedger(clock=FakeClock())
        ledger.charge(Category.QUERY, 10)
        assert ledger.cost_per_query(4) == pytest.approx(2.5)
        assert np.isnan(ledger.cost_per_query(0))

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            CostLedger(clock=FakeClock()).charge(Category.QUERY, -1)

    def test_negative_hops_rejected_after_warmup(self):
        ledger = CostLedger(clock=FakeClock(50.0), warmup=10.0)
        ledger.charge(Category.PUSH, 2)
        with pytest.raises(ValueError):
            ledger.charge(Category.PUSH, -1)
        assert ledger.hops(Category.PUSH) == 2

    def test_breakdown_order_values_and_warmup_split(self):
        clock = FakeClock(0.0)
        ledger = CostLedger(clock=clock, warmup=10.0)
        for hops, category in enumerate(reversed(list(Category)), start=1):
            ledger.charge(category, hops)
        clock.now = 10.0
        for hops, category in enumerate(Category, start=1):
            ledger.charge(category, 10 * hops)
        clock.now = 5.0  # the warm-up latch never re-opens
        ledger.charge(Category.QUERY, 100)
        assert list(ledger.breakdown()) == [
            "query", "reply", "push", "control", "keepalive"
        ]
        assert ledger.breakdown() == {
            "query": 110, "reply": 20, "push": 30, "control": 40,
            "keepalive": 50,
        }
        assert [ledger.warmup_hops(category) for category in Category] == [
            5, 4, 3, 2, 1
        ]
        assert [ledger.hops(category) for category in Category] == [
            110, 20, 30, 40, 50
        ]
        assert ledger.total_hops == 200
        assert repr(ledger) == (
            "CostLedger(query=110, reply=20, push=30, control=40, "
            "keepalive=50)"
        )


class TestLatencyRecorder:
    def test_records_and_averages(self):
        recorder = LatencyRecorder(clock=FakeClock())
        recorder.record(0, issued_at=0.0)
        recorder.record(4, issued_at=1.0)
        assert recorder.count == 2
        assert recorder.mean == pytest.approx(2.0)
        assert recorder.hit_rate == pytest.approx(0.5)

    def test_warmup_queries_discarded(self):
        recorder = LatencyRecorder(clock=FakeClock(), warmup=10.0)
        recorder.record(3, issued_at=5.0)
        recorder.record(3, issued_at=15.0)
        assert recorder.count == 1
        assert recorder.warmup_queries == 1

    def test_confidence_interval(self):
        recorder = LatencyRecorder(clock=FakeClock())
        for latency in range(100):
            recorder.record(float(latency), issued_at=1.0)
        ci = recorder.confidence_interval(batches=10)
        assert ci.mean == pytest.approx(49.5)

    def test_ci_requires_samples(self):
        recorder = LatencyRecorder(clock=FakeClock(), keep_samples=False)
        recorder.record(1, issued_at=0.0)
        with pytest.raises(RuntimeError):
            recorder.confidence_interval()

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder(clock=FakeClock())
        with pytest.raises(ValueError):
            recorder.record(-1, issued_at=0.0)


class TestTransport:
    def make_transport(self, env, latency=None):
        ledger = CostLedger(clock=lambda: env.now)
        transport = Transport(
            env=env,
            latency=latency or Deterministic(0.5),
            rng=np.random.default_rng(0),
            ledger=ledger,
        )
        return transport, ledger

    def test_delivers_after_latency(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        delivered = []
        transport.bind(lambda dst, msg: delivered.append((env.now, dst)))
        transport.send(7, QueryMessage(key=1, origin=2))
        env.run()
        assert delivered == [(0.5, 7)]

    def test_charges_category(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        transport.send(7, QueryMessage(key=1, origin=2))
        transport.send(7, PushMessage(key=1, version=None, sender=1))
        assert ledger.hops(Category.QUERY) == 1
        assert ledger.hops(Category.PUSH) == 1

    def test_free_hop_not_charged(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        transport.send(7, QueryMessage(key=1, origin=2), free=True)
        assert ledger.total_hops == 0

    def test_multi_hop_charge(self):
        env = Environment()
        transport, ledger = self.make_transport(env)
        transport.bind(lambda dst, msg: None)
        message = ControlMessage(key=1, payloads=[Subscribe(1), Subscribe(2)], sender=3)
        transport.send(7, message, hops=2)
        assert ledger.hops(Category.CONTROL) == 2

    def test_unbound_transport_raises(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        with pytest.raises(RuntimeError):
            transport.send(7, QueryMessage(key=1, origin=2))

    def test_exponential_latency_mean(self):
        env = Environment()
        transport, _ = self.make_transport(env, latency=Exponential(0.1))
        arrivals = []
        transport.bind(lambda dst, msg: arrivals.append(env.now))
        for _ in range(5000):
            transport.send(1, QueryMessage(key=1, origin=2))
        env.run()
        assert np.mean(arrivals) == pytest.approx(0.1, rel=0.1)

    def test_drop_counter(self):
        env = Environment()
        transport, _ = self.make_transport(env)
        assert transport.dropped == 0
        transport.drop()
        assert transport.dropped == 1


class TestBlockDrawnLatency:
    """Block-drawn link latencies equal successive scalar draws.

    The block is shrunk so every test crosses several refills.
    """

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        from repro.stats import distributions

        monkeypatch.setattr(distributions, "BLOCK", 7)

    def test_fast_branch_hops_take_successive_samples(self):
        env = Environment()
        law = Exponential(0.1)
        transport = Transport(
            env, law, np.random.default_rng(3), CostLedger(lambda: env.now)
        )
        hops = 40
        times = []

        def relay(destination, message):
            times.append(env.now)
            if len(times) < hops:
                transport.send(3 - destination, message)

        transport.bind(relay)
        transport.send(1, PushMessage(key=1, version=None, sender=2))
        env.run()
        scalar = np.random.default_rng(3)
        expected = []
        now = 0.0
        for _ in range(hops):
            now = now + law.sample(scalar)
            expected.append(now)
        assert times == expected

    def test_injector_branch_skips_lost_sends_and_draws_duplicates_apart(
        self,
    ):
        from repro.net.faults import FaultInjector, FaultPlan
        from repro.sim.rng import RandomStreams

        env = Environment()
        law = Exponential(0.1)
        plan = FaultPlan(loss_rate=0.3, duplicate_rate=0.4)
        transport = Transport(
            env,
            law,
            np.random.default_rng(9),
            CostLedger(lambda: env.now),
            injector=FaultInjector(plan, RandomStreams(5), lambda: env.now),
        )
        delivered = []
        transport.bind(
            lambda destination, message: delivered.append(
                (message.sequence, env.now)
            )
        )
        pushes = [PushMessage(key=1, version=None, sender=2) for _ in range(40)]
        for push in pushes:
            transport.send(1, push)
        env.run()

        # The same decisions from fresh scalar streams: a lost send takes
        # no latency, a duplicate's delay comes from the injector's
        # delay stream, and every delivered send takes the next latency.
        streams = RandomStreams(5)
        loss = streams.get("faults-loss")
        duplicate = streams.get("faults-duplicate")
        duplicate_delay = streams.get("faults-delay")
        latency = np.random.default_rng(9)
        expected = []
        lost = duplicated = 0
        for push in pushes:
            if loss.random() < plan.loss_rate:
                lost += 1
                continue
            if duplicate.random() < plan.duplicate_rate:
                duplicated += 1
                expected.append(
                    (push.sequence, law.sample(duplicate_delay) + 0.0)
                )
            expected.append((push.sequence, law.sample(latency)))
        assert lost and duplicated
        assert len(expected) - duplicated > 2 * 7  # several refills
        assert sorted(delivered) == sorted(expected)
        assert transport.dropped == lost


class TestVersionedDelivery:
    def test_push_carries_version(self):
        env = Environment()
        ledger = CostLedger(clock=lambda: env.now)
        transport = Transport(env, Deterministic(0.1), np.random.default_rng(0), ledger)
        got = []
        transport.bind(lambda dst, msg: got.append(msg.version))
        version = IndexVersion(key=1, version=3, issued_at=0.0, ttl=60.0)
        transport.send(5, PushMessage(key=1, version=version, sender=0))
        env.run()
        assert got[0].version == 3
