"""Micro-benchmarks for the hot-path layers under the simulations.

Unlike the ``bench_<figure>`` files these do not regenerate a paper
artifact; they time the three building blocks every experiment leans on —
the event kernel, the transport hop, and message allocation — so kernel
regressions show up here before they blur into full-experiment noise.
Results go to ``benchmarks/results/BENCH_kernel.json`` with the same
metadata the experiment records carry.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from repro.engine import SimulationConfig
from repro.engine.simulation import Simulation
from repro.index.entry import IndexVersion
from repro.net.message import PushMessage, QueryMessage, ReplyMessage
from repro.net.transport import Transport
from repro.sim.core import Environment
from repro.stats.distributions import Deterministic

from _harness import RESULTS_DIR, _git_sha

# Sized so each loop runs long enough (~0.1-1 s) for a stable per-op
# number while the whole file stays a few seconds end to end.
KERNEL_EVENTS = 200_000
TRANSPORT_HOPS = 100_000
MESSAGES = 100_000


def _time(fn):
    """(wall_seconds, fn_result) for one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bench_kernel_events():
    """Schedule/fire KERNEL_EVENTS timeouts through a generator process."""
    env = Environment()

    def ticker():
        for _ in range(KERNEL_EVENTS):
            yield env.timeout(1.0)

    env.process(ticker(), name="ticker")
    wall, _ = _time(lambda: env.run(until=KERNEL_EVENTS + 1.0))
    assert env.now >= KERNEL_EVENTS
    return wall


def _bench_transport_hops():
    """Ping-pong TRANSPORT_HOPS pushes between two nodes."""
    config = SimulationConfig(
        scheme="pcx", num_nodes=4, duration=10.0, warmup=0.0
    )
    sim = Simulation(config)
    remaining = [TRANSPORT_HOPS]
    # Zero latency keeps every hop inside one event cascade; the handler
    # re-sends until the budget is spent.
    transport = Transport(
        env=sim.env,
        latency=Deterministic(0.0),
        rng=sim.streams.get("latency"),
        ledger=sim.ledger,
    )

    def handler(destination, message):
        if remaining[0] > 0:
            remaining[0] -= 1
            transport.send(3 - destination, message)

    transport.bind(handler)
    version = IndexVersion(key=sim.key, version=1, issued_at=0.0, ttl=3600.0)
    push = PushMessage(key=sim.key, version=version, sender=1)

    def run():
        transport.send(2, push, sender=1)
        sim.env.run(until=1.0)

    wall, _ = _time(run)
    assert remaining[0] == 0
    return wall


def _bench_message_allocation():
    """Construct MESSAGES query/reply/push messages with trace handoff."""
    rng = np.random.default_rng(1)
    version = IndexVersion(key=7, version=1, issued_at=0.0, ttl=3600.0)
    origins = rng.integers(1, 4, size=MESSAGES)

    def run():
        for i, origin in enumerate(origins):
            query = QueryMessage(key=7, origin=int(origin), issued_at=float(i))
            query.trace_id = i
            reply = ReplyMessage(
                key=7,
                version=version,
                path=query.path,
                position=0,
                request_hops=query.hops,
                issued_at=query.issued_at,
            )
            reply.inherit_trace(query)
            PushMessage(key=7, version=version, sender=int(origin))

    wall, _ = _time(run)
    return wall


def test_kernel_microbenchmarks(benchmark):
    """Time the kernel building blocks and persist BENCH_kernel.json."""

    def run_all():
        return {
            "kernel_events": {
                "ops": KERNEL_EVENTS,
                "wall_seconds": round(_bench_kernel_events(), 4),
            },
            "transport_hops": {
                "ops": TRANSPORT_HOPS,
                "wall_seconds": round(_bench_transport_hops(), 4),
            },
            "message_allocation": {
                "ops": MESSAGES,
                "wall_seconds": round(_bench_message_allocation(), 4),
            },
        }

    sections = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, section in sections.items():
        rate = section["ops"] / max(section["wall_seconds"], 1e-9)
        print(f"\n{name}: {section['ops']} ops in "
              f"{section['wall_seconds']:.3f}s ({rate:,.0f}/s)")
        assert section["wall_seconds"] < 60.0, f"{name} implausibly slow"
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment_id": "kernel",
        "python_version": platform.python_version(),
        "git_sha": _git_sha(),
        "sections": sections,
    }
    (RESULTS_DIR / "BENCH_kernel.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
