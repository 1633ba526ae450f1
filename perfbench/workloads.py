"""The benchmark's workloads and the statistics fingerprint.

Each workload is a list of simulations built from ``--seed`` and run
serially in one process (``workers=1``, no threads).  Why each was
chosen is in ``perfbench/README.md``; the regimes it claims are checked
by ``test_perfbench.py`` through the traced run's layer counts.

:func:`execute` times one workload the way a sweep pays for it:

- *setup*: config in, ready-to-run simulation out (topology, the chord
  ring, scheme bind, authority);
- *run*: the event loop plus result collection;
- *wall*: setup + run (+ the shard merge for ``multikey-scale``), summed
  over every simulation of the workload.

It returns the timings, the kernel event and completed-query counts, and
the fingerprint of the simulated statistics, which must not depend on
how fast the code is.
"""

from __future__ import annotations

import dataclasses
import functools
import time

from repro.engine.config import SimulationConfig
from repro.engine.multikey import (
    MultiKeyScaleSimulation,
    default_shard_count,
    merge_scale_results,
)
from repro.engine.simulation import Simulation
from repro.net.faults import FaultPlan
from repro.workload.churn import ChurnConfig

#: ``paper-hot``: Figure 4's lambda=10 point on the paper's random tree.
HOT_SCHEMES = ("pcx", "cup", "dup")
HOT_DURATION = 10800.0
HOT_WARMUP = 1800.0

#: ``churn-control``: DUP's write path under churn, loss and retries.
CHURN_TTL = 600.0
CHURN_RATE = 0.02
CHURN_DURATION = 5400.0
CHURN_WARMUP = 1800.0

#: ``multikey-scale``: the sharded engine at 8192 nodes x 256 keys.
SCALE_NODES = 8192
SCALE_KEYS = 256
SCALE_KEY_THETA = 0.8
SCALE_DURATION = 5400.0
SCALE_WARMUP = 1200.0


def paper_hot(seed: int) -> list[SimulationConfig]:
    return [
        SimulationConfig(
            scheme=scheme,
            num_nodes=4096,
            query_rate=10.0,
            zipf_theta=0.95,
            duration=HOT_DURATION,
            warmup=HOT_WARMUP,
            seed=seed,
        )
        for scheme in HOT_SCHEMES
    ]


def churn_control(seed: int) -> list[SimulationConfig]:
    return [
        SimulationConfig(
            scheme="dup",
            topology="chord",
            num_nodes=4096,
            query_rate=10.0,
            ttl=CHURN_TTL,
            duration=CHURN_DURATION,
            warmup=CHURN_WARMUP,
            seed=seed,
            churn=ChurnConfig(
                join_rate=CHURN_RATE / 2,
                leave_rate=CHURN_RATE / 4,
                fail_rate=CHURN_RATE / 4,
            ),
            faults=FaultPlan(
                loss_by_category={"control": 0.05, "push": 0.05},
                silent_failures=True,
            ),
            retry_budget=4,
            lease_ttl=CHURN_TTL / 2,
        )
    ]


def multikey_scale(seed: int) -> list[SimulationConfig]:
    # lambda=20 over 8192 nodes is paper-hot's per-node rate.
    return [
        SimulationConfig(
            scheme="dup",
            topology="chord",
            num_nodes=SCALE_NODES,
            query_rate=20.0,
            duration=SCALE_DURATION,
            warmup=SCALE_WARMUP,
            seed=seed,
            keep_latency_samples=False,
        )
    ]


WORKLOADS = {
    "paper-hot": paper_hot,
    "churn-control": churn_control,
    "multikey-scale": multikey_scale,
}

#: Workloads driven through the sharded multi-key engine.
SHARDED = ("multikey-scale",)


def _builders(name: str, config: SimulationConfig) -> list:
    """One zero-argument builder per ready-to-run simulation of ``config``.

    A sharded workload has one per shard; any other has one
    :class:`Simulation`, started.
    """
    if name in SHARDED:
        count = default_shard_count(SCALE_KEYS)
        return [
            functools.partial(
                MultiKeyScaleSimulation,
                config,
                num_keys=SCALE_KEYS,
                key_zipf_theta=SCALE_KEY_THETA,
                shard_index=index,
                shard_count=count,
            )
            for index in range(count)
        ]

    def build() -> Simulation:
        sim = Simulation(config)
        sim.start()
        return sim

    return [build]


def execute(name: str, seed: int) -> dict:
    """Run workload ``name`` once in this process; timings and outputs."""
    clock = time.perf_counter
    setup = run = wall = 0.0
    queries = events = 0
    unit_run_s: list[float] = []
    results = []
    for config in WORKLOADS[name](seed):
        outputs = []
        for build in _builders(name, config):
            started = clock()
            unit = build()
            built = clock()
            outputs.append(unit.run())
            done = clock()
            setup += built - started
            run += done - built
            wall += done - started
            unit_run_s.append(done - built)
            queries += unit.latency.count + unit.latency.warmup_queries
            events += unit.env._eid
            del unit  # free it before the next one is built
        if name in SHARDED:
            started = clock()
            results.append(merge_scale_results(outputs))
            wall += clock() - started
        else:
            results.extend(outputs)
    return {
        "setup_s": setup,
        "run_s": run,
        "wall_s": wall,
        "unit_run_s": unit_run_s,
        "queries": queries,
        "events": events,
        "fingerprint": [fingerprint(result) for result in results],
    }


def setup_only(name: str, seed: int) -> float:
    """Build every simulation of workload ``name``, run none; seconds.

    The same builds, in the same order, as :func:`execute` times for its
    set-up, so a fresh process can sample ``setup_s`` many times for
    little more than the set-up itself costs.
    """
    clock = time.perf_counter
    setup = 0.0
    for config in WORKLOADS[name](seed):
        for build in _builders(name, config):
            started = clock()
            unit = build()
            setup += clock() - started
            del unit
    return setup


def fingerprint(result) -> dict:
    """The simulated statistics of one result, floats as exact hex.

    Everything but the config (the input) and the host wall time.
    Streaming estimator objects inside ``extras`` are represented by
    their type name; their percentiles appear as separate extras.
    """
    record = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name not in ("config", "wall_seconds")
    }
    return _canonical(record)


def _canonical(value):
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.asdict(value))
    return f"<{type(value).__name__}>"
