"""Per-layer host-time tracing from outside the program.

The traced run wraps the public entry points of each ``src/repro``
package at class (or module) level, in the benchmark process only and
before any simulation is constructed, so every bound method the engine
resolves later is already the wrapper.  Each call becomes a span with a
name, start, end and parent span.  Spans are aggregated in memory per
entry point: count, total (inclusive) time, self time (duration minus
the time covered by child spans) and, for the layer's outermost spans,
the layer's inclusive time.  The last :data:`RING_SPANS` finished spans
are kept raw and written out when the run ends.

The tracer is a pure observer: it draws no random numbers and schedules
no events, so a traced run's statistics equal the untraced run's (the
benchmark checks this on every traced run).

Boundaries the engine inlines cannot be timed from here; their cost
lands in the calling span's self time.  ``INLINED`` lists them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import deque

#: The layers, in report order: one per ``src/repro`` package a run
#: passes through.
LAYERS = (
    "sim",
    "workload",
    "stats",
    "engine",
    "schemes",
    "core",
    "index",
    "net",
    "topology",
    "metrics",
)

#: Entry points per layer, as ``module:Owner.attr`` (method) or
#: ``module:function``.  Generator functions (process bodies) are timed
#: per resume.  Scheme handlers are found by :data:`SCHEME_HANDLERS`.
ENTRY_POINTS = {
    "sim": [
        "repro.sim.core:Environment.run",
        "repro.sim.core:Environment.timeout",
        "repro.sim.core:Environment.defer",
        "repro.sim.core:Environment.call_later",
        "repro.sim.core:Environment.process",
        "repro.sim.rng:RandomStreams.get",
    ],
    "workload": [
        "repro.workload.arrivals:ArrivalProcess.next_gap",
        "repro.workload.selection:ZipfNodeSelector.sample",
        "repro.workload.selection:ZipfNodeSelector.sample_alive",
        "repro.workload.selection:ZipfNodeSelector.sample_tail",
        "repro.workload.churn:ChurnProcess.next_gap",
        "repro.workload.churn:ChurnProcess.next_kind",
        "repro.workload.churn:ChurnProcess.pick_victim",
    ],
    "stats": [
        "repro.stats.distributions:Exponential.sample",
        "repro.stats.distributions:Pareto.sample",
        "repro.stats.distributions:LogNormal.sample",
        "repro.stats.distributions:Uniform.sample",
        "repro.stats.distributions:ZipfSelector.sample",
        "repro.stats.distributions:ZipfSelector.sample_many",
        "repro.stats.distributions:ZipfSlice.sample",
    ],
    "engine": [
        "repro.engine.simulation:Simulation.__init__",
        "repro.engine.simulation:Simulation.start",
        "repro.engine.simulation:Simulation.run",
        "repro.engine.simulation:Simulation._collect",
        "repro.engine.simulation:Simulation._dispatch",
        "repro.engine.simulation:Simulation._query_loop",
        "repro.engine.simulation:Simulation._apply_churn",
        "repro.engine.simulation:Simulation.is_root",
        "repro.engine.simulation:Simulation.parent",
        "repro.engine.simulation:Simulation.alive",
        "repro.engine.simulation:Simulation.functioning",
        "repro.engine.simulation:Simulation.cache",
        "repro.engine.simulation:Simulation.lookup",
        "repro.engine.simulation:Simulation.record_latency",
        "repro.engine.simulation:Simulation.note_read",
        "repro.engine.simulation:Simulation.note_incomplete_query",
        "repro.engine.simulation:Simulation.suspect_peer",
        "repro.engine.simulation:Simulation.fail_silently",
        "repro.engine.simulation:Simulation.trace_begin",
        "repro.engine.simulation:Simulation.trace_annotate",
        "repro.engine.simulation:Simulation.make_interest_policy",
        "repro.engine.multikey:MultiKeyScaleSimulation.__init__",
        "repro.engine.multikey:MultiKeyScaleSimulation.run",
        "repro.engine.multikey:MultiKeyScaleSimulation.cache",
        "repro.engine.multikey:MultiKeyScaleSimulation.record_latency",
        "repro.engine.multikey:MultiKeyScaleSimulation._dispatch",
        "repro.engine.multikey:MultiKeyScaleSimulation._query_loop",
        "repro.engine.multikey:MultiKeyScaleSimulation._sweep_loop",
        "repro.engine.multikey:_KeySlice.is_root",
        "repro.engine.multikey:_KeySlice.parent",
        "repro.engine.multikey:_KeySlice.alive",
        "repro.engine.multikey:_KeySlice.functioning",
        "repro.engine.multikey:_KeySlice.cache",
        "repro.engine.multikey:_KeySlice.lookup",
        "repro.engine.multikey:_KeySlice.record_latency",
        "repro.engine.multikey:_KeySlice.note_read",
        "repro.engine.multikey:_KeySlice.trace_begin",
        "repro.engine.multikey:_KeySlice.trace_annotate",
        "repro.engine.multikey:_KeySlice.make_interest_policy",
        "repro.engine.multikey:_ring_and_keys",
        "repro.engine.multikey:merge_scale_results",
    ],
    "core": [
        "repro.core.protocol:DupProtocol.step",
        "repro.core.protocol:DupProtocol.ensure_subscribed",
        "repro.core.protocol:DupProtocol.drop_subscription",
        "repro.core.protocol:DupProtocol.is_subscribed",
        "repro.core.protocol:DupProtocol.in_dup_tree",
        "repro.core.protocol:DupProtocol.push_targets",
        "repro.core.protocol:DupProtocol.s_list",
        "repro.core.maintenance:DupMaintenance.node_joined_edge",
        "repro.core.maintenance:DupMaintenance.node_joined_leaf",
        "repro.core.maintenance:DupMaintenance.node_left",
        "repro.core.maintenance:DupMaintenance.node_failed",
        "repro.core.maintenance:DupMaintenance.root_failed",
        "repro.core.maintenance:DupMaintenance.promote_root",
        "repro.core.maintenance:DupMaintenance.node_rejoined",
        "repro.core.leases:LeaseTable.touch",
        "repro.core.leases:LeaseTable.reconcile",
        "repro.core.leases:LeaseTable.expired",
        "repro.core.leases:LeaseTable.sweep",
        "repro.core.leases:LeaseTable.drop",
        "repro.core.leases:LeaseTable.drop_holder",
        "repro.core.leases:LeaseTable.live",
        "repro.core.interest:WindowInterestPolicy.record",
        "repro.core.interest:WindowInterestPolicy.is_interested",
        "repro.core.interest:EwmaInterestPolicy.record",
        "repro.core.interest:EwmaInterestPolicy.is_interested",
        "repro.core.interest:AdaptiveInterestPolicy.record",
        "repro.core.interest:AdaptiveInterestPolicy.is_interested",
    ],
    "index": [
        "repro.index.cache:IndexCache.get",
        "repro.index.cache:IndexCache.put",
        "repro.index.cache:IndexCache.sweep",
        "repro.index.cache:IndexCache.invalidate",
        "repro.index.authority:Authority._issue",
        "repro.index.authority:Authority.force_update",
    ],
    "net": [
        "repro.net.transport:Transport.send",
        "repro.net.transport:Transport._deliver",
        "repro.net.transport:Transport.drop",
        "repro.net.reliable:ReliableChannel.send",
        "repro.net.reliable:ReliableChannel._transmit",
        "repro.net.reliable:ReliableChannel._expire",
        "repro.net.reliable:ReliableChannel.on_ack",
        "repro.net.reliable:ReliableChannel.deliver",
        "repro.net.reliable:ReliableChannel.drop_sender",
    ],
    "topology": [
        "repro.topology.generators:random_search_tree",
        "repro.topology.chord:ChordRing.random",
        "repro.topology.chord_tree:chord_search_tree",
        "repro.topology.chord_tree:LazyChordTree.__init__",
        "repro.topology.chord_tree:LazyChordTree.parent",
        "repro.topology.chord_tree:LazyChordTree.depth",
        "repro.topology.chord_tree:LazyChordTree.path_to_root",
        "repro.topology.tree:SearchTree.parent",
        "repro.topology.tree:SearchTree.children",
        "repro.topology.tree:SearchTree.depth",
        "repro.topology.tree:SearchTree.path_to_root",
        "repro.topology.tree:SearchTree.add_leaf",
        "repro.topology.tree:SearchTree.insert_on_edge",
        "repro.topology.tree:SearchTree.remove_leaf",
        "repro.topology.tree:SearchTree.splice_out",
        "repro.topology.tree:SearchTree.promote_to_root",
    ],
    "metrics": [
        "repro.metrics.latency:LatencyRecorder.record",
        "repro.metrics.counters:CostLedger.charge",
        "repro.metrics.windows:WindowedReservoir.observe",
        "repro.metrics.windows:TimeBuckets.observe",
        "repro.metrics.registry:Histogram.observe",
    ],
}

#: Scheme-facing handlers, wrapped on every scheme class that defines
#: them (subclass overrides included), plus the DUP lease processes.
SCHEME_HANDLERS = (
    "bind",
    "on_local_query",
    "on_message",
    "on_new_version",
    "on_node_joined_edge",
    "on_node_joined_leaf",
    "on_node_left",
    "on_node_failed",
    "on_root_failed",
    "on_node_rejoined",
    "on_peer_suspected",
    "_lease_refresh_loop",
    "_lease_expiry_loop",
)
SCHEME_MODULES = (
    "repro.schemes.base",
    "repro.schemes.pcx",
    "repro.schemes.cup",
    "repro.schemes.cup_ideal",
    "repro.schemes.cup_popularity",
    "repro.schemes.dup",
    "repro.schemes.dup_adaptive",
    "repro.schemes.dup_balanced",
    "repro.schemes.dup_invalidate",
    "repro.schemes.nocache",
    "repro.schemes.pushall",
)

#: Functions whose inclusive time is the topology build time.
TOPOLOGY_BUILDERS = (
    "random_search_tree",
    "ChordRing.random",
    "chord_search_tree",
    "LazyChordTree.__init__",
)

#: Layer boundaries the engine inlines, so no span can time them; their
#: cost lands in the caller's self time.  Timing them needs tracing
#: inside the program.
INLINED = (
    "Simulation.parent reads SearchTree._parent directly: single-key "
    "parent lookups never reach SearchTree.parent, so "
    "topology.parent_lookups counts only lazy chord trees and tree "
    "maintenance.",
    "Simulation.lookup reads SearchTree._root and creates IndexCache "
    "objects inline; only the IndexCache.get call is a span.",
    "Schemes and the engine read Environment._now instead of the "
    "Environment.now property: clock reads are not spans.",
    "Environment.run inlines step() and the Timeout pool; event dispatch "
    "and Process._resume (generator resumption) are kernel self time.  "
    "Process._resume is not wrapped because the pool recognises it by "
    "identity.",
    "ZipfSlice.sample binary-searches the parent ZipfSelector._cdf "
    "directly instead of calling ZipfSelector.sample.",
    "FaultInjector loss/duplication/blackhole decisions run inside "
    "Transport.send and Transport._deliver and count as net self time.",
)

#: Raw spans kept (the most recent ones) for the span file.
RING_SPANS = 4096

ROOT_SPAN = "bench.workload"


class LayerTracer:
    """Installs span wrappers and aggregates spans per entry point."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self.layer_of: list[str] = ["bench"]
        self.count: list[int] = [0]
        self.total: list[float] = [0.0]
        self.own: list[float] = [0.0]
        self.outer: list[float] = [0.0]
        self.hits: list[int] = [0]
        # Child-time accumulators and (span id, slot) frames of the open
        # spans; the root frame is always present while tracing.
        self._child: list[float] = [0.0]
        self._frames: list[tuple[int, int]] = [(0, 0)]
        self._ids = itertools.count(1)
        self.ring: deque = deque(maxlen=RING_SPANS)
        self._root_start = 0.0
        self.wall = 0.0

    # -- installation ---------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every entry point; once, before any simulation is built.

        The wrappers stay for the life of the process, so a traced
        repetition runs in a process of its own.
        """
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    owner_name, attr = path.split(".")
                    self._wrap_attr(getattr(module, owner_name), attr, layer,
                                    path)
                else:
                    self._wrap_function(module, path, layer)
        from repro.schemes.base import Scheme

        for module_name in SCHEME_MODULES:
            module = importlib.import_module(module_name)
            for owner in vars(module).values():
                if (
                    inspect.isclass(owner)
                    and issubclass(owner, Scheme)
                    and owner.__module__ == module_name
                ):
                    for attr in SCHEME_HANDLERS:
                        if attr in vars(owner):
                            self._wrap_attr(
                                owner, attr, "schemes",
                                f"{owner.__name__}.{attr}",
                            )
        return self

    def _slot(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        for column in (self.count, self.hits):
            column.append(0)
        for column in (self.total, self.own, self.outer):
            column.append(0.0)
        return len(self.names) - 1

    def _wrap_attr(self, owner, attr: str, layer: str, name: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, layer, name))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__, layer, name))
        else:
            wrapped = self._wrapper(raw, layer, name)
        setattr(owner, attr, wrapped)

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, layer, attr)
        # Modules that imported the function by name hold their own
        # reference: patch those too.
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and getattr(
                other, attr, None
            ) is original:
                setattr(other, attr, wrapped)

    def _wrapper(self, fn, layer: str, name: str):
        slot = self._slot(name, layer)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, slot)
        clock = time.perf_counter
        child_stack = self._child
        frames = self._frames
        ids = self._ids
        ring = self.ring
        count, total, own, outer = self.count, self.total, self.own, self.outer
        layer_of = self.layer_of
        hits = self.hits if name == "IndexCache.get" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            child_stack.append(0.0)
            frames.append((span, slot))
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hits is not None and result is not None:
                    hits[slot] += 1
                return result
            finally:
                end = clock()
                duration = end - start
                frames.pop()
                covered = child_stack.pop()
                count[slot] += 1
                total[slot] += duration
                own[slot] += duration - covered
                child_stack[-1] += duration
                parent_span, parent_slot = frames[-1]
                if layer_of[parent_slot] != layer:
                    outer[slot] += duration
                ring.append((span, parent_span, slot, start, end))

        return traced

    def _generator_wrapper(self, fn, slot: int):
        """Time each resume of a process body as one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._drive(fn(*args, **kwargs), slot)

        return traced

    def _drive(self, generator, slot: int):
        clock = time.perf_counter
        value = None
        error = None
        while True:
            span = next(self._ids)
            self._child.append(0.0)
            self._frames.append((span, slot))
            start = clock()
            finished = False
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                finished = True
                result = stop.value
            finally:
                self._close_span(span, slot, start, clock())
            if finished:
                return result
            error = None
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # forwarded into the body
                error = thrown

    def _close_span(self, span: int, slot: int, start: float, end: float):
        duration = end - start
        self._frames.pop()
        covered = self._child.pop()
        self.count[slot] += 1
        self.total[slot] += duration
        self.own[slot] += duration - covered
        self._child[-1] += duration
        if self.layer_of[self._frames[-1][1]] != self.layer_of[slot]:
            self.outer[slot] += duration
        self.ring.append((span, self._frames[-1][0], slot, start, end))

    # -- the root span --------------------------------------------------------
    def begin(self) -> None:
        """Open the root span that every layer span nests under."""
        self._child[0] = 0.0
        self._root_start = time.perf_counter()

    def end(self) -> None:
        """Close the root span; its duration is the traced wall time."""
        end = time.perf_counter()
        self.wall = end - self._root_start
        self.count[0] += 1
        self.total[0] += self.wall
        self.own[0] += self.wall - self._child[0]
        self.outer[0] += self.wall
        self.ring.append((0, None, 0, self._root_start, end))

    # -- aggregation ------------------------------------------------------------
    def calls(self, *names: str) -> int:
        """Total span count of the named entry points."""
        wanted = set(names)
        return sum(
            count for name, count in zip(self.names, self.count)
            if name in wanted
        )

    def hit_count(self, name: str) -> int:
        return sum(
            hits for entry, hits in zip(self.names, self.hits)
            if entry == name
        )

    def inclusive(self, *names: str) -> float:
        """Summed inclusive time of the named entry points."""
        wanted = set(names)
        return sum(
            total for name, total in zip(self.names, self.total)
            if name in wanted
        )

    def layer_summary(self) -> dict:
        """Per layer: span count, self time, outermost inclusive time."""
        summary = {
            layer: {"count": 0, "self_s": 0.0, "total_s": 0.0}
            for layer in ("bench",) + LAYERS
        }
        for layer, count, own, outer in zip(
            self.layer_of, self.count, self.own, self.outer
        ):
            row = summary[layer]
            row["count"] += count
            row["self_s"] += own
            row["total_s"] += outer
        return summary

    def function_summary(self) -> list[dict]:
        return [
            {
                "name": name,
                "layer": layer,
                "count": count,
                "total_s": total,
                "self_s": own,
            }
            for name, layer, count, total, own in zip(
                self.names, self.layer_of, self.count, self.total, self.own
            )
            if count
        ]

    def write_spans(self, path) -> None:
        """Write the span summary and the raw-span ring as JSONL."""
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "type": "span-summary",
                "wall_s": self.wall,
                "layers": self.layer_summary(),
                "functions": self.function_summary(),
                "inlined": list(INLINED),
            }) + "\n")
            for span, parent, slot, start, end in self.ring:
                handle.write(json.dumps({
                    "type": "span",
                    "id": span,
                    "parent": parent,
                    "name": self.names[slot],
                    "layer": self.layer_of[slot],
                    "start": start - self._root_start,
                    "end": end - self._root_start,
                }) + "\n")


def layer_metrics(tracer, outcome: dict) -> dict:
    """The per-layer metrics of one traced run (see README.md)."""
    wall = tracer.wall
    layers = tracer.layer_summary()
    queries = max(outcome["queries"], 1)
    calls = tracer.calls

    def prefixed(*prefixes: str) -> int:
        return sum(
            count for name, count in zip(tracer.names, tracer.count)
            if name.startswith(prefixes)
        )

    def suffixed(suffix: str) -> int:
        return sum(
            count for name, count in zip(tracer.names, tracer.count)
            if name.endswith(suffix)
        )

    gets = calls("IndexCache.get")
    reliable = calls("ReliableChannel.send")
    retries = calls("ReliableChannel._transmit") - reliable
    metrics = {
        "sim.events": outcome["events"],
        "sim.events_per_query": outcome["events"] / queries,
        "workload.draws": calls(
            "ArrivalProcess.next_gap",
            "ZipfNodeSelector.sample",
            "ZipfNodeSelector.sample_tail",
            "ChurnProcess.next_gap",
            "ChurnProcess.next_kind",
            "ChurnProcess.pick_victim",
        ),
        "stats.samples": prefixed(
            "Exponential.", "Pareto.", "LogNormal.", "Uniform.",
            "ZipfSelector.", "ZipfSlice.",
        ),
        "schemes.local_queries": suffixed(".on_local_query"),
        "schemes.messages": suffixed(".on_message"),
        "core.protocol_steps": calls("DupProtocol.step"),
        "core.repairs": prefixed("DupMaintenance."),
        "index.cache_gets": gets,
        "index.cache_hit_ratio": tracer.hit_count("IndexCache.get") / gets
        if gets else 0.0,
        "index.cache_puts": calls("IndexCache.put"),
        "index.sweeps": calls("IndexCache.sweep"),
        "index.versions_issued": calls("Authority._issue"),
        "net.sends": calls("Transport.send"),
        "net.sends_per_query": calls("Transport.send") / queries,
        "net.drops": calls("Transport.drop"),
        "net.reliable_sends": reliable,
        "net.retry_ratio": retries / reliable if reliable else 0.0,
        "topology.build_s": tracer.inclusive(*TOPOLOGY_BUILDERS),
        "topology.parent_lookups": calls(
            "LazyChordTree.parent", "SearchTree.parent"
        ),
        "metrics.records": calls(
            "LatencyRecorder.record", "CostLedger.charge",
            "WindowedReservoir.observe", "TimeBuckets.observe",
            "Histogram.observe",
        ),
        "trace.unattributed_share": layers["bench"]["self_s"] / wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layers[layer]["self_s"] / wall
    return metrics
