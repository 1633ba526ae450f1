"""Multi-key simulation: many indices sharing one overlay.

The paper's evaluation fixes a single index at one authority ("the index
is maintained at the root node") — a clean isolation of one propagation
tree.  Real deployments serve many keys at once: each key hashes to its
own authority on the DHT, giving every key its own search tree over the
*same* node population, with caches, transport, and cost accounting
shared.

:class:`MultiKeySimulation` builds a Chord ring, derives one search tree
per key, instantiates an independent scheme instance per key (each bound
to a per-key facade slice), and drives a workload where queries pick a
key by a Zipf law over keys and an origin node by the paper's Zipf law
over nodes.  Metrics aggregate across keys; per-key breakdowns are
available for analysis.

Churn is intentionally out of scope here (each key's tree would need its
own repair sequencing); use the single-key engine for churn studies.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.interest import (
    AdaptiveInterestPolicy,
    EwmaInterestPolicy,
    WindowInterestPolicy,
)
from repro.engine.config import SimulationConfig
from repro.engine.results import SimulationResult
from repro.errors import ConfigError
from repro.index.authority import Authority
from repro.index.cache import IndexCache
from repro.index.entry import IndexVersion
from repro.core.soa import ExpiryWheel, FlatSubscriberTable
from repro.metrics.counters import CostLedger
from repro.metrics.latency import LatencyRecorder
from repro.metrics.windows import TimeBuckets, WindowedReservoir
from repro.net.message import Message, ReplyMessage
from repro.net.transport import Transport
from repro.schemes.registry import make_scheme
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams
from repro.stats.distributions import Exponential, rank_draws, shared_zipf
from repro.topology.chord import ChordRing
from repro.topology.chord_tree import LazyChordTree, chord_search_tree
from repro.workload.arrivals import make_arrival_process
from repro.workload.selection import ZipfNodeSelector

NodeId = int


class _KeySlice:
    """The per-key facade a scheme instance is bound to.

    Implements the same narrow interface as
    :class:`repro.engine.simulation.Simulation` but scoped to one key's
    tree and authority, while sharing the clock, transport, caches, and
    metric recorders with every other key.
    """

    #: Interface parity: the multi-key engine has no reliable channel
    #: (schemes fall back to plain transport sends).
    reliable = None

    def __init__(self, owner: "MultiKeySimulation", key: int, tree):
        self._owner = owner
        self.key = key
        self.tree = tree
        self.authority: Optional[Authority] = None
        self.scheme: Optional[object] = None

    # -- shared state --------------------------------------------------------
    @property
    def env(self) -> Environment:
        """The shared simulation clock."""
        return self._owner.env

    @property
    def transport(self) -> Transport:
        """The shared transport (one cost ledger for all keys)."""
        return self._owner.transport

    @property
    def config(self) -> SimulationConfig:
        """The run configuration."""
        return self._owner.config

    @property
    def ledger(self) -> CostLedger:
        """The shared cost ledger."""
        return self._owner.ledger

    # -- per-key topology -------------------------------------------------------
    def is_root(self, node: NodeId) -> bool:
        """Whether ``node`` is this key's authority."""
        return node == self.tree.root

    def parent(self, node: NodeId) -> Optional[NodeId]:
        """Parent on this key's search tree."""
        if node not in self.tree:
            return None
        return self.tree.parent(node)

    def alive(self, node: NodeId) -> bool:
        """Whether ``node`` is in the overlay (static here)."""
        return node in self.tree

    def functioning(self, node: NodeId) -> bool:
        """Interface parity: no fault injection here, so alive == working."""
        return node in self.tree

    def note_read(self, version: IndexVersion) -> None:
        """Interface parity: staleness tracking is single-key only."""

    def suspect_peer(self, reporter: NodeId, suspect: NodeId) -> None:
        """Interface parity: no failures here, so suspicions are moot."""

    def cache(self, node: NodeId) -> IndexCache:
        """The node's (shared, multi-key) cache."""
        return self._owner.cache(node)

    def lookup(self, node: NodeId) -> Optional[IndexVersion]:
        """A valid copy of this key's index at ``node``."""
        if node == self.tree.root:
            if self.authority is None:
                return None
            return self.authority.current
        return self.cache(node).get(self.key, self.env.now)

    def record_latency(
        self,
        hops: float,
        issued_at: float,
        trace_id: Optional[int] = None,
    ) -> None:
        """Record a completed query (shared recorder + per-key count)."""
        self._owner.record_latency(self.key, hops, issued_at)

    def note_incomplete_query(self) -> None:
        """Reply lost (cannot happen without churn; kept for interface)."""
        self._owner.note_incomplete_query()

    def trace_begin(self, node: NodeId) -> Optional[int]:
        """Interface parity: per-query tracing is single-key only."""
        return None

    def trace_annotate(
        self,
        trace_id: Optional[int],
        node: NodeId,
        event: str,
        detail: str = "",
    ) -> None:
        """Interface parity: annotations are dropped (no tracer here)."""

    def make_interest_policy(self):
        """Per-node, per-key interest policy.

        Mirrors :meth:`Simulation.make_interest_policy`, including the
        scheme-level ``interest_policy_override`` consult (the scheme
        back-reference is set when the slice is wired up).
        """
        config = self.config
        kind = (
            getattr(self.scheme, "interest_policy_override", None)
            or config.interest_policy
        )
        if kind == "window":
            return WindowInterestPolicy(config.ttl, config.threshold_c)
        if kind == "adaptive":
            return AdaptiveInterestPolicy(
                config.ttl,
                config.threshold_floor,
                config.threshold_ceiling,
                config.adaptive_gain,
            )
        return EwmaInterestPolicy(config.ttl, config.threshold_c)

    def forget_node(self, node: NodeId) -> None:  # pragma: no cover - no churn
        """Interface parity with the single-key engine."""


class MultiKeySimulation:
    """Simulate ``num_keys`` indices over one shared Chord overlay.

    Parameters
    ----------
    config:
        Base configuration.  ``topology`` must be ``"chord"`` (per-key
        trees require a real DHT); ``query_rate`` is the network-wide
        rate across *all* keys; churn must be disabled.
    num_keys:
        Number of distinct indices.
    key_zipf_theta:
        Popularity skew across keys (0 = uniform).
    """

    def __init__(
        self,
        config: SimulationConfig,
        num_keys: int = 8,
        key_zipf_theta: float = 0.8,
    ):
        config.validate()
        if num_keys < 1:
            raise ConfigError(f"need at least one key, got {num_keys}")
        if config.topology != "chord":
            raise ConfigError("multi-key simulation requires topology='chord'")
        if config.churn is not None and config.churn.enabled:
            raise ConfigError("multi-key simulation does not support churn")
        self.config = config
        self.num_keys = num_keys
        self.streams = RandomStreams(config.seed)
        self.env = Environment()
        rng = self.streams.get("topology")
        self.ring = ChordRing.random(config.num_nodes, rng, bits=32)
        self.ledger = CostLedger(
            clock=lambda: self.env.now,
            warmup=config.warmup,
            count_keepalive=config.count_keepalive,
        )
        self.latency = LatencyRecorder(
            clock=lambda: self.env.now,
            warmup=config.warmup,
            keep_samples=config.keep_latency_samples,
        )
        self.transport = Transport(
            env=self.env,
            latency=Exponential(config.hop_latency_mean),
            rng=self.streams.get("latency"),
            ledger=self.ledger,
        )
        self.transport.bind(self._dispatch)
        self._caches: dict[NodeId, IndexCache] = {}
        self._incomplete = 0
        self._queries_per_key: dict[int, int] = {}

        self.slices: dict[int, _KeySlice] = {}
        self.schemes: dict[int, object] = {}
        for index in range(num_keys):
            key = int(rng.integers(0, 1 << 32))
            while key in self.slices:  # pragma: no cover - 2^-32 chance
                key = int(rng.integers(0, 1 << 32))
            tree = chord_search_tree(self.ring, key)
            slice_ = _KeySlice(self, key, tree)
            scheme = make_scheme(config.scheme)
            slice_.scheme = scheme
            scheme.bind(slice_)
            self.slices[key] = slice_
            self.schemes[key] = scheme
            self._queries_per_key[key] = 0

        # Shared CDF table: the key law is a pure function of
        # (num_keys, theta), so 4096-key configs reuse one cumsum.
        self._key_selector = shared_zipf(num_keys, key_zipf_theta)
        self._key_order = list(self.slices)
        self._node_selector = ZipfNodeSelector(
            list(self.ring.node_ids),
            config.zipf_theta,
            self.streams.get("placement"),
        )
        self._ran = False

    # -- shared services ---------------------------------------------------
    def cache(self, node: NodeId) -> IndexCache:
        """One cache per node, holding entries for every key."""
        cache = self._caches.get(node)
        if cache is None:
            cache = IndexCache()
            self._caches[node] = cache
        return cache

    def record_latency(self, key: int, hops: float, issued_at: float) -> None:
        """Aggregate recorder plus a per-key query counter."""
        self.latency.record(hops, issued_at)
        if issued_at >= self.config.warmup:
            self._queries_per_key[key] += 1

    def note_incomplete_query(self) -> None:
        """Interface parity; unreachable without churn."""
        self._incomplete += 1

    def _dispatch(self, destination: NodeId, message: Message) -> None:
        scheme = self.schemes.get(message.key)
        if scheme is None:  # pragma: no cover - defensive
            self.transport.drop()
            if isinstance(message, ReplyMessage):
                self.note_incomplete_query()
            return
        scheme.on_message(destination, message)

    # -- workload ------------------------------------------------------------
    def _query_loop(self) -> None:
        config = self.config
        arrivals = make_arrival_process(
            config.arrival,
            config.query_rate,
            self.streams.get("arrivals"),
            config.pareto_alpha,
        )
        keys = map(
            self._key_order.__getitem__,
            rank_draws(self._key_selector, self.streams.get("key-draws")),
        )
        origins = self._node_selector.draws(
            self.streams.get("placement-draws")
        )
        _start_query_records(self, arrivals.next_gap, keys, origins)

    # -- running ----------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run and return aggregate results (per-key counts in extras)."""
        if self._ran:
            raise RuntimeError("a MultiKeySimulation runs only once")
        self._ran = True
        started = time.perf_counter()
        for slice_ in self.slices.values():
            scheme = self.schemes[slice_.key]
            slice_.authority = Authority(
                env=self.env,
                key=slice_.key,
                ttl=self.config.ttl,
                push_lead=self.config.push_lead,
                on_new_version=scheme.on_new_version,
                value=f"host-of-{slice_.key}",
            )
        self._query_loop()
        self.env.run(until=self.config.duration)
        wall = time.perf_counter() - started

        extras: dict[str, object] = {
            "num_keys": self.num_keys,
            "queries_per_key": dict(
                sorted(
                    self._queries_per_key.items(),
                    key=lambda item: -item[1],
                )
            ),
        }
        subscribed_total = 0
        for scheme in self.schemes.values():
            if hasattr(scheme, "subscribed_nodes"):
                subscribed_total += len(scheme.subscribed_nodes())
        if subscribed_total:
            extras["total_subscriptions"] = subscribed_total
        keep = self.config.keep_latency_samples and self.latency.count
        return SimulationResult(
            config=self.config,
            scheme=f"{self.config.scheme} (x{self.num_keys} keys)",
            queries=self.latency.count,
            mean_latency=self.latency.mean,
            latency_ci=self.latency.confidence_interval() if keep else None,
            cost_per_query=self.ledger.cost_per_query(self.latency.count),
            hit_rate=self.latency.hit_rate,
            hop_breakdown=dict(self.ledger.breakdown()),
            dropped_messages=self.transport.dropped,
            incomplete_queries=self._incomplete,
            final_population=len(self.ring),
            wall_seconds=wall,
            extras=extras,
            latency_percentiles=self.latency.percentiles() if keep else {},
        )


# ---------------------------------------------------------------------------
# Sharded scale path: 10^5 nodes x 10^3 keys in bounded memory
# ---------------------------------------------------------------------------


class _SweptCache(IndexCache):
    """An :class:`IndexCache` that files every store on an expiry wheel.

    The single-key engines evict lazily on :meth:`IndexCache.get`; at
    scale that leaves every entry nobody re-reads resident until the end
    of the run.  Each successful store pushes an ``(expires_at, node)``
    hint to the engine's shared :class:`~repro.core.soa.ExpiryWheel`;
    the sweep loop pops due hints and runs the cache's vectorized
    :meth:`~repro.index.cache.IndexCache.sweep`.  Refreshes simply push
    a newer hint — the superseded one pops later and finds nothing
    expired (lazy invalidation), so behaviour is unchanged.
    """

    __slots__ = ("_wheel", "_node")

    def __init__(self, node: NodeId, wheel: ExpiryWheel):
        super().__init__()
        self._node = node
        self._wheel = wheel

    def put(self, version: IndexVersion, now: float) -> bool:
        changed = super().put(version, now)
        if changed:
            copy = self.peek(version.key)
            if copy is not None:
                self._wheel.push(copy.expires_at, self._node)
        return changed


def default_shard_count(num_keys: int) -> int:
    """The fixed shard decomposition for ``num_keys`` indices.

    A pure function of the key count — never of the worker count — so
    results are bit-identical whichever pool size executes the shards.
    """
    return min(8, int(num_keys))


class MultiKeyScaleSimulation:
    """One shard of a sharded multi-key run at population scale.

    The multi-key workload decomposes exactly by key: a query for key
    ``k`` touches only ``k``'s search tree, authority, and cache
    entries.  This engine exploits that to run *rank shards* — each
    shard owns a contiguous range of the global key-popularity ranking
    and simulates only its keys:

    - The Poisson query stream is **thinned** per shard: the shard's
      arrival rate is the global rate times its slice's probability
      mass, and key draws use the *conditional* Zipf law
      (:meth:`~repro.stats.distributions.ZipfSelector.slice`), so the
      union over shards reproduces the global workload law exactly.
    - Per-key trees are :class:`~repro.topology.chord_tree.LazyChordTree`
      views — O(1) setup, parents materialized only for nodes the
      workload actually touches — instead of eagerly materialized
      O(n log n)-per-key dicts.
    - Caches are wheel-swept (:class:`_SweptCache`), latency tails come
      from bounded streaming estimators
      (:class:`~repro.metrics.windows.WindowedReservoir` /
      :class:`~repro.metrics.windows.TimeBuckets`) instead of per-query
      sample lists, and subscription fanout is audited through one
      :class:`~repro.core.soa.FlatSubscriberTable`.

    The ring and the key sequence are drawn from the same streams for
    every shard (they depend only on the config), so shard ``i`` of
    ``m`` sees exactly the world the unsharded run would.  Shard-local
    streams are namespaced by rank range, making each shard a pure
    function of ``(config, num_keys, shard)`` — the parallel runner can
    execute shards in any order on any worker count without changing a
    single draw.
    """

    def __init__(
        self,
        config: SimulationConfig,
        num_keys: int = 1024,
        key_zipf_theta: float = 0.8,
        shard_index: int = 0,
        shard_count: int = 1,
        ring: Optional[ChordRing] = None,
        keys: Optional[list[int]] = None,
        sweep_interval: Optional[float] = None,
    ):
        config.validate()
        if num_keys < 1:
            raise ConfigError(f"need at least one key, got {num_keys}")
        if not 0 <= shard_index < shard_count:
            raise ConfigError(
                f"shard {shard_index} outside [0, {shard_count})"
            )
        if shard_count > num_keys:
            raise ConfigError(
                f"cannot cut {num_keys} keys into {shard_count} shards"
            )
        if config.topology != "chord":
            raise ConfigError("scale simulation requires topology='chord'")
        if config.churn is not None and config.churn.enabled:
            raise ConfigError("scale simulation does not support churn")
        self.config = config
        self.num_keys = num_keys
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.streams = RandomStreams(config.seed)
        self.env = Environment()
        if ring is None or keys is None:
            ring, keys = _ring_and_keys(config, num_keys)
        self.ring = ring
        self._keys = keys

        # Contiguous rank range [lo, hi) owned by this shard.
        self.rank_lo = shard_index * num_keys // shard_count
        self.rank_hi = (shard_index + 1) * num_keys // shard_count
        self._key_slice = shared_zipf(num_keys, key_zipf_theta).slice(
            self.rank_lo, self.rank_hi
        )

        self.ledger = CostLedger(
            clock=lambda: self.env.now,
            warmup=config.warmup,
            count_keepalive=config.count_keepalive,
        )
        self.latency = LatencyRecorder(
            clock=lambda: self.env.now,
            warmup=config.warmup,
            keep_samples=False,
        )
        self.reservoir = WindowedReservoir()
        self.buckets = TimeBuckets(width=max(config.duration / 64, 1.0))
        self.transport = Transport(
            env=self.env,
            latency=Exponential(config.hop_latency_mean),
            rng=self._stream("latency"),
            ledger=self.ledger,
        )
        self.transport.bind(self._dispatch)
        self.wheel = ExpiryWheel()
        self._sweep_interval = (
            sweep_interval
            if sweep_interval is not None
            else max(config.ttl / 2, 1.0)
        )
        self._caches: dict[NodeId, _SweptCache] = {}
        self._swept_entries = 0
        self._incomplete = 0
        self._queries_per_key: dict[int, int] = {}

        self.slices: dict[int, _KeySlice] = {}
        self.schemes: dict[int, object] = {}
        for rank in range(self.rank_lo, self.rank_hi):
            key = keys[rank]
            tree = LazyChordTree(self.ring, key)
            slice_ = _KeySlice(self, key, tree)
            scheme = make_scheme(config.scheme)
            slice_.scheme = scheme
            scheme.bind(slice_)
            self.slices[key] = slice_
            self.schemes[key] = scheme
            self._queries_per_key[key] = 0

        self._node_selector = ZipfNodeSelector(
            list(self.ring.node_ids),
            config.zipf_theta,
            self._stream("placement"),
        )
        self._ran = False

    def _stream(self, name: str):
        """A shard-local stream, namespaced by owned rank range."""
        return self.streams.get(
            f"scale/{self.rank_lo}-{self.rank_hi}/{name}"
        )

    # -- shared services (interface mirrored from MultiKeySimulation) -------
    def cache(self, node: NodeId) -> IndexCache:
        """One wheel-swept cache per node, shared by the shard's keys."""
        cache = self._caches.get(node)
        if cache is None:
            cache = _SweptCache(node, self.wheel)
            self._caches[node] = cache
        return cache

    def record_latency(self, key: int, hops: float, issued_at: float) -> None:
        """Streaming recorders: no per-query allocation survives."""
        self.latency.record(hops, issued_at)
        if issued_at >= self.config.warmup:
            self._queries_per_key[key] += 1
            self.reservoir.observe(hops)
            self.buckets.observe(issued_at, hops)

    def note_incomplete_query(self) -> None:
        """Interface parity; unreachable without churn."""
        self._incomplete += 1

    def _dispatch(self, destination: NodeId, message: Message) -> None:
        scheme = self.schemes.get(message.key)
        if scheme is None:  # pragma: no cover - defensive
            self.transport.drop()
            if isinstance(message, ReplyMessage):
                self.note_incomplete_query()
            return
        scheme.on_message(destination, message)

    # -- processes -----------------------------------------------------------
    def _query_loop(self) -> None:
        config = self.config
        # Thinning: a Poisson stream marked by an independent key draw
        # splits into independent Poisson streams per mark subset; this
        # shard's subset is its rank range, with probability mass
        # ``slice.mass`` under the key law.
        arrivals = make_arrival_process(
            config.arrival,
            config.query_rate * self._key_slice.mass,
            self._stream("arrivals"),
            config.pareto_alpha,
        )
        keys = map(
            self._keys.__getitem__,
            rank_draws(self._key_slice, self._stream("key-draws")),
        )
        origins = self._node_selector.draws(self._stream("placement-draws"))
        _start_query_records(self, arrivals.next_gap, keys, origins)

    def _sweep_loop(self):
        """Vectorized TTL reclamation: one flatnonzero pass per period."""
        while True:
            yield self.env.timeout(self._sweep_interval)
            now = self.env.now
            due = self.wheel.pop_due(now)
            if not due:
                continue
            touched: dict[int, None] = {}
            for node, _ in due:
                touched[node] = None
            for node in touched:
                cache = self._caches.get(node)
                if cache is not None:
                    self._swept_entries += cache.sweep(now)

    # -- running ---------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run this shard and return its (mergeable) results."""
        if self._ran:
            raise RuntimeError("a MultiKeyScaleSimulation runs only once")
        self._ran = True
        started = time.perf_counter()
        for slice_ in self.slices.values():
            scheme = self.schemes[slice_.key]
            slice_.authority = Authority(
                env=self.env,
                key=slice_.key,
                ttl=self.config.ttl,
                push_lead=self.config.push_lead,
                on_new_version=scheme.on_new_version,
                value=f"host-of-{slice_.key}",
            )
        self._query_loop()
        self.env.process(self._sweep_loop(), name="scale-sweeper")
        self.env.run(until=self.config.duration)
        wall = time.perf_counter() - started

        subscribers = FlatSubscriberTable()
        for key, scheme in self.schemes.items():
            if hasattr(scheme, "subscribed_nodes"):
                for node in scheme.subscribed_nodes():
                    subscribers.add(node, key)
        parents_touched = sum(
            slice_.tree.touched for slice_ in self.slices.values()
        )
        extras: dict[str, object] = {
            "num_keys": self.num_keys,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "rank_lo": self.rank_lo,
            "rank_hi": self.rank_hi,
            "shard_mass": self._key_slice.mass,
            "hits": self.latency.hits,
            "total_hops": self.latency.total_hops,
            "queries_per_key": dict(
                sorted(
                    self._queries_per_key.items(),
                    key=lambda item: -item[1],
                )
            ),
            "total_subscriptions": len(subscribers),
            "max_fanout": subscribers.max_fanout(),
            "parents_touched": parents_touched,
            "swept_entries": self._swept_entries,
            "resident_entries": sum(
                len(cache) for cache in self._caches.values()
            ),
            "latency_reservoir": self.reservoir,
            "latency_buckets": self.buckets,
        }
        return SimulationResult(
            config=self.config,
            scheme=(
                f"{self.config.scheme} (scale shard "
                f"{self.shard_index}/{self.shard_count})"
            ),
            queries=self.latency.count,
            mean_latency=self.latency.mean,
            latency_ci=None,
            cost_per_query=self.ledger.cost_per_query(self.latency.count),
            hit_rate=self.latency.hit_rate,
            hop_breakdown=dict(self.ledger.breakdown()),
            dropped_messages=self.transport.dropped,
            incomplete_queries=self._incomplete,
            final_population=len(self.ring),
            wall_seconds=wall,
            extras=extras,
        )


def _start_query_records(sim, next_gap, keys, origins) -> None:
    """Start a multi-key query workload as one self-rescheduling record.

    Each ``tick`` draws a key and an origin, issues the query (the key's
    authority answers its own queries locally) and defers the next tick
    by one arrival gap: no process or timeout per query.  The first
    record takes the URGENT slot a workload process would start in.
    """
    env = sim.env
    defer = env.defer
    next_key = keys.__next__
    next_origin = origins.__next__
    slices = sim.slices
    schemes = sim.schemes
    record_latency = sim.record_latency

    def tick() -> None:
        key = next_key()
        node = next_origin()
        if node == slices[key].tree.root:
            record_latency(key, 0, env._now)
        else:
            schemes[key].on_local_query(node)
        defer(next_gap(), tick)

    env.defer_urgent(lambda: defer(next_gap(), tick))


#: Per-process memo of (ring, keys) — both are pure functions of the
#: config's seed/size, and at 10^5 nodes a ring is worth reusing across
#: the shards a worker executes.
_WORLD_CACHE: dict[tuple[int, int, int], tuple[ChordRing, list[int]]] = {}


def _ring_and_keys(
    config: SimulationConfig, num_keys: int
) -> tuple[ChordRing, list[int]]:
    """The shared world every shard of a run agrees on.

    Draws the ring and then the key ids from the ``"topology"`` stream
    in the same order as :class:`MultiKeySimulation`, so the world is a
    pure function of ``(seed, num_nodes, num_keys)`` — identical in
    every worker process, whichever shards it happens to execute.
    """
    cache_key = (config.seed, config.num_nodes, num_keys)
    world = _WORLD_CACHE.get(cache_key)
    if world is None:
        rng = RandomStreams(config.seed).get("topology")
        ring = ChordRing.random(config.num_nodes, rng, bits=32)
        keys: list[int] = []
        seen: set[int] = set()
        while len(keys) < num_keys:
            key = int(rng.integers(0, 1 << 32))
            if key in seen:  # pragma: no cover - 2^-32 chance
                continue
            seen.add(key)
            keys.append(key)
        world = (ring, keys)
        _WORLD_CACHE[cache_key] = world
    return world


def _execute_scale_shard(spec) -> tuple[SimulationResult, None]:
    """Worker-side shard executor for the parallel runner.

    ``spec.point`` carries the shard descriptor; the ring is rebuilt (or
    fetched from the per-process memo) inside the worker, so the spec
    itself stays small and picklable.
    """
    point = spec.point
    sim = MultiKeyScaleSimulation(
        config=spec.config,
        num_keys=point["num_keys"],
        key_zipf_theta=point["key_zipf_theta"],
        shard_index=point["shard_index"],
        shard_count=point["shard_count"],
        sweep_interval=point.get("sweep_interval"),
    )
    return sim.run(), None


def run_scale(
    config: SimulationConfig,
    num_keys: int = 1024,
    key_zipf_theta: float = 0.8,
    shard_count: Optional[int] = None,
    workers: "int | str | None" = 1,
    sweep_interval: Optional[float] = None,
) -> SimulationResult:
    """Run a sharded multi-key simulation and merge shard results.

    ``shard_count`` defaults to :func:`default_shard_count` — a pure
    function of ``num_keys`` — and every merged number is bit-identical
    for any ``workers`` value, because workers only decide *where* the
    fixed shards execute, never what they compute.
    """
    from repro.engine.parallel import ParallelRunner, TrialSpec

    if shard_count is None:
        shard_count = default_shard_count(num_keys)
    specs = [
        TrialSpec(
            config=config,
            experiment="scale",
            point={
                "num_keys": num_keys,
                "key_zipf_theta": key_zipf_theta,
                "shard_index": index,
                "shard_count": shard_count,
                "sweep_interval": sweep_interval,
            },
            scheme=config.scheme,
        )
        for index in range(shard_count)
    ]
    runner = ParallelRunner(
        workers=workers, experiment="scale", execute=_execute_scale_shard
    )
    results = runner.run_trials(specs)
    return merge_scale_results(results)


def merge_scale_results(results: list[SimulationResult]) -> SimulationResult:
    """Exact cross-shard merge of per-shard :class:`SimulationResult`\\ s.

    Counts and hop sums add; the mean and hit rate are recomputed from
    the merged numerators; latency tails come from merging the shards'
    streaming reservoirs.  Wall-clock is the *sum* of shard walls (total
    compute spent), never part of any golden.
    """
    if not results:
        raise ConfigError("no shard results to merge")
    queries = sum(result.queries for result in results)
    hits = sum(int(result.extras["hits"]) for result in results)
    total_hops = sum(
        float(result.extras["total_hops"]) for result in results
    )
    charged: dict[str, int] = {}
    for result in results:
        for category, count in result.hop_breakdown.items():
            charged[category] = charged.get(category, 0) + count
    cost_total = sum(
        result.cost_per_query * result.queries
        for result in results
        if result.queries
    )
    reservoir = results[0].extras["latency_reservoir"]
    buckets = results[0].extras["latency_buckets"]
    for result in results[1:]:
        reservoir = reservoir.merge(result.extras["latency_reservoir"])
        buckets = buckets.merge(result.extras["latency_buckets"])
    queries_per_key: dict[int, int] = {}
    for result in results:
        queries_per_key.update(result.extras["queries_per_key"])
    first = results[0]
    extras: dict[str, object] = {
        "num_keys": first.extras["num_keys"],
        "shard_count": len(results),
        "hits": hits,
        "total_hops": total_hops,
        "queries_per_key": dict(
            sorted(queries_per_key.items(), key=lambda item: -item[1])
        ),
        "total_subscriptions": sum(
            int(result.extras["total_subscriptions"]) for result in results
        ),
        "max_fanout": max(
            int(result.extras["max_fanout"]) for result in results
        ),
        "parents_touched": sum(
            int(result.extras["parents_touched"]) for result in results
        ),
        "swept_entries": sum(
            int(result.extras["swept_entries"]) for result in results
        ),
        "resident_entries": sum(
            int(result.extras["resident_entries"]) for result in results
        ),
        "latency_p50": reservoir.percentile(50),
        "latency_p95": reservoir.percentile(95),
        "latency_p99": reservoir.percentile(99),
        "bucket_count": len(buckets),
    }
    return SimulationResult(
        config=first.config,
        scheme=(
            f"{first.config.scheme} "
            f"(scale x{first.extras['num_keys']} keys, "
            f"{len(results)} shards)"
        ),
        queries=queries,
        mean_latency=total_hops / queries if queries else float("nan"),
        latency_ci=None,
        cost_per_query=cost_total / queries if queries else float("nan"),
        hit_rate=hits / queries if queries else float("nan"),
        hop_breakdown=charged,
        dropped_messages=sum(r.dropped_messages for r in results),
        incomplete_queries=sum(r.incomplete_queries for r in results),
        final_population=first.final_population,
        wall_seconds=sum(r.wall_seconds for r in results),
        extras=extras,
    )
