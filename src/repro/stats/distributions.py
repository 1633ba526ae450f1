"""Random variates used by the paper's workload model.

The paper (Section IV) draws from three distributions:

- **Exponential** inter-arrival times and message latencies.
- **Pareto** inter-arrival times with CDF ``F(x) = 1 - (k / (x + k))^alpha``
  (a Lomax / Pareto-II form shifted to start at 0).  For ``alpha > 1`` the
  mean is ``k / (alpha - 1)``, i.e. the mean *rate* is ``(alpha - 1) / k``;
  the paper sets ``k`` so this rate equals the sweep's lambda.
- **Zipf-like** placement of queries over nodes:
  ``P_i = (1 / i^theta) / sum_k (1 / k^theta)``.

Each distribution is a small object holding its parameters; sampling takes
the :class:`numpy.random.Generator` explicitly so streams stay controlled
by the caller.

The per-query workload draws are taken in blocks (:func:`block_draws`):
numpy's block draws equal its successive scalar draws, so a stream that
one consumer owns can be drawn :data:`BLOCK` values ahead without moving
a single result.  Arithmetic applied to each drawn value stays scalar
Python, exactly as the scalar ``sample`` does it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.errors import WorkloadError

#: Values drawn per refill of a :func:`block_draws` stream.
BLOCK = 4096


def block_draws(
    refill: Callable[[np.random.Generator, int], list],
    rng: np.random.Generator,
) -> Iterator:
    """Endless successive draws from ``rng``, taken :data:`BLOCK` at a time.

    ``refill(rng, count)`` returns, as Python scalars, the values that
    successive scalar ``sample`` calls would return from ``count`` draws
    (fewer values when a draw is rejected).  Drawing ahead is invisible
    only if nothing else consumes ``rng``: every block-drawn stream has
    exactly one owner.
    """
    while True:
        yield from refill(rng, BLOCK)


class Distribution(Protocol):
    """Anything that can draw a non-negative float given a generator."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate."""
        ...

    @property
    def mean(self) -> float:
        """Theoretical mean of the distribution."""
        ...


class Deterministic:
    """A degenerate distribution always returning ``value``."""

    __slots__ = ("_value",)

    def __init__(self, value: float):
        if value < 0:
            raise WorkloadError(f"value must be non-negative, got {value}")
        self._value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        """Return the fixed value (``rng`` unused, kept for the protocol)."""
        return self._value

    @property
    def mean(self) -> float:
        """The fixed value."""
        return self._value

    def __repr__(self) -> str:
        return f"Deterministic({self._value})"


class Uniform:
    """Uniform distribution on ``[low, high]``."""

    __slots__ = ("_low", "_high")

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise WorkloadError(f"need 0 <= low <= high, got [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one uniform variate."""
        return float(rng.uniform(self._low, self._high))

    @property
    def mean(self) -> float:
        """Midpoint of the interval."""
        return (self._low + self._high) / 2

    def __repr__(self) -> str:
        return f"Uniform({self._low}, {self._high})"


class Exponential:
    """Exponential distribution parameterized by its mean.

    The paper uses mean 0.1 s for per-hop message latency and mean
    ``1 / lambda`` for query inter-arrival times.
    """

    __slots__ = ("_mean",)

    def __init__(self, mean: float):
        if mean <= 0:
            raise WorkloadError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    @classmethod
    def from_rate(cls, rate: float) -> "Exponential":
        """Construct from a rate (events per unit time)."""
        if rate <= 0:
            raise WorkloadError(f"rate must be positive, got {rate}")
        return cls(1.0 / rate)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one exponential variate."""
        return float(rng.exponential(self._mean))

    def sample_many(self, rng: np.random.Generator, count: int) -> list[float]:
        """``count`` successive :meth:`sample` draws, as Python floats."""
        return rng.exponential(self._mean, count).tolist()

    @property
    def mean(self) -> float:
        """Theoretical mean."""
        return self._mean

    @property
    def rate(self) -> float:
        """Theoretical rate (1 / mean)."""
        return 1.0 / self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class Pareto:
    """The paper's heavy-tailed inter-arrival distribution.

    CDF ``F(x) = 1 - (k / (x + k))^alpha`` for ``x >= 0``.  Inversion gives
    ``x = k * (u^(-1/alpha) - 1)`` for uniform ``u``.  The paper uses
    ``alpha`` in {1.05, 1.20} and chooses ``k`` so that the mean rate
    ``(alpha - 1) / k`` equals the sweep's query arrival rate.
    """

    __slots__ = ("_alpha", "_k")

    def __init__(self, alpha: float, k: float):
        if alpha <= 0:
            raise WorkloadError(f"alpha must be positive, got {alpha}")
        if k <= 0:
            raise WorkloadError(f"k must be positive, got {k}")
        self._alpha = float(alpha)
        self._k = float(k)

    @classmethod
    def from_rate(cls, alpha: float, rate: float) -> "Pareto":
        """Construct with ``k`` chosen so the mean rate equals ``rate``.

        Requires ``alpha > 1`` (otherwise the mean is infinite and no such
        ``k`` exists).
        """
        if alpha <= 1:
            raise WorkloadError(
                f"mean rate undefined for alpha={alpha} <= 1"
            )
        if rate <= 0:
            raise WorkloadError(f"rate must be positive, got {rate}")
        return cls(alpha, (alpha - 1) / rate)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate by CDF inversion."""
        u = rng.random()
        # Guard u == 0 which would overflow the power.
        while u == 0.0:  # pragma: no cover - probability ~0
            u = rng.random()
        return self._k * (u ** (-1.0 / self._alpha) - 1.0)

    def sample_many(self, rng: np.random.Generator, count: int) -> list[float]:
        """The :meth:`sample` draws that ``count`` uniforms yield.

        A ``u == 0`` is skipped, as :meth:`sample` redraws it.  The power
        stays a Python float operation: a vectorised numpy pow may differ
        from it in the last ulp.
        """
        k = self._k
        exponent = -1.0 / self._alpha
        return [
            k * (u ** exponent - 1.0)
            for u in rng.random(count).tolist()
            if u != 0.0
        ]

    @property
    def alpha(self) -> float:
        """Tail index; smaller means burstier."""
        return self._alpha

    @property
    def k(self) -> float:
        """Scale parameter."""
        return self._k

    @property
    def mean(self) -> float:
        """Theoretical mean (``inf`` for alpha <= 1)."""
        if self._alpha <= 1:
            return math.inf
        return self._k / (self._alpha - 1)

    def __repr__(self) -> str:
        return f"Pareto(alpha={self._alpha}, k={self._k})"


class LogNormal:
    """Log-normal distribution (used in latency-model extensions)."""

    __slots__ = ("_mu", "_sigma")

    def __init__(self, mu: float, sigma: float):
        if sigma < 0:
            raise WorkloadError(f"sigma must be non-negative, got {sigma}")
        self._mu = float(mu)
        self._sigma = float(sigma)

    @classmethod
    def from_mean(cls, mean: float, sigma: float = 0.5) -> "LogNormal":
        """Construct with the given arithmetic mean and log-space sigma."""
        if mean <= 0:
            raise WorkloadError(f"mean must be positive, got {mean}")
        mu = math.log(mean) - sigma * sigma / 2
        return cls(mu, sigma)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one log-normal variate."""
        return float(rng.lognormal(self._mu, self._sigma))

    @property
    def mean(self) -> float:
        """Theoretical (arithmetic) mean."""
        return math.exp(self._mu + self._sigma * self._sigma / 2)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self._mu}, sigma={self._sigma})"


class ZipfSelector:
    """Zipf-like selection of one item out of ``n`` ranked items.

    ``P_i = (1 / i^theta) / H_n(theta)`` for rank ``i`` in ``1..n``.
    ``theta = 0`` degenerates to uniform; large ``theta`` concentrates
    probability on the first few ranks ("hot spots" in the paper).

    Sampling uses a precomputed CDF and binary search, O(log n) per draw.
    """

    __slots__ = ("_n", "_theta", "_cdf")

    def __init__(self, n: int, theta: float):
        if n < 1:
            raise WorkloadError(f"need at least one item, got n={n}")
        if theta < 0:
            raise WorkloadError(f"theta must be non-negative, got {theta}")
        self._n = int(n)
        self._theta = float(theta)
        ranks = np.arange(1, self._n + 1, dtype=np.float64)
        weights = ranks**-self._theta
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> int:
        """Draw a rank index in ``0..n-1`` (0 is the hottest)."""
        # ndarray.searchsorted skips the np.searchsorted dispatch wrapper;
        # the result is identical.
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` rank indices at once."""
        return self._cdf.searchsorted(
            rng.random(count), side="right"
        ).astype(np.int64)

    def probability(self, rank: int) -> float:
        """Probability of rank ``rank`` (0-based)."""
        if not 0 <= rank < self._n:
            raise WorkloadError(f"rank {rank} out of range [0, {self._n})")
        if rank == 0:
            return float(self._cdf[0])
        return float(self._cdf[rank] - self._cdf[rank - 1])

    @property
    def n(self) -> int:
        """Number of ranked items."""
        return self._n

    @property
    def theta(self) -> float:
        """Skewness parameter."""
        return self._theta

    def __repr__(self) -> str:
        return f"ZipfSelector(n={self._n}, theta={self._theta})"

    # -- shared-table access -------------------------------------------------
    def cumulative(self, rank: int) -> float:
        """CDF value at 0-based ``rank``: P(X <= rank)."""
        if not 0 <= rank < self._n:
            raise WorkloadError(f"rank {rank} out of range [0, {self._n})")
        return float(self._cdf[rank])

    def slice(self, lo: int, hi: int) -> "ZipfSlice":
        """The conditional distribution over ranks ``[lo, hi)``.

        Shares this selector's CDF table — no per-slice O(n) setup.
        """
        return ZipfSlice(self, lo, hi)


_SHARED_ZIPF: dict[tuple[int, float], ZipfSelector] = {}


def shared_zipf(n: int, theta: float) -> ZipfSelector:
    """A process-wide shared :class:`ZipfSelector` for ``(n, theta)``.

    Every multi-key engine draws keys from the same ranked Zipf law, but
    constructing a selector is O(n) (the cumsum over ranks).  With 4096
    keys sharded over worker processes the eager per-shard construction
    is pure duplicated setup; this memo builds the table once per
    process and hands out the same immutable selector.  Selectors are
    stateless between draws (the caller owns the RNG), so sharing is
    safe.
    """
    key = (int(n), float(theta))
    selector = _SHARED_ZIPF.get(key)
    if selector is None:
        selector = ZipfSelector(n, theta)
        _SHARED_ZIPF[key] = selector
    return selector


class ZipfSlice:
    """A Zipf law conditioned on a contiguous rank range ``[lo, hi)``.

    Used by the sharded scale engine: the key population follows one
    global Zipf law, each shard owns a rank range, and per-shard draws
    must be the *conditional* distribution so that the union over
    shards reproduces the global law exactly.  Sampling maps a uniform
    draw into the slice's CDF span — ``u' = cdf[lo-1] + u * mass`` —
    and binary-searches the shared table, so a slice is O(1) to build
    and O(log n) per draw, with no per-slice table copy.
    """

    __slots__ = ("_parent", "_lo", "_hi", "_base", "_mass")

    def __init__(self, parent: ZipfSelector, lo: int, hi: int):
        if not 0 <= lo < hi <= parent.n:
            raise WorkloadError(
                f"need 0 <= lo < hi <= {parent.n}, got [{lo}, {hi})"
            )
        self._parent = parent
        self._lo = int(lo)
        self._hi = int(hi)
        self._base = parent.cumulative(lo - 1) if lo > 0 else 0.0
        self._mass = parent.cumulative(hi - 1) - self._base

    # No engine caller: kept as scalar reference and perfbench entry point.
    def sample(self, rng: np.random.Generator) -> int:
        """Draw a *global* rank index in ``[lo, hi)``."""
        u = self._base + rng.random() * self._mass
        rank = int(self._parent._cdf.searchsorted(u, side="right"))
        # Clamp float round-off at the span edges.
        if rank < self._lo:
            return self._lo
        if rank >= self._hi:
            return self._hi - 1
        return rank

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` successive :meth:`sample` draws at once."""
        base = self._base
        mass = self._mass
        # The span mapping stays Python float arithmetic, as in sample().
        spans = [base + u * mass for u in rng.random(count).tolist()]
        ranks = self._parent._cdf.searchsorted(spans, side="right")
        return ranks.clip(self._lo, self._hi - 1)

    @property
    def mass(self) -> float:
        """Total probability of the slice under the parent law.

        The sharded engine thins the global arrival rate by this factor
        so each shard sees exactly its share of the query stream.
        """
        return self._mass

    @property
    def lo(self) -> int:
        """First rank (inclusive) of the slice."""
        return self._lo

    @property
    def hi(self) -> int:
        """Last rank (exclusive) of the slice."""
        return self._hi

    def __repr__(self) -> str:
        return (
            f"ZipfSlice([{self._lo}, {self._hi}) of {self._parent!r}, "
            f"mass={self._mass:.4f})"
        )


def rank_draws(
    law: ZipfSelector | ZipfSlice, rng: np.random.Generator
) -> Iterator[int]:
    """Endless successive ``law.sample(rng)`` ranks, drawn in blocks.

    The iterator owns ``rng``: nothing else may draw from it.
    """

    def refill(gen: np.random.Generator, count: int) -> list[int]:
        return law.sample_many(gen, count).tolist()

    return block_draws(refill, rng)
