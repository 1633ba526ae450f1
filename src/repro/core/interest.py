"""Interest measurement policies.

The paper's policy (Section III-B): "if the number of queries a node
receives in the last TTL interval is greater than a threshold value c, the
node is considered to be interested in the index."  Queries *received*
covers both locally generated queries and forwarded requests arriving from
downstream.

:class:`WindowInterestPolicy` implements exactly that sliding window.
:class:`EwmaInterestPolicy` is an alternative (exponentially weighted
arrival-rate estimate) used by the ablation benchmark to quantify how much
the policy choice matters.  :class:`AdaptiveInterestPolicy` keeps the
paper's decision rule but lets each node tune its own threshold from the
query rate it observes (ROADMAP item 5; the ``dup-adaptive`` scheme).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Protocol

from repro.errors import ConfigError


class InterestPolicy(Protocol):
    """Per-node interest estimator fed with query arrival times."""

    def record(self, now: float) -> None:
        """Register one query arrival at time ``now``."""
        ...

    def is_interested(self, now: float) -> bool:
        """Whether the node currently qualifies as interested."""
        ...


class _ArrivalWindow:
    """Arrival times inside a trailing window, oldest first.

    There is one window per (node, key) pair, so its resident size
    matters more than its speed.  The arrivals live in a plain list with
    a head index instead of a ``deque`` (760 B even when empty):
    ``_prune`` advances the head past expired arrivals and compacts the
    list once the head passes half its length, so every arrival is moved
    a bounded number of times.
    """

    __slots__ = ("_window", "_arrivals", "_head")

    def __init__(self, window: float):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        self._window = float(window)
        self._arrivals: list[float] = []
        self._head = 0

    def count(self, now: float) -> int:
        """Arrivals currently inside the window."""
        return self._prune(now)

    def _prune(self, now: float) -> int:
        """Expire arrivals at or before ``now - window``; return the rest."""
        arrivals = self._arrivals
        head = self._head
        end = len(arrivals)
        horizon = now - self._window
        if head < end and arrivals[head] <= horizon:
            head += 1
            while head < end and arrivals[head] <= horizon:
                head += 1
            if head * 2 > end:
                del arrivals[:head]
                end -= head
                head = 0
            self._head = head
        return end - head

    @property
    def window(self) -> float:
        """The trailing interval length."""
        return self._window


class WindowInterestPolicy(_ArrivalWindow):
    """The paper's sliding-window threshold policy.

    Parameters
    ----------
    window:
        Length of the trailing interval (the index TTL in the paper).
    threshold:
        The paper's ``c``: the node is interested when *more than*
        ``threshold`` queries arrived within the window.
    """

    __slots__ = ("_threshold",)

    def __init__(self, window: float, threshold: int):
        super().__init__(window)
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self._threshold = int(threshold)

    def record(self, now: float) -> None:
        """Register one query arrival."""
        self._prune(now)
        self._arrivals.append(now)

    def is_interested(self, now: float) -> bool:
        """More than ``threshold`` arrivals in ``(now - window, now]``."""
        return self._prune(now) > self._threshold

    @property
    def threshold(self) -> int:
        """The paper's ``c``."""
        return self._threshold

    def __repr__(self) -> str:
        return (
            f"WindowInterestPolicy(window={self._window}, "
            f"threshold={self._threshold}, "
            f"pending={len(self._arrivals) - self._head})"
        )


class EwmaInterestPolicy:
    """Interest from an exponentially weighted query-rate estimate.

    The estimated arrival rate decays between arrivals; the node is
    interested while the estimated number of arrivals per window exceeds
    the threshold.  Compared to the window policy this reacts faster to
    bursts and forgets faster after them — the ablation quantifies the
    difference under Pareto arrivals.

    Parameters
    ----------
    window:
        Reference interval used to convert the rate into an expected
        arrival count (kept equal to the TTL for comparability).
    threshold:
        Interested while ``rate * window > threshold``.
    half_life:
        Time for the rate estimate to decay by half with no arrivals.
    """

    __slots__ = ("_window", "_threshold", "_decay", "_rate", "_last")

    def __init__(self, window: float, threshold: int, half_life: float | None = None):
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        half_life = half_life if half_life is not None else window / 2
        if half_life <= 0:
            raise ConfigError(f"half_life must be positive, got {half_life}")
        self._window = float(window)
        self._threshold = int(threshold)
        self._decay = math.log(2.0) / half_life
        self._rate = 0.0
        self._last = 0.0

    def record(self, now: float) -> None:
        """Register one query arrival; bumps the decayed rate estimate."""
        self._advance(now)
        self._rate += self._decay  # unit impulse normalized by the decay

    def is_interested(self, now: float) -> bool:
        """Whether the decayed rate maps to > threshold arrivals/window."""
        self._advance(now)
        return self._rate * self._window > self._threshold

    def _advance(self, now: float) -> None:
        if now > self._last:
            self._rate *= math.exp(-self._decay * (now - self._last))
            self._last = now

    @property
    def window(self) -> float:
        """The reference interval length."""
        return self._window

    @property
    def threshold(self) -> int:
        """Arrivals-per-window threshold."""
        return self._threshold

    def __repr__(self) -> str:
        return (
            f"EwmaInterestPolicy(window={self._window}, "
            f"threshold={self._threshold}, rate={self._rate:.4g})"
        )


class AdaptiveInterestPolicy(_ArrivalWindow):
    """Sliding-window policy with a self-tuning threshold.

    The decision rule is the paper's (more than ``threshold`` arrivals in
    the trailing window), but the threshold tracks the node's own observed
    query rate instead of a global constant.  Time is cut into consecutive
    window-length epochs; when an epoch closes, its arrival count folds
    into an exponentially smoothed per-window rate estimate and the
    effective threshold becomes ``clamp(round(gain * rate), floor,
    ceiling)``.  Entirely deterministic — no RNG, and the estimator state
    advances only on ``record``/``is_interested`` calls, so replays are
    bit-identical.

    With ``floor == ceiling == c`` the threshold is pinned at ``c`` and
    every decision matches ``WindowInterestPolicy(window, c)`` exactly —
    the frozen-rate equivalence proven by ``tests/test_differential.py``.

    Parameters
    ----------
    window:
        Trailing interval (the index TTL) — also the epoch length.
    floor / ceiling:
        Hard bounds on the effective threshold.
    gain:
        Scales the rate estimate into a threshold: a node observing
        ``r`` queries per window settles near ``round(gain * r)``.
    smoothing:
        Weight of the newest closed epoch in the rate estimate
        (``rate = (1 - smoothing) * rate + smoothing * count``).
    """

    __slots__ = (
        "_floor",
        "_ceiling",
        "_gain",
        "_smoothing",
        "_epoch_start",
        "_epoch_count",
        "_rate",
        "_threshold",
    )

    def __init__(
        self,
        window: float,
        floor: int,
        ceiling: int,
        gain: float = 0.5,
        smoothing: float = 0.5,
    ):
        super().__init__(window)
        if floor < 0:
            raise ConfigError(f"floor must be >= 0, got {floor}")
        if ceiling < floor:
            raise ConfigError(f"ceiling must be >= floor, got {ceiling} < {floor}")
        if gain < 0:
            raise ConfigError(f"gain must be >= 0, got {gain}")
        if not 0 < smoothing <= 1:
            raise ConfigError(f"smoothing must be in (0, 1], got {smoothing}")
        self._floor = int(floor)
        self._ceiling = int(ceiling)
        self._gain = float(gain)
        self._smoothing = float(smoothing)
        self._epoch_start = 0.0
        self._epoch_count = 0
        self._rate = 0.0
        self._threshold = self._clamp(0.0)

    def record(self, now: float) -> None:
        """Register one query arrival."""
        self._advance(now)
        self._prune(now)
        self._arrivals.append(now)
        self._epoch_count += 1

    def is_interested(self, now: float) -> bool:
        """More than the current threshold arrivals in ``(now - window, now]``."""
        self._advance(now)
        return self._prune(now) > self._threshold

    def _advance(self, now: float) -> None:
        # Close every whole epoch that ended at or before ``now``.  The
        # loop is bounded: an idle stretch folds in as zero-count epochs,
        # each halving (by default) the rate estimate.
        while now - self._epoch_start >= self._window:
            self._rate = (
                1.0 - self._smoothing
            ) * self._rate + self._smoothing * self._epoch_count
            self._epoch_count = 0
            self._epoch_start += self._window
            self._threshold = self._clamp(self._gain * self._rate)

    def _clamp(self, raw: float) -> int:
        return max(self._floor, min(self._ceiling, int(round(raw))))

    @property
    def threshold(self) -> int:
        """The current effective threshold (clamped)."""
        return self._threshold

    @property
    def floor(self) -> int:
        """Lower bound on the effective threshold."""
        return self._floor

    @property
    def ceiling(self) -> int:
        """Upper bound on the effective threshold."""
        return self._ceiling

    @property
    def rate_estimate(self) -> float:
        """Smoothed arrivals-per-window estimate over closed epochs."""
        return self._rate

    def __repr__(self) -> str:
        return (
            f"AdaptiveInterestPolicy(window={self._window}, "
            f"floor={self._floor}, ceiling={self._ceiling}, "
            f"threshold={self._threshold}, rate={self._rate:.4g})"
        )


def interest_policy_factory(config, scheme) -> Callable[[], InterestPolicy]:
    """A zero-argument constructor of per-node interest policies.

    The kind is the scheme's ``interest_policy_override`` class
    attribute when it has one (``dup-adaptive`` does), else
    ``config.interest_policy``; ``config`` (a
    :class:`~repro.engine.config.SimulationConfig`) supplies the
    parameters.  Both engines resolve this once and call the result per
    node.
    """
    kind = (
        getattr(scheme, "interest_policy_override", None)
        or config.interest_policy
    )
    if kind == "window":
        return functools.partial(
            WindowInterestPolicy, config.ttl, config.threshold_c
        )
    if kind == "adaptive":
        return functools.partial(
            AdaptiveInterestPolicy,
            config.ttl,
            config.threshold_floor,
            config.threshold_ceiling,
            config.adaptive_gain,
        )
    return functools.partial(
        EwmaInterestPolicy, config.ttl, config.threshold_c
    )
