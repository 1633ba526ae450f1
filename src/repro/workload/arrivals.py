"""Query arrival processes.

The paper draws query inter-arrival times from an exponential distribution
(default) or from the heavy-tailed Pareto distribution with CDF
``F(x) = 1 - (k/(x+k))^alpha`` whose scale ``k`` is set so the mean rate
``(alpha-1)/k`` equals the sweep's ``lambda``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.stats.distributions import Exponential, Pareto, block_draws


class ArrivalProcess:
    """Draws successive inter-arrival gaps from a distribution.

    The gaps are drawn in blocks (:func:`block_draws`) and equal the
    distribution's successive scalar samples, so the process owns
    ``rng``: nothing else may draw from it.
    """

    def __init__(
        self, interarrival: Exponential | Pareto, rng: np.random.Generator
    ):
        self._interarrival = interarrival
        self._gaps = block_draws(interarrival.sample_many, rng)

    def next_gap(self) -> float:
        """Time until the next arrival."""
        return next(self._gaps)

    @property
    def mean_rate(self) -> float:
        """Theoretical arrivals per unit time."""
        return 1.0 / self._interarrival.mean

    def __repr__(self) -> str:
        return f"ArrivalProcess({self._interarrival!r})"


def make_arrival_process(
    kind: str,
    rate: float,
    rng: np.random.Generator,
    pareto_alpha: float = 1.05,
) -> ArrivalProcess:
    """Build the paper's arrival process.

    Parameters
    ----------
    kind:
        ``"exponential"`` or ``"pareto"``.
    rate:
        Network-wide query arrival rate ``lambda`` (queries per second).
    rng:
        Random stream (typically ``"arrivals"``).
    pareto_alpha:
        Tail index for the Pareto case (paper uses 1.05 and 1.20).
    """
    if rate <= 0:
        raise WorkloadError(f"query rate must be positive, got {rate}")
    if kind == "exponential":
        return ArrivalProcess(Exponential.from_rate(rate), rng)
    if kind == "pareto":
        return ArrivalProcess(Pareto.from_rate(pareto_alpha, rate), rng)
    raise WorkloadError(
        f"unknown arrival kind {kind!r}; use 'exponential' or 'pareto'"
    )
