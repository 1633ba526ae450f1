"""Unit and property tests for the statistics substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.stats import (
    ConfidenceInterval,
    Deterministic,
    Exponential,
    LogNormal,
    Pareto,
    RunningStat,
    TimeWeightedStat,
    Uniform,
    ZipfSelector,
    batch_means_interval,
    mean_confidence_interval,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRunningStat:
    def test_empty_stat_is_nan(self):
        stat = RunningStat()
        assert math.isnan(stat.mean)
        assert math.isnan(stat.variance)
        assert stat.count == 0

    def test_known_values(self):
        stat = RunningStat()
        stat.extend([2.0, 4.0, 6.0])
        assert stat.mean == pytest.approx(4.0)
        assert stat.variance == pytest.approx(4.0)
        assert stat.stdev == pytest.approx(2.0)
        assert stat.minimum == 2.0
        assert stat.maximum == 6.0
        assert stat.total == pytest.approx(12.0)

    def test_single_value_variance_nan(self):
        stat = RunningStat()
        stat.add(7.0)
        assert stat.mean == 7.0
        assert math.isnan(stat.variance)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        stat = RunningStat()
        stat.extend(values)
        assert stat.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert stat.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-6
        )

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    )
    def test_merge_equals_concatenation(self, first, second):
        stat_a = RunningStat()
        stat_a.extend(first)
        stat_b = RunningStat()
        stat_b.extend(second)
        merged = stat_a.merge(stat_b)
        combined = RunningStat()
        combined.extend(first + second)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(
            combined.variance, rel=1e-6, abs=1e-6
        )

    def test_merge_with_empty(self):
        stat = RunningStat()
        stat.extend([1.0, 2.0])
        merged = stat.merge(RunningStat())
        assert merged.mean == pytest.approx(1.5)
        merged = RunningStat().merge(stat)
        assert merged.mean == pytest.approx(1.5)


class TestTimeWeightedStat:
    def test_piecewise_constant_mean(self):
        stat = TimeWeightedStat(start_time=0.0, value=0.0)
        stat.update(at=10.0, value=4.0)
        assert stat.mean(at=20.0) == pytest.approx(2.0)

    def test_backwards_time_rejected(self):
        stat = TimeWeightedStat()
        stat.update(at=5.0, value=1.0)
        with pytest.raises(ValueError):
            stat.update(at=4.0, value=2.0)

    def test_zero_elapsed_is_nan(self):
        stat = TimeWeightedStat(start_time=3.0)
        assert math.isnan(stat.mean(at=3.0))

    def test_current_tracks_last_value(self):
        stat = TimeWeightedStat()
        stat.update(at=1.0, value=9.0)
        assert stat.current == 9.0


class TestConfidenceIntervals:
    def test_empty_samples(self):
        ci = mean_confidence_interval([])
        assert math.isnan(ci.mean)
        assert ci.count == 0

    def test_single_sample_no_width(self):
        ci = mean_confidence_interval([5.0])
        assert ci.mean == 5.0
        assert math.isnan(ci.half_width)

    def test_constant_samples_zero_width(self):
        ci = mean_confidence_interval([3.0, 3.0, 3.0, 3.0])
        assert ci.mean == 3.0
        assert ci.half_width == pytest.approx(0.0)

    def test_known_t_interval(self):
        # mean 10, stdev 2, n=4 -> half width = t(0.975, 3) * 2/2 = 3.182
        samples = [8.0, 9.0, 11.0, 12.0]
        ci = mean_confidence_interval(samples)
        assert ci.mean == pytest.approx(10.0)
        assert ci.half_width == pytest.approx(2.9, abs=0.2)

    def test_contains(self):
        ci = ConfidenceInterval(mean=10.0, half_width=1.0, confidence=0.95, count=5)
        assert ci.contains(10.5)
        assert not ci.contains(12.0)
        assert ci.low == 9.0
        assert ci.high == 11.0

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_coverage_of_true_mean(self):
        generator = rng(7)
        covered = 0
        trials = 200
        for _ in range(trials):
            samples = generator.normal(loc=5.0, scale=2.0, size=20)
            if mean_confidence_interval(samples).contains(5.0):
                covered += 1
        assert covered / trials > 0.88  # nominal 0.95

    def test_batch_means(self):
        observations = list(range(100))
        ci = batch_means_interval(observations, batches=10)
        assert ci.mean == pytest.approx(49.5)
        assert ci.count == 10

    def test_batch_means_too_few_batches(self):
        with pytest.raises(ValueError):
            batch_means_interval([1.0, 2.0], batches=1)

    def test_batch_means_short_sequence_falls_back(self):
        ci = batch_means_interval([1.0, 2.0, 3.0], batches=20)
        assert ci.count == 3


class TestDistributions:
    def test_deterministic(self):
        dist = Deterministic(2.5)
        assert dist.sample(rng()) == 2.5
        assert dist.mean == 2.5

    def test_deterministic_negative_rejected(self):
        with pytest.raises(WorkloadError):
            Deterministic(-1.0)

    def test_uniform_bounds_and_mean(self):
        dist = Uniform(1.0, 3.0)
        generator = rng(1)
        samples = [dist.sample(generator) for _ in range(2000)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert np.mean(samples) == pytest.approx(2.0, abs=0.05)

    def test_exponential_mean(self):
        dist = Exponential(0.1)
        generator = rng(2)
        samples = [dist.sample(generator) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(0.1, rel=0.05)

    def test_exponential_from_rate(self):
        assert Exponential.from_rate(4.0).mean == pytest.approx(0.25)
        assert Exponential(0.5).rate == pytest.approx(2.0)

    def test_exponential_invalid(self):
        with pytest.raises(WorkloadError):
            Exponential(0.0)
        with pytest.raises(WorkloadError):
            Exponential.from_rate(-1.0)

    def test_pareto_mean_rate_matches_paper_formula(self):
        # (alpha - 1) / k must equal the requested rate.
        dist = Pareto.from_rate(alpha=1.2, rate=2.0)
        assert dist.k == pytest.approx(0.1)
        assert dist.mean == pytest.approx(0.5)
        generator = rng(3)
        samples = [dist.sample(generator) for _ in range(200000)]
        # Heavy tail: generous tolerance.
        assert np.mean(samples) == pytest.approx(0.5, rel=0.25)

    def test_pareto_cdf_inversion(self):
        # P(X <= x) = 1 - (k/(x+k))^alpha; check the empirical median.
        alpha, k = 1.5, 2.0
        dist = Pareto(alpha, k)
        median = k * (2 ** (1 / alpha) - 1)
        generator = rng(4)
        samples = np.array([dist.sample(generator) for _ in range(20000)])
        assert np.median(samples) == pytest.approx(median, rel=0.05)

    def test_pareto_alpha_below_one_infinite_mean(self):
        assert Pareto(0.9, 1.0).mean == math.inf
        with pytest.raises(WorkloadError):
            Pareto.from_rate(alpha=0.9, rate=1.0)

    def test_lognormal_mean(self):
        dist = LogNormal.from_mean(0.1, sigma=0.5)
        assert dist.mean == pytest.approx(0.1, rel=1e-9)
        generator = rng(5)
        samples = [dist.sample(generator) for _ in range(50000)]
        assert np.mean(samples) == pytest.approx(0.1, rel=0.05)


class TestZipfSelector:
    def test_probabilities_sum_to_one(self):
        selector = ZipfSelector(100, theta=0.95)
        total = sum(selector.probability(r) for r in range(100))
        assert total == pytest.approx(1.0)

    def test_theta_zero_is_uniform(self):
        selector = ZipfSelector(10, theta=0.0)
        for rank in range(10):
            assert selector.probability(rank) == pytest.approx(0.1)

    def test_paper_formula(self):
        # P_i = (1/i^theta) / sum_k 1/k^theta, ranks 1-based in the paper.
        theta, n = 1.5, 50
        selector = ZipfSelector(n, theta)
        denominator = sum(1 / k**theta for k in range(1, n + 1))
        for i in (1, 2, 10, 50):
            expected = (1 / i**theta) / denominator
            assert selector.probability(i - 1) == pytest.approx(expected)

    def test_rank_zero_is_hottest(self):
        selector = ZipfSelector(20, theta=2.0)
        probabilities = [selector.probability(r) for r in range(20)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_empirical_frequencies(self):
        selector = ZipfSelector(10, theta=1.0)
        generator = rng(6)
        draws = selector.sample_many(generator, 100000)
        freq0 = np.mean(draws == 0)
        assert freq0 == pytest.approx(selector.probability(0), abs=0.01)

    def test_sample_in_range(self):
        selector = ZipfSelector(5, theta=3.0)
        generator = rng(7)
        assert all(0 <= selector.sample(generator) < 5 for _ in range(1000))

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfSelector(0, theta=1.0)
        with pytest.raises(WorkloadError):
            ZipfSelector(5, theta=-0.1)
        with pytest.raises(WorkloadError):
            ZipfSelector(5, theta=1.0).probability(9)

    @given(st.integers(1, 500), st.floats(0.0, 4.0))
    @settings(max_examples=30)
    def test_cdf_monotone(self, n, theta):
        selector = ZipfSelector(n, theta)
        total = sum(selector.probability(r) for r in range(n))
        assert total == pytest.approx(1.0)


class ScriptedUniforms:
    """A generator stand-in whose uniforms follow a fixed script."""

    def __init__(self, values):
        self._values = list(values)
        self._next = 0

    def random(self, size=None):
        if size is None:
            value = self._values[self._next]
            self._next += 1
            return value
        block = self._values[self._next:self._next + size]
        self._next += size
        assert len(block) == size, "script exhausted"
        return np.array(block)


class TestBlockDraws:
    """Block-drawn streams equal their scalar ``sample`` sequences.

    The block is shrunk so every test crosses several refills.
    """

    DRAWS = 40

    @pytest.fixture(autouse=True)
    def small_block(self, monkeypatch):
        from repro.stats import distributions

        monkeypatch.setattr(distributions, "BLOCK", 7)

    def test_exponential_arrivals_equal_scalar_samples(self):
        from repro.workload.arrivals import ArrivalProcess

        law = Exponential(0.37)
        arrivals = ArrivalProcess(law, rng(11))
        scalar = rng(11)
        assert [arrivals.next_gap() for _ in range(self.DRAWS)] == [
            law.sample(scalar) for _ in range(self.DRAWS)
        ]

    def test_pareto_arrivals_equal_scalar_samples_across_zero_draws(self):
        from repro.workload.arrivals import ArrivalProcess

        uniforms = rng(12).random(80).tolist()
        # Zeros inside a block, at a block's end and start, and a whole
        # block of them: the scalar sample redraws each one.
        for index in (3, 6, 7, 20, 21, 22, 23, 24, 25, 26, 27, 28):
            uniforms[index] = 0.0
        law = Pareto(1.05, 0.5)
        arrivals = ArrivalProcess(law, ScriptedUniforms(uniforms))
        scalar = ScriptedUniforms(uniforms)
        assert [arrivals.next_gap() for _ in range(self.DRAWS)] == [
            law.sample(scalar) for _ in range(self.DRAWS)
        ]

    def test_zipf_origins_equal_scalar_samples_across_rank_flips(self):
        from repro.workload.selection import ZipfNodeSelector

        selector = ZipfNodeSelector(list(range(100, 160)), 0.9, rng(13))
        twin = ZipfNodeSelector(list(range(100, 160)), 0.9, rng(13))
        origins = selector.draws(rng(14))
        scalar = rng(14)
        blocked, expected = [], []
        for round_ in range(4):
            blocked += [next(origins) for _ in range(self.DRAWS // 4)]
            expected += [twin.sample(scalar) for _ in range(self.DRAWS // 4)]
            # A flash-crowd flip reorders the ranking under ranks that
            # are already buffered.
            selector.flip_ranks(rng(round_), count=3)
            twin.flip_ranks(rng(round_), count=3)
        assert blocked == expected

    def test_zipf_slice_equals_scalar_samples_at_clamp_edges(self):
        from repro.stats.distributions import rank_draws

        law = ZipfSelector(64, 0.8).slice(10, 30)
        uniforms = rng(15).random(80).tolist()
        # Spans below the slice and at or past its top clamp to its
        # first and last rank.
        for index, value in {
            2: -0.25, 6: 0.0, 9: 1.0, 13: 1.5, 14: 1.0 - 2**-53, 30: -1e-9,
        }.items():
            uniforms[index] = value
        blocked = rank_draws(law, ScriptedUniforms(uniforms))
        scalar = ScriptedUniforms(uniforms)
        draws = [next(blocked) for _ in range(self.DRAWS)]
        assert draws == [law.sample(scalar) for _ in range(self.DRAWS)]
        assert {draws[2], draws[30]} == {law.lo}
        assert {draws[9], draws[13]} == {law.hi - 1}
        assert all(type(rank) is int for rank in draws)
