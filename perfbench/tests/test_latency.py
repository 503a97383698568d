import numpy as np
import pytest

from perfbench.latency import (
    fast_quartile_median,
    fast_quartile_rate,
    highest_supported_percentile,
    min_samples_for,
    supported_percentile,
)


def test_ten_samples_beyond_each_percentile():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    assert min_samples_for(99.9) == 10_000


def test_fallback_reports_the_highest_supported_percentile():
    assert highest_supported_percentile(1000) == 99
    assert highest_supported_percentile(500) == 98
    assert highest_supported_percentile(19) == 47
    assert highest_supported_percentile(9) is None
    value, used = supported_percentile(np.arange(500.0), 99)
    assert used == 98
    assert value == pytest.approx(np.percentile(np.arange(500.0), 98))
    assert supported_percentile([], 99) == (0.0, 99)


def _completions(rates: list[int]) -> np.ndarray:
    """Evenly spaced completion times, ``rates[b]`` of them in block ``b``,
    and, as in a closed loop, a last one just past the final block."""
    times = [b + (np.arange(r) + 0.5) / r for b, r in enumerate(rates)]
    return np.concatenate(times + [[len(rates) + 0.01]])


def test_block_rate_is_the_upper_quartile_of_whole_blocks():
    rates = [100, 200, 300, 400, 500]
    assert fast_quartile_rate(_completions(rates)) == pytest.approx(np.percentile(rates, 75))
    # Without the completion past the end, the last block is not whole.
    assert fast_quartile_rate(_completions(rates)[:-1]) == pytest.approx(
        np.percentile(rates[:-1], 75))


def test_block_rate_ignores_a_stall_but_follows_a_slowdown():
    steady = [1000] * 20
    stalled = steady[:7] + [10] + steady[8:]
    assert fast_quartile_rate(_completions(stalled)) == fast_quartile_rate(_completions(steady))
    slower = [800] * 20
    assert fast_quartile_rate(_completions(slower)) == pytest.approx(800)


def test_block_median_is_the_lower_quartile_of_block_medians():
    rates = [40] * 8
    done = _completions(rates)
    values = np.concatenate([np.full(r, 100.0 * (b + 1)) for b, r in enumerate(rates)] + [[0.0]])
    assert fast_quartile_median(done, values) == pytest.approx(np.percentile(
        [100.0 * (b + 1) for b in range(8)], 25))
    # A block with fewer samples than a median needs is skipped.
    sparse = np.concatenate([done, [8.5] * 5, [9.0]])
    assert fast_quartile_median(sparse, np.concatenate([values, [1.0] * 6])) == pytest.approx(
        fast_quartile_median(done, values))
