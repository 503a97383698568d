"""Percentiles under the ten-samples-beyond rule, and the closed loop's
per-block figures.

A percentile is only reported when at least :data:`MIN_TAIL_SAMPLES`
samples lie beyond it: a p99 needs 1,000 samples, a p50 needs 20.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


def min_samples_for(q: float) -> int:
    """Smallest sample count with ``MIN_TAIL_SAMPLES`` beyond percentile ``q``."""
    if not 0 <= q < 100:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    return math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q) - 1e-9)


def highest_supported_percentile(n: int) -> float | None:
    """Highest whole percentile that ``n`` samples support (None if none)."""
    for q in range(99, -1, -1):
        if n >= min_samples_for(q):
            return float(q)
    return None


def supported_percentile(samples: Sequence[float], q: float) -> tuple[float, float]:
    """``(value, percentile used)``: ``q`` when the samples support it, else
    the highest percentile they do support (the median when even p0 is unsupported);
    ``(0.0, q)`` when there are no samples (the layer was not exercised)."""
    if len(samples) == 0:
        return 0.0, q
    used = q
    if len(samples) < min_samples_for(q):
        used = highest_supported_percentile(len(samples)) or 50.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), used)), used


def _whole_blocks(done: np.ndarray, block_s: float) -> tuple[np.ndarray, int]:
    """Block index of each completion, and how many whole blocks there are."""
    done = np.asarray(done, dtype=np.float64)
    return np.floor(done / block_s).astype(np.int64), int(np.nanmax(done) // block_s)


def fast_quartile_rate(done: np.ndarray, block_s: float = 1.0) -> float:
    """Upper quartile, over the whole ``block_s`` blocks of a run, of the
    completions per second in each block.

    ``done`` holds completion times in seconds from the start of the run.
    Interference from other tenants only ever slows a block, so the
    upper quartile tracks the program's own speed; a slowdown of every
    request moves it in proportion.
    """
    block, n_blocks = _whole_blocks(done, block_s)
    if n_blocks < 1:
        raise ValueError("the run is shorter than one block")
    counts = np.bincount(block[block < n_blocks], minlength=n_blocks)
    return float(np.percentile(counts, 75)) / block_s


def fast_quartile_median(
    done: np.ndarray, values: np.ndarray, block_s: float = 1.0
) -> float:
    """Lower quartile, over the whole ``block_s`` blocks of a run, of each
    block's median of ``values`` (blocks with too few samples for a
    median are skipped; see :func:`fast_quartile_rate`)."""
    values = np.asarray(values, dtype=np.float64)
    block, n_blocks = _whole_blocks(done, block_s)
    medians = [
        float(np.median(chosen))
        for chosen in (values[block == b] for b in range(n_blocks))
        if chosen.size >= min_samples_for(50)
    ]
    if not medians:
        raise ValueError("no block holds enough samples for a median")
    return float(np.percentile(medians, 25))
