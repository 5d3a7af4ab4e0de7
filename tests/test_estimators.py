"""The shared chunked sampling loop and the estimates built on its sums."""
from __future__ import annotations

import numpy as np
import pytest

from treecolor.errors import ValidationError
from treecolor.estimators import (
    BATCH_ELEMS,
    batch_sums,
    mean_estimate,
    proportion_estimate,
    tail_estimate,
)


class CountingDraw:
    """Deterministic statistic: sample i (counting across calls) is i % 7,
    so chunked and unchunked passes see the same values in the same order."""

    def __init__(self):
        self.drawn = 0
        self.calls = []

    def __call__(self, m: int) -> np.ndarray:
        self.calls.append(m)
        values = np.arange(self.drawn, self.drawn + m) % 7
        self.drawn += m
        return values


def unchunked(samples: int) -> tuple[float, float]:
    values = (np.arange(samples) % 7).astype(float)
    return float(values.sum()), float((values * values).sum())


@pytest.mark.parametrize(
    "samples, per_sample_elems, chunks",
    [
        (25, BATCH_ELEMS // 100, [25]),  # fewer samples than one chunk
        (300, BATCH_ELEMS // 100, [100, 100, 100]),  # exact multiple
        (301, BATCH_ELEMS // 100, [100, 100, 100, 1]),  # one past a multiple
        (5, BATCH_ELEMS, [1] * 5),  # chunks of one sample
        (4, 3 * BATCH_ELEMS, [1] * 4),  # one sample exceeds the budget
        (9, 0, [9]),
    ],
)
def test_batch_sums_match_one_unchunked_pass(samples, per_sample_elems, chunks):
    draw = CountingDraw()
    total, total_sq = batch_sums(samples, per_sample_elems, draw)
    assert draw.calls == chunks
    assert (total, total_sq) == unchunked(samples)
    assert mean_estimate(total, total_sq, samples) == mean_estimate(
        *unchunked(samples), samples)

    tail = CountingDraw()
    successes, _ = batch_sums(samples, per_sample_elems, lambda m: tail(m) > 3)
    direct = int((np.arange(samples) % 7 > 3).sum())
    assert successes == direct
    assert tail_estimate(3, int(successes), samples) == tail_estimate(3, direct, samples)
    assert proportion_estimate(int(successes), samples) == proportion_estimate(
        direct, samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_batch_sums_rejects_empty_runs_before_drawing(samples):
    draw = CountingDraw()
    with pytest.raises(ValidationError):
        batch_sums(samples, 10, draw)
    assert draw.calls == []
