"""Small containers and formulas for Monte Carlo estimates.

Every Monte Carlo estimator draws its samples through `batch_sums`, which
cuts them into chunks of at most BATCH_ELEMS array elements (but at least
one sample), so memory stays bounded whatever the sample count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

Z95 = 1.96  # two-sided 95% normal quantile

#: array elements one chunk of samples may occupy
BATCH_ELEMS = 4_000_000


def batch_sums(
    samples: int, per_sample_elems: int, draw: Callable[[int], np.ndarray]
) -> tuple[float, float]:
    """Sum and sum of squares of a per-sample statistic over `samples` draws.

    `draw(m)` returns the statistic of m fresh samples; it is called on
    chunks of BATCH_ELEMS // per_sample_elems samples (at least one), in
    order, until `samples` are drawn.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    chunk = max(1, BATCH_ELEMS // max(per_sample_elems, 1))
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, chunk):
        stat = np.asarray(draw(min(chunk, samples - start)), dtype=float)
        total += float(stat.sum())
        total_sq += float((stat * stat).sum())
    return total, total_sq


def wilson95(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% coverage."""
    if n <= 0:
        raise ValidationError("Wilson interval needs n > 0")
    if not 0 <= successes <= n:
        raise ValidationError("successes must lie in [0, n]")
    z2 = Z95 * Z95
    phat = successes / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class Estimate:
    """A sample mean with its standard error."""

    mean: float
    stderr: float
    n: int
    wilson: tuple[float, float] | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("an estimate needs n > 0")
        if self.stderr < 0:
            raise ValidationError("stderr must be nonnegative")


@dataclass(frozen=True)
class TailEstimate:
    """Estimated probability that a statistic exceeds a threshold."""

    threshold: float
    probability: float
    stderr: float
    n: int
    wilson: tuple[float, float]


def proportion_estimate(successes: int, n: int) -> Estimate:
    phat = successes / n
    stderr = math.sqrt(phat * (1 - phat) / n)
    return Estimate(mean=phat, stderr=stderr, n=n, wilson=wilson95(successes, n))


def tail_estimate(threshold: float, successes: int, n: int) -> TailEstimate:
    phat = successes / n
    stderr = math.sqrt(phat * (1 - phat) / n)
    return TailEstimate(
        threshold=float(threshold),
        probability=phat,
        stderr=stderr,
        n=n,
        wilson=wilson95(successes, n),
    )


def mean_estimate(total: float, total_sq: float, n: int) -> Estimate:
    """Estimate from the sufficient statistics (sum, sum of squares, count)."""
    if n <= 0:
        raise ValidationError("an estimate needs n > 0")
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    if n > 1:
        var *= n / (n - 1)
    return Estimate(mean=mean, stderr=math.sqrt(var / n), n=n)
