"""A recursive classifier for leaf colorings that leave the root nearly free.

A bottom block (the children of one height-1 vertex) passes when it
leaves at least branching**(eps/2) colors unused; higher vertices pass
when at most branching**(1-eps) of their children fail.  Thresholds are
real-valued and compared against integer counts; equality counts as
passing, with a 1e-9 slack so that thresholds that are mathematically
integers survive floating-point rounding.

The parameter eps is free (0 < eps <= 1/3); `epsilon_from` derives the
canonical value from how many colors there are relative to the branching
factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, RegimeError, ValidationError
from .estimators import Estimate, batch_sums, proportion_estimate
from .exact_engine import _unused_slot_law
from .rng import RandomSource
from .tree_model import PartialLeafColoring, TreeShape, _check_k, check_leaf_coloring

_TIE = 1e-9  # tolerance making threshold comparisons inclusive at exact ties


@dataclass(frozen=True)
class UnbiasingParams:
    epsilon: float

    def __post_init__(self):
        # compare against the exact third so Fraction(1, 3) is accepted
        if not 0 < self.epsilon <= Fraction(1, 3):
            raise ValidationError(
                f"epsilon must lie in (0, 1/3], got {self.epsilon}"
            )


def epsilon_from(k: int, branching: int) -> UnbiasingParams:
    """Canonical epsilon for k colors on a branching-ary tree.

    Writing k = C * branching / ln(branching), requires C > 1 and takes
    eps = min(C - 1, 1/3).
    """
    if k < 2 or branching < 2:
        raise ValidationError("need k >= 2 and branching >= 2")
    C = k * math.log(branching) / branching
    if C <= 1:
        raise RegimeError(
            f"k={k} colors on a {branching}-ary tree gives C={C:.4f} <= 1; "
            "no epsilon is defined in this regime"
        )
    return UnbiasingParams(min(C - 1.0, 1 / 3))


def _block_threshold(branching: int, eps: float) -> float:
    """The unused count a bottom block must reach to pass, less the tie slack."""
    return branching ** (eps / 2) - _TIE


def _level_flags(
    block_flags: np.ndarray, branching: int, depth: int, eps: float
) -> list[np.ndarray]:
    """Pass/fail flags per height, starting from the bottom blocks' flags."""
    step_threshold = branching ** (1 - eps)
    flags = [block_flags]
    for _ in range(depth - 1):
        failed = (~flags[-1]).reshape(flags[-1].shape[0], -1, branching).sum(axis=2)
        flags.append(failed <= step_threshold + _TIE)
    return flags


def _unused_counts_from_rows(rows: np.ndarray, branching: int, k: int) -> np.ndarray:
    # siblings on a contiguous leading axis, (branching, batch, blocks):
    # .any(axis=0) then folds whole slices, where .any over a short trailing
    # sibling axis runs several times slower
    blocks = np.moveaxis(rows.reshape(rows.shape[0], -1, branching), 2, 0).copy()
    used = np.zeros(blocks.shape[1:], dtype=np.int64)
    for c in range(1, k + 1):
        used += (blocks == c).any(axis=0)
    return k - used


def classify_rows(
    shape: TreeShape, k: int, params: UnbiasingParams, leaf_rows: np.ndarray
) -> list[np.ndarray]:
    """Vectorized classifier; returns per-height flag arrays for every row."""
    if shape.depth < 1:
        raise ValidationError("the classifier is undefined on a depth-0 tree")
    rows = np.asarray(leaf_rows)
    if rows.ndim != 2 or rows.shape[1] != shape.leaf_count:
        raise ValidationError("leaf_rows must be (batch, leaf_count)")
    unused = _unused_counts_from_rows(rows, shape.branching, k)
    passed = unused >= _block_threshold(shape.branching, params.epsilon)
    return _level_flags(passed, shape.branching, shape.depth, params.epsilon)


def is_unbiasing(
    shape: TreeShape, k: int, params: UnbiasingParams, coloring: PartialLeafColoring
) -> bool:
    check_leaf_coloring(shape, coloring)
    flags = classify_rows(shape, k, params, coloring.values[np.newaxis, :])
    return bool(flags[-1][0, 0])


def qualifying_heights(shape: TreeShape, params: UnbiasingParams) -> range:
    """Heights whose vertices the strong form inspects: h >= eps * depth, h >= 1."""
    lo = max(1, math.ceil(params.epsilon * shape.depth - _TIE))
    return range(lo, shape.depth + 1)


def is_highly_unbiasing(
    shape: TreeShape, k: int, params: UnbiasingParams, coloring: PartialLeafColoring
) -> bool:
    """Whether the restriction below *every* sufficiently high vertex passes."""
    check_leaf_coloring(shape, coloring)
    flags = classify_rows(shape, k, params, coloring.values[np.newaxis, :])
    return all(bool(flags[h - 1].all()) for h in qualifying_heights(shape, params))


def star_out(coloring: PartialLeafColoring, positions) -> PartialLeafColoring:
    """Copy of the coloring with the given leaf positions made unconstrained."""
    pos = np.asarray(list(positions), dtype=np.int64)
    if pos.size and (pos.min() < 0 or pos.max() >= len(coloring)):
        raise ValidationError("star positions out of range")
    values = coloring.values.copy()
    values[pos] = 0
    return PartialLeafColoring(coloring.k, values)


def estimate_q(
    shape: TreeShape,
    k: int,
    params: UnbiasingParams,
    samples: int,
    rng: RandomSource,
    highly: bool = False,
) -> Estimate:
    """Monte Carlo probability that a typical leaf coloring *fails* the
    classifier (or its strong form), under the broadcast measure.

    The classifier sees a bottom block only through its unused count
    1 + u, and u has the occupancy law of `branching` balls in the k-1
    colors other than the parent's, whatever that color is; so the counts
    of all branching**(depth-1) bottom blocks are i.i.d., and so are their
    pass flags, which are drawn directly, without broadcasting any level of
    the tree.  A block passes iff u >= u*, the least u with 1 + u at or
    above the threshold.  Drawn as `broadcast_sampler._unused_by_color`
    draws it, u counts the entries of the CDF of `_unused_slot_law` at or
    below a uniform x, so the block passes iff x >= cdf[u* - 1]: one
    uniform and one comparison per block, from the same stream.  More
    bottom blocks than one array can index raise CapacityError before any
    draw.
    """
    _check_k(k)
    if shape.depth < 1:
        raise ValidationError("the classifier is undefined on a depth-0 tree")
    blocks = shape.branching ** (shape.depth - 1)
    if blocks > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{shape.branching}**{shape.depth - 1} bottom blocks exceed one array's index range"
        )
    heights = qualifying_heights(shape, params) if highly else None
    gen = rng.generator
    least = max(0, math.ceil(_block_threshold(shape.branching, params.epsilon)) - 1)
    if least == 0:
        cut = 0.0  # every block passes
    elif least > k - 2:
        cut = math.inf  # u <= k - 2, so no block passes
    else:
        cut = _unused_slot_law(shape.branching, k)[1][least - 1]

    def failed(m: int) -> np.ndarray:
        passed = gen.random((m, blocks)) >= cut
        flags = _level_flags(passed, shape.branching, shape.depth, params.epsilon)
        if highly:
            good = np.ones(m, dtype=bool)
            for h in heights:
                good &= flags[h - 1].all(axis=1)
        else:
            good = flags[-1][:, 0]
        return ~good

    failures, _ = batch_sums(samples, blocks, failed)
    return proportion_estimate(int(failures), samples)
