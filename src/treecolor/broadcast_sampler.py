"""Top-down sampling of uniform proper colorings.

Coloring the root uniformly and each child uniformly among the colors its
parent does not use yields exactly the uniform distribution over proper
colorings of the tree, so "broadcast" samples double as Gibbs samples.
Levels are generated as whole numpy arrays; the only per-vertex state
that ever exists is the level currently being produced.

`sample_block_counts` stops one level above the leaves and draws, for
each bottom block, only the set of colors its leaves leave unused.  The
block's Delta leaves are Delta balls thrown uniformly into the k-1 colors
other than the parent's, so the number of those colors left empty follows
the occupancy law, and given that number the empty colors are a uniform
subset.  Root-marginal recursions and the unbiasing classifier only see a
bottom block through this set, so it is a lossless shortcut for deep wide
trees (see exact_engine.root_marginal_from_block_counts).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .rng import RandomSource
from .tree_model import FullColoring, PartialLeafColoring, TreeShape

#: switch from materialized leaves to per-block counts above this leaf count
BLOCK_COUNT_THRESHOLD = 4096


def _check_k(k: int) -> None:
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")


def uses_block_counts(shape: TreeShape) -> bool:
    """Whether samplers of root posteriors draw per-block unused-color sets
    rather than materializing the leaves."""
    return shape.leaf_count > BLOCK_COUNT_THRESHOLD


def _root_level(k: int, n: int, gen: np.random.Generator, root_colors) -> np.ndarray:
    """(n, 1) root colors: drawn uniformly for None, else a scalar or (n,) array."""
    if root_colors is None:
        return gen.integers(1, k + 1, size=(n, 1), dtype=np.int16)
    colors = np.asarray(root_colors)
    if colors.dtype.kind not in "iu":
        raise ValidationError("root colors must be integers")
    if colors.shape not in ((), (n,)):
        raise ValidationError(f"root colors must be a scalar or have length {n}")
    if colors.size and (colors.min() < 1 or colors.max() > k):
        raise ValidationError(f"root colors must lie in 1..{k}")
    if colors.ndim == 0:
        return np.full((n, 1), colors, dtype=np.int16)
    return colors.astype(np.int16).reshape(n, 1)


def _next_level(parents: np.ndarray, k: int, branching: int, gen) -> np.ndarray:
    """Children drawn uniformly from the k-1 colors their parent avoids.

    Branch-free: draw r in 1..k-1 and shift it past the parent's color.
    """
    stretched = np.repeat(parents, branching, axis=1)
    r = gen.integers(1, k, size=stretched.shape, dtype=np.int16)
    return r + (r >= stretched)


def sample_levels(
    shape: TreeShape,
    k: int,
    n: int,
    rng: RandomSource,
    root_color=None,
    down_to: int | None = None,
) -> list[np.ndarray]:
    """Rows of sampled colors per level, from the root down to depth `down_to`."""
    _check_k(k)
    stop = shape.depth if down_to is None else down_to
    if not 0 <= stop <= shape.depth:
        raise ValidationError("down_to out of range")
    gen = rng.generator
    levels = [_root_level(k, n, gen, root_color)]
    for _ in range(stop):
        levels.append(_next_level(levels[-1], k, shape.branching, gen))
    return levels


def sample_full(
    shape: TreeShape, k: int, rng: RandomSource, root_color=None
) -> FullColoring:
    """One uniform proper coloring of the whole tree."""
    levels = sample_levels(shape, k, 1, rng, root_color)
    return FullColoring(k, np.concatenate([lvl[0] for lvl in levels]))


def sample_leaves_given_root(
    shape: TreeShape, k: int, root_color: int, rng: RandomSource
) -> PartialLeafColoring:
    """Leaf row of a uniform proper coloring whose root has the given color."""
    levels = sample_levels(shape, k, 1, rng, root_color)
    return PartialLeafColoring(k, levels[-1][0])


def sample_leaf_rows(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, leaf_count) leaf rows; `root_colors` may be None, a scalar, or (n,)."""
    _check_k(k)
    gen = rng.generator
    level = _root_level(k, n, gen, root_colors)
    for _ in range(shape.depth):
        level = _next_level(level, k, shape.branching, gen)
    return level


@lru_cache(maxsize=None)
def _unused_slot_law(branching: int, k: int) -> tuple:
    """Exact law of u, the number of the k-1 non-parent colors a bottom
    block leaves unused, and its float CDF.

    P(u) = C(k-1, u) surj(branching, k-1-u) / (k-1)^branching, where
    surj(n, j) = sum_i (-1)^i C(j, i) (j-i)^n counts the maps of n leaves
    onto j colors.  Returns (law as Fractions for u = 0..k-2, CDF array).
    """
    bins = k - 1
    law = []
    for u in range(bins):
        j = bins - u
        onto = sum((-1) ** i * math.comb(j, i) * (j - i) ** branching for i in range(j + 1))
        law.append(Fraction(math.comb(bins, u) * onto, bins**branching))
    cdf = np.array([float(c) for c in accumulate(law)])
    cdf.setflags(write=False)
    return tuple(law), cdf


def sample_block_counts(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, blocks, k) bool: True where a bottom block leaves color c unused.

    Distributed exactly as `counts == 0` for the per-color leaf counts of
    `sample_leaf_rows`, block by block, without generating the leaves.
    The parent's color is always unused.  The number u of other unused
    colors is drawn by inverting the occupancy law of `branching` balls in
    k-1 bins (`_unused_slot_law`); blocks with u > 0 then pick a uniform
    u-subset of the k-1 non-parent slots by selection sampling.
    """
    _check_k(k)
    if shape.depth < 1:
        raise ValidationError("block counts need a tree of depth >= 1")
    gen = rng.generator
    level = _root_level(k, n, gen, root_colors)
    for _ in range(shape.depth - 1):
        level = _next_level(level, k, shape.branching, gen)
    parent = level.reshape(-1, 1) - 1
    unused = np.arange(k) == parent
    _, cdf = _unused_slot_law(shape.branching, k)
    u = np.searchsorted(cdf, gen.random(parent.shape[0]), side="right")
    busy = np.flatnonzero(u)
    if busy.size:
        need = u[busy]
        below = parent[busy, 0]
        chosen = unused[busy]
        for slot in range(k - 1):
            pick = gen.random(busy.size) * (k - 1 - slot) < need
            need -= pick
            # slot s is color s below the parent's color, s + 1 above it
            chosen[:, slot] |= pick & (slot < below)
            chosen[:, slot + 1] |= pick & (slot >= below)
        unused[busy] = chosen
    return unused.reshape(level.shape + (k,))


def sample_down_up(
    shape: TreeShape, k: int, root_color: int, rng: RandomSource, backend: str = "float"
) -> int:
    """Broadcast from `root_color`, then redraw a root color from the
    exact posterior given only the sampled leaves."""
    from . import exact_engine  # local import to keep module load cheap

    leaves = sample_leaves_given_root(shape, k, root_color, rng)
    dist = exact_engine.root_marginal(shape, k, leaves, backend=backend)
    u = rng.generator.random()
    acc = 0.0
    for c in range(1, k + 1):
        acc += float(dist.probability(c))
        if u < acc:
            return c
    return k


def posterior_rows(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, k) float root posteriors for n independent broadcast samples.

    Picks the materialized-leaf route or the block-count route by size;
    both produce the same distribution.
    """
    from . import exact_engine

    if shape.depth == 0:
        # the root is the only leaf: posterior is a point mass on its color
        roots = sample_leaf_rows(shape, k, n, rng, root_colors)[:, 0]
        return np.eye(k, dtype=float)[roots.astype(np.int64) - 1]
    if uses_block_counts(shape):
        unused = sample_block_counts(shape, k, n, rng, root_colors)
        return exact_engine.root_marginal_from_block_counts(shape, k, unused)
    rows = sample_leaf_rows(shape, k, n, rng, root_colors)
    return exact_engine.root_marginal_batch(shape, k, rows)


def sample_from_rows(rows: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw one color (1..k) from each probability row."""
    cum = np.cumsum(rows, axis=1)
    u = gen.random((rows.shape[0], 1))
    idx = (cum < u).sum(axis=1)
    return (np.minimum(idx, rows.shape[1] - 1) + 1).astype(np.int16)
