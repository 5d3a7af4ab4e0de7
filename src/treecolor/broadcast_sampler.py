"""Top-down sampling of uniform proper colorings, and root posteriors.

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
subset.  The unbiasing classifier only sees a bottom block through this
set, so for deep wide trees it never needs the leaves.

`posterior_rows` goes further up.  A vertex's upward message (the law of
its color given the leaves below it, under a uniform prior) depends only
on those leaves, which given the vertex's color are an independent
broadcast; so the message of a height-h vertex has a finite law.
`_message_law` builds it exactly, one level at a time (the one-level
recursion of Mezard & Montanari, J. Stat. Phys. 2006): each child takes a
color j uniform on 2..k and a height-(h-1) message with colors 1 and j
swapped, and the parent's message is proportional to the product of
(1 - child message).  Height 1 is the occupancy law above.  The sampler
broadcasts down to depth depth - h only, draws each vertex's message there
from its table, and folds the levels above in floats.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InfeasibleBoundaryError, ValidationError
from .rng import RandomSource
from .tree_model import FullColoring, PartialLeafColoring, TreeShape

#: the unbiasing estimator draws per-block unused sets above this leaf count
BLOCK_COUNT_THRESHOLD = 4096

#: largest number of child-type multisets, C(Delta + T - 1, Delta), that one
#: level of a message table may enumerate (T child types)
_TABLE_ENUMERATION_CAP = 100_000


def _check_k(k: int) -> None:
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")


def uses_block_counts(shape: TreeShape) -> bool:
    """Whether the unbiasing estimator draws per-block unused-color sets
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


def _level_at(
    k: int, branching: int, depth: int, n: int, gen: np.random.Generator, root_colors
) -> np.ndarray:
    """(n, branching**depth) colors of one level, broadcast from the root."""
    level = _root_level(k, n, gen, root_colors)
    for _ in range(depth):
        level = _next_level(level, k, branching, gen)
    return level


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
    return _level_at(k, shape.branching, shape.depth, n, rng.generator, root_colors)


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
    """
    _check_k(k)
    if shape.depth < 1:
        raise ValidationError("block counts need a tree of depth >= 1")
    gen = rng.generator
    level = _level_at(k, shape.branching, shape.depth - 1, n, gen, root_colors)
    unused = _unused_colors(level.reshape(-1), k, shape.branching, gen)
    return unused.reshape(level.shape + (k,))


def _unused_colors(parents: np.ndarray, k: int, branching: int, gen) -> np.ndarray:
    """(len(parents), k) bool: the colors each parent's `branching` fresh
    children leave unused.

    The parent's color is always unused.  The number u of other unused
    colors is drawn by inverting the occupancy law of `branching` balls in
    k-1 bins (`_unused_slot_law`); parents with u > 0 then pick a uniform
    u-subset of the k-1 non-parent slots by selection sampling.
    """
    parent = parents.reshape(-1, 1) - 1
    unused = np.arange(k) == parent
    _, cdf = _unused_slot_law(branching, k)
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
    return unused


def _unused_log_factors(unused: np.ndarray) -> np.ndarray:
    """log(1 - m) for the messages of height-1 vertices with the given
    unused-color sets: m is uniform on the s unused colors, so the factor
    is log(1 - 1/s) there and 0 on the used ones."""
    sizes = unused.sum(axis=-1, keepdims=True)
    if (sizes == 0).any():
        raise InfeasibleBoundaryError("a bottom block uses all colors")
    with np.errstate(divide="ignore"):
        return np.where(unused, np.log1p(-1.0 / sizes), 0.0)


@lru_cache(maxsize=None)
def _message_law(branching: int, k: int, height: int) -> tuple:
    """Exact law of the upward message of a height-`height` vertex of color 1.

    A message is kept as its integer count vector divided by the gcd of its
    entries (the counts of `exact_engine.count_levels`, up to scale); equal
    vectors are merged.  Returns (entries, denominator): entries is a
    sorted tuple of (vector, weight) pairs, the probability of a vector
    being weight / denominator.
    """
    if height == 0:
        return (((1,) + (0,) * (k - 1), 1),), 1
    below, denominator = _message_law(branching, k, height - 1)
    # a child of color j with message vector v lets the parent take color c
    # in proportion to sum(v) - v[c], where v is the color-1 vector with
    # entries 1 and j swapped
    factors: dict = {}
    for vec, weight in below:
        total = sum(vec)
        for j in range(1, k):
            f = [total - x for x in vec]
            f[0], f[j] = f[j], f[0]
            key = _reduced(f)
            factors[key] = factors.get(key, 0) + weight
    law = {(1,) * k: 1}
    for _ in range(branching):  # one child at a time
        grown: dict = {}
        for vec, weight in law.items():
            for f, q in factors.items():
                key = _reduced([a * b for a, b in zip(vec, f)])
                grown[key] = grown.get(key, 0) + weight * q
        law = grown
    return tuple(sorted(law.items())), (denominator * (k - 1)) ** branching


def _reduced(vec: list) -> tuple:
    g = math.gcd(*vec)
    return tuple(vec) if g == 1 else tuple(x // g for x in vec)


def _support_size(branching: int, k: int, height: int) -> int:
    """Number of distinct messages at a height; closed form at height 1,
    where a vertex of color 1 leaves unused color 1 and the complement of
    any nonempty set of at most `branching` of the other colors."""
    if height == 1:
        return sum(math.comb(k - 1, j) for j in range(1, min(branching, k - 1) + 1))
    return len(_message_law(branching, k, height)[0])


@lru_cache(maxsize=None)
def _table_height(branching: int, k: int, depth: int) -> int:
    """The height h <= depth whose messages `posterior_rows` draws: the
    largest one whose table enumerates fewer than _TABLE_ENUMERATION_CAP
    multisets of child types in its last level.  Height 1 is closed form
    and always allowed."""
    height = min(1, depth)
    while height < depth:
        types = (k - 1) * _support_size(branching, k, height)
        if math.comb(branching + types - 1, branching) >= _TABLE_ENUMERATION_CAP:
            break
        height += 1
    return height


@lru_cache(maxsize=None)
def _message_table(branching: int, k: int, height: int) -> tuple:
    """`_message_law` in floats: (CDF, log(1 - m) rows, m rows).

    Every entry is rounded once from exact values; the CDF in particular
    comes from exact cumulative weights, so it ends at exactly 1.0.
    """
    entries, denominator = _message_law(branching, k, height)
    cdf = np.array([c / denominator for c in accumulate(w for _, w in entries)])
    messages, log_factors = [], []
    for vec, _ in entries:
        total = sum(vec)
        messages.append([x / total for x in vec])
        log_factors.append([_log_complement(x, total) for x in vec])
    messages, log_factors = np.array(messages), np.array(log_factors)
    for table in (cdf, messages, log_factors):
        table.setflags(write=False)
    return cdf, log_factors, messages


def _log_complement(count: int, total: int) -> float:
    """log(1 - count/total), from the exact ratio."""
    if count == total:
        return -math.inf
    if 2 * count <= total:
        return math.log1p(-count / total)
    return math.log((total - count) / total)


@lru_cache(maxsize=None)
def _color_swaps(k: int) -> np.ndarray:
    """Row c-1: the column order that turns a color-1 message into a color-c one."""
    swaps = np.tile(np.arange(k), (k, 1))
    swaps[:, 0] = np.arange(k)
    swaps[np.arange(k), np.arange(k)] = 0
    swaps.setflags(write=False)
    return swaps


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

    Distributed exactly as `root_marginal_batch` of `sample_leaf_rows`.
    Colors are broadcast down to depth - h, h = `_table_height`; each
    vertex there draws its height-h message by inverting its table's CDF
    with one uniform (the occupancy law at h = 1), and the levels above are
    folded in floats.  An empty batch gives (0, k).
    """
    from . import exact_engine

    _check_k(k)
    if shape.depth == 0:
        # the root is the only leaf: posterior is a point mass on its color
        roots = sample_leaf_rows(shape, k, n, rng, root_colors)[:, 0]
        return np.eye(k, dtype=float)[roots.astype(np.int64) - 1]
    if n == 0:
        return np.empty((0, k))
    branching = shape.branching
    height = _table_height(branching, k, shape.depth)
    gen = rng.generator
    colors = _level_at(k, branching, shape.depth - height, n, gen, root_colors).reshape(-1)
    at_root = height == shape.depth
    if height == 1:
        unused = _unused_colors(colors, k, branching, gen)
        if at_root:
            return unused / unused.sum(axis=1, keepdims=True)
        factors = _unused_log_factors(unused)
    else:
        cdf, log_factors, messages = _message_table(branching, k, height)
        entry = np.searchsorted(cdf, gen.random(colors.size), side="right")[:, np.newaxis]
        columns = _color_swaps(k)[colors - 1]
        if at_root:
            return messages[entry, columns]
        factors = log_factors[entry, columns]
    return exact_engine._fold_factors(
        factors.reshape(n, -1, k), branching, shape.depth - height
    )


def sample_from_rows(rows: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw one color (1..k) from each probability row."""
    cum = np.cumsum(rows, axis=1)
    u = gen.random((rows.shape[0], 1))
    idx = (cum < u).sum(axis=1)
    return (np.minimum(idx, rows.shape[1] - 1) + 1).astype(np.int16)
