"""Top-down sampling of uniform proper colorings, and root posteriors.

Coloring the root uniformly and each child uniformly among the colors its
parent does not use yields exactly the uniform distribution over proper
colorings of the tree, so "broadcast" samples double as Gibbs samples.
Levels are generated as whole numpy arrays; the only per-vertex state
that ever exists is the level currently being produced.

The posteriors below see a bottom block only through the set of colors
its leaves leave unused, and that set is drawn without the leaves.  The
block's Delta leaves are Delta balls thrown uniformly into the k-1 colors
other than the parent's, so the number of those colors left empty follows
the occupancy law, and given that number the empty colors are a uniform
subset.  `_unused_entries` is the one draw of these sets; it returns them
sparsely, as (vertex, color) pairs: first the own colors of the vertices
with no other unused color, then each other vertex's pairs together, the
vertices in sibling order.  The unbiasing classifier sees a bottom block
only through its count 1 + u of unused colors, and the law of u does not
depend on the parent's color, so the counts of all bottom blocks are
i.i.d.: `estimate_q` draws whether each reaches its threshold directly,
with the uniforms `_unused_slots` would invert into u, and no broadcast
and no sets.

`posterior_rows` goes further up.  A vertex's upward message (the law of
its color given the leaves below it, under a uniform prior) depends only
on those leaves, which given the vertex's color are an independent
broadcast; so the message of a height-h vertex has a finite law.
`exact_engine` holds these laws exactly (`_message_law`, the occupancy
law `_unused_slot_law`) and their float tables; this module only samples
from them.  The sampler broadcasts down to depth depth - h only, draws
each vertex's message there from its table by guide-table inversion of
its CDF, and folds the levels above in floats, color-major
(`exact_engine._fold_factors`).  At h = 1 one ordered `np.bincount` sums
the occupancy pairs above straight into their parents' log-weights, the
same sums in the same order as the fold's sibling sums, and the fold goes
on from there (`exact_engine._fold_log_weights`).  `sample_down_up`
redraws a root color from one such row, so every posterior draw takes
this route.

Root colors, drawn or given, enter every sampler here through `_root_level`.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .exact_engine import (
    _MessageTable,
    _color_swaps,
    _fold_factors,
    _fold_log_weights,
    _message_table,
    _table_height,
    _unused_slot_law,
)
from .rng import RandomSource
from .tree_model import FullColoring, PartialLeafColoring, TreeShape, _check_k


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


def sample_full(
    shape: TreeShape, k: int, rng: RandomSource, root_color=None
) -> FullColoring:
    """One uniform proper coloring of the whole tree."""
    _check_k(k)
    gen = rng.generator
    levels = [_root_level(k, 1, gen, root_color)]
    for _ in range(shape.depth):
        levels.append(_next_level(levels[-1], k, shape.branching, gen))
    return FullColoring(k, np.concatenate([lvl[0] for lvl in levels]))


def sample_leaves_given_root(
    shape: TreeShape, k: int, root_color: int, rng: RandomSource
) -> PartialLeafColoring:
    """Leaf row of a uniform proper coloring whose root has the given color."""
    return PartialLeafColoring(k, sample_leaf_rows(shape, k, 1, rng, root_color)[0])


def sample_leaf_rows(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, leaf_count) leaf rows; `root_colors` may be None, a scalar, or (n,)."""
    _check_k(k)
    return _level_at(k, shape.branching, shape.depth, n, rng.generator, root_colors)


def _unused_slots(branching: int, k: int, size, gen) -> np.ndarray:
    """Independent draws of u, the number of non-parent colors a bottom
    block leaves unused, by inverting the CDF of `_unused_slot_law`.

    The law of u does not depend on the parent's color, so the unused
    counts 1 + u of all bottom blocks are i.i.d.  u is the number of CDF
    entries at or below a uniform x in [0, 1), counted with one pass per
    entry strictly between 0 and 1.
    """
    _, cdf = _unused_slot_law(branching, k)
    x = gen.random(size)
    u = np.full(x.shape, np.count_nonzero(cdf == 0), dtype=np.int16)
    for step in cdf[(cdf > 0) & (cdf < 1)]:
        u += x >= step
    return u


def _unused_entries(parents: np.ndarray, k: int, branching: int, gen) -> tuple:
    """The colors each parent's `branching` fresh children leave unused, as
    (sizes, vertex, color): parent i leaves sizes[i] colors unused, and
    every pair (vertex[j], color[j]) names one of them, colors 0-based.

    The number u of non-parent colors left unused is drawn by
    `_unused_slots`; parents with u > 0 then pick a uniform u-subset of the
    k-1 non-parent slots by selection sampling.  The parent's color is
    always unused.  The pairs come in this order: the own color of each
    parent with u = 0, then all the pairs of each parent with u > 0, its
    own color first, the parents in increasing order.  The pairs of one
    color in one block of siblings thus come in sibling order, except that
    the siblings with u = 0 come first; their log-factor log(1 - 1/1) is
    -inf, which absorbs every term summed with it.
    """
    parent = parents.reshape(-1) - 1
    u = _unused_slots(branching, k, parent.size, gen)
    idle = np.flatnonzero(u == 0)
    busy = np.flatnonzero(u > 0)
    need = u[busy]
    # column 0 is the parent's own color, column slot + 1 a non-parent slot
    picks = np.empty((busy.size, k), dtype=bool)
    picks[:, 0] = True
    for slot in range(k - 1):
        pick = picks[:, slot + 1]
        np.less(gen.random(busy.size) * (k - 1 - slot), need, out=pick)
        need -= pick
    at, column = np.divmod(np.flatnonzero(picks), k)
    vertex = busy[at]
    own = parent[vertex]
    # slot s is color s below the parent's color, s + 1 above it
    color = np.where(column > 0, column - (column <= own), own).astype(parent.dtype)
    return u + 1, np.concatenate([idle, vertex]), np.concatenate([parent[idle], color])


def _table_entries(table: _MessageTable, x: np.ndarray) -> np.ndarray:
    """The entry of a `_message_table` that each uniform x in [0, 1) draws:
    the number of CDF values at or below x.

    A guide-table inversion (Chen & Asau 1974): x lies in bucket j, the
    floor of x * M, and guide[j] CDF values lie at or below j / M; the draws
    that still have a CDF value at or below them step forward one entry at
    a time.  M is a power of two, so j is exact, and every step ends, since
    the CDF ends at 1.0 > x.
    """
    bucket = (x * table.guide.size).astype(np.intp)
    entry = table.guide[bucket]
    step = (table.cdf[entry] <= x).nonzero()[0]
    while step.size:
        entry[step] += 1
        step = step[table.cdf[entry[step]] <= x[step]]
    return entry


def sample_down_up(shape: TreeShape, k: int, root_color: int, rng: RandomSource) -> int:
    """Broadcast from `root_color`, then redraw a root color from the
    exact posterior given only the broadcast leaves (`posterior_rows`)."""
    rows = posterior_rows(shape, k, 1, rng, root_color)
    return int(sample_from_rows(rows, rng.generator)[0])


def posterior_rows(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, k) float root posteriors for n independent broadcast samples.

    Distributed exactly as `root_marginal_batch` of `sample_leaf_rows`.
    Colors are broadcast down to depth - h, h = `_table_height`; each
    vertex there draws its height-h message by inverting its table's CDF
    with one uniform through the table's guide (`_table_entries`), its
    log-factors are gathered color-major, and the levels above are folded
    in floats.  At h = 1 each vertex draws its set of unused colors
    instead (`_unused_entries`), and the log-factors of its pairs are
    summed straight into its parent's log-weights.  At depth 0, h = 0 and
    the table is the point mass on the root's own color.  An empty batch
    gives (0, k).
    """
    _check_k(k)
    branching = shape.branching
    height = _table_height(branching, k, shape.depth)
    gen = rng.generator
    colors = _level_at(k, branching, shape.depth - height, n, gen, root_colors).reshape(-1)
    if n == 0:
        return np.empty((0, k))
    at_root = height == shape.depth
    if height == 1:
        sizes, vertex, color = _unused_entries(colors, k, branching, gen)
        if at_root:
            rows = np.zeros((n, k))
            rows[vertex, color] = 1.0 / sizes[vertex]
            return rows
        # each pair adds its vertex's log(1 - 1/s) to the log-weight of its
        # color at the vertex's parent, in pair order; the bin
        # color * parents + parent lays the log-weights out color-major
        with np.errstate(divide="ignore"):
            log_factor = np.log1p(-1.0 / np.arange(1, k + 1))[sizes[vertex] - 1]
        parents = colors.size // branching
        vertex //= branching
        vertex += np.multiply(color, parents, dtype=np.intp)
        logw = np.bincount(vertex, log_factor, minlength=k * parents)
        return _fold_log_weights(logw.reshape(k, n, -1), branching, shape.depth - 2)
    table = _message_table(branching, k, height)
    entry = _table_entries(table, gen.random(colors.size))
    if at_root:
        return table.messages[entry[:, np.newaxis], _color_swaps(k)[colors - 1]]
    # a vertex of color r reads entry e of its table at (r - 1) * E + e
    entry += np.multiply(colors - 1, table.cdf.size, dtype=np.intp)
    factors = np.take(table.by_color, entry, axis=1)
    return _fold_factors(factors.reshape(k, n, -1), branching, shape.depth - height)


def sample_from_rows(rows: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw one color (1..k) from each row of nonnegative weights.

    A uniform u scaled by the row's total t draws the color c whose
    interval [cum_(c-1), cum_c) holds it, so a color of weight 0 is never
    drawn.  Where rounding carries u * t past every such interval, the draw
    is the color at which the cumulative sum first reaches t, whose weight
    is positive.
    """
    cum = np.cumsum(rows, axis=1)
    total = cum[:, -1:]
    u = gen.random((rows.shape[0], 1)) * total
    # both conditions hold on a prefix of each row, as cum never decreases
    idx = ((cum <= u) & (cum < total)).sum(axis=1)
    return (idx + 1).astype(np.int16)
