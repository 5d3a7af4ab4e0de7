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
subset.  `_unused_by_color` is the one draw of these sets; it returns
them by color: the vertices whose own color is the only unused one, and
for every color the other vertices whose set holds it, in vertex order.
The unbiasing classifier sees a bottom block only through its count 1 + u
of unused colors, and the law of u does not depend on the parent's color,
so the counts of all bottom blocks are i.i.d.: `estimate_q` draws whether
each reaches its threshold directly, from the uniforms `_unused_by_color`
would invert into u, with no broadcast and no sets.

`posterior_rows` goes further up.  A vertex's upward message (the law of
its color given the leaves below it, under a uniform prior) depends only
on those leaves, which given the vertex's color are an independent
broadcast; so the message of a height-h vertex has a finite law.
`exact_engine` holds these laws exactly (`_message_law`, the occupancy
law `_unused_slot_law`) and their float tables; this module only samples
from them.  The sampler broadcasts down to depth depth - h only, draws
each vertex's message there from its table by guide-table inversion of
its CDF, and folds the levels above in floats, color-major.  For each
color it gathers the drawn messages' log-factors into one reused buffer
and sums each block of siblings into that color's row of the parents'
log-weights, so the (k, vertices) factor array is never built.  At h = 1
one `np.bincount` per color sums the log-factors of the vertices whose
sets hold that color straight into their parents' log-weights, in vertex
order.  Both are the same sums in the same order as the fold's sibling
sums (`exact_engine._sibling_sums`), and the fold goes on from the
log-weights (`exact_engine._fold_log_weights`), normalizing them in
place.  `sample_down_up` redraws a root color from one such row, so every
posterior draw takes this route.

Root colors, drawn or given, enter every sampler here through `_root_level`.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .exact_engine import (
    _MessageTable,
    _color_swaps,
    _fold_log_weights,
    _message_table,
    _sibling_sums,
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
    The comparison overwrites the repeated parent colors and the shift is
    added into r, so a level costs two arrays of its size.
    """
    stretched = np.repeat(parents, branching, axis=1)
    r = gen.integers(1, k, size=stretched.shape, dtype=np.int16)
    r += np.greater_equal(r, stretched, out=stretched)
    return r


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


def _unused_by_color(parents: np.ndarray, k: int, branching: int, gen) -> tuple:
    """The colors each parent's `branching` fresh children leave unused,
    by color, as (idle, busy, sizes, held), colors 0-based.

    idle lists the parents whose own color is the only unused one (u = 0),
    busy the others, both in increasing order; busy parent busy[j] leaves
    sizes[j] = 1 + u colors unused, and held[c, j] says whether color c is
    one of them, so busy[held[c]] are the busy parents whose set holds c,
    in increasing order.

    The stream: u, the number of the k-1 non-parent colors left unused, is
    drawn for every parent with one uniform each, inverting the CDF of
    `_unused_slot_law` (u counts the CDF entries at or below the uniform,
    with one pass per entry strictly between 0 and 1); the busy parents
    then pick a uniform u-subset of the k-1 non-parent slots by selection
    sampling, one uniform per busy parent and slot, slot by slot.  Slot s
    is color s below the parent's color and s + 1 above it.
    """
    own = parents.reshape(-1) - 1
    _, cdf = _unused_slot_law(branching, k)
    x = gen.random(own.size)
    u = np.full(x.shape, np.count_nonzero(cdf == 0), dtype=np.int16)
    for step in cdf[(cdf > 0) & (cdf < 1)]:
        u += x >= step
    del x
    idle = np.flatnonzero(u == 0)
    busy = np.flatnonzero(u > 0)
    need = u[busy]
    del u
    sizes = need + 1
    # row s holds slot s's picks, then moves to color s + 1 wherever the
    # own color is at or below s; the own color joins every set
    held = np.empty((k, busy.size), dtype=bool)
    held[k - 1] = False
    for slot in range(k - 1):
        pick = held[slot]
        np.less(gen.random(busy.size) * (k - 1 - slot), need, out=pick)
        need -= pick
    own = own[busy]
    for color in range(k - 1, -1, -1):
        row = held[color]
        if color:
            row ^= (row ^ held[color - 1]) & (own < color)
        row |= own == color
    return idle, busy, sizes, held


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
    with one uniform through the table's guide (`_table_entries`).  For
    each color in turn, the vertices' log-factors are gathered into one
    buffer and each block of siblings is summed into that color's row of
    the parents' log-weights, sibling by sibling; the levels above are
    folded in floats.  At h = 1 each vertex draws its set of unused colors
    instead (`_unused_by_color`); for each color, the log-factors
    log(1 - 1/s) of the vertices whose set of size s holds it are summed
    into their parents' log-weights, one bincount per color, and a vertex
    whose set is its own color alone puts -inf there.  At depth 0, h = 0 and
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
        idle, busy, sizes, held = _unused_by_color(colors, k, branching, gen)
        own = colors[idle] - 1
        if at_root:
            rows = np.zeros((n, k))
            rows[idle, own] = 1.0
            rows[busy] = held.T / sizes[:, np.newaxis]
            return rows
        # each busy child adds its log(1 - 1/s) to the log-weight of every
        # color its set holds at its parent, in child order, one bincount
        # per color; an idle child's -inf at its own color absorbs the rest
        log_factor = np.log1p(-1.0 / np.arange(2, k + 1))[sizes - 2]
        parent = busy // branching
        parents = colors.size // branching
        logw = np.empty((k, parents))
        for color, holds in enumerate(held):
            at = np.flatnonzero(holds)
            logw[color] = np.bincount(parent[at], log_factor[at], minlength=parents)
        # the bin of color c at parent p is c * parents + p, in intp, since
        # the product overflows int16
        idle_bin = np.multiply(own, parents, dtype=np.intp)
        idle_bin += idle // branching
        logw.reshape(-1)[idle_bin] = -np.inf
        return _fold_log_weights(logw.reshape(k, n, -1), branching, shape.depth - 2)
    table = _message_table(branching, k, height)
    entry = _table_entries(table, gen.random(colors.size))
    if at_root:
        return table.messages[entry[:, np.newaxis], _color_swaps(k)[colors - 1]]
    # a vertex of color r reads entry e of its table at (r - 1) * E + e
    entry += np.multiply(colors - 1, table.cdf.size, dtype=np.intp)
    # each color's log-factors, gathered into one reused buffer (every
    # entry is in range, so "clip" changes none, and it spares the copy
    # "raise" makes of an out array) and summed sibling by sibling into
    # that color's row of the parents' log-weights
    factors = np.empty(entry.size)
    logw = np.empty((k, entry.size // branching))
    for log_factors, sums in zip(table.by_color, logw):
        np.take(log_factors, entry, out=factors, mode="clip")
        _sibling_sums(factors, branching, out=sums)
    del entry, factors
    return _fold_log_weights(logw.reshape(k, n, -1), branching, shape.depth - height - 1)


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
