"""Heat-bath block dynamics on proper colorings, with exact diagnostics.

A move picks a uniform vertex, walks up to its `block_depth`-th ancestor
(clipped at the root), and redraws the depth-`block_depth` subtree under
that ancestor uniformly among proper completions given everything
outside: the block root's parent color and, for each vertex on the
block's lower frontier, the colors of its children outside the block.
Routing the chosen vertex to its ancestor keeps blocks full-depth and
makes every move a whole-tree resample once block_depth reaches the tree
depth; at block_depth 0 it is plain single-site Glauber.

Every move goes through one in-place kernel that reads and redraws only
the block and its outside neighbors, so a move costs O(block).  Each
block root has a plan, built once and cached (`_plan`): the block's
vertices, the slice of the frontier's outside children, and the root's
parent.  The kernel makes one exactly uniform draw per move: it counts
the block's proper completions and decodes one integer below that count,
taken from a pre-drawn 64-bit word, top-down into a completion.  The
counts come from a memo (`_Memo`) keyed by the colors of the frontier's
outside children, which also holds each frontier vertex's free colors
per parent color, so a frontier vertex (and a whole move at block depth
0) decodes with one list lookup.  The memo's subtree tables are keyed by
the frontier masks beneath them and shared between blocks, so a block
seen for the first time counts only the subtrees no earlier block had.
Every move reads one memo per block shape (`_shape_memo`), kept for the
life of the process and bounded by `_MEMO_CAP`; its contents change no
draw, only what a move recounts.  A chain draws its vertex choices and
words in batches, runs on one list of colors, and validates its coloring
once, at exit; single moves (`heat_bath_block`, `step`) read the same
cached plans and memos, draw one word, copy, redraw and validate the new
state.  The properness checks of `run_chain` and `step` raise, so
`python -O` keeps them.

On instances small enough to enumerate, the states are the rows of one
int16 array (`_state_array`), labelled per block root by their colors
outside the block (`_outside_groups`).  A move maps f to its group average
M_r f (`_average`), so its conditional entropy is Ent(f) - Ent(M_r f), and
the exact transition matrix is built from the same groups as the one form it
stores, its entries as integer arrays sorted by row and then column.  The
diagnostics read those entries: `entry` binary-searches a row's slice of
them, the exact integer mixing path pushes its start rows through them, and
above 4000 states the power iteration for the spectral gap takes each
product Px as one `np.bincount` over them.  A dense float copy
(`to_dense`) is built only where a dense routine needs it: `eigvalsh`, up
to 4000 states, and the certified float mixing path, up to 400.
The mixing time is certified: float64 powers of the kernel decide the
1/(2e) threshold test at step t whenever the computed worst-start TV is
farther from it than the proven rounding bound 4(t+1)(n+2)2^-53 for n
states, and a step closer than that falls back to exact integer powers,
so the reported t is always exact.  Color permutations and swaps
of sibling subtrees commute with the kernel, so a start's TV is that of
every state in its orbit (`_orbits`, cached per tree and k): both paths
propagate one start per orbit, 12 of the 192 states on (2, 2, 3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .broadcast_sampler import sample_full
from .errors import CapacityError, NonErgodicChainError, ValidationError
from .exact_engine import count_levels
from .rng import RandomSource, word_below
from .tree_model import FullColoring, TreeShape, _check_k, is_proper

STATE_GUARD = 10**4
_MIXING_STATE_GUARD = 400
_MIXING_STEP_GUARD = 10_000
_POWER_STEPS = 100_000  # steps _second_eigenvalue_power takes before it gives up
# row entries build_transition_matrix may write: (2,1,12,1) peaked at about
# 110 bytes per entry, so about 0.55 GB at the guard
_MATRIX_ENTRY_GUARD = 5 * 10**6
_MEMO_CAP = 1 << 15  # lists one block shape's memo keeps for the life of the process (see _Memo)
_CHUNK = 1 << 12  # moves whose vertex choices and words are drawn at once


@dataclass(frozen=True)
class DynamicsState:
    shape: TreeShape
    k: int
    coloring: FullColoring
    time: int = 0

    def __post_init__(self):
        if self.k != self.coloring.k:
            raise ValidationError("state k does not match its coloring")
        if len(self.coloring) != self.shape.vertex_count:
            raise ValidationError("coloring length does not match the tree")


def initial_state(shape: TreeShape, k: int, rng: RandomSource) -> DynamicsState:
    """A uniform proper coloring to start a chain from."""
    return DynamicsState(shape, k, sample_full(shape, k, rng), 0)


def block_vertices(shape: TreeShape, v: int, block_depth: int) -> list[int]:
    """All descendants of v within distance block_depth, v included."""
    shape._check_vertex(v)
    return sorted(_plan(shape, v, block_depth).vertices)


def block_root(shape: TreeShape, v: int, block_depth: int) -> int:
    """The ancestor of v whose depth-`block_depth` block contains v.

    Walking up block_depth levels (clipped at the root) before updating
    keeps chosen blocks full depth; vertices near the leaves select the
    same block as their ancestors instead of a truncated one.
    """
    shape._check_vertex(v)
    _check_integer("block_depth", block_depth, 0)
    for _ in range(block_depth):
        if v == 0:
            break
        v = (v - 1) // shape.branching
    return v


def _check_integer(name: str, value, least: int) -> None:
    """Raise unless `value` is an integer (numpy's included) >= `least`."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


class _Plan(NamedTuple):
    """What a move on one block reads of the tree, fixed by its root.

    `vertices` lists the block in pre-order (a vertex, then its children's
    subtrees left to right), and the positions in it are those of the
    block's table (see `_Memo`).  `inner` pairs each position above the
    frontier (the block's last level) with its children's positions, in
    increasing order; `frontier` lists the frontier's positions.  `up` is
    the block root's parent, -1 at the tree root, and `outside` slices
    out the frontier's children, all outside the block and consecutive in
    level order (none past the leaves).
    """

    vertices: tuple
    inner: tuple
    frontier: tuple
    up: int
    outside: slice


# a plan holds one block's vertices; typed, so a float block_depth equal to
# a cached int misses and raises
@lru_cache(maxsize=1024, typed=True)
def _plan(shape: TreeShape, v: int, block_depth: int) -> _Plan:
    """The block under v, truncated at the leaves."""
    _check_integer("block_depth", block_depth, 0)
    b, n = shape.branching, shape.vertex_count
    height, bottom = 0, v
    while height < block_depth and bottom * b + 1 < n:  # bottom is not a leaf
        height, bottom = height + 1, bottom * b + 1
    vertices, inner, frontier = [], [], []

    def visit(w: int, height: int) -> int:
        p = len(vertices)
        vertices.append(w)
        if height:
            inner.append((p, tuple(visit(u, height - 1) for u in range(w * b + 1, w * b + b + 1))))
        else:
            frontier.append(p)
        return p

    visit(v, height)
    inner.sort()
    # empty past the leaves: their children's indices start at n
    outside = slice(vertices[frontier[0]] * b + 1, vertices[frontier[-1]] * b + b + 1)
    return _Plan(tuple(vertices), tuple(inner), tuple(frontier), (v - 1) // b if v else -1, outside)


class _Memo:
    """The block tables built for one block shape, and the subtree tables
    they share.

    A subtree's table lists one node per vertex, in pre-order, and is
    keyed by the masks of outside colors of the frontier vertices beneath
    its top, in level order: those fix every node in it.  A table is its
    top's node followed by its children's tables, so a table that misses
    builds only the subtree tables no earlier one built, and each builds
    one node.  A node is (select, comp, counts): `counts[c - 1]` counts
    the colorings of the vertex's subtree with the vertex colored c, and
    `comp[a]` those whose vertex avoids a parent colored a (a = 0: no
    parent).  `select` is `counts` above the frontier; at a frontier
    vertex it is one list per a of the free colors other than a, in
    increasing order.

    A move looks its block's table up by the colors of the frontier's
    outside children, in level order; one memo serves blocks of one
    height, as every block of a chain has, and every move reads the one
    of its block shape (`_shape_memo`).  Everything kept counts
    against `_MEMO_CAP`: one per block-table key, and one per list a
    subtree table adds (itself, and its top node's).  Past the cap, tables
    are built and used but not kept.
    """

    __slots__ = ("b", "k", "tables", "subtrees", "size")

    def __init__(self, b: int, k: int):
        self.b, self.k = b, k
        self.tables: dict = {}
        self.subtrees: dict = {}
        self.size = 0

    def _keep(self, store: dict, key: tuple, table: list, lists: int) -> list:
        if self.size + lists <= _MEMO_CAP:
            store[key] = table
            self.size += lists
        return table

    def table(self, key: tuple, width: int) -> list:
        """The table of a block with `width` frontier vertices whose
        outside children are colored `key`."""
        b = self.b
        masks = [0] * width
        for i, c in enumerate(key):
            masks[i // b] |= 1 << c
        return self._keep(self.tables, key, self._subtree(tuple(masks)), 1)

    def _subtree(self, masks: tuple) -> list:
        """The table of the subtree with frontier masks `masks`."""
        table = self.subtrees.get(masks)
        if table is not None:
            return table
        k = self.k
        if len(masks) == 1:
            counts = [1 - (masks[0] >> c & 1) for c in range(1, k + 1)]
            free = [c for c, allowed in enumerate(counts, 1) if allowed]
            select = [[c for c in free if c != a] for a in range(k + 1)]
            below, lists = [], k + 5
        else:
            width = len(masks) // self.b
            children = [self._subtree(masks[i : i + width]) for i in range(0, len(masks), width)]
            select = counts = count_levels([child[0][2] for child in children], self.b, 1)[1][0]
            below, lists = [node for child in children for node in child], 3
        total = sum(counts)
        top = (select, [total, *(total - m for m in counts)], counts)
        return self._keep(self.subtrees, masks, [top, *below], lists)


def _words(gen: np.random.Generator, size: int | None = None):
    """Uniform 64-bit words for `word_below`, as Python ints: one word, or
    a list of `size`."""
    return gen.integers(0, 2**64, size=size, dtype=np.uint64).tolist()


def heat_bath_block(
    state: DynamicsState, v: int, block_depth: int, rng: RandomSource
) -> DynamicsState:
    """Resample the block under v exactly uniformly given the outside.

    Copies the coloring, redraws the block with `_resample` from one
    fresh word and returns a new state; `state` is unchanged.
    """
    state.shape._check_vertex(v)
    return _redraw(state, _plan(state.shape, v, block_depth), rng.generator, state.time)


def _redraw(state: DynamicsState, plan: _Plan, gen: np.random.Generator, time: int):
    """`state` with the block of `plan` redrawn from one fresh word, at `time`.

    `_resample` writes only colors in 1..k, so the new coloring is taken
    without re-validation (`FullColoring._trusted`).
    """
    values = state.coloring.values.tolist()
    memo = _shape_memo(state.shape.branching, state.k, len(plan.frontier))
    _resample(values, plan, _words(gen), gen, memo)
    return DynamicsState(state.shape, state.k, FullColoring._trusted(state.k, values), time)


@lru_cache(maxsize=8)  # a memo keeps at most _MEMO_CAP lists
def _shape_memo(b: int, k: int, width: int) -> _Memo:
    """The memo every move on blocks of `width` frontier vertices reads,
    one per block shape for the life of the process: its contents change
    no draw, only what a move recounts."""
    return _Memo(b, k)


def _resample(values: list, plan: _Plan, word: int, gen: np.random.Generator, memo: _Memo) -> None:
    """Redraw the block of `plan` in `values` in place, exactly uniformly.

    The block is a complete subtree; each frontier vertex allows the
    colors its children outside the block leave free.  A vertex colored
    c has prod over its children of (T_child - m_child[c]) completions,
    where T_child sums the child's counts, so one r in [0, total) decodes
    top-down into a completion: r picks the top color by cumulative
    weight, and the remainder splits mixed-radix with divmod over the
    children, recursively down to the frontier, where a digit indexes the
    vertex's free colors other than its parent's.  The decoding is a
    bijection onto the completions, so the redraw is exactly uniform when
    r is; r comes from the pre-drawn `word` through `word_below`.  The
    counts, totals and free colors come from `memo`'s table for the colors
    of the frontier's outside children (see `_Memo`), in the block order
    of `plan`.  Only the block and its outside neighbors are read, so a
    move costs O(block) whatever the size of the tree.
    """
    vertices, inner, frontier, up, outside = plan
    key = tuple(values[outside])
    table = memo.tables.get(key) or memo.table(key, len(frontier))
    avoid = values[up] if up >= 0 else 0
    # the total is positive: the block's current coloring is a completion
    r = word_below(gen, word, table[0][1][avoid])
    if not inner:
        values[vertices[0]] = table[0][0][avoid][r]
        return
    digits = [r] * len(vertices)
    avoids = [avoid] * len(vertices)
    for p, children in inner:
        r, avoid = digits[p], avoids[p]
        for c, weight in enumerate(table[p][0], 1):
            if c != avoid:
                if r < weight:
                    break
                r -= weight
        values[vertices[p]] = c
        for q in children:
            avoids[q] = c
            r, digits[q] = divmod(r, table[q][1][c])
    for p in frontier:
        values[vertices[p]] = table[p][0][avoids[p]][digits[p]]


def step(state: DynamicsState, block_depth: int, rng: RandomSource) -> DynamicsState:
    """One move: uniform vertex choice, then a heat-bath update of the
    block rooted at that vertex's block_depth-th ancestor.  The new state
    is checked for properness; an improper one raises ValidationError."""
    shape = state.shape
    gen = rng.generator
    v = int(gen.integers(0, shape.vertex_count))
    plan = _plan(shape, block_root(shape, v, block_depth), block_depth)
    nxt = _redraw(state, plan, gen, state.time + 1)
    _check_proper(nxt)
    return nxt


def _check_proper(state: DynamicsState) -> None:
    if not is_proper(state.shape, state.coloring):
        raise ValidationError("the dynamics reached an improper coloring")


def run_chain(
    state: DynamicsState,
    block_depth: int,
    steps: int,
    rng: RandomSource,
    visit_counts: dict | None = None,
    thin: int = 1,
) -> DynamicsState:
    """Advance `steps` moves; optionally tally visited colorings by tuple key.

    Same per-step law as step(), but vertex choices and words are
    pre-drawn in batches of `_CHUNK` moves, so the raw stream consumption
    differs from looping step().  With `thin=m`, only every m-th visited
    coloring is tallied -- consecutive chain states are correlated, so
    thinned tallies are the ones to feed into independence-assuming test
    statistics.

    The chain runs in place on one list of colors, each move redrawing
    only its block, and the final coloring is validated once, as a
    `FullColoring` and for properness (an improper one raises
    ValidationError), when the chain returns; `state` itself is
    unchanged.  The block counts come from the memo of the chain's block
    shape (`_shape_memo`), which later chains of that shape reuse.  A
    vertex's plan is looked up the first time the chain picks it, so setup
    grows with the blocks a run touches, not with the tree.
    `block_depth`, `steps` and `thin` must be integers.
    """
    _check_integer("steps", steps, 0)
    _check_integer("thin", thin, 1)
    shape, k = state.shape, state.k
    root_plan = _plan(shape, 0, block_depth)
    if steps == 0:
        return state
    plan_of: list = [None] * shape.vertex_count  # filled as vertices are picked
    gen = rng.generator
    values = state.coloring.values.tolist()
    # every block of a chain has height min(block_depth, depth), so one width
    memo = _shape_memo(shape.branching, k, len(root_plan.frontier))
    done = 0
    while done < steps:
        size = min(_CHUNK, steps - done)
        choices = gen.integers(0, shape.vertex_count, size=size).tolist()
        for v, word in zip(choices, _words(gen, size)):
            plan = plan_of[v]
            if plan is None:
                plan = plan_of[v] = _plan(shape, block_root(shape, v, block_depth), block_depth)
            _resample(values, plan, word, gen, memo)
            done += 1
            if visit_counts is not None and done % thin == 0:
                key = tuple(values)
                visit_counts[key] = visit_counts.get(key, 0) + 1
    final = DynamicsState(shape, k, FullColoring(k, values), state.time + int(steps))
    _check_proper(final)
    return final


# ---------------------------------------------------------------------------
# exact matrix diagnostics


def state_space_size(shape: TreeShape, k: int) -> int:
    """k(k-1)^(V-1): proper colorings of a tree factor along edges."""
    _check_k(k)
    return k * (k - 1) ** (shape.vertex_count - 1)


def _check_state_guard(shape: TreeShape, k: int) -> None:
    """Raise unless the proper colorings number at most STATE_GUARD.

    (k-1)^(V-1) >= 2^e with e = (V-1)(bits(k-1) - 1), so the count is at
    least 2^(e+1) and e alone rules out a tree too large to count; the
    count is formed only when e is small, and the message never prints it.
    """
    _check_k(k)
    least_bits = (shape.vertex_count - 1) * (int(k - 1).bit_length() - 1)
    if least_bits >= STATE_GUARD.bit_length() or state_space_size(shape, k) > STATE_GUARD:
        raise CapacityError(f"the proper colorings exceed the {STATE_GUARD} state guard")


def enumerate_states(shape: TreeShape, k: int) -> list[tuple]:
    """All proper colorings, lexicographic in the level-order color vector."""
    return list(map(tuple, _state_array(shape, k).tolist()))


def _state_array(shape: TreeShape, k: int) -> np.ndarray:
    """The proper colorings as one (n, V) int16 array, lexicographic: row i
    spells i in mixed radix, the root's color in base k, then per vertex
    one base-(k-1) digit among the colors its parent leaves, in increasing
    order.  One vectorized pass per vertex, parents first; `_state_index`
    reads the radix back."""
    _check_state_guard(shape, k)
    size = state_space_size(shape, k)
    b, width = shape.branching, shape.vertex_count
    index = np.arange(size)
    states = np.empty((size, width), dtype=np.int16)
    states[:, 0] = index // (k - 1) ** (width - 1) + 1
    for v in range(1, width):
        digit = index // (k - 1) ** (width - 1 - v) % (k - 1) + 1
        states[:, v] = digit + (digit >= states[:, (v - 1) // b])
    return states


def _state_index(states: np.ndarray, shape: TreeShape, k: int) -> np.ndarray:
    """The row of `_state_array` that each proper coloring in `states` is:
    the mixed-radix number its digits spell."""
    b, width = shape.branching, shape.vertex_count
    digits = states.astype(np.int64) - 1
    children = states[:, 1:]
    digits[:, 1:] -= children > states[:, (np.arange(1, width) - 1) // b]
    return digits @ (k - 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _symmetries(shape: TreeShape, k: int) -> list[np.ndarray]:
    """Generators of the symmetries that commute with every block kernel, as
    index maps: entry i is the index of the image of state i.

    They are the transpositions of adjacent colors and, at each internal
    vertex, the swaps of adjacent sibling subtrees.  A tree automorphism
    maps the block under r to the block under its image, and a vertex to
    one that selects that image, so both kinds commute with P.
    """
    states = _state_array(shape, k)
    images = []
    for c in range(1, k):
        swap = np.arange(k + 1, dtype=states.dtype)
        swap[[c, c + 1]] = c + 1, c
        images.append(swap[states])
    b, width = shape.branching, shape.vertex_count
    for left in range(1, width):
        if left % b == 0:  # the last child of its parent
            continue
        columns = np.arange(width)
        lo, size = left, 1
        while lo < width:  # swap the two subtrees' levels, adjacent in level order
            columns[lo : lo + 2 * size] = np.roll(columns[lo : lo + 2 * size], size)
            lo, size = lo * b + 1, size * b
        images.append(states[:, columns])
    return [_state_index(image, shape, k) for image in images]


@lru_cache(maxsize=8)  # an entry holds one label per state
def _orbits(shape: TreeShape, k: int) -> np.ndarray:
    """Per enumerated state, the smallest index of its orbit under
    `_symmetries`, read-only: labels take the smallest label among each
    state's images until they stop changing."""
    images = _symmetries(shape, k)
    labels = np.arange(state_space_size(shape, k))
    while True:
        merged = labels
        for image in images:
            merged = np.minimum(merged, merged[image])
        if np.array_equal(merged, labels):
            break
        labels = merged
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact block-dynamics kernel on an enumerated tiny instance.

    `entries` holds the nonzero entries as three read-only arrays (row,
    column, numerator), sorted by row and then column: entry (i, j) is its
    positive integer numerator over `denominator`, the least common one
    for a built matrix.  The numerators are int64 while their total fits,
    so every sum of them is exact, and Python ints in an object array past
    it.  The constructor checks the fields, whether the matrix was built
    or written by hand: at least one state, integer rows and columns in
    range, (row, column) pairs strictly ascending, positive numerators and
    every row summing to the positive int denominator.  It takes the
    arrays over, in those dtypes, and marks them read-only.  `entries` is
    the matrix's one stored form: `entry(i, j)` reads it by binary search,
    and `to_dense()`, the float copy that `eigvalsh` and the certified float
    mixing path need, is built from it on first use.

    `build_transition_matrix` also records, outside the fields, one start
    per orbit of the states under `_symmetries`, which commute with the
    kernel; a matrix built by hand has no starts, since nothing proves its
    symmetry.
    """

    shape: TreeShape
    k: int
    block_depth: int
    states: tuple
    entries: tuple = field(repr=False)  # (row, column, numerator) arrays
    denominator: int
    _starts = None  # not a field: the orbit starts' indices, ascending, or None

    def __post_init__(self):
        size, d = self.size, self.denominator
        if size == 0:
            raise ValidationError("a transition matrix needs at least one state")
        if type(d) is not int or d < 1:
            raise ValidationError(f"denominator must be a positive int, got {d!r}")
        if len(self.entries) != 3:
            raise ValidationError("entries must be (row, column, numerator) arrays")
        rows, columns, numerators = map(np.asarray, self.entries)
        if not all(a.ndim == 1 and a.size == rows.size for a in (rows, columns, numerators)):
            raise ValidationError("entries must be three 1-D arrays of one length")
        if rows.dtype.kind not in "iu" or columns.dtype.kind not in "iu":
            raise ValidationError("entry rows and columns must be integers")
        rows, columns = rows.astype(np.int64, copy=False), columns.astype(np.int64, copy=False)
        if rows.size and (min(rows.min(), columns.min()) < 0 or max(rows.max(), columns.max()) >= size):
            raise ValidationError(f"entry rows and columns must lie in 0..{size - 1}")
        if (np.diff(rows * size + columns) <= 0).any():
            raise ValidationError("entries must strictly ascend by row, then column")
        if numerators.dtype.kind not in "iuO" or numerators.dtype == object and not all(
            type(num) is int for num in numerators.tolist()
        ):
            raise ValidationError("entry numerators must be integers")
        if not (numerators > 0).all():
            raise ValidationError("entry numerators must be positive")
        # a row sums to d, so the total is size * d; no numerator exceeds d,
        # so no row sum of at most size of them overflows the int64 dtype
        dtype = np.int64 if size * d < 2**63 else object
        counts = np.bincount(rows, minlength=size)
        if (numerators > d).any() or not counts.all():
            raise ValidationError("every row must sum to the denominator")
        numerators = numerators.astype(dtype, copy=False)
        if not (np.add.reduceat(numerators, np.cumsum(counts) - counts) == d).all():
            raise ValidationError("every row must sum to the denominator")
        for array in (rows, columns, numerators):
            array.setflags(write=False)
        object.__setattr__(self, "entries", (rows, columns, numerators))

    @property
    def size(self) -> int:
        return len(self.states)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry (i, j) as a Fraction, found by binary search in row i's
        slice of the sorted entries; 0 where none is stored."""
        if not all(isinstance(x, (int, np.integer)) and 0 <= x < self.size for x in (i, j)):
            raise ValidationError(f"entry ({i}, {j}) is outside the {self.size}-state matrix")
        rows, columns, numerators = self.entries
        lo, hi = rows.searchsorted([i, i + 1])
        at = lo + int(columns[lo:hi].searchsorted(j))
        stored = at < hi and columns[at] == j
        return Fraction(int(numerators[at]) if stored else 0, self.denominator)

    def _values(self) -> np.ndarray:
        """The entries as float64, each the correctly rounded value of its
        fraction: Python's int / int true division rounds correctly, and
        each distinct numerator is divided once."""
        distinct, inverse = np.unique(self.entries[2], return_inverse=True)
        return np.array([num / self.denominator for num in distinct.tolist()])[inverse]

    def to_dense(self) -> np.ndarray:
        """float64 entries, each the correctly rounded value of its fraction
        (see `_values`).  Built on the first call; every call returns that
        one read-only array."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        rows, columns, _ = self.entries
        dense = np.zeros((self.size, self.size))
        dense[rows, columns] = self._values()
        dense.setflags(write=False)
        return dense


def build_transition_matrix(
    shape: TreeShape, k: int, block_depth: int
) -> TransitionMatrix:
    """P = (1/N) * sum over v of the heat-bath kernel on the block that a
    move choosing v updates (the block rooted at v's block_depth-th
    ancestor), matching step() exactly.

    A move on the block under r from state x lands uniformly on the
    states that agree with x outside the block: x's group in
    `_outside_groups`.  So a block root r that m_r of the N vertices
    select adds m_r / (N |G|) to every entry of G x G, for each of its
    groups G: m_r * (L // |G|) over N * L, with L the lcm of the group
    sizes: one array of (row, column) keys per root, summed by one
    `np.unique`, whose sorted keys are the entries in row and then column
    order, then divided with N * L by their common gcd to leave the least
    common denominator.  The pairs written, the sum of |G|^2, must not
    exceed `_MATRIX_ENTRY_GUARD`.
    """
    labels, root_of = _outside_groups(shape, k, block_depth)
    sizes = {root: np.bincount(label) for root, label in labels.items()}
    written = sum(int(size @ size) for size in sizes.values())
    if written > _MATRIX_ENTRY_GUARD:
        raise CapacityError(f"{written} row entries exceed the {_MATRIX_ENTRY_GUARD} entry guard")
    lcm = math.lcm(*{int(n) for size in sizes.values() for n in size})
    n, denominator = state_space_size(shape, k), shape.vertex_count * lcm
    dtype = np.int64 if denominator < 2**63 else object  # a row's numerators sum to N * L
    pairs, weights = [], []
    for root in sorted(labels):
        order = np.argsort(labels[root], kind="stable")
        group = labels[root][order]
        # the state at position q pairs with all of its group, order[end - |G| : end]
        reps, end = sizes[root][group], np.cumsum(sizes[root])[group]
        at = np.arange(reps.sum()) + np.repeat(end - np.cumsum(reps), reps)
        pairs.append(np.repeat(order, reps) * n + order[at])
        weights.append(np.repeat(root_of.count(root) * (lcm // reps.astype(dtype)), reps))
    keys, inverse = np.unique(np.concatenate(pairs), return_inverse=True)
    del pairs  # freed before the sums, which lowers the build's peak memory
    numerators = np.zeros(keys.size, dtype)
    np.add.at(numerators, inverse, np.concatenate(weights))
    common = math.gcd(denominator, *np.unique(numerators).tolist())
    entries = keys // n, keys % n, numerators // common
    states = tuple(enumerate_states(shape, k))
    matrix = TransitionMatrix(shape, k, block_depth, states, entries, denominator // common)
    # an orbit's smallest index labels it, so the distinct labels are the starts
    object.__setattr__(matrix, "_starts", np.unique(_orbits(shape, k)))
    return matrix


def stationary_and_gap(matrix: TransitionMatrix) -> dict:
    """Exact checks that P is symmetric (its entries equal those of its
    transpose) and fixes the uniform law (every column sums to the
    denominator), plus a numerical spectral gap."""
    rows, columns, numerators = matrix.entries
    transpose = np.lexsort((rows, columns))  # the transpose's entries, in row and column order
    pairs = (rows, columns), (columns, rows), (numerators, numerators)
    sums = np.zeros(matrix.size, numerators.dtype)
    np.add.at(sums, columns, numerators)
    if matrix.size > 4000:
        lambda2 = _second_eigenvalue_power(matrix)
    else:
        lambda2 = float(np.linalg.eigvalsh(matrix.to_dense())[-2]) if matrix.size > 1 else 0.0
    return {
        "is_symmetric": all(np.array_equal(a, b[transpose]) for a, b in pairs),
        "is_uniform_stationary": bool((sums == matrix.denominator).all()),
        "spectral_gap": 1.0 - lambda2,
    }


def _second_eigenvalue_power(matrix: TransitionMatrix, tol: float = 1e-10) -> float:
    """Deflated power iteration on P itself, for lambda_2, read off the
    entries: each product Px is one `np.bincount` by row.

    Each M_r is an orthogonal projection under the uniform law, so
    P = sum over r of (m_r / N) M_r is positive semidefinite and lambda_2
    tops its spectrum off the constants.  Stops once the residual
    |y - mu x| of the unit iterate x, with y = Px and mu = x.y, is at most
    `tol`: then mu lies within tol of an eigenvalue, and for the symmetric
    kernel within about tol**2 / gap of it.  One matrix-vector product per
    step; a run that has not met `tol` after `_POWER_STEPS` steps raises
    CapacityError.
    """
    rows, columns, _ = matrix.entries
    values = matrix._values()
    x = np.random.default_rng(0).standard_normal(matrix.size)
    x -= x.mean()
    x /= np.linalg.norm(x)
    for _ in range(_POWER_STEPS):
        y = np.bincount(rows, values * x[columns], minlength=matrix.size)
        y -= y.mean()
        mu = float(x @ y)
        residual = float(np.linalg.norm(y - mu * x))
        if residual <= tol:
            return mu
        x = y / np.linalg.norm(y)
    raise CapacityError(
        f"power iteration left residual {residual:.3g} > {tol:g} after {_POWER_STEPS} steps"
    )


def is_ergodic(matrix: TransitionMatrix) -> bool:
    """Whether every state is reachable from state 0 over nonzero transitions
    (irreducibility, for the symmetric kernel), one frontier per pass."""
    rows, columns, _ = matrix.entries
    reached = frontier = np.arange(matrix.size) == 0
    while frontier.any():
        frontier = (np.bincount(columns[frontier[rows]], minlength=matrix.size) > 0) & ~reached
        reached = reached | frontier
    return bool(reached.all())


def _check_mixing_size(size: int) -> None:
    if size > _MIXING_STATE_GUARD:
        raise CapacityError(
            f"exact mixing time supports at most {_MIXING_STATE_GUARD} states"
        )


def check_exact_capacity(shape: TreeShape, k: int) -> None:
    """Raise, before any matrix is built, the CapacityError that
    enumerate_states or mixing_time_exact would raise on this instance."""
    _check_state_guard(shape, k)
    _check_mixing_size(state_space_size(shape, k))


def mixing_time_exact(matrix: TransitionMatrix) -> int:
    """Smallest t with worst-start TV from uniform at most 1/(2e), certified.

    Powers of the float64 kernel decide each step whenever the computed TV
    is farther from 1/(2e) than B_t = 4(t+1)(n+2)2^-53, a proven bound on
    its rounding error (derived below).  A step inside that band hands the
    whole computation to exact integer powers, so the answer is always the
    exact one.  Both propagate only the rows of the matrix's orbit starts
    (see `TransitionMatrix`), or every row if it has none.
    """
    _check_mixing_size(matrix.size)
    if not is_ergodic(matrix):
        raise NonErgodicChainError(
            "transition graph is disconnected; no mixing time exists"
        )
    # Error bound, with u = 2^-53, n states, gamma_n = nu / (1 - nu), and
    # Q_t = P^t against its float copy R_t (R_1 = fl(P), R_t+1 = fl(R_t fl(P))):
    # * fl(P) is entrywise within u*P (to_dense divides each integer
    #   numerator by the denominator, and int / int rounds correctly),
    #   so ||fl(P)|| <= 1 + u and ||fl(P) - P|| <= u in the max-row-sum norm.
    # * A float product of nonnegative matrices is entrywise within
    #   gamma_n*A*B of AB, whatever the summation order (Higham, Accuracy
    #   and Stability of Numerical Algorithms, section 3.5).
    # * So e_t = ||R_t - Q_t|| has e_1 <= u and 1 + e_t+1 <= (1 + u)(1 +
    #   gamma_n)(1 + e_t), hence e_t <= exp(t(u + gamma_n)) - 1.  Under
    #   the guards t(n+1)u < 1e-9, so e_t <= 1.001 t(n+1)u: the row-sum
    #   error grows like t(gamma_n + u).  Underflow adds at most n 2^-1074
    #   per entry and product, far below what follows.
    # * The worst-row TV is 1/2-Lipschitz in e_t.  Computing it from R_t
    #   costs u/2 for fl(1/n) and 1.5 gamma_n for the n-term sum of
    #   rounded |differences| (a sum of at most 3); fl(1/(2e)) is within u
    #   of 1/(2e), and forming TV +- B_t rounds by at most 1.1u more.
    # Total: 0.51 t(n+1)u + 1.51 nu + 3u, which B_t dominates.
    # Each row of R_t+1 is the float product of that row of R_t with fl(P),
    # so every step above holds row by row, for the start rows alone.  A
    # symmetry g commutes with P and fixes the uniform law, so the true TV
    # of row gx equals that of row x: the worst start row is the worst row.
    kernel = matrix.to_dense()
    power = kernel if matrix._starts is None else kernel[matrix._starts]
    uniform = 1.0 / matrix.size
    threshold = 1.0 / (2.0 * math.e)
    for t in range(1, _MIXING_STEP_GUARD + 1):
        tv = 0.5 * float(np.abs(power - uniform).sum(axis=1).max())
        bound = 4.0 * (t + 1) * (matrix.size + 2) * 2.0**-53
        if tv + bound <= threshold:
            return t
        if tv - bound <= threshold:
            return _mixing_time_integer(matrix)
        power = power @ kernel
    raise CapacityError(f"mixing time exceeds {_MIXING_STEP_GUARD} steps")


def _mixing_time_integer(matrix: TransitionMatrix) -> int:
    """mixing_time_exact from exact integer powers over a common denominator.

    The start rows of P^t, times d^t, are Python ints; each step multiplies
    them by P through the entries: gather the rows' values at each entry's
    row, multiply by its numerator, and sum each column's run of entries
    with one `np.add.reduceat`.  The comparison against the irrational
    threshold is decided with rational bounds on e, tight to ~1e-60,
    instead of floats.  Only the orbit starts' rows are propagated, when
    the matrix has starts.
    """
    size = matrix.size
    rows, columns, numerators = matrix.entries
    # the entries in column order, so a product's column j sums one run of them
    order = np.argsort(columns, kind="stable")
    source, weight = rows[order], numerators[order].astype(object)  # Python ints
    present, first = np.unique(columns[order], return_index=True)
    e_lo = sum(Fraction(1, math.factorial(i)) for i in range(51))
    e_hi = e_lo + Fraction(2, math.factorial(51))
    starts = np.arange(size) if matrix._starts is None else matrix._starts
    kept = np.isin(rows, starts)
    power = np.zeros((len(starts), size), dtype=object)  # row x of P^t, times d^t
    power[starts.searchsorted(rows[kept]), columns[kept]] = numerators[kept]  # as Python ints
    scale = matrix.denominator
    for t in range(1, _MIXING_STEP_GUARD + 1):
        worst = np.abs(size * power - scale).sum(axis=1).max()
        # TV <= 1/(2e)  <=>  worst * e <= size * scale
        if worst * e_hi <= size * scale:
            return t
        if worst * e_lo <= size * scale:  # pragma: no cover - e known to 1e-60
            raise CapacityError("mixing threshold undecidable at current e precision")
        product = np.zeros_like(power)
        product[:, present] = np.add.reduceat(power[:, source] * weight, first, axis=1)
        power = product
        scale *= matrix.denominator
    raise CapacityError(f"mixing time exceeds {_MIXING_STEP_GUARD} steps")


# ---------------------------------------------------------------------------
# entropy functionals over the enumerated state space


def entropy_functional(f) -> float:
    """Ent(f) = E[f ln f] - E[f] ln E[f] under the uniform distribution."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("f must be a nonempty vector")
    if (arr < 0).any():
        raise ValidationError("f must be nonnegative")
    if arr.mean() == 0:
        raise ValidationError("f must not be identically zero")
    return _entropy(arr)


def _entropy(arr: np.ndarray) -> float:
    """E[f ln f] - E f ln E f for a nonnegative float vector; 0 if E f = 0."""
    mean = arr.mean()
    if mean == 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        flnf = np.where(arr > 0, arr * np.log(arr), 0.0)
    return float(flnf.mean() - mean * math.log(mean))


@lru_cache(maxsize=8)  # an entry holds one label per state and block root
def _outside_groups(shape: TreeShape, k: int, block_depth: int):
    """Per block root, one read-only label per enumerated state numbering
    its group by the colors outside the block; and each vertex's root.

    A move choosing v updates the block under root_of[v] and lands
    uniformly on the states labelled as the current one there.  The labels
    are `np.unique` over the rows with the block zeroed, each row one byte
    string, so no key overflows at any width.
    """
    array = _state_array(shape, k)
    row = np.dtype((np.void, array.itemsize * shape.vertex_count))
    root_of = tuple(block_root(shape, v, block_depth) for v in range(shape.vertex_count))
    labels: dict[int, np.ndarray] = {}
    for root in dict.fromkeys(root_of):  # first-selected order
        keys = array.copy()
        keys[:, block_vertices(shape, root, block_depth)] = 0
        labels[root] = np.unique(keys.view(row)[:, 0], return_inverse=True)[1]
        labels[root].setflags(write=False)
    return MappingProxyType(labels), root_of


def _average(label: np.ndarray, f: np.ndarray) -> np.ndarray:
    """M f: each entry of f replaced by the mean of f over its label's group."""
    return (np.bincount(label, f) / np.bincount(label))[label]


def conditional_entropy(f, shape: TreeShape, k: int, block_depth: int, v: int) -> float:
    """E[Ent(f | colors outside v's block)] = Ent(f) - Ent(M f), uniform E."""
    shape._check_vertex(v)
    arr = np.asarray(f, dtype=float)
    labels, root_of = _outside_groups(shape, k, block_depth)
    if arr.shape != (state_space_size(shape, k),):
        raise ValidationError("f must have one entry per enumerated state")
    return _entropy(arr) - _entropy(_average(labels[root_of[v]], arr))


def local_entropy_sum(f, shape: TreeShape, k: int, block_depth: int) -> float:
    """Sum over vertices of the conditional entropy given the block's outside."""
    return sum(
        conditional_entropy(f, shape, k, block_depth, v)
        for v in range(shape.vertex_count)
    )


def entropy_ratio_report(
    shape: TreeShape, k: int, block_depth: int, trials: int, rng: RandomSource
) -> dict:
    """Worst observed ratio of summed local entropies to global entropy over
    random log-normal test functions.  Diagnostic only."""
    _check_integer("trials", trials, 1)
    _check_state_guard(shape, k)
    size = state_space_size(shape, k)
    gen = rng.generator
    worst = math.inf
    for _ in range(trials):
        f = gen.lognormal(size=size)
        ent = entropy_functional(f)
        if ent <= 0:
            continue
        worst = min(worst, local_entropy_sum(f, shape, k, block_depth) / ent)
    return {"min_ratio": worst, "trials": trials}
