"""Exact distributions of the root color given a partial leaf coloring.

Everything here is deterministic.  One bottom-up recursion underlies the
exact routes: `count_levels` counts, per vertex and color c, the proper
colorings of the vertex's subtree that give it color c.  A leaf counts 1
for each color it allows (every color if it is unconstrained); one level
up, color c extends each child's subtree in (the child's total - the
child's count for c) ways, and these multiply over the children.  The
root law is the root's counts normalized.  Extension counts and
interior-vertex marginals read the same counts.  The kernel computes each
level as one numpy expression, in int64 while the counts provably fit and
over Python ints from there.  The heat-bath memo in `dynamics` applies
the same rule one vertex at a time, to the completions it keeps for each
child.

The exact laws of upward messages live here too.  A vertex's message
(its counts, normalized) depends only on the leaves below it, which given
the vertex's color are an independent broadcast, so the message of a
height-h vertex has a finite law.  `_message_law` builds it in integers,
one level at a time (the one-level recursion of Mezard & Montanari,
J. Stat. Phys. 2006): each child takes a color j uniform on 2..k and a
height-(h-1) message with colors 1 and j swapped, and extends the parent
by the counting rule above.  Height 1 is the occupancy law of a bottom
block (`_unused_slot_law` gives its number of unused colors).
`broadcast_sampler` samples from these laws and their float tables, and
`exact_bias` and `down_up_matrix` read alpha and the down-up matrix off
the law of the root's message, with no enumeration of leaf colorings.

Two backends for root marginals:

* "rational" normalizes the kernel's integer root counts once into
  `fractions.Fraction` weights; exact, intended for trees up to roughly
  10^4 vertices.
* "float" carries per-color log-weights from level to level and normalizes
  only at the root.  A child's factor 1 - p_c is summed from its other
  colors, as a prefix plus a suffix sum, so a message within 2^-53 of a
  point mass still leaves the other colors their weight.  Its batched
  form, `root_marginal_batch`, gathers the first level from the leaves
  and folds it with `_fold_factors`, which sums sibling factors into
  log-weights one level up; `_fold_log_weights` runs the fold from there.
  `broadcast_sampler.posterior_rows` enters it at the log-weights too,
  summed from occupancy sets or from messages drawn from exact tables,
  one color at a time.  The fold is color-major: it holds (k, batch,
  width) arrays and takes maxima and sums over colors one color at a
  time, in ascending order, and sums siblings one at a time, in tree
  order.  It normalizes each level in place, in the arrays it is given.

Brute-force enumeration of whole colorings is the independent route: it
shares no code with the counting kernel, so tests can cross-check the two.
It is the only enumeration of colorings here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InfeasibleBoundaryError, ValidationError
from .tree_model import (
    STAR,
    PartialLeafColoring,
    TreeShape,
    _check_colors_match,
    _check_k,
    check_leaf_coloring,
)

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class ColorDistribution:
    """A distribution over colors 1..k, tagged with the backend that made it."""

    k: int
    weights: tuple
    backend: str

    def __post_init__(self):
        _check_k(self.k)
        if self.backend not in ("rational", "float"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if len(self.weights) != self.k:
            raise ValidationError("weight vector length must equal k")
        if any(w < 0 for w in self.weights):
            raise ValidationError("weights must be nonnegative")
        total = sum(self.weights)
        if self.backend == "rational":
            if total != 1:
                raise ValidationError(f"rational weights must sum to 1, got {total}")
        elif abs(total - 1.0) > 1e-9:
            raise ValidationError(f"float weights must sum to 1, got {total}")

    def probability(self, color: int):
        if not 1 <= color <= self.k:
            raise ValidationError(f"color {color} out of range 1..{self.k}")
        return self.weights[color - 1]

    def as_floats(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights], dtype=float)


@dataclass(frozen=True)
class BiasReport:
    """Per-color deviation of the root law from uniform, two ways.

    `alpha[c-1]` averages |P(root=c | leaves) - 1/k| over leaf colorings
    drawn from the unconditioned measure; `beta[c-1]` is the deviation of
    the re-inferred root law after conditioning the *leaves* on root
    color c.
    """

    k: int
    alpha: tuple
    beta: tuple
    exact: bool

    def __post_init__(self):
        if len(self.alpha) != self.k or len(self.beta) != self.k:
            raise ValidationError("alpha/beta must have one entry per color")
        for x in (*self.alpha, *self.beta):
            if not 0 <= x <= 1:
                raise ValidationError("bias values must lie in [0, 1]")


def p_max(dist: ColorDistribution):
    """Largest single-color probability."""
    return max(dist.weights)


def tv_distance(d1: ColorDistribution, d2: ColorDistribution):
    if d1.k != d2.k:
        raise ValidationError("distributions have different color counts")
    diffs = [abs(a - b) for a, b in zip(d1.weights, d2.weights)]
    return sum(diffs) / 2


# ---------------------------------------------------------------------------
# the counting kernel


def count_levels(bottom, branching: int, height: int) -> list:
    """Proper-coloring counts of every vertex of a complete subtree, by color.

    `bottom` holds one nonnegative integer vector per bottom vertex, left
    to right, as a list of lists or an integer array: 0/1 allowed colors at
    leaves, or a subtree's counts.  A vertex above colored c extends each
    child's subtree in (the sum of the child's counts - the child's count
    for c) ways, so its counts are the products of those over its
    children.  Returns every level of exact integer counts, bottom level
    first, as (width, k) object arrays of Python ints; the last level holds
    the top vertex alone, and `levels[h][i][c]` is a Python int.

    Each level is one numpy expression, in int64 while a bound on the
    counts proves they fit and over Python ints from there.
    """
    # a list goes through Python ints: numpy would make floats of some
    counts = bottom if isinstance(bottom, np.ndarray) else np.array(bottom, dtype=object)
    k = counts.shape[1]
    # every count is at most `bound`, tracked in Python ints: a level's
    # completions are at most k * bound and its counts products of
    # `branching` of them, so int64 holds a level while
    # (k * bound) ** branching stays below 2**63; from the first level that
    # could not, Python ints
    bound = int(counts.max())
    counts = counts.astype(np.int64 if bound < 2**63 else object, copy=False)
    levels = [counts]
    for _ in range(height):
        bound = (k * bound) ** branching
        if bound >= 2**63:
            counts = counts.astype(object, copy=False)
        # sums and products of column and sibling slices: numpy reduces a
        # short axis several times slower
        total = sum(counts[:, c : c + 1] for c in range(k))
        completions = (total - counts).reshape(-1, branching, k)
        counts = math.prod(completions[:, j] for j in range(branching))
        levels.append(counts)
    return [level.astype(object, copy=False) for level in levels]


def _times_completions(weights: list, counts) -> list:
    """weights[c] times the colorings of a subtree whose root avoids color c+1."""
    total = sum(counts)
    return [w * (total - m) for w, m in zip(weights, counts)]


def _leaf_bottom(values, k: int) -> np.ndarray:
    """(leaves, k) allowed-color indicators: all ones for STAR, else one-hot."""
    column = np.asarray(values, dtype=np.int64)[:, np.newaxis]
    return ((column == np.arange(1, k + 1)) | (column == STAR)).astype(np.int64)


def root_marginal(
    shape: TreeShape,
    k: int,
    coloring: PartialLeafColoring,
    forbidden_root: int | None = None,
    backend: str = "rational",
) -> ColorDistribution:
    """Distribution of the root color given the leaf coloring.

    A disallowed coloring raises InfeasibleBoundaryError, decided from
    what each backend computes anyway: the rational root counts sum to 0,
    and the float fold meets a vertex with every color at -inf.
    `forbidden_root` additionally conditions the root to avoid one color.
    """
    check_leaf_coloring(shape, coloring)
    _check_colors_match(k, coloring)
    if backend == "rational":
        top = count_levels(_leaf_bottom(coloring.values, k), shape.branching, shape.depth)[-1][0]
        total = sum(top)
        if total == 0:
            raise InfeasibleBoundaryError("leaf coloring admits no proper extension")
        weights = [Fraction(c, total) for c in top]
    elif backend == "float":
        weights = list(root_marginal_batch(shape, k, coloring.values[np.newaxis, :])[0])
    else:
        raise ValidationError(f"unknown backend {backend!r}")
    if forbidden_root is not None:
        if not 1 <= forbidden_root <= k:
            raise ValidationError(f"forbidden_root {forbidden_root} out of range 1..{k}")
        weights[forbidden_root - 1] = type(weights[forbidden_root - 1])(0)
        total = sum(weights)
        if total == 0:
            raise InfeasibleBoundaryError(
                "no proper extension avoids the forbidden root color"
            )
        weights = [w / total for w in weights]
    return ColorDistribution(k, tuple(weights), backend)


# ---------------------------------------------------------------------------
# batched float recursion


def _normalized(logw: np.ndarray) -> np.ndarray:
    """Color-major log-weights (k, ...) -> probabilities over the first axis,
    in place: `logw` is overwritten with the probabilities and returned.

    The max is taken and the total summed color by color, in ascending
    order; a vertex whose every color is at -inf is infeasible.
    """
    top = np.maximum(logw[0], logw[1])
    for row in logw[2:]:
        np.maximum(top, row, out=top)
    if np.isneginf(top).any():
        raise InfeasibleBoundaryError("a leaf coloring admits no proper extension")
    logw -= top
    p = np.exp(logw, out=logw)
    total = p[0] + p[1]
    for row in p[2:]:
        total += row
    p /= total
    return p


def _log_complements(p: np.ndarray) -> np.ndarray:
    """log(1 - p_c) for color-major probabilities p of shape (k, ...).

    1 - p_c is summed from the other colors, as a prefix sum below c plus
    a suffix sum above it: taken by subtraction it rounds to 0 once p_c is
    within 2^-53 of 1, and would forbid a color the tree allows.
    """
    k = p.shape[0]
    rest = np.empty_like(p)
    rest[k - 2] = p[k - 1]
    for c in range(k - 3, -1, -1):  # suffix sums
        np.add(rest[c + 1], p[c + 1], out=rest[c])
    below = p[0].copy()
    for c in range(1, k - 1):  # plus prefix sums
        rest[c] += below
        below += p[c]
    rest[k - 1] = below
    with np.errstate(divide="ignore"):
        return np.log(rest, out=rest)


def _sibling_sums(logw: np.ndarray, branching: int, out=None) -> np.ndarray:
    """(..., width) -> (..., width / branching): each block of siblings
    summed into its parent, one sibling at a time, into `out` if given."""
    blocks = logw.reshape(logw.shape[:-1] + (-1, branching))
    total = np.add(blocks[..., 0], blocks[..., 1], out=out)
    for j in range(2, branching):
        total += blocks[..., j]
    return total


def root_marginal_batch(shape: TreeShape, k: int, leaf_rows: np.ndarray) -> np.ndarray:
    """Float-backend root marginals for many leaf colorings at once.

    Rows use 0 for unconstrained leaves.  Returns an array of shape
    (batch, k); an empty batch gives (0, k).  Infeasible rows raise rather
    than produce NaNs.
    """
    _check_k(k)
    rows = np.asarray(leaf_rows)
    if rows.ndim != 2 or rows.shape[1] != shape.leaf_count:
        raise ValidationError("leaf_rows must be (batch, leaf_count)")
    if rows.dtype.kind not in "iu":
        raise ValidationError("leaf_rows must hold integer colors")
    if rows.size and (rows.min() < 0 or rows.max() > k):
        raise ValidationError(f"leaf entries must lie in [0, {k}]")
    # row STAR = 0 is the uniform message of a free leaf, row c the point mass on c
    leaf_msgs = np.vstack([np.full(k, 1.0 / k), np.eye(k)])
    if shape.depth == 0:
        return leaf_msgs[rows[:, 0]]
    if rows.shape[0] == 0:
        return np.empty((0, k))
    # the first fold level, gathered color by color from log1p(-message)
    # per leaf value
    with np.errstate(divide="ignore"):
        by_color = np.ascontiguousarray(np.log1p(-leaf_msgs).T)
    return _fold_factors(np.take(by_color, rows, axis=1), shape.branching, shape.depth)


def _fold_factors(factors: np.ndarray, branching: int, depth: int) -> np.ndarray:
    """(batch, k) root marginals from the log-factors log(1 - m) of the
    messages m of every vertex at one depth >= 1, given color-major as
    (k, batch, width).

    A child with message m lets its parent take color c in proportion to
    1 - m_c, so each block of siblings sums into its parent's log-weights,
    which `_fold_log_weights` folds up to the root.
    """
    return _fold_log_weights(_sibling_sums(factors, branching), branching, depth - 1)


def _fold_log_weights(logw: np.ndarray, branching: int, depth: int) -> np.ndarray:
    """(batch, k) root marginals from the log-weights of every vertex at
    one depth >= 0, given color-major as (k, batch, width): each level's
    messages give the factors of the next level up, summed into their
    parents' log-weights, up to the root.

    Each level is normalized in place (`_normalized`), so `logw` is
    overwritten: every caller passes an array it owns.
    """
    for _ in range(depth):
        logw = _sibling_sums(_log_complements(_normalized(logw)), branching)
    return np.ascontiguousarray(_normalized(logw[:, :, 0]).T)


# ---------------------------------------------------------------------------
# independent routes: enumeration and counting


def _guard_enumeration(count_log: float, what: str) -> None:
    if count_log > math.log(ENUMERATION_GUARD):
        raise CapacityError(f"{what} exceeds the enumeration guard of {ENUMERATION_GUARD:.0e}")


def root_marginal_bruteforce(
    shape: TreeShape,
    k: int,
    coloring: PartialLeafColoring,
    forbidden_root: int | None = None,
) -> ColorDistribution:
    """Exact root law by enumerating every coloring of the unconstrained
    vertices and filtering for properness.  Deliberately shares nothing
    with the recursion."""
    check_leaf_coloring(shape, coloring)
    _check_colors_match(k, coloring)
    n = shape.vertex_count
    b = shape.branching
    first_leaf = shape.level_start(shape.depth)
    fixed_vals = np.zeros(n, dtype=np.int16)
    fixed_vals[first_leaf:] = coloring.values
    free = np.flatnonzero(fixed_vals == STAR)
    _guard_enumeration(len(free) * math.log(k), "bruteforce state space")
    total_candidates = k ** len(free)
    parents = (np.arange(1, n) - 1) // b
    counts = np.zeros(k, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, total_candidates, chunk):
        idx = np.arange(start, min(start + chunk, total_candidates), dtype=np.int64)
        assign = np.broadcast_to(fixed_vals, (len(idx), n)).copy()
        for j, v in enumerate(free):
            assign[:, v] = (idx // k**j) % k + 1
        proper = (assign[:, 1:] != assign[:, parents]).all(axis=1)
        if forbidden_root is not None:
            proper &= assign[:, 0] != forbidden_root
        counts += np.bincount(assign[proper, 0].astype(np.int64), minlength=k + 1)[1:]
    total = int(counts.sum())
    if total == 0:
        raise InfeasibleBoundaryError("no proper coloring matches the constraints")
    return ColorDistribution(k, tuple(Fraction(int(c), total) for c in counts), "rational")


def count_extensions(shape: TreeShape, k: int, coloring: PartialLeafColoring) -> int:
    """Number of proper colorings of the whole tree consistent with the leaves.

    The sum of the root's counts from `count_levels`, in exact big
    integers; O(vertices * k) products.
    """
    check_leaf_coloring(shape, coloring)
    _check_colors_match(k, coloring)
    levels = count_levels(_leaf_bottom(coloring.values, k), shape.branching, shape.depth)
    return sum(levels[-1][0])


# ---------------------------------------------------------------------------
# conditional marginal at an interior vertex


def vertex_conditional_marginal(
    shape: TreeShape,
    k: int,
    coloring: PartialLeafColoring,
    u: int,
    removed_child: int | None = None,
    parent_color: int | None = None,
) -> ColorDistribution:
    """Exact color law at vertex u after deleting one child's subtree.

    The measure is uniform over proper colorings of the pruned tree that
    agree with `coloring` on the remaining leaves.  If `parent_color` is
    set, the neighbor above u (a fresh one, if u is the root) is pinned to
    that color; leaves outside u's subtree then no longer matter.
    """
    check_leaf_coloring(shape, coloring)
    _check_colors_match(k, coloring)
    shape._check_vertex(u)
    b = shape.branching
    kids = [] if shape.is_leaf(u) else list(range(u * b + 1, u * b + b + 1))
    if removed_child is not None and removed_child not in kids:
        raise ValidationError(f"{removed_child} is not a child of {u}")
    if parent_color is not None and not 1 <= parent_color <= k:
        raise ValidationError(f"parent_color {parent_color} out of range 1..{k}")

    levels = count_levels(_leaf_bottom(coloring.values, k), b, shape.depth)

    def subtree_counts(v: int) -> list:
        d = shape.depth_of(v)
        return levels[shape.depth - d][v - shape.level_start(d)]

    # a leaf u carries its own leaf constraint
    weights = subtree_counts(u) if shape.is_leaf(u) else [1] * k
    for child in kids:
        if child != removed_child:
            weights = _times_completions(weights, subtree_counts(child))

    if parent_color is not None:
        weights = [0 if c == parent_color else w for c, w in enumerate(weights, 1)]
    elif u != 0:
        weights = _times_completions(weights, _downward_counts(shape, k, u, subtree_counts))

    total = sum(weights)
    if total == 0:
        raise InfeasibleBoundaryError("pruned instance admits no proper coloring")
    return ColorDistribution(k, tuple(Fraction(w, total) for w in weights), "rational")


def _downward_counts(shape, k, u, subtree_counts) -> list:
    """Proper colorings of the tree without u's subtree, by the color of u's parent."""
    b = shape.branching
    path = [u]
    while path[-1] != 0:
        path.append((path[-1] - 1) // b)
    path.reverse()  # root ... u
    down = None
    for vertex, excluded in zip(path, path[1:]):
        weights = [1] * k
        for child in range(vertex * b + 1, vertex * b + b + 1):
            if child != excluded:
                weights = _times_completions(weights, subtree_counts(child))
        if down is not None:
            weights = _times_completions(weights, down)
        down = weights
    return down


def tv_root(
    shape: TreeShape,
    k: int,
    first: PartialLeafColoring,
    second: PartialLeafColoring,
):
    """Exact total-variation distance between the two root laws."""
    return tv_distance(root_marginal(shape, k, first), root_marginal(shape, k, second))


# ---------------------------------------------------------------------------
# exact message laws


#: largest number of child-type multisets, C(Delta + T - 1, Delta), that one
#: level of a message table may enumerate (T child types)
_TABLE_ENUMERATION_CAP = 100_000


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


@lru_cache(maxsize=None)
def _message_law(branching: int, k: int, height: int) -> tuple:
    """Exact law of the upward message of a height-`height` vertex of color 1.

    A message is kept as its integer count vector divided by the gcd of its
    entries (the counts of `count_levels`, up to scale); equal vectors are
    merged.  Returns (entries, denominator): entries is a sorted tuple of
    (vector, weight) pairs, the probability of a vector being
    weight / denominator.  Raises CapacityError before building a level
    whose law may hold more than ENUMERATION_GUARD / k vectors: at most
    one per multiset of child types and one per leaf coloring.
    """
    if height == 0:
        return (((1,) + (0,) * (k - 1), 1),), 1
    below, denominator = _message_law(branching, k, height - 1)
    types = (k - 1) * _support_size(branching, k, height - 1)
    multisets = math.comb(branching + types - 1, branching)
    _guard_enumeration(
        math.log(k) + min(math.log(multisets), branching**height * math.log(k)),
        f"the height-{height} message law",
    )
    # a child of color j with color-1 message vector v (entries 1 and j
    # swapped) lets the parent take each color in proportion to its
    # completions, as in `count_levels`
    factors: dict = {}
    for vec, weight in below:
        for j in range(1, k):
            swapped = list(vec)
            swapped[0], swapped[j] = swapped[j], swapped[0]
            key = _reduced(_times_completions([1] * k, swapped))
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
    """The height h <= depth whose messages `broadcast_sampler.posterior_rows`
    draws: the largest one whose table enumerates fewer than
    _TABLE_ENUMERATION_CAP multisets of child types in its last level.
    Height 1 is closed form and always allowed."""
    height = min(1, depth)
    while height < depth:
        types = (k - 1) * _support_size(branching, k, height)
        if math.comb(branching + types - 1, branching) >= _TABLE_ENUMERATION_CAP:
            break
        height += 1
    return height


#: least number of guide-table buckets per message-table entry
_GUIDE_BUCKETS_PER_ENTRY = 4


class _MessageTable(NamedTuple):
    """`_message_law` in floats, as `broadcast_sampler` draws from it.

    Row e of `messages` is message e normalized and `cdf` the cumulative
    law of the entries.  `guide[j]` is the number of CDF values at or below
    j / M, for the M buckets of the guide table: a power of two, so that
    j / M and x * M are exact.  `by_color[c, (r - 1) * E + e]` is log(1 -
    m_(c+1)) for the message m of entry e at a vertex of color r (E
    entries); its first E columns are the log-factors of color 1.
    """

    cdf: np.ndarray
    messages: np.ndarray
    guide: np.ndarray
    by_color: np.ndarray


@lru_cache(maxsize=None)
def _message_table(branching: int, k: int, height: int) -> _MessageTable:
    """`_message_law` in floats, built once per (branching, k, height).

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
    buckets = 1 << (_GUIDE_BUCKETS_PER_ENTRY * cdf.size - 1).bit_length()
    # cdf * M is exact, so a CDF value lies at or below j / M exactly when
    # the ceiling of cdf * M is at most j
    ceilings = np.ceil(cdf * buckets).astype(np.intp)
    guide = np.cumsum(np.bincount(ceilings, minlength=buckets + 1))[:buckets]
    # log_factors[e, _color_swaps(k)[r, c]] at [c, r, e]
    by_color = log_factors[:, _color_swaps(k)].transpose(2, 1, 0).reshape(k, -1)
    table = _MessageTable(cdf, messages, guide, by_color)
    for array in table:
        array.setflags(write=False)
    return table


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


# ---------------------------------------------------------------------------
# exact bias from the message law


@lru_cache(maxsize=None)
def _bias_tables(branching: int, depth: int, k: int):
    """Exact alphas and down-up matrix from the law of the root's message.

    Given root color 1 the message m has weight w / D on each vector v
    (total t = sum(v)), and its law is symmetric in colors 2..k.  Averaging
    over the root color, alpha = E sum_j |m_j - 1/k| / k for every color,
    the down-up diagonal is E m_1, and each off-diagonal entry takes an
    equal share of the rest.  Numerators are summed per distinct t before
    any Fraction is made.
    """
    entries, denominator = _message_law(branching, k, depth)
    deviation: dict = {}  # t -> sum of w * sum_j |k v_j - t|
    own: dict = {}  # t -> sum of w * v_1
    for vec, weight in entries:
        total = sum(vec)
        deviation[total] = deviation.get(total, 0) + weight * sum(abs(k * x - total) for x in vec)
        own[total] = own.get(total, 0) + weight * vec[0]
    alpha = sum(Fraction(s, t) for t, s in deviation.items()) / (k * k * denominator)
    diagonal = sum(Fraction(s, t) for t, s in own.items()) / denominator
    off = (1 - diagonal) / (k - 1)
    # row c of the matrix: law of the re-inferred root given true root c
    matrix = tuple(
        tuple(diagonal if c == c2 else off for c2 in range(k)) for c in range(k)
    )
    return (alpha,) * k, matrix


def down_up_matrix(shape: TreeShape, k: int) -> tuple:
    """Row c: expected root law recovered from leaves broadcast from root c."""
    _check_k(k)
    _, matrix = _bias_tables(shape.branching, shape.depth, k)
    return matrix


def exact_bias(shape: TreeShape, k: int) -> BiasReport:
    """Exact per-color alpha and beta, read off the exact law of the root's message."""
    _check_k(k)
    alphas, matrix = _bias_tables(shape.branching, shape.depth, k)
    betas = tuple(abs(matrix[c][c] - Fraction(1, k)) for c in range(k))
    return BiasReport(k=k, alpha=alphas, beta=betas, exact=True)
