"""Exact distributions of the root color given a partial leaf coloring.

Everything here is deterministic.  One bottom-up recursion underlies the
exact routes: `count_levels` counts, per vertex and color c, the proper
colorings of the vertex's subtree that give it color c.  A leaf counts 1
for each color it allows (every color if it is unconstrained); one level
up, color c extends each child's subtree in (the child's total - the
child's count for c) ways, and these multiply over the children.  The
root law is the root's counts normalized.  Extension counts, the exact
bias tables, interior-vertex marginals and the heat-bath block move in
`dynamics` read the same counts.

Two backends for root marginals:

* "rational" normalizes the kernel's integer root counts once into
  `fractions.Fraction` weights; exact, intended for trees up to roughly
  10^4 vertices.
* "float" carries per-color log-weights from level to level and normalizes
  only at the root.  A child's factor 1 - p_c is summed from its other
  colors, so a message within 2^-53 of a point mass still leaves the other
  colors their weight.  It is also available in a batched form used
  heavily by the samplers.

Brute-force enumeration of whole colorings is the independent route: it
shares no code with the counting kernel, so tests can cross-check the two.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InfeasibleBoundaryError, ValidationError
from .tree_model import (
    STAR,
    PartialLeafColoring,
    TreeShape,
    check_leaf_coloring,
    is_allowed,
)

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class ColorDistribution:
    """A distribution over colors 1..k, tagged with the backend that made it."""

    k: int
    weights: tuple
    backend: str

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError(f"need at least 2 colors, got k={self.k}")
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


def count_levels(bottom: list, branching: int, height: int) -> list:
    """Proper-coloring counts of every vertex of a complete subtree, by color.

    `bottom` holds one 0/1 allowed-color vector per bottom vertex, left to
    right.  A vertex above colored c extends each child's subtree in (the
    sum of the child's counts - the child's count for c) ways, so its
    counts are the products of those over its children.  Returns every
    level of integer counts, bottom level first; the last level holds the
    top vertex alone.
    """
    k = len(bottom[0])
    levels = [bottom]
    for _ in range(height):
        below = levels[-1]
        above = []
        for i in range(0, len(below), branching):
            vec = [1] * k
            for counts in below[i : i + branching]:
                vec = _times_completions(vec, counts)
            above.append(vec)
        levels.append(above)
    return levels


def _times_completions(weights: list, counts: list) -> list:
    """weights[c] times the colorings of a subtree whose root avoids color c+1."""
    total = sum(counts)
    return [w * (total - m) for w, m in zip(weights, counts)]


def _leaf_bottom(values, k: int) -> list:
    """Allowed-color vectors of leaves: all ones for STAR, else an indicator."""
    return [
        [1] * k if v == STAR else [int(c == v) for c in range(1, k + 1)]
        for v in map(int, values)
    ]


def root_marginal(
    shape: TreeShape,
    k: int,
    coloring: PartialLeafColoring,
    forbidden_root: int | None = None,
    backend: str = "rational",
) -> ColorDistribution:
    """Distribution of the root color given the leaf coloring.

    The coloring must be allowed (checked up front); `forbidden_root`
    additionally conditions the root to avoid one color.
    """
    check_leaf_coloring(shape, coloring)
    _check_colors_match(k, coloring)
    if not is_allowed(shape, k, coloring):
        raise InfeasibleBoundaryError("leaf coloring admits no proper extension")
    if backend == "rational":
        top = count_levels(_leaf_bottom(coloring.values, k), shape.branching, shape.depth)[-1][0]
        total = sum(top)
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


def _normalize_log_weights(logw: np.ndarray) -> np.ndarray:
    """Rows of log-weights -> probability rows; all -inf rows are infeasible."""
    mx = logw.max(axis=-1)
    if np.isneginf(mx).any():
        raise InfeasibleBoundaryError("a leaf coloring admits no proper extension")
    p = np.exp(logw - mx[..., np.newaxis])
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _combine_up_float(logw: np.ndarray, branching: int, levels: int) -> np.ndarray:
    """Fold (batch, width, k) log-weights up `levels` times.

    A child with message p lets its parent take color c in proportion to
    1 - p_c, which is summed from the child's other colors: 1 - p_c taken
    by subtraction rounds to 0 once p_c is within 2^-53 of 1, and would
    forbid a color the tree allows.
    """
    others = 1.0 - np.eye(logw.shape[-1])
    for _ in range(levels):
        with np.errstate(divide="ignore"):
            logw = np.log(_normalize_log_weights(logw) @ others)
        logw = logw.reshape(logw.shape[0], -1, branching, logw.shape[-1]).sum(axis=2)
    return logw


def root_marginal_batch(shape: TreeShape, k: int, leaf_rows: np.ndarray) -> np.ndarray:
    """Float-backend root marginals for many leaf colorings at once.

    Rows use 0 for unconstrained leaves.  Returns an array of shape
    (batch, k); an empty batch gives (0, k).  Infeasible rows raise rather
    than produce NaNs.
    """
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")
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
    # the first fold level, gathered from log1p(-message) per leaf value
    with np.errstate(divide="ignore"):
        log_table = np.log1p(-leaf_msgs)
    logw = log_table[rows].reshape(rows.shape[0], -1, shape.branching, k).sum(axis=2)
    logw = _combine_up_float(logw, shape.branching, shape.depth - 1)
    return _normalize_log_weights(logw[:, 0, :])


def root_marginal_from_block_counts(
    shape: TreeShape, k: int, unused: np.ndarray
) -> np.ndarray:
    """Root marginals given only the set of colors each bottom block leaves unused.

    `unused` is the (batch, block_count, k) bool array of
    `broadcast_sampler.sample_block_counts`, which draws it from the
    occupancy law of a block's leaves in the k-1 colors other than their
    parent's (a count array is rejected).  The recursion one level above
    the leaves sees a block of siblings only through the colors it leaves
    unused: its parent's message is uniform over those s colors.  The first
    fold level gathers log(1 - 1/s) into the unused entries of each child
    block and sums over siblings.  Requires depth >= 1; an empty batch
    gives (0, k).
    """
    if shape.depth < 1:
        raise ValidationError("block counts need a tree of depth >= 1")
    unused = np.asarray(unused)
    if unused.dtype != bool:
        raise ValidationError("block statistics must be a bool array of unused colors")
    expected_blocks = shape.branching ** (shape.depth - 1)
    if unused.ndim != 3 or unused.shape[1] != expected_blocks or unused.shape[2] != k:
        raise ValidationError("unused colors must be (batch, block_count, k)")
    if unused.shape[0] == 0:
        return np.empty((0, k))
    sizes = unused.sum(axis=-1)
    if (sizes == 0).any():
        raise InfeasibleBoundaryError("a bottom block uses all colors")
    if shape.depth == 1:
        return unused[:, 0, :] / sizes[:, :1]
    with np.errstate(divide="ignore"):
        log_table = np.log1p(-1.0 / np.arange(1, k + 1))
    logw = np.where(unused, log_table[sizes - 1][..., np.newaxis], 0.0)
    logw = logw.reshape(unused.shape[0], -1, shape.branching, k).sum(axis=2)
    logw = _combine_up_float(logw, shape.branching, shape.depth - 2)
    return _normalize_log_weights(logw[:, 0, :])


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
    backend: str = "rational",
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
    if backend not in ("rational", "float"):
        raise ValidationError(f"unknown backend {backend!r}")
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
    probs = tuple(Fraction(w, total) for w in weights)
    if backend == "float":
        return ColorDistribution(k, tuple(float(p) for p in probs), "float")
    return ColorDistribution(k, probs, "rational")


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
    backend: str = "rational",
):
    """Total-variation distance between the two root laws."""
    d1 = root_marginal(shape, k, first, backend=backend)
    d2 = root_marginal(shape, k, second, backend=backend)
    return tv_distance(d1, d2)


# ---------------------------------------------------------------------------
# exact bias by full enumeration


@lru_cache(maxsize=None)
def _bias_tables(branching: int, depth: int, k: int):
    shape = TreeShape(branching, depth)
    L = shape.leaf_count
    _guard_enumeration(L * math.log(k), "leaf-coloring enumeration")
    grand_total = 0
    abs_dev = [0] * k  # sum over X of |k * omega_c - total(X)|
    cross = [[Fraction(0)] * k for _ in range(k)]  # sum of omega_c * omega_c' / total(X)
    for combo in itertools.product(range(1, k + 1), repeat=L):
        omega = count_levels(_leaf_bottom(combo, k), branching, depth)[-1][0]
        total = sum(omega)
        if total == 0:
            continue
        grand_total += total
        for c in range(k):
            abs_dev[c] += abs(k * omega[c] - total)
            row = cross[c]
            for c2 in range(k):
                if omega[c] and omega[c2]:
                    row[c2] += Fraction(omega[c] * omega[c2], total)
    alphas = tuple(Fraction(s, k * grand_total) for s in abs_dev)
    # row c of the matrix: law of the re-inferred root given true root c
    matrix = tuple(
        tuple(Fraction(k, grand_total) * cell for cell in row) for row in cross
    )
    return alphas, matrix


def down_up_matrix(shape: TreeShape, k: int) -> tuple:
    """Row c: expected root law recovered from leaves broadcast from root c."""
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")
    _, matrix = _bias_tables(shape.branching, shape.depth, k)
    return matrix


def exact_bias(shape: TreeShape, k: int) -> BiasReport:
    """Exact per-color alpha and beta by enumerating all full leaf colorings."""
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")
    alphas, matrix = _bias_tables(shape.branching, shape.depth, k)
    betas = tuple(abs(matrix[c][c] - Fraction(1, k)) for c in range(k))
    return BiasReport(k=k, alpha=alphas, beta=betas, exact=True)


def _check_colors_match(k: int, coloring: PartialLeafColoring) -> None:
    if coloring.k != k:
        raise ValidationError(f"coloring was built for k={coloring.k}, not k={k}")
