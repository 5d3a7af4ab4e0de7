"""Exact root marginals and bias quantities, checked against enumeration.

Expected values marked "frozen" were produced by the independent oracles in
this file (or tiny hand-checked equivalents) and pinned so regressions surface as
explicit diffs.
"""
from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecolor import (
    CapacityError,
    ColorDistribution,
    InfeasibleBoundaryError,
    PartialLeafColoring,
    RandomSource,
    TreeShape,
    ValidationError,
    count_extensions,
    down_up_matrix,
    exact_bias,
    root_marginal,
    root_marginal_bruteforce,
    sample_leaf_rows,
    tv_distance,
    tv_root,
    vertex_conditional_marginal,
)
from treecolor import exact_engine, tree_model
from treecolor.broadcast_sampler import (
    _table_entries,
    posterior_rows,
)
from treecolor.exact_engine import (
    _ARRAY_BODY_MIN_VECTORS,
    _color_swaps,
    _count_levels_array,
    _count_levels_list,
    _fold_factors,
    _message_law,
    _message_table,
    count_levels,
    p_max,
    root_marginal_batch,
)
from treecolor.tree_model import STAR

from conftest import block_unused_sets, unused_log_factors


def leaves(k, *values):
    return PartialLeafColoring(k, np.array(values, dtype=np.int16))


def weights(dist):
    return tuple(dist.weights)


def enumerate_conditional(shape, k, coloring, u, removed_child=None, parent_color=None):
    """Oracle for vertex_conditional_marginal: filter full assignments.

    When parent_color is set the measure lives on u's own subtree (leaves
    elsewhere are irrelevant by the contract); otherwise on the whole tree
    minus the removed subtree.
    """
    b = shape.branching
    first_leaf = shape.level_start(shape.depth)

    def subtree(v):
        out, stack = [], [v]
        while stack:
            w = stack.pop()
            out.append(w)
            if not shape.is_leaf(w):
                stack.extend(range(w * b + 1, w * b + b + 1))
        return out

    alive = set(subtree(u) if parent_color is not None else range(shape.vertex_count))
    if removed_child is not None:
        alive -= set(subtree(removed_child))
    alive = sorted(alive)
    top = alive[0]
    fixed = {
        v: int(coloring.values[v - first_leaf])
        for v in alive
        if v >= first_leaf and coloring.values[v - first_leaf] != STAR
    }
    free = [v for v in alive if v not in fixed]
    counts = dict.fromkeys(range(1, k + 1), 0)
    for combo in product(range(1, k + 1), repeat=len(free)):
        val = dict(fixed)
        val.update(zip(free, combo))
        if any(val[v] == val[(v - 1) // b] for v in alive if v != top):
            continue
        if parent_color is not None and val[u] == parent_color:
            continue
        counts[val[u]] += 1
    total = sum(counts.values())
    return tuple(Fraction(counts[c], total) for c in range(1, k + 1))


# ---------------------------------------------------------------------------
# root_marginal


def test_root_forced():
    dist = root_marginal(TreeShape(2, 1), 3, leaves(3, 1, 2))
    assert weights(dist) == (Fraction(0), Fraction(0), Fraction(1))


def test_root_all_star_uniform():
    for shape in (TreeShape(2, 1), TreeShape(2, 2), TreeShape(3, 2)):
        for k in (3, 4):
            x = leaves(k, *([STAR] * shape.leaf_count))
            dist = root_marginal(shape, k, x)
            assert weights(dist) == tuple([Fraction(1, k)] * k)
            f = root_marginal(shape, k, x, backend="float")
            np.testing.assert_allclose(f.as_floats(), np.full(k, 1 / k), atol=1e-12)


def test_root_depth2_alternating():
    # frozen: enumeration of the 7-vertex tree over X=(1,2,1,2)
    x = leaves(3, 1, 2, 1, 2)
    expected = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert weights(root_marginal(TreeShape(2, 2), 3, x)) == expected
    assert weights(root_marginal_bruteforce(TreeShape(2, 2), 3, x)) == expected


def test_root_depth2_with_stars():
    # frozen: (1,1,*,*) leaves the left subtree forcing "not 1" upward
    x = leaves(3, 1, 1, 0, 0)
    expected = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert weights(root_marginal(TreeShape(2, 2), 3, x)) == expected
    assert weights(root_marginal_bruteforce(TreeShape(2, 2), 3, x)) == expected


def test_bruteforce_symmetry_examples():
    dist = root_marginal_bruteforce(TreeShape(2, 1), 3, leaves(3, 1, 1))
    assert weights(dist) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    dist = root_marginal_bruteforce(TreeShape(2, 1), 3, leaves(3, 0, 0))
    assert weights(dist) == (Fraction(1, 3),) * 3


def test_engines_agree_exhaustively_small():
    for delta, depth, k in [(2, 1, 3), (2, 1, 4), (2, 2, 3), (3, 1, 3)]:
        shape = TreeShape(delta, depth)
        span = k + 1
        for idx in range(span**shape.leaf_count):
            row = [(idx // span**j) % span for j in range(shape.leaf_count)]
            x = PartialLeafColoring(k, np.array(row, dtype=np.int16))
            try:
                expected = root_marginal_bruteforce(shape, k, x)
            except InfeasibleBoundaryError:
                with pytest.raises(InfeasibleBoundaryError):
                    root_marginal(shape, k, x)
                continue
            assert weights(root_marginal(shape, k, x)) == weights(expected)
            np.testing.assert_allclose(
                root_marginal(shape, k, x, backend="float").as_floats(),
                expected.as_floats(),
                atol=1e-10,
            )


def test_root_marginal_raises_exactly_on_disallowed_leaves(monkeypatch):
    # both backends decide feasibility from the counts they compute, never
    # through a separate is_allowed pass
    cases = []
    for delta, depth, k in [(2, 2, 3), (3, 1, 3)]:
        shape = TreeShape(delta, depth)
        for row in product(range(k + 1), repeat=shape.leaf_count):
            x = PartialLeafColoring(k, np.array(row, dtype=np.int16))
            cases.append((shape, k, x, tree_model.is_allowed(shape, k, x)))

    def never(*args, **kwargs):
        raise AssertionError("root_marginal must not call is_allowed")

    for module in (tree_model, exact_engine):
        monkeypatch.setattr(module, "is_allowed", never, raising=False)
        monkeypatch.setattr(module, "is_allowed_batch", never, raising=False)
    for shape, k, x, allowed in cases:
        for backend in ("rational", "float"):
            if allowed:
                root_marginal(shape, k, x, backend=backend)
            else:
                with pytest.raises(InfeasibleBoundaryError):
                    root_marginal(shape, k, x, backend=backend)
    assert {allowed for *_, allowed in cases} == {True, False}


def test_relabeling_equivariance():
    shape = TreeShape(2, 2)
    k = 4
    rng = np.random.default_rng(3)
    perm = np.array([2, 3, 4, 1])  # color c -> perm[c-1]
    for _ in range(25):
        row = rng.integers(0, k + 1, size=shape.leaf_count).astype(np.int16)
        x = PartialLeafColoring(k, row)
        permuted = PartialLeafColoring(k, np.where(row == STAR, 0, perm[row - 1]).astype(np.int16))
        try:
            base = root_marginal(shape, k, x)
        except InfeasibleBoundaryError:
            continue
        image = root_marginal(shape, k, permuted)
        for c in range(1, k + 1):
            assert image.probability(int(perm[c - 1])) == base.probability(c)


def test_forbidden_root():
    shape = TreeShape(2, 1)
    dist = root_marginal(shape, 3, leaves(3, 0, 0), forbidden_root=1)
    assert weights(dist) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    # forbidding the only feasible color exhausts the mass
    with pytest.raises(InfeasibleBoundaryError):
        root_marginal(shape, 3, leaves(3, 1, 2), forbidden_root=3)
    # agreement with the enumerating engine under the same conditioning
    x = leaves(3, 1, 0, 0, 1)
    got = root_marginal(TreeShape(2, 2), 3, x, forbidden_root=2)
    expected = root_marginal_bruteforce(TreeShape(2, 2), 3, x, forbidden_root=2)
    assert weights(got) == weights(expected)


def test_infeasible_boundary_raises():
    with pytest.raises(InfeasibleBoundaryError):
        root_marginal(TreeShape(3, 1), 3, leaves(3, 1, 2, 3))
    with pytest.raises(InfeasibleBoundaryError):
        root_marginal_bruteforce(TreeShape(3, 1), 3, leaves(3, 1, 2, 3))


def test_backend_argument_checked():
    with pytest.raises(ValidationError):
        root_marginal(TreeShape(2, 1), 3, leaves(3, 0, 0), backend="decimal")


def test_bruteforce_capacity_guard():
    shape = TreeShape(2, 5)
    x = leaves(3, *([STAR] * shape.leaf_count))
    with pytest.raises(CapacityError):
        root_marginal_bruteforce(shape, 3, x)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        ColorDistribution(3, (Fraction(1, 2), Fraction(1, 2)), "rational")
    with pytest.raises(ValidationError):
        ColorDistribution(2, (Fraction(2), Fraction(-1)), "rational")
    with pytest.raises(ValidationError):
        ColorDistribution(2, (Fraction(1, 3), Fraction(1, 3)), "rational")


def test_batch_marginals_match_scalar():
    shape = TreeShape(2, 2)
    k = 3
    rows = np.array([[1, 2, 1, 2], [0, 0, 0, 0], [1, 1, 0, 0]], dtype=np.int16)
    batch = root_marginal_batch(shape, k, rows)
    for row, got in zip(rows, batch):
        expected = root_marginal(shape, k, PartialLeafColoring(k, row), backend="float")
        np.testing.assert_allclose(got, expected.as_floats(), atol=1e-12)


def test_batch_marginals_of_empty_and_non_integer_batches():
    for depth in (0, 2):
        shape = TreeShape(20, depth)
        empty = np.zeros((0, shape.leaf_count), dtype=np.int16)
        assert root_marginal_batch(shape, 3, empty).shape == (0, 3)
    # the sampled posteriors as well
    assert posterior_rows(TreeShape(20, 3), 3, 0, RandomSource(1)).shape == (0, 3)
    with pytest.raises(ValidationError):
        root_marginal_batch(TreeShape(2, 1), 3, np.array([[1.0, 2.0]]))


def test_block_count_marginals():
    # each block's set of unused colors is a sufficient statistic for the root law
    shape = TreeShape(2, 2)
    k = 3
    rows = np.array([[1, 2, 1, 2], [1, 1, 3, 3], [2, 3, 1, 1]], dtype=np.int16)
    counts = np.zeros((len(rows), 2, k), dtype=np.int16)
    for i, row in enumerate(rows):
        for block in range(2):
            for c in row[2 * block : 2 * block + 2]:
                counts[i, block, c - 1] += 1
    factors = np.moveaxis(unused_log_factors(counts == 0), -1, 0)
    got = _fold_factors(factors, shape.branching, 1)
    full = root_marginal_batch(shape, k, rows)
    np.testing.assert_allclose(got, full, atol=1e-12)
    with pytest.raises(InfeasibleBoundaryError):
        bad = counts.copy()
        bad[0, 0] = [1, 1, 1]  # a block using all colors kills its parent
        unused_log_factors(bad == 0)


# ---------------------------------------------------------------------------
# the float fold near certainty


def delta54_rows():
    """Allowed leaf rows of the Delta=54, depth-3, k=3 tree, with their exact root laws.

    In both, a child of the root sees 54 children uniform on two colors,
    so its message puts all but about 2^-53 of its mass on one color.
    First: child 0's leaves are all 1, child 1's all 2, every other leaf 3.
    Second: child 0's leaves are all 1; child 1 has grandchildren forced
    to 1 and 3, child 2 to 1 and 2; every other leaf is free.
    """
    block = 54 * 54
    first = np.full(54**3, 3, dtype=np.int16)
    first[:block] = 1
    first[block : 2 * block] = 2
    second = np.zeros(54**3, dtype=np.int16)
    second[:block] = 1
    for child, pairs in ((1, ((2, 3), (1, 2))), (2, ((2, 3), (1, 3)))):
        for grandchild, (a, b) in enumerate(pairs):
            lo = child * block + grandchild * 54
            second[lo : lo + 2] = (a, b)
    return first, second


@pytest.mark.parametrize("which, law", [(0, (0.5, 0.5, 0.0)), (1, (1.0, 0.0, 0.0))])
def test_float_fold_near_certain_messages(which, law):
    shape = TreeShape(54, 3)
    coloring = PartialLeafColoring(3, delta54_rows()[which])
    got = root_marginal(shape, 3, coloring, backend="float").as_floats()
    exact = root_marginal(shape, 3, coloring, backend="rational").as_floats()
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, law, rtol=0, atol=1e-12)


def test_block_fold_near_certain_messages():
    # the first row's bottom blocks are monochrome: each leaves two colors unused
    first = delta54_rows()[0]
    unused = np.ones((1, 54 * 54, 3), dtype=bool)
    unused[0, np.arange(54 * 54), first[::54] - 1] = False
    got = _fold_factors(np.moveaxis(unused_log_factors(unused), -1, 0), 54, 2)
    np.testing.assert_allclose(got[0], [0.5, 0.5, 0.0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the color-major fold against the row-major one


def rowmajor_normalized(logw):
    """Rows of log-weights -> probability rows; all -inf rows are infeasible."""
    mx = logw.max(axis=-1)
    if np.isneginf(mx).any():
        raise InfeasibleBoundaryError("a leaf coloring admits no proper extension")
    p = np.exp(logw - mx[..., np.newaxis])
    p /= p.sum(axis=-1, keepdims=True)
    return p


def rowmajor_fold(factors, branching, depth):
    """Oracle for _fold_factors: the same fold over (batch, width, k)
    log-factors, with numpy reductions over the trailing color axis and
    1 - p_c as a product with 1 - I."""
    others = 1.0 - np.eye(factors.shape[-1])
    logw = factors.reshape(factors.shape[0], -1, branching, factors.shape[-1]).sum(axis=2)
    for _ in range(depth - 1):
        with np.errstate(divide="ignore"):
            logw = np.log(rowmajor_normalized(logw) @ others)
        logw = logw.reshape(logw.shape[0], -1, branching, logw.shape[-1]).sum(axis=2)
    return rowmajor_normalized(logw[:, 0, :])


def assert_folds_agree(got, expected, k):
    # bitwise at k = 3, where each 1 - p_c is one sum of two terms
    if k == 3:
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("branching, depth, k", [
    (2, 8, 3), (3, 4, 3), (20, 2, 3), (2, 6, 4), (3, 3, 5), (2, 4, 8), (9, 2, 8),
])
def test_batch_fold_matches_rowmajor_fold(branching, depth, k):
    shape = TreeShape(branching, depth)
    rows = sample_leaf_rows(shape, k, 300, RandomSource(depth))
    rows[np.random.default_rng(k).random(rows.shape) < 0.3] = STAR
    with np.errstate(divide="ignore"):
        log_table = np.log1p(-np.vstack([np.full(k, 1.0 / k), np.eye(k)]))
    expected = rowmajor_fold(log_table[rows], branching, depth)
    assert_folds_agree(root_marginal_batch(shape, k, rows), expected, k)


@pytest.mark.parametrize("branching, k, height, depth, n", [
    (2, 3, 4, 12, 20), (20, 3, 2, 4, 2), (3, 4, 2, 5, 10), (2, 5, 3, 7, 20), (2, 4, 3, 6, 20),
])
def test_table_fold_matches_rowmajor_fold(branching, k, height, depth, n):
    # the factors of drawn table entries below broadcast colors, gathered both ways
    gen = np.random.default_rng(depth)
    table = _message_table(branching, k, height)
    colors = sample_leaf_rows(TreeShape(branching, depth - height), k, n,
                              RandomSource(height)).reshape(-1).astype(np.intp)
    entry = _table_entries(table, gen.random(colors.size))
    log_factors = table.by_color[:, : table.cdf.size].T
    rowmajor = log_factors[entry[:, np.newaxis], _color_swaps(k)[colors - 1]]
    colormajor = np.take(table.by_color, (colors - 1) * table.cdf.size + entry, axis=1)
    got = _fold_factors(colormajor.reshape(k, n, -1), branching, depth - height)
    expected = rowmajor_fold(rowmajor.reshape(n, -1, k), branching, depth - height)
    assert_folds_agree(got, expected, k)


@pytest.mark.parametrize("branching, k, depth, n", [
    (20, 3, 3, 2), (6, 5, 3, 10), (20, 8, 3, 2), (3, 8, 4, 10),
])
def test_occupancy_fold_matches_rowmajor_fold(branching, k, depth, n):
    # the posteriors summed color by color from the unused-color sets,
    # against the row-major fold of the oracle's sets of the same stream
    shape = TreeShape(branching, depth)
    unused = block_unused_sets(shape, k, n, RandomSource(k))
    expected = rowmajor_fold(unused_log_factors(unused), branching, depth - 1)
    assert_folds_agree(posterior_rows(shape, k, n, RandomSource(k)), expected, k)


def test_fold_checks_every_level():
    # with k = 2, leaves 1 and 2 leave their parent no color; two
    # monochrome blocks force the root's children apart and leave the root none
    shape = TreeShape(2, 2)
    for row in ([1, 2, 0, 0], [2, 2, 1, 1]):
        with pytest.raises(InfeasibleBoundaryError):
            root_marginal_batch(shape, 2, np.array([row], dtype=np.int16))


_SMALL_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3),
                 (8, 2), (12, 2)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_backend_matches_rational_on_allowed_colorings(data):
    delta, depth = data.draw(st.sampled_from(_SMALL_SHAPES))
    k = data.draw(st.integers(2, 5))
    shape = TreeShape(delta, depth)
    # a proper coloring drawn top-down: each vertex shifts its parent's color
    # by 1..k-1; starring leaves of it gives every allowed partial coloring
    colors = [data.draw(st.integers(1, k))]
    shifts = data.draw(st.lists(st.integers(1, k - 1), min_size=shape.vertex_count - 1,
                                max_size=shape.vertex_count - 1))
    for v, shift in enumerate(shifts, start=1):
        colors.append((colors[(v - 1) // delta] - 1 + shift) % k + 1)
    stars = data.draw(st.lists(st.booleans(), min_size=shape.leaf_count,
                               max_size=shape.leaf_count))
    row = np.where(stars, STAR, colors[-shape.leaf_count:]).astype(np.int16)
    coloring = PartialLeafColoring(k, row)
    got = root_marginal(shape, k, coloring, backend="float").as_floats()
    exact = root_marginal(shape, k, coloring, backend="rational").as_floats()
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# counting


def test_count_extensions_examples():
    assert count_extensions(TreeShape(2, 0), 3, leaves(3, 0)) == 3
    assert count_extensions(TreeShape(2, 1), 3, leaves(3, 0, 0)) == 12
    assert count_extensions(TreeShape(3, 1), 3, leaves(3, 1, 2, 3)) == 0


def test_count_extensions_matches_enumeration():
    shape = TreeShape(2, 1)
    k = 3
    for idx in range(4**2):
        row = [(idx // 4**j) % 4 for j in range(2)]
        x = PartialLeafColoring(k, np.array(row, dtype=np.int16))
        count = 0
        for combo in product(range(1, k + 1), repeat=3):
            if combo[0] in (combo[1], combo[2]):
                continue
            if all(r == STAR or combo[1 + i] == r for i, r in enumerate(row)):
                count += 1
        assert count_extensions(shape, k, x) == count


def as_lists(levels):
    return [[list(vec) for vec in level] for level in levels]


def int64_levels(bottom_max: int, k: int, branching: int, height: int) -> int:
    """How many levels above the bottom the array body may take in int64."""
    bound, levels = bottom_max, 0
    while levels < height and (k * bound) ** branching < 2**63:
        bound, levels = (k * bound) ** branching, levels + 1
    return levels


# the array body leaves int64 at level 5 of (2, 10, 3), 3 of (3, 6, 4), 2 of
# (5, 3, 6) and 3 of (4, 5, 5); (16, 2, 16) leaves it at once: 16**16 = 2**64
@pytest.mark.parametrize(
    "branching, depth, k", [(2, 10, 3), (3, 6, 4), (5, 3, 6), (4, 5, 5), (16, 2, 16)]
)
def test_count_levels_bodies_agree_on_both_sides_of_the_threshold(branching, depth, k):
    switch = int64_levels(1, k, branching, depth)
    assert switch < depth and (switch > 0) == (branching < 16)
    rng = np.random.default_rng(branching * 100 + k)
    largest = 0
    for trial in range(3):
        bottom = (rng.random((branching**depth, k)) < 0.6).astype(np.int64)
        bottom[rng.random(len(bottom)) < 0.2] = 1  # STAR: every color allowed
        bottom[rng.integers(len(bottom), size=trial)] = 0  # no color allowed
        for height in range(depth + 1):
            rows = bottom[: branching**height]
            expected = _count_levels_list(rows.tolist(), branching, height)
            got = _count_levels_array(rows, branching, height)
            assert as_lists(got) == expected, (trial, height)
            assert all(type(x) is int for level in got for vec in level for x in vec)
            assert as_lists(count_levels(rows, branching, height)) == expected
            assert as_lists(count_levels(rows.tolist(), branching, height)) == expected
            largest = max(largest, *(x for level in expected for vec in level for x in vec))
    assert largest >= 2**63  # counts outgrow int64 above the switch: a late one would wrap
    if branching < 16:  # (16, 2, 16) tests the array body past int64 at once
        assert branching**depth >= _ARRAY_BODY_MIN_VECTORS > branching


@pytest.mark.parametrize("scale", [1, 2**20, 2**40, 2**62, 2**70])
def test_count_levels_array_body_on_count_bottoms(scale):
    # a heat-bath block with 16 or more children hands the array body its
    # children's counts, not 0/1 vectors, some past int64 and as lists
    rng = np.random.default_rng(16)
    bottom = [[int(x) * scale for x in row] for row in rng.integers(0, 1000, size=(256, 5))]
    for height, rows in ((0, bottom[:16]), (1, bottom[:16]), (2, bottom)):
        expected = _count_levels_list(rows, 16, height)
        got = _count_levels_array(rows, 16, height)
        assert as_lists(got) == expected, height
        assert all(type(x) is int for level in got for vec in level for x in vec)


def test_count_levels_all_star_counts_exceed_int64():
    # an all-STAR tree has k (k-1)^(V-1) proper colorings: 3 * 2^2046 here
    shape, k = TreeShape(2, 10), 3
    assert shape.leaf_count >= _ARRAY_BODY_MIN_VECTORS
    total = k * (k - 1) ** (shape.vertex_count - 1)
    assert total > 2**63
    top = count_levels(np.ones((shape.leaf_count, k), dtype=np.int64), 2, 10)[-1][0]
    assert sum(top) == total
    stars = PartialLeafColoring(k, np.zeros(shape.leaf_count, dtype=np.int16))
    assert count_extensions(shape, k, stars) == total


@pytest.mark.parametrize("branching, depth, k", [(2, 5, 3), (3, 3, 4)])
def test_counting_routes_above_the_threshold_match_the_list_body(
    monkeypatch, branching, depth, k
):
    shape = TreeShape(branching, depth)
    assert shape.leaf_count >= _ARRAY_BODY_MIN_VECTORS
    rng = np.random.default_rng(depth)
    rows = [rng.integers(0, k + 1, size=shape.leaf_count) for _ in range(3)]
    rows.append(sample_leaf_rows(shape, k, 1, RandomSource(depth))[0])
    vertices = [0, 1, branching + 1, shape.vertex_count - 1]

    def run():
        out = []
        for row in rows:
            x = PartialLeafColoring(k, row)
            out.append(count_extensions(shape, k, x))
            for u in vertices:
                kid = None if shape.is_leaf(u) else u * branching + 1
                for rc, pc in [(None, None), (kid, None), (None, 2)]:
                    try:
                        dist = vertex_conditional_marginal(
                            shape, k, x, u, removed_child=rc, parent_color=pc
                        )
                        out.append(weights(dist))
                    except InfeasibleBoundaryError:
                        out.append(None)
        return out

    array_body = run()
    monkeypatch.setattr(exact_engine, "_ARRAY_BODY_MIN_VECTORS", shape.leaf_count + 1)
    assert run() == array_body
    assert any(value is not None for value in array_body[1:])


# ---------------------------------------------------------------------------
# conditional marginal at interior vertices


def test_conditional_root_degenerate():
    shape = TreeShape(2, 2)
    x = leaves(3, 1, 2, 0, 0)
    assert weights(vertex_conditional_marginal(shape, 3, x, 0)) == weights(
        root_marginal(shape, 3, x)
    )


def test_conditional_examples():
    # removing the leaf that held the 2 leaves a 2-vertex path
    dist = vertex_conditional_marginal(TreeShape(2, 1), 3, leaves(3, 1, 2), 0, removed_child=2)
    assert weights(dist) == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    dist = vertex_conditional_marginal(
        TreeShape(2, 1), 4, leaves(4, 0, 0), 0, parent_color=1
    )
    assert weights(dist) == (Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_conditional_matches_enumeration():
    rng = np.random.default_rng(11)
    for delta, depth, k in [(2, 1, 3), (2, 2, 3), (3, 1, 4)]:
        shape = TreeShape(delta, depth)
        b = shape.branching
        for _ in range(4):
            row = rng.integers(0, k + 1, size=shape.leaf_count).astype(np.int16)
            x = PartialLeafColoring(k, row)
            for u in range(shape.vertex_count):
                first_child = u * b + 1 if not shape.is_leaf(u) else None
                for rc, pc in [(None, None), (first_child, None), (None, 1), (first_child, 2)]:
                    try:
                        got = vertex_conditional_marginal(
                            shape, k, x, u, removed_child=rc, parent_color=pc
                        )
                    except InfeasibleBoundaryError:
                        continue
                    expected = enumerate_conditional(
                        shape, k, x, u, removed_child=rc, parent_color=pc
                    )
                    assert weights(got) == expected, (delta, depth, k, row, u, rc, pc)


def test_conditional_validation():
    shape = TreeShape(2, 1)
    x = leaves(3, 0, 0)
    with pytest.raises(ValidationError):
        vertex_conditional_marginal(shape, 3, x, 0, removed_child=5)
    with pytest.raises(ValidationError):
        vertex_conditional_marginal(shape, 3, x, 0, parent_color=9)


# ---------------------------------------------------------------------------
# distances


def test_p_max_and_tv():
    uniform = ColorDistribution(3, (Fraction(1, 3),) * 3, "rational")
    point = ColorDistribution(3, (Fraction(0), Fraction(0), Fraction(1)), "rational")
    half = ColorDistribution(3, (Fraction(1, 2), Fraction(1, 2), Fraction(0)), "rational")
    assert p_max(uniform) == Fraction(1, 3)
    assert p_max(point) == 1
    assert p_max(half) == Fraction(1, 2)
    assert tv_distance(uniform, uniform) == 0
    assert tv_distance(point, half) == 1  # disjoint supports
    assert tv_distance(uniform, half) == Fraction(1, 3)
    with pytest.raises(ValidationError):
        tv_distance(uniform, ColorDistribution(2, (Fraction(1, 2),) * 2, "rational"))


def test_tv_root_examples():
    shape = TreeShape(2, 1)
    x = leaves(3, 1, 2)
    assert tv_root(shape, 3, x, x) == 0
    assert tv_root(shape, 3, x, leaves(3, 2, 1)) == 0  # both force root 3
    assert tv_root(shape, 3, leaves(3, 1, 1), leaves(3, 2, 2)) == Fraction(1, 2)
    with pytest.raises(InfeasibleBoundaryError):
        tv_root(TreeShape(3, 1), 3, leaves(3, 1, 2, 3), leaves(3, 0, 0, 0))


# ---------------------------------------------------------------------------
# exact bias / down-up quantities


DEPTH0_BIAS = {3: (Fraction(4, 9), Fraction(2, 3)), 4: (Fraction(3, 8), Fraction(3, 4))}

# frozen: enumeration over all leaf colorings weighted by extension counts
BIAS_TABLE = {
    (2, 3, 1): (Fraction(1, 3), Fraction(5, 12)),
    (2, 3, 2): (Fraction(11, 48), Fraction(73, 320)),
    (2, 3, 3): (Fraction(5975, 36864), Fraction(197782875061, 1724746383360)),
    (2, 4, 1): (Fraction(5, 24), Fraction(7, 36)),
    (2, 4, 2): (Fraction(55, 648), Fraction(34427, 796068)),
}


def test_exact_bias_depth0():
    for k, (alpha, beta) in DEPTH0_BIAS.items():
        report = exact_bias(TreeShape(2, 0), k)
        assert report.exact
        assert set(report.alpha) == {alpha}
        assert set(report.beta) == {beta}


def test_exact_bias_frozen_table():
    for (delta, k, depth), (alpha, beta) in BIAS_TABLE.items():
        report = exact_bias(TreeShape(delta, depth), k)
        assert set(report.alpha) == {alpha}, (delta, k, depth)
        assert set(report.beta) == {beta}, (delta, k, depth)


def test_bias_sandwich_inequality():
    # beta/(k-1) <= alpha <= sqrt(beta), kept exact by squaring the right side
    for (delta, k, depth) in BIAS_TABLE:
        report = exact_bias(TreeShape(delta, depth), k)
        for alpha, beta in zip(report.alpha, report.beta):
            assert beta <= alpha * (k - 1)
            assert alpha * alpha <= beta


def enumerated_bias_tables(branching, depth, k):
    """Oracle for exact_bias and down_up_matrix: every leaf coloring X,
    weighted by its extension count, with the root law read off its counts."""
    grand_total = 0
    abs_dev = [0] * k  # sum over X of |k * omega_c - total(X)|
    cross = [[Fraction(0)] * k for _ in range(k)]  # sum of omega_c * omega_c' / total(X)
    for combo in product(range(1, k + 1), repeat=branching**depth):
        bottom = [[int(c == v) for c in range(1, k + 1)] for v in combo]
        omega = count_levels(bottom, branching, depth)[-1][0]
        total = sum(omega)
        if total == 0:
            continue
        grand_total += total
        for c in range(k):
            abs_dev[c] += abs(k * omega[c] - total)
            for c2 in range(k):
                if omega[c] and omega[c2]:
                    cross[c][c2] += Fraction(omega[c] * omega[c2], total)
    alphas = tuple(Fraction(s, k * grand_total) for s in abs_dev)
    # row c of the matrix: law of the re-inferred root given true root c
    matrix = tuple(tuple(Fraction(k, grand_total) * cell for cell in row) for row in cross)
    return alphas, matrix


@pytest.mark.parametrize("delta, k, depth", [
    (2, 5, 1), (2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 4, 2), (2, 2, 1),
])
def test_exact_bias_matches_enumeration(delta, k, depth):
    # the down-up tests in test_broadcast_sampler.py compare posterior_rows,
    # which shares _message_law with down_up_matrix, against these shapes
    alphas, matrix = enumerated_bias_tables(delta, depth, k)
    shape = TreeShape(delta, depth)
    assert exact_bias(shape, k).alpha == alphas
    assert down_up_matrix(shape, k) == matrix


def test_exact_bias_beyond_enumeration():
    # 3**16 = 4.3e7 and 3**27 = 7.6e12 leaf colorings: out of enumeration's reach
    k = 3
    for delta, depth in [(2, 4), (3, 3)]:
        report = exact_bias(TreeShape(delta, depth), k)
        for alpha, beta in zip(report.alpha, report.beta):
            assert beta <= alpha * (k - 1)
            assert alpha * alpha <= beta
    # population dynamics give 0.11383 here, Monte Carlo 0.11368 +- 0.00054
    assert abs(float(exact_bias(TreeShape(2, 4), k).alpha[0]) - 0.1137921) < 1e-7


@pytest.mark.parametrize("delta, k, height", [(2, 3, 5), (20, 50, 1)])
def test_message_law_capacity_guard(delta, k, height):
    # the guard trips before the level is built
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        _message_law(delta, k, height)
    assert time.perf_counter() - start < 5


def test_exact_bias_capacity_guard():
    with pytest.raises(CapacityError):
        exact_bias(TreeShape(2, 5), 3)


def test_down_up_matrix_depth2():
    # frozen: row c of the matrix is the down-up law started from root color c
    matrix = down_up_matrix(TreeShape(2, 2), 3)
    for i in range(3):
        assert sum(matrix[i]) == 1
        for j in range(3):
            expected = Fraction(539, 960) if i == j else Fraction(421, 1920)
            assert matrix[i][j] == expected
            assert matrix[i][j] == matrix[j][i]
