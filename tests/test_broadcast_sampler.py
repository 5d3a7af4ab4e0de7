"""Broadcast (root-down) samplers checked against exact small-instance laws."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from treecolor import (
    PartialLeafColoring,
    RandomSource,
    TreeShape,
    ValidationError,
    count_extensions,
    down_up_matrix,
    is_allowed_batch,
    is_proper,
    sample_block_counts,
    sample_down_up,
    sample_full,
    sample_leaf_rows,
    sample_leaves_given_root,
)
from treecolor.broadcast_sampler import (
    _message_law,
    _message_table,
    _support_size,
    _table_height,
    _unused_log_factors,
    _unused_slot_law,
    posterior_rows,
    sample_from_rows,
)
from treecolor.rng import integer_below
from treecolor.exact_engine import _fold_factors, count_levels, root_marginal_batch

from conftest import CHI2_P_FLOOR, chi2_pvalue, downward_leaf_law


# ---------------------------------------------------------------------------
# random source plumbing


def test_random_source_determinism():
    a = sample_leaf_rows(TreeShape(2, 3), 3, 50, RandomSource(99))
    b = sample_leaf_rows(TreeShape(2, 3), 3, 50, RandomSource(99))
    assert np.array_equal(a, b)


def test_random_source_splits_differ():
    base = RandomSource(7)
    a, b = base.split_many(2)
    assert a.path == (0,) and b.path == (1,)
    ra = sample_leaf_rows(TreeShape(2, 3), 3, 50, a)
    rb = sample_leaf_rows(TreeShape(2, 3), 3, 50, b)
    assert not np.array_equal(ra, rb)
    # rebuilding a split from scratch replays it
    again = sample_leaf_rows(TreeShape(2, 3), 3, 50, RandomSource(7).split(0))
    assert np.array_equal(ra, again)


def test_random_source_validation():
    with pytest.raises(ValidationError):
        RandomSource(-1)
    with pytest.raises(ValidationError):
        RandomSource(2**64)
    with pytest.raises(ValidationError):
        RandomSource("seed")


def test_integer_below():
    gen = np.random.default_rng(0)
    small = [integer_below(gen, 10) for _ in range(200)]
    assert set(small) <= set(range(10))
    big_bound = 3**200
    draws = [integer_below(gen, big_bound) for _ in range(50)]
    assert all(0 <= d < big_bound for d in draws)
    assert any(d > big_bound // 3 for d in draws)
    with pytest.raises(ValidationError):
        integer_below(gen, 0)


# ---------------------------------------------------------------------------
# full-coloring sampler


def test_sample_full_depth0():
    sigma = sample_full(TreeShape(2, 0), 3, RandomSource(1), root_color=2)
    assert list(sigma.values) == [2]


def test_sample_full_proper_by_construction():
    shape = TreeShape(3, 3)
    rng = RandomSource(5)
    for _ in range(20):
        sigma = sample_full(shape, 4, rng)
        assert is_proper(shape, sigma)


def test_sample_full_conditioned_root():
    shape = TreeShape(2, 1)
    rng = RandomSource(17)
    for _ in range(50):
        sigma = sample_full(shape, 3, rng, root_color=1)
        assert sigma.values[0] == 1
        assert set(sigma.values[1:]) <= {2, 3}


def test_sample_full_leaf_pair_law():
    # exact law of the two leaves of the 3-vertex tree, from extension counts
    shape = TreeShape(2, 1)
    k = 3
    total = count_extensions(shape, k, PartialLeafColoring(k, np.zeros(2, dtype=np.int16)))
    pairs = list(product(range(1, 4), repeat=2))
    probs = []
    for a, b in pairs:
        x = PartialLeafColoring(k, np.array([a, b], dtype=np.int16))
        probs.append(Fraction(count_extensions(shape, k, x), total))
    assert sum(probs) == 1
    rng = RandomSource(2024)
    counts = dict.fromkeys(pairs, 0)
    for _ in range(100_000):
        sigma = sample_full(shape, k, rng)
        counts[(int(sigma.values[1]), int(sigma.values[2]))] += 1
    p = chi2_pvalue([counts[pair] for pair in pairs], [float(q) for q in probs])
    assert p > CHI2_P_FLOOR


# ---------------------------------------------------------------------------
# leaves given the root


def test_leaves_given_root_depth0():
    x = sample_leaves_given_root(TreeShape(2, 0), 3, 1, RandomSource(3))
    assert list(x.values) == [1]


def test_leaves_given_root_depth1_pointwise():
    rng = RandomSource(31)
    hits = 0
    n = 40_000
    for _ in range(n):
        x = sample_leaves_given_root(TreeShape(2, 1), 3, 1, rng)
        if list(x.values) == [2, 3]:
            hits += 1
    # Pr[(2,3)] = 1/4
    se = (0.25 * 0.75 / n) ** 0.5
    assert abs(hits / n - 0.25) < 4 * se


def test_leaf_rows_match_exact_downward_law():
    shape = TreeShape(2, 2)
    k = 3
    law = downward_leaf_law(shape, k, 1)
    assert sum(law.values()) == 1
    rows = sample_leaf_rows(shape, k, 100_000, RandomSource(77), root_colors=1)
    keys = sorted(law)
    index = {key: i for i, key in enumerate(keys)}
    counts = np.zeros(len(keys), dtype=np.int64)
    for row in map(tuple, rows.tolist()):
        counts[index[row]] += 1
    p = chi2_pvalue(counts, [float(law[key]) for key in keys])
    assert p > CHI2_P_FLOOR


def test_leaf_rows_always_allowed():
    shape = TreeShape(3, 2)
    rows = sample_leaf_rows(shape, 4, 500, RandomSource(8))
    assert rows.shape == (500, 9)
    assert is_allowed_batch(shape, 4, rows).all()


def test_leaf_rows_vector_root_colors():
    shape = TreeShape(2, 1)
    roots = np.array([1, 2, 3, 1], dtype=np.int16)
    rows = sample_leaf_rows(shape, 3, 4, RandomSource(4), root_colors=roots)
    for row, c in zip(rows, roots):
        assert c not in row
    for bad in (np.array([0, 1]), np.array([1, 2, 3]), 1.7, np.array([1.0, 2.0])):
        with pytest.raises(ValidationError):
            sample_leaf_rows(shape, 3, 2, RandomSource(4), root_colors=bad)


# ---------------------------------------------------------------------------
# block counts (the deep-tree fast path)


def test_block_counts_shape_and_sums():
    # a bottom block of Delta leaves leaves its parent's color and between
    # max(1, k - Delta) and k - 1 colors in all unused
    shape = TreeShape(3, 2)
    for k in (4, 6):
        unused = sample_block_counts(shape, k, 200, RandomSource(12))
        assert unused.dtype == bool
        assert unused.shape == (200, 3, k)
        sizes = unused.sum(axis=2)
        assert sizes.min() >= max(1, k - 3)
        assert sizes.max() <= k - 1
    roots = np.array([1, 2, 3, 4, 4, 1], dtype=np.int16)
    unused = sample_block_counts(TreeShape(2, 1), 4, 6, RandomSource(13), root_colors=roots)
    assert unused[np.arange(6), 0, roots - 1].all()


def test_block_counts_match_materialized_law():
    # the unused-set sampler must agree with the colors materialized leaves
    # leave unused; both are compared against the same exact law
    shape = TreeShape(2, 2)
    k = 3
    law = downward_leaf_law(shape, k, 1)
    unused_law: dict[tuple, Fraction] = {}
    for row, p in law.items():
        key = tuple(
            tuple(c not in row[2 * block : 2 * block + 2] for c in range(1, k + 1))
            for block in range(2)
        )
        unused_law[key] = unused_law.get(key, Fraction(0)) + p
    keys = sorted(unused_law)
    index = {key: i for i, key in enumerate(keys)}
    sampled = sample_block_counts(shape, k, 100_000, RandomSource(51), root_colors=1)
    counts = np.zeros(len(keys), dtype=np.int64)
    for sample in sampled:
        counts[index[tuple(map(tuple, sample.tolist()))]] += 1
    p = chi2_pvalue(counts, [float(unused_law[key]) for key in keys])
    assert p > CHI2_P_FLOOR


def test_unused_slot_law_matches_ball_tally():
    # Delta balls in k - 1 bins, every assignment tallied by its empty bins
    for branching, k in [(2, 2), (5, 2), (2, 3), (4, 3), (3, 4), (5, 4), (2, 5), (3, 6)]:
        bins = k - 1
        tally = [0] * bins
        for balls in product(range(bins), repeat=branching):
            tally[bins - len(set(balls))] += 1
        law, cdf = _unused_slot_law(branching, k)
        assert law == tuple(Fraction(t, bins**branching) for t in tally)
        assert cdf[-1] == 1.0


def test_block_counts_depth0_rejected():
    with pytest.raises(ValidationError):
        sample_block_counts(TreeShape(2, 0), 3, 1, RandomSource(0))


# ---------------------------------------------------------------------------
# down-up resampling


def test_down_up_depth0_identity():
    for c in (1, 2, 3):
        assert sample_down_up(TreeShape(2, 0), 3, c, RandomSource(c)) == c


def test_down_up_matches_exact_law():
    shape = TreeShape(2, 1)
    k = 5
    matrix = down_up_matrix(shape, k)
    law = [float(matrix[0][j]) for j in range(k)]
    rng = RandomSource(314)
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(100_000):
        counts[sample_down_up(shape, k, 1, rng) - 1] += 1
    assert chi2_pvalue(counts, law) > CHI2_P_FLOOR


def test_down_up_uniform_mixture():
    # averaging over a uniform root color returns the uniform law
    shape = TreeShape(2, 2)
    k = 3
    rng = RandomSource(2718)
    gen = rng.generator
    n = 30_000
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(n):
        c = int(gen.integers(1, k + 1))
        counts[sample_down_up(shape, k, c, rng) - 1] += 1
    se = (1 / k * (1 - 1 / k) / n) ** 0.5
    for c in range(k):
        assert abs(counts[c] / n - 1 / k) < 3 * se + 1e-12


# ---------------------------------------------------------------------------
# exact message tables and the posterior route


def normalized(vec) -> tuple:
    total = sum(vec)
    return tuple(Fraction(x, total) for x in vec)


@pytest.mark.parametrize("branching, k, height", [
    (2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 4, 2), (2, 2, 1), (3, 2, 3),
])
def test_message_tables_match_enumerated_counts(branching, k, height):
    # the law of the root's normalized counts over every broadcast from root 1
    expected: dict[tuple, Fraction] = {}
    for row, p in downward_leaf_law(TreeShape(branching, height), k, 1).items():
        bottom = [[int(c == v) for c in range(1, k + 1)] for v in row]
        key = normalized(count_levels(bottom, branching, height)[-1][0])
        expected[key] = expected.get(key, Fraction(0)) + p
    entries, denominator = _message_law(branching, k, height)
    got = {normalized(vec): Fraction(w, denominator) for vec, w in entries}
    assert got == expected
    assert len(entries) == _support_size(branching, k, height)
    # the float table is the exact one rounded once per entry
    cdf, log_factors, messages = _message_table(branching, k, height)
    cumulative = np.cumsum([Fraction(w, denominator) for _, w in entries])
    assert cdf.tolist() == [float(c) for c in cumulative]
    assert cdf[-1] == 1.0
    exact = [normalized(vec) for vec, _ in entries]
    assert messages.tolist() == [[float(m) for m in msg] for msg in exact]
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(log_factors, np.log1p(-messages), rtol=1e-15, atol=0)


def test_height1_support_closed_form():
    for branching, k in [(2, 3), (3, 5), (2, 6), (4, 4), (5, 2)]:
        assert _support_size(branching, k, 1) == len(_message_law(branching, k, 1)[0])


def test_table_heights():
    assert [_table_height(2, 3, depth) for depth in (0, 1, 3, 4, 12)] == [0, 1, 3, 4, 4]
    assert _table_height(20, 3, 5) == 2
    assert _table_height(2, 5, 12) == 3
    assert _table_height(20, 8, 5) == _table_height(20, 9, 5) == 1
    # two colors leave one message per height, so only the depth stops the choice
    assert _table_height(3, 2, 40) == 40


def two_sample_pvalue(first: np.ndarray, second: np.ndarray, bins: int = 6) -> float:
    """Chi-square homogeneity p-value of two samples of posterior rows, binned
    jointly on their first two columns by the pooled quantiles.  Rows are
    rounded first, so that a value both routes reach falls in one bin."""
    first, second = np.round(first, 9), np.round(second, 9)
    cells = []
    pooled = np.vstack([first, second])
    for column in (0, 1):
        edges = np.unique(np.quantile(pooled[:, column], np.linspace(0, 1, bins + 1)[1:-1]))
        cells.append([np.searchsorted(edges, rows[:, column]) for rows in (first, second)])
    table = np.zeros((2, (bins + 1) ** 2), dtype=np.int64)
    for sample in (0, 1):
        index = cells[0][sample] * (bins + 1) + cells[1][sample]
        table[sample] += np.bincount(index, minlength=table.shape[1])
    table = table[:, table.sum(axis=0) > 0]
    _, p, _, _ = stats.chi2_contingency(table)
    return p


def test_posterior_rows_match_batch_marginals():
    n = 20_000
    for branching, k, depth, root in [
        (2, 3, 3, 2),      # depth below the table height 4
        (2, 3, 4, None),   # depth equal to it
        (2, 3, 6, 3),      # two levels folded above it
        (6, 8, 3, 2),      # table height 1: the occupancy law
    ]:
        shape = TreeShape(branching, depth)
        rows = posterior_rows(shape, k, n, RandomSource(9 + depth), root_colors=root)
        assert rows.shape == (n, k)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        leaf_rows = sample_leaf_rows(shape, k, n, RandomSource(90 + depth), root_colors=root)
        reference = root_marginal_batch(shape, k, leaf_rows)
        assert two_sample_pvalue(rows, reference) > CHI2_P_FLOOR


def test_posterior_rows_at_height1_are_block_counts():
    # the occupancy draw of `sample_block_counts`, then the log(1 - 1/s) fold
    shape = TreeShape(6, 3)
    unused = sample_block_counts(shape, 8, 50, RandomSource(4), root_colors=5)
    expected = _fold_factors(_unused_log_factors(unused), 6, 2)
    got = posterior_rows(shape, 8, 50, RandomSource(4), root_colors=5)
    assert np.array_equal(got, expected)
    # depth 1: the root's message is uniform on its unused colors
    unused = sample_block_counts(TreeShape(6, 1), 8, 50, RandomSource(5))[:, 0]
    got = posterior_rows(TreeShape(6, 1), 8, 50, RandomSource(5))
    assert np.array_equal(got, unused / unused.sum(axis=1, keepdims=True))


def test_posterior_rows_depth0():
    rows = posterior_rows(TreeShape(2, 0), 3, 10, RandomSource(6), root_colors=3)
    np.testing.assert_allclose(rows, np.tile([0.0, 0.0, 1.0], (10, 1)))


def test_sample_from_rows_law():
    probs = np.array([0.5, 0.25, 0.25])
    rows = np.tile(probs, (60_000, 1))
    draws = sample_from_rows(rows, np.random.default_rng(13))
    counts = np.bincount(draws, minlength=4)[1:]
    assert chi2_pvalue(counts, probs) > CHI2_P_FLOOR


def test_subtree_marginal_matches_shallower_law():
    # a depth-1 subtree of an unconditioned depth-2 sample behaves like a
    # fresh depth-1 sample
    deep = TreeShape(2, 2)
    k = 3
    n = 60_000
    rows = sample_leaf_rows(deep, k, n, RandomSource(18))[:, :2]
    shallow = sample_leaf_rows(TreeShape(2, 1), k, n, RandomSource(19))
    pairs = list(product(range(1, k + 1), repeat=2))
    index = {pair: i for i, pair in enumerate(pairs)}
    table = np.zeros((2, len(pairs)), dtype=np.int64)
    for row in map(tuple, rows.tolist()):
        table[0, index[row]] += 1
    for row in map(tuple, shallow.tolist()):
        table[1, index[row]] += 1
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > CHI2_P_FLOOR
