"""Broadcast (root-down) samplers checked against exact small-instance laws."""
from __future__ import annotations

import hashlib
import tracemalloc
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
    initial_state,
    is_allowed_batch,
    is_proper,
    sample_down_up,
    sample_full,
    sample_leaf_rows,
    sample_leaves_given_root,
)
from treecolor.broadcast_sampler import (
    _level_at,
    _table_entries,
    _unused_by_color,
    posterior_rows,
    sample_from_rows,
)
from treecolor.couplings import estimate_alpha
from treecolor.rng import integer_below, word_below
from treecolor.exact_engine import (
    _color_swaps,
    _fold_factors,
    _message_law,
    _message_table,
    _support_size,
    _table_height,
    _unused_slot_law,
    count_levels,
    root_marginal_batch,
)

from conftest import (
    CHI2_P_FLOOR,
    block_unused_sets,
    chi2_pvalue,
    downward_leaf_law,
    unused_log_factors,
)


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


class StubGenerator:
    """Records each `integers` call; answers high - 1, or zeros for a batch."""

    def __init__(self):
        self.calls = []

    def integers(self, low, high, size=None, dtype=None):
        self.calls.append((low, high, size))
        return high - 1 if size is None else np.zeros(size, dtype=np.uint64)


def test_word_below_takes_words_under_the_largest_multiple():
    limit = 2**64 - 2**64 % 10  # the largest multiple of 10 in 64 bits
    gen = StubGenerator()
    for word in (0, 12345, limit - 1):
        assert word_below(gen, word, 10) == word % 10
    assert word_below(gen, 2**64 - 1, 1) == 0
    assert word_below(gen, 2**64 - 1, 2**64) == 2**64 - 1
    assert gen.calls == []


def test_word_below_falls_back_to_a_fresh_draw():
    limit = 2**64 - 2**64 % 10
    gen = StubGenerator()
    for word in (limit, 2**64 - 1):  # word % 10 would be 0 and 5
        assert word_below(gen, word, 10) == 9
    assert gen.calls == [(0, 10, None), (0, 10, None)]
    # no multiple of a bound above 2**64 fits in a word
    for n in (2**64 + 1, 3**200):
        gen = StubGenerator()
        assert word_below(gen, 5, n) == 0
        assert gen.calls
    with pytest.raises(ValidationError):
        word_below(StubGenerator(), 3, 0)


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


# fixed draws: `dynamics` chains start from `initial_state`, so their output
# per seed depends on these staying byte-identical; two draws per source pin
# where each draw leaves the stream
PINNED_FULL = [
    ((2, 3, 3), None, [[2, 1, 1, 3, 3, 2, 3, 2, 1, 2, 2, 1, 1, 1, 1],
                       [3, 2, 2, 3, 3, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3]]),
    ((2, 3, 3), 2, [[2, 3, 1, 1, 1, 3, 3, 2, 3, 3, 2, 2, 2, 1, 1],
                    [2, 1, 1, 3, 2, 3, 3, 2, 2, 1, 1, 1, 1, 1, 2]]),
    ((3, 2, 4), None, [[2, 1, 1, 3, 4, 2, 3, 4, 2, 2, 4, 2, 4],
                       [3, 4, 4, 4, 1, 1, 2, 1, 3, 1, 1, 2, 3]]),
    ((3, 2, 4), 2, [[2, 1, 3, 1, 3, 2, 4, 1, 2, 4, 2, 2, 4],
                    [2, 4, 4, 3, 3, 3, 3, 1, 1, 1, 2, 1, 4]]),
]


@pytest.mark.parametrize("tree, root, expected", PINNED_FULL)
def test_sample_full_pinned_draws(tree, root, expected):
    branching, depth, k = tree
    rng = RandomSource(100 + branching)
    got = [sample_full(TreeShape(branching, depth), k, rng, root_color=root) for _ in range(2)]
    assert [sigma.values.tolist() for sigma in got] == expected


@pytest.mark.parametrize("tree, expected", [
    ((2, 3, 3), [[3, 1, 1, 3, 2, 2, 2, 2, 1, 1, 3, 3, 1, 1, 3],
                 [3, 2, 1, 3, 1, 2, 2, 1, 1, 2, 3, 3, 1, 3, 3]]),
    ((3, 2, 4), [[3, 4, 4, 1, 2, 2, 3, 3, 3, 1, 2, 3, 3],
                 [3, 2, 1, 2, 3, 4, 1, 4, 3, 3, 3, 4, 1]]),
])
def test_initial_state_pinned_draws(tree, expected):
    branching, depth, k = tree
    rng = RandomSource(200 + branching)
    got = [initial_state(TreeShape(branching, depth), k, rng) for _ in range(2)]
    assert [state.coloring.values.tolist() for state in got] == expected


@pytest.mark.parametrize("tree, expected", [
    ((2, 3, 3), [[1, 2, 2, 1, 3, 3, 2, 2], [2, 2, 2, 1, 2, 1, 2, 3]]),
    ((3, 2, 4), [[1, 3, 3, 3, 4, 3, 2, 4, 4], [3, 3, 1, 4, 4, 2, 3, 3, 2]]),
])
def test_leaves_given_root_pinned_draws(tree, expected):
    branching, depth, k = tree
    rng = RandomSource(300 + branching)
    got = [sample_leaves_given_root(TreeShape(branching, depth), k, 3, rng) for _ in range(2)]
    assert [x.values.tolist() for x in got] == expected


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
# the bottom blocks' unused-color sets (the occupancy draw)


def test_block_counts_shape_and_sums():
    # a bottom block of Delta leaves leaves its parent's color and between
    # max(1, k - Delta) and k - 1 colors in all unused
    shape = TreeShape(3, 2)
    for k in (4, 6):
        unused = block_unused_sets(shape, k, 200, RandomSource(12))
        assert unused.dtype == bool
        assert unused.shape == (200, 3, k)
        sizes = unused.sum(axis=2)
        assert sizes.min() >= max(1, k - 3)
        assert sizes.max() <= k - 1
    roots = np.array([1, 2, 3, 4, 4, 1], dtype=np.int16)
    unused = block_unused_sets(TreeShape(2, 1), 4, 6, RandomSource(13), root_colors=roots)
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
    sampled = block_unused_sets(shape, k, 100_000, RandomSource(51), root_colors=1)
    counts = np.zeros(len(keys), dtype=np.int64)
    for sample in sampled:
        counts[index[tuple(map(tuple, sample.tolist()))]] += 1
    p = chi2_pvalue(counts, [float(unused_law[key]) for key in keys])
    assert p > CHI2_P_FLOOR


def test_block_counts_pinned_draws():
    # `posterior_rows` at height 1 draws the same sets from the same stream,
    # so its rows per seed depend on this draw staying byte-identical
    unused = block_unused_sets(TreeShape(4, 2), 5, 2, RandomSource(21))
    got = [[(np.flatnonzero(block) + 1).tolist() for block in sample] for sample in unused]
    assert got == [[[2], [3, 5], [2, 3, 5], [1, 2]], [[3, 5], [2, 3, 4], [1, 2, 3], [1, 3]]]


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


@pytest.mark.parametrize("depth, root", [(2, 2), (3, 3)])
def test_down_up_matches_exact_law_at_table_height(depth, root):
    # on (2, 3) the table height is the depth, so the root's message is
    # drawn straight from its table
    shape = TreeShape(2, depth)
    k = 3
    assert _table_height(2, k, depth) == depth
    law = [float(p) for p in down_up_matrix(shape, k)[root - 1]]
    rng = RandomSource(40 + depth)
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(30_000):
        counts[sample_down_up(shape, k, root, rng) - 1] += 1
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
    table = _message_table(branching, k, height)
    cdf, messages = table.cdf, table.messages
    log_factors = table.by_color[:, : cdf.size].T
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
    # the sets `block_unused_sets` scatters, then the log(1 - 1/s) fold
    for branching, k, depth, n, roots in [
        (6, 8, 3, 50, 5),
        (20, 5, 3, 3, None),
        (20, 8, 3, 1, 2),
        (20, 8, 3, 4, np.array([8, 1, 3, 3], dtype=np.int16)),
        (20, 5, 2, 5, np.array([2, 5, 1, 4, 2], dtype=np.int16)),
        (20, 4, 3, 5, None),   # nearly every block has u = 0: its bins are -inf
        (3, 8, 4, 10, None),   # every block has u > 0
        (20, 8, 2, 6, np.array([8, 1, 3, 3, 2, 7], dtype=np.int16)),  # the root's children
        (20, 80, 3, 2, None),  # k > 64
        (20, 67, 2, 3, np.array([67, 1, 40], dtype=np.int16)),
    ]:
        shape = TreeShape(branching, depth)
        unused = block_unused_sets(shape, k, n, RandomSource(4), root_colors=roots)
        if (branching, k) == (20, 4):
            assert (unused.sum(axis=-1) == 1).mean() > 0.99
        if (branching, k) == (3, 8):
            assert (unused.sum(axis=-1) > 1).all()
        factors = np.moveaxis(unused_log_factors(unused), -1, 0)
        expected = _fold_factors(factors, branching, depth - 1)
        got = posterior_rows(shape, k, n, RandomSource(4), root_colors=roots)
        assert np.array_equal(got, expected)
    # depth 1: the root's message is uniform on its unused colors
    for branching, k in [(6, 8), (40, 70)]:
        shape = TreeShape(branching, 1)
        unused = block_unused_sets(shape, k, 50, RandomSource(5))[:, 0]
        got = posterior_rows(shape, k, 50, RandomSource(5))
        assert np.array_equal(got, unused / unused.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("tree, k, bound_mib", [((20, 5), 8, 6.5), ((20, 4), 80, 2.0)])
def test_posterior_rows_height1_peak_memory(tree, k, bound_mib):
    # traced peaks of one sample were 5.19 and 1.61 MiB with the sets drawn
    # color by color, and 7.76 and 21.2 MiB when every unused (vertex,
    # color) pair was listed; the bounds leave a 25% margin over the first
    shape = TreeShape(*tree)
    posterior_rows(shape, k, 1, RandomSource(2))  # fill the law caches
    tracemalloc.start()
    try:
        posterior_rows(shape, k, 1, RandomSource(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_unused_by_color_contract():
    # the own color is always unused, s counts the set, u = 0 exactly when
    # the own color is alone in it, and each color's busy vertices come in
    # increasing order; the sets are those the test oracle draws
    for branching, k, depth, idle_and_busy in [
        (6, 5, 3, True), (20, 8, 3, True), (20, 4, 2, False), (3, 80, 3, False), (4, 2, 3, False),
    ]:
        shape = TreeShape(branching, depth)
        gen = RandomSource(k).generator
        parents = _level_at(k, branching, depth - 1, 3, gen, None)
        own = parents.reshape(-1) - 1
        idle, busy, sizes, held = _unused_by_color(parents, k, branching, gen)
        assert held.shape == (k, busy.size) and sizes.shape == busy.shape
        assert np.array_equal(np.union1d(idle, busy), np.arange(own.size))
        assert (idle.size > 0 and busy.size > 0) == idle_and_busy
        unused = np.zeros((own.size, k), dtype=bool)
        unused[idle, own[idle]] = True
        unused[busy] = held.T
        assert unused[np.arange(own.size), own].all()
        assert np.array_equal(unused[busy].sum(axis=1), sizes)
        assert np.array_equal(unused.sum(axis=1) == 1, np.isin(np.arange(own.size), idle))
        for vertices in [idle, busy] + [busy[holds] for holds in held]:
            assert (np.diff(vertices) > 0).all()
        oracle = block_unused_sets(shape, k, 3, RandomSource(k))
        assert np.array_equal(unused, oracle.reshape(-1, k))


# (branching, k, height) of every table the tests and the benchmark draw from
DRAWN_TABLES = [(2, 3, 0), (2, 3, 2), (2, 3, 3), (2, 3, 4), (3, 3, 2), (3, 3, 3), (20, 3, 2),
                (2, 4, 2), (2, 4, 3), (3, 4, 2), (2, 5, 2), (2, 5, 3), (3, 5, 2),
                (3, 2, 3)]


@pytest.mark.parametrize("branching, k, height", DRAWN_TABLES)
def test_table_draw_is_the_binary_search(branching, k, height):
    # the guide-table draw returns the entry searchsorted(side="right") does
    table = _message_table(branching, k, height)
    cdf = table.cdf
    assert cdf[-1] == 1.0 and (np.diff(cdf) >= 0).all()
    edges = np.arange(table.guide.size) / table.guide.size
    x = np.concatenate([
        [0.0, 1 - 2.0**-53],
        cdf, np.nextafter(cdf, 0),
        edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
        np.random.default_rng(height).random(10**6),
    ])
    x = x[(x >= 0) & (x < 1)]
    assert np.array_equal(_table_entries(table, x), np.searchsorted(cdf, x, side="right"))
    # the color-major gather reads the rows the color swaps give
    colors = np.arange(10 * k) % k + 1
    entry = _table_entries(table, x[: colors.size])
    log_factors = table.by_color[:, : cdf.size].T
    swapped = log_factors[entry[:, np.newaxis], _color_swaps(k)[colors - 1]]
    gathered = np.take(table.by_color, (colors - 1) * cdf.size + entry, axis=1)
    assert np.array_equal(gathered, swapped.T)


# SHA-256 of posterior_rows(...).tobytes().  The depth >= 5, k = 3 digests are
# those of a binary search over each table's CDF and a row-major fold; the
# depth-5, k = 8 one is the color-major fold's, whose sums of 1 - m_c round
# differently at k >= 4.  The depth-1 rows have no fold: each is 1/s on the s
# colors the root's block leaves unused.  The k > 64 digests were taken from
# the sums over a list of (vertex, color) pairs, which the per-color sums
# reproduce.  The table-route digests at k >= 4 and depth >= h + 2 were
# taken from a gather of the whole (k, vertices) factor array, which the
# per-color gather into sibling sums reproduces.
PINNED_POSTERIORS = [
    ((2, 12), 3, 500, 8, None,
     "585e1c17c1da704feffa0bd9ac174480c2a0ca23441c5f651c2d142a2c0c0759"),
    ((20, 5), 3, 10, 21, None,
     "977d8aea1fe7cea41c207a7d362c08b41cbc93da9a3f1a3989abaeeb2e4f34f8"),
    ((2, 6), 3, 7, 5, (1, 3, 2, 2, 3, 1, 1),
     "90632790448a4d2786abbc06c2093bfcacc72ba0797529dc62b5776d300c5cab"),
    ((20, 5), 8, 1, 3, None,
     "8c634521ece1eda2974dba30e8b489f7b71b06dcbb5422da308c0940136155c1"),
    ((2, 1), 3, 500, 8, None,
     "65ac347ef45f1eb93ff59e2b8d3253aff83450ba03875cf0e2de65594bdfb1e9"),
    ((6, 1), 8, 50, 5, (8, 1, 3, 3, 2) * 10,
     "ac34a260aa55c7757bb2bec266b41035558e98d84eef34f36a32c3202c1f1e4b"),
    ((20, 1), 5, 7, 3, None,
     "8f329704a7f94b2716ad40b3a752278834b7623ba62106f159db08aa0eaa0666"),
    ((20, 3), 4, 9, 12, None,
     "ead1a43a22fd7715ebe6a9ba2d278cb05e7dc378baebc877cac5b8c193f67707"),
    ((3, 4), 8, 40, 14, None,
     "5761045b9a5877b35e99592d6ee977d19cddc5a40efe02742cf0455c1e90b1cd"),
    ((20, 2), 8, 6, 15, (8, 1, 3, 3, 2, 7),
     "e37d8c74fcedaadc20da03d63902e6f85d19c7a5e676665f725c224cbdce0fca"),
    ((20, 3), 80, 2, 16, None,
     "73bb4f5e21b08408694c4f61361022f9ff3d2eeaaf13b1f0e883121f354c72af"),
    ((40, 1), 70, 5, 17, None,
     "fd48d1a6934769057bc53631da57635b60ceac2835666d9cd40d22ea985b203b"),
    ((20, 2), 67, 3, 18, (67, 1, 40),
     "036e2451551585d680916c80241e4aba78e36e630270c6016364c45b23262300"),
    ((3, 7), 4, 40, 19, None,
     "63ed1b2867d1b8b641834ec7069fa132a2c2fea9fb155ef8ada162375f16e498"),
    ((2, 9), 5, 25, 20, (1, 5, 2, 4, 3) * 5,
     "b029204586fef44d42fc8459f91318faf0fd409ebe71d2e4fe3ef629b92ec321"),
    ((2, 8), 4, 30, 22, None,
     "5be938bac0e3167cc39a59dce3e809afdf99889356a0b27167b925d61f301026"),
    ((3, 6), 5, 12, 23, None,
     "ae77a7d85176891f4bf31d33735b45987ac05bae5075f5ed5e50b67807b5d061"),
]


@pytest.mark.parametrize("tree, k, n, seed, roots, digest", PINNED_POSTERIORS)
def test_posterior_rows_pinned_draws(tree, k, n, seed, roots, digest):
    roots = None if roots is None else np.array(roots, dtype=np.int16)
    rows = posterior_rows(TreeShape(*tree), k, n, RandomSource(seed), root_colors=roots)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("roots, digest", [
    (None, "25116cc0f831bd54223306f4b088769ba86696ffe051185f506b62370900eac0"),
    ((1, 2, 3) * 16 + (1, 2),
     "2c4d89c4a8ef4a82a1a08623d216f09b4b1a1b7e60ec726b42ce58420362a5cb"),
])
def test_sample_leaf_rows_pinned_over_ten_levels(roots, digest):
    # SHA-256 of the int16 rows: ten `_next_level` draws in a row
    roots = None if roots is None else np.array(roots, dtype=np.int16)
    rows = sample_leaf_rows(TreeShape(2, 10), 3, 50, RandomSource(24), root_colors=roots)
    assert rows.dtype == np.int16 and rows.shape == (50, 1024)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_posterior_rows_table_route_peak_memory():
    # the depth-12 sweep draw of narrow-deep: height-4 tables below depth
    # 8, then 8 fold levels.  The traced peak read 4.27 MiB with the
    # factors gathered color by color into sibling sums and each level
    # normalized in place, and 9.04 MiB with the (k, vertices) factor array
    # and a fresh array per normalization; the bound leaves a 40% margin
    shape = TreeShape(2, 12)
    posterior_rows(shape, 3, 500, RandomSource(2))  # fill the table cache
    tracemalloc.start()
    try:
        posterior_rows(shape, 3, 500, RandomSource(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * 2**20


def test_estimate_alpha_pinned():
    got = estimate_alpha(TreeShape(2, 8), 3, 1, 400, RandomSource(11))
    assert (got.mean, got.stderr, got.n) == (0.026082135226725516, 0.0009924757745624808, 400)


def test_posterior_rows_depth0():
    rows = posterior_rows(TreeShape(2, 0), 3, 10, RandomSource(6), root_colors=3)
    np.testing.assert_allclose(rows, np.tile([0.0, 0.0, 1.0], (10, 1)))
    # the height-0 table is the point mass on each vertex's own color
    roots = np.array([2, 1, 3, 3, 2], dtype=np.int16)
    rows = posterior_rows(TreeShape(3, 0), 3, 5, RandomSource(7), root_colors=roots)
    assert np.array_equal(rows, np.eye(3)[roots - 1])
    no_roots = np.array([], dtype=int)
    empty = posterior_rows(TreeShape(3, 0), 4, 0, RandomSource(8), root_colors=no_roots)
    assert empty.shape == (0, 4)
    # an empty batch still checks its root colors
    with pytest.raises(ValidationError):
        posterior_rows(TreeShape(3, 2), 4, 0, RandomSource(8), root_colors=5)


def test_sample_from_rows_law():
    probs = np.array([0.5, 0.25, 0.25])
    rows = np.tile(probs, (60_000, 1))
    draws = sample_from_rows(rows, np.random.default_rng(13))
    counts = np.bincount(draws, minlength=4)[1:]
    assert chi2_pvalue(counts, probs) > CHI2_P_FLOOR


class FixedUniforms:
    """A generator stub whose every uniform is one given value."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_sample_from_rows_never_draws_a_zero_weight():
    # seven weights of 1/7 add up to 1 - 2^-52, below the largest uniform
    sevenths = np.array([[1 / 7] * 7 + [0.0]])
    assert np.cumsum(sevenths)[-1] < 1 - 2.0**-53
    halves = np.array([[0.0, 0.5, 0.5]])
    for u, expected in [(0.0, (1, 2)), (1 - 2.0**-53, (7, 3))]:
        for rows, color in zip((sevenths, halves), expected):
            assert sample_from_rows(rows, FixedUniforms(u)).tolist() == [color]


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
