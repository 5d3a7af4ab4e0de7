"""Unbiasing classifiers against a direct recursive reimplementation."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from treecolor import (
    PartialLeafColoring,
    RandomSource,
    RegimeError,
    TreeShape,
    UnbiasingParams,
    ValidationError,
    count_extensions,
    epsilon_from,
    estimate_q,
    is_allowed_batch,
    is_highly_unbiasing,
    is_unbiasing,
    sample_leaf_rows,
    star_out,
)
from treecolor import broadcast_sampler, unbiasing
from treecolor.estimators import batch_sums, proportion_estimate
from treecolor.unbiasing import classify_rows, qualifying_heights

from conftest import CHI2_P_FLOOR


def leaves(k, *values):
    return PartialLeafColoring(k, np.array(values, dtype=np.int16))


def reference_unbiasing(values, branching: int, k: int, epsilon: float) -> bool:
    """The recursive definition, written as directly as possible."""
    depth = round(math.log(len(values), branching))
    if depth == 1:
        used = {v for v in values if v != 0}
        return k - len(used) >= branching ** (epsilon / 2) - 1e-9
    span = len(values) // branching
    failed = sum(
        not reference_unbiasing(values[i * span : (i + 1) * span], branching, k, epsilon)
        for i in range(branching)
    )
    return failed <= branching ** (1 - epsilon) + 1e-9


def reference_highly(values, branching: int, k: int, epsilon: float) -> bool:
    depth = round(math.log(len(values), branching))
    for height in range(max(1, math.ceil(epsilon * depth - 1e-9)), depth + 1):
        span = branching**height
        for start in range(0, len(values), span):
            if not reference_unbiasing(values[start : start + span], branching, k, epsilon):
                return False
    return True


def all_rows(k, length):
    grids = np.meshgrid(*[np.arange(0, k + 1)] * length, indexing="ij")
    return np.stack(grids, axis=-1).reshape((k + 1) ** length, length).astype(np.int16)


# ---------------------------------------------------------------------------
# parameters


def test_epsilon_from_examples():
    assert epsilon_from(10, 20).epsilon == 1 / 3
    assert epsilon_from(7, 20).epsilon == pytest.approx(0.048506295743896866)
    assert epsilon_from(5, 2).epsilon == 1 / 3
    assert epsilon_from(3, 4).epsilon == pytest.approx(0.039720770839917874)
    with pytest.raises(RegimeError):
        epsilon_from(6, 20)
    with pytest.raises(RegimeError):
        epsilon_from(3, 20)
    with pytest.raises(ValidationError):
        epsilon_from(1, 20)


def test_params_validation():
    UnbiasingParams(Fraction(1, 3))  # the boundary itself is legal
    UnbiasingParams(0.25)
    for bad in (0, -0.1, 0.34, 1.0):
        with pytest.raises(ValidationError):
            UnbiasingParams(bad)


# ---------------------------------------------------------------------------
# base-case ingredients


def test_count_unused_colors():
    assert count_unused_colors([1, 1, 1, 1], 3) == 2
    assert count_unused_colors([1, 2, 3, 1], 3) == 0
    assert count_unused_colors([0, 0, 0, 0], 3) == 3
    assert count_unused_colors([1, 0, 2, 0], 4) == 2


def test_is_unbiasing_base_examples():
    params = UnbiasingParams(Fraction(1, 3))
    shape = TreeShape(4, 1)
    assert is_unbiasing(shape, 3, params, leaves(3, 1, 1, 1, 1))
    assert not is_unbiasing(shape, 3, params, leaves(3, 1, 2, 3, 1))


def test_is_unbiasing_step_example():
    params = UnbiasingParams(Fraction(1, 3))
    shape = TreeShape(2, 2)
    # both depth-1 blocks pass; zero failures <= 2^(2/3)
    assert is_unbiasing(shape, 3, params, leaves(3, 1, 1, 2, 2))
    # both blocks fail: two failures exceed 2^(2/3) ~ 1.587
    assert not is_unbiasing(shape, 3, params, leaves(3, 1, 2, 1, 2))
    # one failure is within the budget
    assert is_unbiasing(shape, 3, params, leaves(3, 1, 2, 1, 1))


def test_depth0_rejected():
    params = UnbiasingParams(0.3)
    with pytest.raises(ValidationError):
        is_unbiasing(TreeShape(2, 0), 3, params, leaves(3, 1))
    with pytest.raises(ValidationError):
        estimate_q(TreeShape(2, 0), 3, params, 10, RandomSource(0))


def test_matches_reference_exhaustively():
    cases = [
        (2, 1, 3, 1 / 3),
        (2, 2, 3, 1 / 3),
        (2, 2, 3, 0.25),
        (2, 3, 3, 1 / 3),
        (3, 2, 3, 0.3),
        (4, 1, 3, 1 / 3),
        (2, 2, 4, 1 / 3),
    ]
    for branching, depth, k, eps in cases:
        shape = TreeShape(branching, depth)
        params = UnbiasingParams(eps)
        rows = all_rows(k, shape.leaf_count)
        verdict = classify_rows(shape, k, params, rows)[-1][:, 0]
        for row, flag in zip(rows.tolist(), verdict):
            assert flag == reference_unbiasing(row, branching, k, eps), (row, branching, k, eps)


def test_highly_matches_reference():
    for branching, depth, k, eps in [(2, 2, 3, 1 / 3), (2, 3, 3, 1 / 3), (3, 2, 3, 0.25)]:
        shape = TreeShape(branching, depth)
        params = UnbiasingParams(eps)
        rows = all_rows(k, shape.leaf_count)
        rng = np.random.default_rng(0)
        if len(rows) > 3000:
            rows = rows[rng.choice(len(rows), 3000, replace=False)]
        for row in rows:
            x = PartialLeafColoring(k, row)
            assert is_highly_unbiasing(shape, k, params, x) == reference_highly(
                row.tolist(), branching, k, eps
            )


def test_highly_implies_unbiasing():
    shape = TreeShape(2, 3)
    params = UnbiasingParams(Fraction(1, 3))
    rows = all_rows(3, 8)
    flags = classify_rows(shape, 3, params, rows)
    top = flags[-1][:, 0]
    for i, row in enumerate(rows):
        x = PartialLeafColoring(3, row)
        if is_highly_unbiasing(shape, 3, params, x):
            assert top[i]


def test_highly_collapses_at_depth1():
    shape = TreeShape(3, 1)
    params = UnbiasingParams(0.2)
    for row in all_rows(3, 3):
        x = PartialLeafColoring(3, row)
        assert is_highly_unbiasing(shape, 3, params, x) == is_unbiasing(shape, 3, params, x)


def test_qualifying_heights():
    third = UnbiasingParams(Fraction(1, 3))
    assert qualifying_heights(TreeShape(2, 3), third) == range(1, 4)
    assert qualifying_heights(TreeShape(2, 2), third) == range(1, 3)
    assert qualifying_heights(TreeShape(2, 10), UnbiasingParams(0.3)) == range(3, 11)
    # a tie eps*depth == integer counts as qualifying (inclusive threshold)
    assert qualifying_heights(TreeShape(2, 6), third).start == 2


def test_relabeling_invariance():
    shape = TreeShape(2, 2)
    params = UnbiasingParams(Fraction(1, 3))
    perm = {0: 0, 1: 3, 2: 1, 3: 2}
    for row in all_rows(3, 4):
        x = PartialLeafColoring(3, row)
        y = PartialLeafColoring(3, np.array([perm[int(v)] for v in row], dtype=np.int16))
        assert is_unbiasing(shape, 3, params, x) == is_unbiasing(shape, 3, params, y)


# ---------------------------------------------------------------------------
# starring


def test_star_out_examples():
    x = leaves(3, 1, 2)
    assert star_out(x, []) == x
    assert star_out(x, [0]) == leaves(3, 0, 2)
    assert star_out(x, [0, 1]) == leaves(3, 0, 0)
    with pytest.raises(ValidationError):
        star_out(x, [5])


def test_starring_preserves_unbiasing():
    # one-step monotonicity on every allowed unbiasing row; iterating the
    # statement covers arbitrary position sets
    shape = TreeShape(2, 2)
    k = 3
    for eps in (Fraction(1, 3), 0.25):
        params = UnbiasingParams(eps)
        rows = all_rows(k, 4)
        rows = rows[is_allowed_batch(shape, k, rows)]
        verdict = classify_rows(shape, k, params, rows)[-1][:, 0]
        base = rows[verdict]
        for position in range(4):
            starred = base.copy()
            starred[:, position] = 0
            assert is_allowed_batch(shape, k, starred).all()
            assert classify_rows(shape, k, params, starred)[-1][:, 0].all()


def test_starring_preserves_highly_unbiasing():
    shape = TreeShape(2, 2)
    k = 3
    params = UnbiasingParams(Fraction(1, 3))
    for row in all_rows(k, 4):
        x = PartialLeafColoring(k, row)
        if not is_highly_unbiasing(shape, k, params, x):
            continue
        for position in range(4):
            assert is_highly_unbiasing(shape, k, params, star_out(x, [position]))


# ---------------------------------------------------------------------------
# failure-probability estimation


def count_unused_colors(block, k: int) -> int:
    """Colors in 1..k absent from the block; unconstrained entries never count."""
    vals = np.asarray(block)
    return k - np.unique(vals[(vals >= 1) & (vals <= k)]).size


def exact_q1(branching: int, k: int, eps) -> Fraction:
    """Exact failure weight at depth 1 by enumerating leaf blocks under the
    broadcast measure."""
    shape = TreeShape(branching, 1)
    threshold = branching ** (float(eps) / 2)
    total = count_extensions(shape, k, leaves(k, *([0] * branching)))
    weight = Fraction(0)
    for block in product(range(1, k + 1), repeat=branching):
        x = leaves(k, *block)
        unused = count_unused_colors(block, k)
        if unused < threshold - 1e-9:
            weight += Fraction(count_extensions(shape, k, x), total)
    return weight


def test_exact_q1_frozen():
    assert exact_q1(4, 3, Fraction(1, 3)) == Fraction(7, 8)


def test_estimate_q_matches_enumeration():
    shape = TreeShape(4, 1)
    params = UnbiasingParams(Fraction(1, 3))
    est = estimate_q(shape, 3, params, 30_000, RandomSource(1234))
    exact = float(exact_q1(4, 3, Fraction(1, 3)))
    assert est.n == 30_000
    assert abs(est.mean - exact) <= 4 * est.stderr
    assert est.stderr == pytest.approx(
        math.sqrt(est.mean * (1 - est.mean) / est.n), rel=1e-6
    )


def test_estimate_q_all_pass():
    # two leaves can block at most two of five colors, so every block passes
    shape = TreeShape(2, 1)
    params = UnbiasingParams(Fraction(1, 3))
    est = estimate_q(shape, 5, params, 1000, RandomSource(9))
    assert est.mean == 0
    assert est.wilson[0] == 0
    assert est.wilson[1] == pytest.approx(3.8415 / (1000 + 3.8415), rel=1e-3)


def test_estimate_q_deterministic():
    shape = TreeShape(2, 2)
    params = UnbiasingParams(0.3)
    a = estimate_q(shape, 3, params, 5000, RandomSource(77))
    b = estimate_q(shape, 3, params, 5000, RandomSource(77))
    assert a == b


def test_estimate_q_highly_at_least_plain():
    shape = TreeShape(2, 3)
    params = UnbiasingParams(Fraction(1, 3))
    plain = estimate_q(shape, 3, params, 20_000, RandomSource(55))
    strong = estimate_q(shape, 3, params, 20_000, RandomSource(55), highly=True)
    assert strong.mean >= plain.mean  # failing the weak form fails the strong form


def exact_strong_failure(branching: int, k: int, eps, depth: int) -> Fraction:
    """Exact probability that a broadcast leaf coloring fails the strong
    form, from the recursion over heights.

    A bottom block's unused count is 1 + u, with u the number of empty
    bins when `branching` balls fall into the k - 1 colors other than the
    parent's; its law does not depend on the parent's color, so the blocks
    pass independently with probability p_1.  A height-h vertex passes when
    at most branching**(1-eps) children fail, each independently with
    probability 1 - p_{h-1}.  At the lowest qualifying height a good vertex
    is one that passes; above it, a vertex is good exactly when all its
    children are good (then none fails, so it passes too).
    """
    bins = k - 1
    tally: dict[int, int] = {}
    for balls in product(range(bins), repeat=branching):
        u = bins - len(set(balls))
        tally[u] = tally.get(u, 0) + 1
    base = branching ** (float(eps) / 2)
    passes = sum(Fraction(t, bins**branching) for u, t in tally.items() if 1 + u >= base - 1e-9)
    step = branching ** (1 - float(eps))
    lowest = max(1, math.ceil(float(eps) * depth - 1e-9))
    for _ in range(1, lowest):
        passes = sum(
            math.comb(branching, j) * (1 - passes) ** j * passes ** (branching - j)
            for j in range(branching + 1)
            if j <= step + 1e-9
        )
    good = passes
    for _ in range(lowest, depth):
        good = good**branching
    return 1 - good


@pytest.mark.parametrize(
    "branching, k, eps, depth, closed_form",
    [(3, 4, Fraction(1, 3), 3, 0.895840), (2, 3, 0.3333, 4, 0.683594)],
)
def test_estimate_q_highly_matches_exact_law(branching, k, eps, depth, closed_form):
    exact = exact_strong_failure(branching, k, eps, depth)
    assert round(float(exact), 6) == closed_form
    shape = TreeShape(branching, depth)
    est = estimate_q(shape, k, UnbiasingParams(eps), 200_000, RandomSource(depth), highly=True)
    assert abs(est.mean - float(exact)) <= 4 * est.stderr


@pytest.mark.parametrize(
    "branching, k, depth, highly", [(4, 3, 2, False), (2, 3, 4, True), (3, 4, 3, True)]
)
def test_estimate_q_matches_leaf_classifier(branching, k, depth, highly):
    # the leaf classifier on materialized broadcast leaves is the oracle for
    # the i.i.d. block counts that `estimate_q` draws
    shape = TreeShape(branching, depth)
    params = UnbiasingParams(Fraction(1, 3))
    n = 20_000
    est = estimate_q(shape, k, params, n, RandomSource(31), highly=highly)
    flags = classify_rows(shape, k, params, sample_leaf_rows(shape, k, n, RandomSource(32)))
    if highly:
        good = np.logical_and.reduce(
            [flags[h - 1].all(axis=1) for h in qualifying_heights(shape, params)]
        )
    else:
        good = flags[-1][:, 0]
    fails = round(est.mean * n), int((~good).sum())
    _, p, _, _ = stats.chi2_contingency([[f, n - f] for f in fails])
    assert p > CHI2_P_FLOOR


def estimate_q_from_counts(shape, k, params, samples, rng, highly):
    """Oracle: every bottom block's unused count drawn by inverting the CDF
    of its law, then compared with the real-valued threshold."""
    b, eps = shape.branching, float(params.epsilon)
    blocks = b ** (shape.depth - 1)
    gen = rng.generator

    def failed(m):
        unused = 1 + broadcast_sampler._unused_slots(b, k, (m, blocks), gen)
        flags = unbiasing._level_flags(unused >= b ** (eps / 2) - 1e-9, b, shape.depth, eps)
        if highly:
            heights = qualifying_heights(shape, params)
            good = np.logical_and.reduce([flags[h - 1].all(axis=1) for h in heights])
        else:
            good = flags[-1][:, 0]
        return ~good

    failures, _ = batch_sums(samples, blocks, failed)
    return proportion_estimate(int(failures), samples)


@pytest.mark.parametrize(
    "branching, depth, k, eps",
    [
        (64, 2, 5, Fraction(1, 3)),  # 64**(1/6) is exactly 2: u* = 1 at the tie
        (64, 2, 3, 1 / 3),
        (20, 3, 9, 0.2),
        (3, 4, 4, 0.3),
        (100, 2, 3, Fraction(1, 3)),  # u* = 2 > k - 2: no block passes
        (4, 3, 3, 1e-10),  # u* = 0: every block passes
        (5, 3, 2, 0.2),  # k = 2: u is always 0
    ],
)
def test_estimate_q_equals_the_count_route(branching, depth, k, eps):
    # the same uniforms, compared once against a CDF entry instead of
    # inverted into counts: every Estimate is identical
    assert 64 ** (Fraction(1, 3) / 2) == 2.0
    shape, params = TreeShape(branching, depth), UnbiasingParams(eps)
    for seed in range(3):
        for highly in (False, True):
            got = estimate_q(shape, k, params, 2000, RandomSource(seed), highly=highly)
            want = estimate_q_from_counts(shape, k, params, 2000, RandomSource(seed), highly)
            assert got == want, (seed, highly)
