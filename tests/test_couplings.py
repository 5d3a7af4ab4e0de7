"""Downward coupling, disagreement process, channel formula, estimators.

The coupling's joint leaf law is small enough to enumerate exactly at
depth 2, which pins the estimators' expectations to exact rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from treecolor import (
    ColorDistribution,
    Estimate,
    InfeasibleChannelError,
    PartialLeafColoring,
    RandomSource,
    TreeShape,
    ValidationError,
    channel_tv_bound,
    check_concentration_reduction,
    concentration_tail,
    coupled_leaf_rows,
    disagreement_counts,
    downward_couple,
    estimate_alpha,
    estimate_beta_tv,
    estimate_hamming,
    exact_bias,
    hamming_tail,
    interpolation_path,
    interpolation_tv_report,
    single_disagreement_report,
    upward_channel_tv,
)
from treecolor import couplings
from treecolor.couplings import (
    CouplingPair,
    _hamming_distances,
    branching_mean,
    hamming_tail_tree,
)
from treecolor.exact_engine import tv_root

from conftest import CHI2_P_FLOOR, chi2_pvalue, downward_leaf_law


def leaves(k, *values):
    return PartialLeafColoring(k, np.array(values, dtype=np.int16))


def coupling_joint_law(branching: int, k: int, depth: int, a: int, b: int):
    """Exact joint law of the coupled leaf pair (X, Y), built recursively.

    Disagreement states are ordered pairs (a, b); agreement is a == b.
    Returns {(x_row, y_row): probability} with exact rationals.
    """
    if depth == 0:
        return {((a,), (b,)): Fraction(1)}
    if a == b:
        # agreeing vertices broadcast once and share
        child_states = [((u, u), Fraction(1, k - 1)) for u in range(1, k + 1) if u != a]
    else:
        # u == b flips the second copy to a, carrying disagreement (b, a)
        child_states = [
            ((b, a) if u == b else (u, u), Fraction(1, k - 1))
            for u in range(1, k + 1)
            if u != a
        ]
    sub = {
        state: coupling_joint_law(branching, k, depth - 1, *state)
        for state, _ in child_states
    }
    out: dict = {}

    def combine(i, prob, xs, ys):
        if i == branching:
            key = (tuple(xs), tuple(ys))
            out[key] = out.get(key, Fraction(0)) + prob
            return
        for state, p_state in child_states:
            for (sub_x, sub_y), p_sub in sub[state].items():
                combine(i + 1, prob * p_state * p_sub, xs + list(sub_x), ys + list(sub_y))

    combine(0, Fraction(1), [], [])
    return out


# ---------------------------------------------------------------------------
# the downward coupling itself


def test_couple_depth0():
    pair = downward_couple(TreeShape(2, 0), 3, 1, 2, RandomSource(0))
    assert list(pair.x.values) == [1]
    assert list(pair.y.values) == [2]
    assert pair.hamming == 1


def test_couple_identity_when_colors_agree():
    pair = downward_couple(TreeShape(2, 2), 3, 2, 2, RandomSource(4))
    assert pair.x == pair.y
    assert pair.hamming == 0


def test_coupling_pair_invariant():
    with pytest.raises(ValidationError):
        CouplingPair(x=leaves(3, 1, 2), y=leaves(3, 1, 3), disagreements=frozenset())
    with pytest.raises(ValidationError):
        CouplingPair(x=leaves(3, 1, 2), y=leaves(4, 1, 3, 2), disagreements=frozenset({1}))


def test_per_child_disagreement_rate():
    # each child of a disagreeing vertex flips with probability 1/(k-1)
    n = 100_000
    _, _, disagree = coupled_leaf_rows(TreeShape(2, 1), 3, 1, 2, n, RandomSource(12))
    rate = disagree.mean()
    se = math.sqrt(0.5 * 0.5 / (2 * n))
    assert abs(rate - 0.5) < 4 * se


def test_marginals_are_exact_broadcasts():
    # each copy of the coupled pair is distributed as its own broadcast
    shape = TreeShape(2, 2)
    k = 3
    n = 100_000
    x, y, _ = coupled_leaf_rows(shape, k, 1, 2, n, RandomSource(21))
    for rows, root in ((x, 1), (y, 2)):
        law = downward_leaf_law(shape, k, root)
        keys = sorted(law)
        index = {key: i for i, key in enumerate(keys)}
        counts = np.zeros(len(keys), dtype=np.int64)
        for row in map(tuple, rows.tolist()):
            counts[index[row]] += 1
        assert chi2_pvalue(counts, [float(law[key]) for key in keys]) > CHI2_P_FLOOR


def test_joint_law_enumeration_matches_samples():
    # the in-test recursion and the sampler must describe the same coupling
    shape = TreeShape(2, 2)
    k = 3
    law = coupling_joint_law(2, k, 2, 1, 2)
    assert sum(law.values()) == 1
    n = 60_000
    x, y, _ = coupled_leaf_rows(shape, k, 1, 2, n, RandomSource(33))
    keys = sorted(law)
    index = {key: i for i, key in enumerate(keys)}
    counts = np.zeros(len(keys), dtype=np.int64)
    for pair in zip(map(tuple, x.tolist()), map(tuple, y.tolist())):
        counts[index[pair]] += 1
    assert chi2_pvalue(counts, [float(law[key]) for key in keys]) > CHI2_P_FLOOR


def test_mean_hamming_matches_branching_formula():
    est = estimate_hamming(TreeShape(4, 3), 3, 1, 2, 20_000, RandomSource(8))
    assert abs(est.mean - 8.0) < 4 * est.stderr  # (delta/(k-1))^depth = 2^3


# fixed draws: `couple --mode downup` output per seed depends on the x
# draws and the overlay staying byte-identical
PINNED_ROWS = [
    (
        (2, 2, 3, 1, 2, 3, 7),
        [[3, 3, 2, 2], [1, 3, 1, 2], [1, 1, 1, 1]],
        [[3, 3, 2, 2], [2, 3, 1, 2], [2, 2, 1, 1]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]],
    ),
    (
        (3, 2, 4, 2, 4, 2, 5),
        [[1, 3, 3, 2, 2, 2, 1, 2, 1], [1, 1, 3, 2, 1, 1, 2, 3, 3]],
        [[1, 3, 3, 4, 4, 4, 1, 4, 1], [1, 1, 3, 2, 1, 1, 2, 3, 3]],
        [[0, 0, 0, 1, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0]],
    ),
    # agreeing roots: one broadcast shared by both copies
    (
        (2, 2, 3, 2, 2, 3, 11),
        [[2, 1, 2, 3], [2, 2, 3, 3], [2, 2, 2, 1]],
        [[2, 1, 2, 3], [2, 2, 3, 3], [2, 2, 2, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ),
    # depth 0: the roots are the leaves
    ((2, 0, 3, 1, 2, 3, 12), [[1], [1], [1]], [[2], [2], [2]], [[1], [1], [1]]),
    ((3, 0, 4, 3, 3, 2, 13), [[3], [3]], [[3], [3]], [[0], [0]]),
]


@pytest.mark.parametrize("args, x_rows, y_rows, overlay", PINNED_ROWS)
def test_coupled_leaf_rows_pinned_draws(args, x_rows, y_rows, overlay):
    branching, depth, k, c1, c2, n, seed = args
    x, y, disagree = coupled_leaf_rows(
        TreeShape(branching, depth), k, c1, c2, n, RandomSource(seed)
    )
    assert x.dtype == np.int16 and y.dtype == np.int16 and disagree.dtype == bool
    assert x.tolist() == x_rows
    assert y.tolist() == y_rows
    assert disagree.astype(int).tolist() == overlay


# ---------------------------------------------------------------------------
# branching-process surrogate


def exact_disagreement_pmf(branching: int, k: int, depth: int) -> list[Fraction]:
    """Law of D_depth by exact convolution of binomial steps."""
    pmf = {1: Fraction(1)}
    p = Fraction(1, k - 1)
    for _ in range(depth):
        nxt: dict[int, Fraction] = {}
        for d, weight in pmf.items():
            m = branching * d
            for j in range(m + 1):
                prob = weight * math.comb(m, j) * p**j * (1 - p) ** (m - j)
                nxt[j] = nxt.get(j, Fraction(0)) + prob
        pmf = nxt
    return [pmf.get(i, Fraction(0)) for i in range(max(pmf) + 1)]


def test_disagreement_process_depth0():
    assert disagreement_counts(2, 3, 0, 1, RandomSource(0)).tolist() == [1]


def test_disagreement_pmf_frozen():
    pmf = exact_disagreement_pmf(2, 3, 3)
    assert sum(pmf) == 1
    assert pmf[:6] == [
        Fraction(7921, 16384),
        Fraction(445, 2048),
        Fraction(723, 4096),
        Fraction(159, 2048),
        Fraction(267, 8192),
        Fraction(19, 2048),
    ]


def test_disagreement_counts_match_exact_pmf():
    pmf = exact_disagreement_pmf(2, 3, 3)
    draws = disagreement_counts(2, 3, 3, 100_000, RandomSource(44))
    counts = np.bincount(draws, minlength=len(pmf))
    assert chi2_pvalue(counts, [float(q) for q in pmf]) > CHI2_P_FLOOR


def test_process_matches_tree_hamming_law():
    # the branching process is exactly the law of the tree coupling's
    # disagreement count
    pmf = exact_disagreement_pmf(2, 3, 3)
    n = 100_000
    _, _, disagree = coupled_leaf_rows(TreeShape(2, 3), 3, 1, 2, n, RandomSource(90))
    h = disagree.sum(axis=1)
    counts = np.bincount(h, minlength=len(pmf))
    assert chi2_pvalue(counts, [float(q) for q in pmf]) > CHI2_P_FLOOR


# ---------------------------------------------------------------------------
# the disagreement frontier behind estimate_hamming and hamming_tail_tree


@pytest.mark.parametrize(
    "branching, k, depth, c1, c2, seed", [(2, 3, 3, 1, 3, 91), (4, 3, 2, 3, 2, 92)]
)
def test_frontier_matches_exact_pmf(branching, k, depth, c1, c2, seed):
    # (4, 3, 2) has mean offspring 2, so the frontier grows level by level;
    # a root color k checks the shift past the parent's color
    pmf = exact_disagreement_pmf(branching, k, depth)
    shape = TreeShape(branching, depth)
    h = _hamming_distances(shape, k, c1, c2, 100_000, RandomSource(seed))
    counts = np.bincount(h, minlength=len(pmf))
    assert len(counts) == len(pmf)
    assert chi2_pvalue(counts, [float(q) for q in pmf]) > CHI2_P_FLOOR


def test_frontier_matches_dense_coupling():
    shape = TreeShape(3, 4)
    n = 20_000
    frontier = _hamming_distances(shape, 4, 1, 4, n, RandomSource(93))
    dense = coupled_leaf_rows(shape, 4, 1, 4, n, RandomSource(94))[2].sum(axis=1)
    # pool the sparse upper tail into one cell
    top = 6
    table = np.array([
        np.bincount(np.minimum(h, top), minlength=top + 1) for h in (frontier, dense)
    ])
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > CHI2_P_FLOOR


def test_frontier_agreeing_roots_give_zeros():
    h = _hamming_distances(TreeShape(2, 5), 3, 2, 2, 7, RandomSource(0))
    assert h.tolist() == [0] * 7


def test_frontier_validation_matches_dense_sampler():
    shape = TreeShape(2, 2)
    for sampler in (coupled_leaf_rows, _hamming_distances):
        with pytest.raises(ValidationError, match="need at least 2 colors, got k=1"):
            sampler(shape, 1, 1, 1, 5, RandomSource(0))
        with pytest.raises(ValidationError, match=r"c1=0 out of range 1..3"):
            sampler(shape, 3, 0, 2, 5, RandomSource(0))
        with pytest.raises(ValidationError, match=r"c2=4 out of range 1..3"):
            sampler(shape, 3, 1, 4, 5, RandomSource(0))


def test_estimate_hamming_crosses_chunk_boundary(monkeypatch):
    # 4096 leaves give chunks of 976 pairs; 2000 samples take three chunks
    shape = TreeShape(2, 12)
    chunks = []

    def recording(*args):
        chunks.append(args[-2])
        return _hamming_distances(*args)

    monkeypatch.setattr(couplings, "_hamming_distances", recording)
    est = estimate_hamming(shape, 3, 1, 2, 2000, RandomSource(95))
    assert chunks == [976, 976, 48]
    assert est.n == 2000
    rng = RandomSource(95)
    h = np.concatenate([_hamming_distances(shape, 3, 1, 2, m, rng) for m in chunks])
    assert est.mean == pytest.approx(h.mean(), rel=1e-12)
    assert abs(est.mean - 1.0) < 4 * est.stderr  # (delta/(k-1))^depth = 1


def test_branching_mean_formula():
    est = branching_mean(3, 4, 2, 40_000, RandomSource(3))
    assert abs(est.mean - 1.0) < 4 * est.stderr  # (3/3)^2


def test_hamming_tail_bounds():
    rng = RandomSource(5)
    est = hamming_tail(2, 8, 3, 0, 20_000, rng)
    assert est.probability <= (2 / 7) ** 3 * (1 + 10 * est.stderr) + 4 * est.stderr
    zero = hamming_tail(2, 3, 2, 4, 5_000, RandomSource(6))
    assert zero.probability == 0  # D_2 cannot exceed the leaf count 4
    tree = hamming_tail_tree(TreeShape(2, 2), 3, 1, 2, 4, 5_000, RandomSource(7))
    assert tree.probability == 0


def test_tail_estimates_carry_uncertainty():
    est = hamming_tail(4, 6, 4, 8, 10_000, RandomSource(11))
    assert est.threshold == 8
    assert 0 <= est.probability <= 1
    assert est.stderr == pytest.approx(
        math.sqrt(est.probability * (1 - est.probability) / est.n)
    )
    assert est.n == 10_000


# ---------------------------------------------------------------------------
# upward channel


def test_channel_examples():
    uniform4 = ColorDistribution(4, (Fraction(1, 4),) * 4, "rational")
    assert upward_channel_tv(uniform4, 1, 2) == Fraction(1, 3)
    dist = ColorDistribution(
        3, (Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)), "rational"
    )
    assert upward_channel_tv(dist, 1, 2) == Fraction(5, 7)
    # equal masses collapse both arguments of the max
    assert upward_channel_tv(dist, 2, 2) == Fraction(3, 7)
    assert channel_tv_bound(dist) == Fraction(1)  # 0.5/(1-0.5)


def test_channel_formula_is_the_conditional_tv():
    rng = np.random.default_rng(200)
    for k in (3, 4, 5):
        for _ in range(20):
            w = rng.integers(1, 30, size=k)
            total = int(w.sum())
            p = [Fraction(int(v), total) for v in w]
            dist = ColorDistribution(k, tuple(p), "rational")
            for c1, c2 in product(range(1, k + 1), repeat=2):
                if c1 == c2:
                    continue
                cond1 = [x if i != c1 - 1 else Fraction(0) for i, x in enumerate(p)]
                cond2 = [x if i != c2 - 1 else Fraction(0) for i, x in enumerate(p)]
                s1, s2 = sum(cond1), sum(cond2)
                tv = sum(abs(u / s1 - v / s2) for u, v in zip(cond1, cond2)) / 2
                assert upward_channel_tv(dist, c1, c2) == tv
                assert tv <= channel_tv_bound(dist)


def test_channel_degenerate_raises():
    point = ColorDistribution(3, (Fraction(1), Fraction(0), Fraction(0)), "rational")
    with pytest.raises(InfeasibleChannelError):
        upward_channel_tv(point, 1, 2)
    with pytest.raises(InfeasibleChannelError):
        channel_tv_bound(point)


# ---------------------------------------------------------------------------
# interpolation between boundary colorings


def test_interpolation_path_examples():
    x = leaves(3, 1, 2)
    assert interpolation_path(x, x) == [x]
    path = interpolation_path(x, leaves(3, 1, 3))
    assert path == [x, leaves(3, 1, 0), leaves(3, 1, 3)]
    path = interpolation_path(x, leaves(3, 3, 2))
    assert path == [x, leaves(3, 0, 2), leaves(3, 3, 2)]


def test_interpolation_path_structure():
    x = leaves(4, 1, 2, 3, 4)
    y = leaves(4, 2, 2, 4, 1)
    path = interpolation_path(x, y)
    assert len(path) == 7  # 2m + 1 with m = 3 disagreements
    assert path[0] == x and path[-1] == y
    for a, b in zip(path, path[1:]):
        assert int((a.values != b.values).sum()) == 1
    with pytest.raises(ValidationError):
        interpolation_path(x, leaves(3, 1, 2, 3, 1))


def test_single_disagreement_bound_dominates():
    shape = TreeShape(2, 2)
    k = 4
    rng = np.random.default_rng(60)
    seen = 0
    while seen < 12:
        row = rng.integers(1, k + 1, size=4).astype(np.int16)
        pos = int(rng.integers(4))
        other = int(rng.integers(1, k + 1))
        if other == row[pos]:
            continue
        second = row.copy()
        second[pos] = other
        try:
            report = single_disagreement_report(
                shape, k, PartialLeafColoring(k, row), PartialLeafColoring(k, second)
            )
        except InfeasibleChannelError:
            continue
        assert report["leaf"] == pos
        assert report["ancestors"][-1] == 0
        assert len(report["ancestors"]) == shape.depth
        assert report["exact_tv"] <= report["channel_bound"]
        seen += 1


def test_single_disagreement_requires_one_diff():
    with pytest.raises(ValidationError):
        single_disagreement_report(TreeShape(2, 1), 3, leaves(3, 1, 2), leaves(3, 2, 1))


def test_interpolation_report_triangle_inequality():
    shape = TreeShape(2, 2)
    k = 4
    x = leaves(4, 1, 2, 3, 4)
    y = leaves(4, 2, 1, 3, 2)
    report = interpolation_tv_report(shape, k, x, y)
    assert len(report["steps"]) == 6
    assert report["direct_tv"] <= report["stepwise_total"]
    assert report["direct_tv"] == tv_root(shape, k, x, y)
    trivial = interpolation_tv_report(shape, k, x, x)
    assert trivial["steps"] == [] and trivial["direct_tv"] == 0


# ---------------------------------------------------------------------------
# bias and concentration estimators


def test_estimate_alpha_depth0():
    est = estimate_alpha(TreeShape(2, 0), 3, 1, 100_000, RandomSource(17))
    assert abs(est.mean - 4 / 9) < 4 * est.stderr


def test_estimate_alpha_depth2():
    exact = float(exact_bias(TreeShape(2, 2), 3).alpha[0])  # 11/48
    est = estimate_alpha(TreeShape(2, 2), 3, 1, 50_000, RandomSource(23))
    assert abs(est.mean - exact) < 4 * est.stderr


def test_beta_tv_trivial_cases():
    report = estimate_beta_tv(TreeShape(2, 2), 3, 2, 2, 100, RandomSource(1))
    assert report.coupling_bound.mean == 0 and report.plugin_tv.mean == 0
    report = estimate_beta_tv(TreeShape(2, 0), 3, 1, 2, 4_000, RandomSource(2))
    assert report.coupling_bound.mean == 1  # point masses at distinct colors
    assert abs(report.plugin_tv.mean - 1) < 0.05


@pytest.mark.parametrize("args, coupling, plugin", [
    # depth 0: point masses at distinct colors, whatever the draws
    ((3, 0, 4, 1, 3, 1000, 7), (1.0, 0.0), (1.0, 0.0)),
    ((2, 2, 3, 1, 2, 1000, 8),
     (0.3704666666666667, 0.011193935748022864), (0.34700000000000003, 0.02026709155256373)),
])
def test_beta_tv_pinned_reports(args, coupling, plugin):
    # fixed draws: `couple --mode downup` output per seed depends on them
    branching, depth, k, c1, c2, n, seed = args
    report = estimate_beta_tv(TreeShape(branching, depth), k, c1, c2, n, RandomSource(seed))
    assert report.coupling_bound == Estimate(*coupling, n=n)
    assert report.plugin_tv == Estimate(*plugin, n=n)


def test_beta_tv_example_within_tolerance():
    # exact TV between the two conditioned root laws is 219/640
    exact = float(Fraction(219, 640))
    report = estimate_beta_tv(TreeShape(2, 2), 3, 1, 2, 2500, RandomSource(303))
    for est in (report.coupling_bound, report.plugin_tv):
        assert abs(est.mean - exact) < 4 * est.stderr


def test_beta_tv_estimators_target_their_own_expectations():
    # the coupling estimator's expectation is E[tv_root(X,Y)] over the
    # coupling -- a strict upper bound for the true TV; the plug-in
    # estimator is unbiased for the true TV.  Enumerate both targets.
    shape = TreeShape(2, 2)
    k = 3
    law = coupling_joint_law(2, k, 2, 1, 2)
    coupling_target = Fraction(0)
    for (x_row, y_row), p in law.items():
        coupling_target += p * tv_root(
            shape, k, leaves(k, *x_row), leaves(k, *y_row)
        )
    assert coupling_target == Fraction(679, 1920)
    assert coupling_target > Fraction(219, 640)  # strictly above the true TV
    report = estimate_beta_tv(shape, k, 1, 2, 200_000, RandomSource(71))
    z_coupling = (report.coupling_bound.mean - float(coupling_target)) / report.coupling_bound.stderr
    assert abs(z_coupling) < 4
    z_plugin = (report.plugin_tv.mean - float(Fraction(219, 640))) / report.plugin_tv.stderr
    assert abs(z_plugin) < 4


def test_concentration_trivial_cases():
    # the deviation |P - 1/k| can never exceed 1 - 1/k
    est = concentration_tail(TreeShape(2, 2), 3, 1, 0.7, 2_000, RandomSource(31))
    assert est.probability == 0
    # at depth 0 the root is determined by its leaf: the deviation is 2/3
    # when it hits color c (probability 1/3) and 1/3 otherwise
    est = concentration_tail(TreeShape(2, 0), 3, 1, 0.2, 2_000, RandomSource(32))
    assert est.probability == 1
    est = concentration_tail(TreeShape(2, 0), 3, 1, 0.5, 10_000, RandomSource(33))
    assert abs(est.probability - 1 / 3) < 4 * est.stderr
    with pytest.raises(ValidationError):
        concentration_tail(TreeShape(2, 1), 3, 1, 0.0, 10, RandomSource(0))


def test_concentration_reduction_arithmetic():
    assert check_concentration_reduction(0.0, 0.05, 1e-9)
    bound = 2 * (math.exp(-1 / 0.05) + 0.001 / 0.05)
    assert check_concentration_reduction(0.001, 0.05, bound * 0.99)
    assert not check_concentration_reduction(0.001, 0.05, bound * 1.01)
    with pytest.raises(ValidationError):
        check_concentration_reduction(0.1, 0.5, 0.0)
    with pytest.raises(ValidationError):
        check_concentration_reduction(-1.0, 0.05, 0.0)
