"""Acceptance checks: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Statistical checks use fixed seeds; exact checks
compare rationals for equality.
"""
from __future__ import annotations

import functools
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from conftest import (
    CHI2_P_FLOOR,
    block_projection,
    chi2_pvalue,
    cli_subprocess_env,
    downward_leaf_law,
)
from treecolor.couplings import (
    coupled_leaf_rows,
    estimate_alpha,
    estimate_hamming,
    upward_channel_tv,
)
from treecolor.dynamics import (
    build_transition_matrix,
    conditional_entropy,
    entropy_functional,
    initial_state,
    local_entropy_sum,
    mixing_time_exact,
    run_chain,
    stationary_and_gap,
)
from treecolor.exact_engine import (
    ColorDistribution,
    exact_bias,
    root_marginal,
    root_marginal_bruteforce,
)
from treecolor.rng import RandomSource
from treecolor.tree_model import (
    PartialLeafColoring,
    TreeShape,
    is_allowed_batch,
)
from treecolor.unbiasing import UnbiasingParams, classify_rows, estimate_q

SIGMAS = 4.0


def criterion(number: int, summary: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:2d}: FAIL  {summary}")
                raise
            print(f"\ncriterion {number:2d}: PASS  {summary}")

        return wrapper

    return decorate


def all_leaf_rows(leaf_count: int, k: int) -> np.ndarray:
    """Every leaf row over colors 0..k (0 = unconstrained), as a matrix."""
    total = (k + 1) ** leaf_count
    idx = np.arange(total, dtype=np.int64)[:, None]
    divisors = (k + 1) ** np.arange(leaf_count, dtype=np.int64)
    return ((idx // divisors) % (k + 1)).astype(np.int16)


def random_allowed_rows(shape: TreeShape, k: int, count: int, gen) -> np.ndarray:
    """Uniform-ish allowed rows with at most 5 unconstrained positions."""
    leaf_count = shape.leaf_count
    out = []
    need = count
    while need > 0:
        batch = gen.integers(0, k + 1, size=(4 * need + 64, leaf_count))
        batch = batch.astype(np.int16)
        batch = batch[(batch == 0).sum(axis=1) <= 5]
        keep = batch[is_allowed_batch(shape, k, batch)][:need]
        if len(keep):
            out.append(keep)
            need -= len(keep)
    return np.concatenate(out)


@criterion(1, "exact engine == brute force on all allowed boundaries")
def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(1101)
    checked = 0
    for branching in (2, 3):
        for depth in (1, 2):
            shape = TreeShape(branching, depth)
            for k in (3, 4, 5):
                if (k + 1) ** shape.leaf_count <= 50_000:
                    rows = all_leaf_rows(shape.leaf_count, k)
                    rows = rows[is_allowed_batch(shape, k, rows)]
                else:
                    rows = random_allowed_rows(shape, k, 1000, gen)
                for row in rows:
                    coloring = PartialLeafColoring(k, row)
                    fast = root_marginal(shape, k, coloring, backend="rational")
                    slow = root_marginal_bruteforce(shape, k, coloring)
                    assert fast.weights == slow.weights
                    checked += 1
    assert checked > 5000  # 8 exhaustive combos plus 3 x 1000 sampled rows
    assert time.perf_counter() - start < 300


@criterion(2, "coupled-pair mean Hamming distance == (delta/(k-1))^ell")
def test_criterion_02_downward_coupling_mean():
    start = time.perf_counter()
    for i, (delta, k, ell) in enumerate(
        [(4, 3, 3), (2, 3, 4), (3, 4, 3), (6, 4, 2), (2, 5, 5)]
    ):
        est = estimate_hamming(
            TreeShape(delta, ell), k, 1, 2, 100_000, RandomSource(1201 + i)
        )
        expected = (delta / (k - 1)) ** ell
        assert abs(est.mean - expected) < SIGMAS * est.stderr
    assert time.perf_counter() - start < 120


@criterion(3, "each coupled marginal is an exact broadcast law (chi^2)")
def test_criterion_03_coupling_marginals():
    for i, (depth, k) in enumerate([(1, 3), (1, 4), (2, 3), (2, 4)]):
        shape = TreeShape(2, depth)
        x, y, _ = coupled_leaf_rows(shape, k, 1, 2, 100_000, RandomSource(1301 + i))
        for rows, root_color in ((x, 1), (y, 2)):
            law = downward_leaf_law(shape, k, root_color)
            keys = sorted(law)
            index = {key: j for j, key in enumerate(keys)}
            counts = np.zeros(len(keys))
            for row in map(tuple, rows.tolist()):
                counts[index[row]] += 1  # KeyError = impossible row drawn
            probs = np.array([float(law[key]) for key in keys])
            assert chi2_pvalue(counts, probs) > CHI2_P_FLOOR


def disagreement_recursion_pmf(branching: int, k: int, depth: int) -> list[Fraction]:
    """Exact law of the branching recursion D_0=1, D_{i+1} ~ Bin(b*D_i, p)."""
    p = Fraction(1, k - 1)
    pmf = {1: Fraction(1)}
    for _ in range(depth):
        nxt: dict[int, Fraction] = {}
        for d, weight in pmf.items():
            trials = branching * d
            for m in range(trials + 1):
                term = (
                    weight
                    * math.comb(trials, m)
                    * p**m
                    * (1 - p) ** (trials - m)
                )
                nxt[m] = nxt.get(m, Fraction(0)) + term
        pmf = nxt
    return [pmf.get(m, Fraction(0)) for m in range(max(pmf) + 1)]


@criterion(4, "tree-coupling Hamming law == branching recursion law (chi^2)")
def test_criterion_04_branching_identity():
    branching, k, depth = 2, 3, 3
    shape = TreeShape(branching, depth)
    pmf = disagreement_recursion_pmf(branching, k, depth)
    x, y, _ = coupled_leaf_rows(shape, k, 1, 2, 100_000, RandomSource(1401))
    hamming = (x != y).sum(axis=1)
    counts = np.bincount(hamming, minlength=len(pmf)).astype(float)
    assert chi2_pvalue(counts, np.array([float(q) for q in pmf])) > CHI2_P_FLOOR


@criterion(5, "channel TV formula == brute-force conditional TV, rationally")
def test_criterion_05_channel_formula():
    gen = np.random.default_rng(1501)
    for _ in range(100):
        k = int(gen.integers(3, 9))
        raw = [int(v) for v in gen.integers(1, 21, size=k)]
        total = sum(raw)
        weights = tuple(Fraction(v, total) for v in raw)
        dist = ColorDistribution(k, weights, "rational")
        c1, c2 = (int(c) + 1 for c in gen.choice(k, size=2, replace=False))
        restricted = []
        for away in (c1, c2):
            denom = 1 - weights[away - 1]
            restricted.append(
                [Fraction(0) if c == away else weights[c - 1] / denom
                 for c in range(1, k + 1)]
            )
        direct = sum(abs(a - b) for a, b in zip(*restricted)) / 2
        assert upward_channel_tv(dist, c1, c2) == direct


@criterion(6, "exact bias sandwich beta/(k-1) <= alpha <= sqrt(beta)")
def test_criterion_06_bias_sandwich():
    for k, depths in ((3, (0, 1, 2, 3)), (4, (0, 1, 2))):
        for depth in depths:
            report = exact_bias(TreeShape(2, depth), k)
            assert report.exact
            for alpha, beta in zip(report.alpha, report.beta):
                assert beta <= alpha * (k - 1)
                assert alpha * alpha <= beta


@criterion(7, "exact block-dynamics matrix and empirical chain agree")
def test_criterion_07_dynamics_exactness():
    shape, k = TreeShape(2, 1), 4
    matrix = build_transition_matrix(shape, k, 0)
    assert matrix.size == 36
    sums = [0] * matrix.size
    for i, j, num in zip(*(array.tolist() for array in matrix.entries)):
        assert matrix.entry(j, i) == Fraction(num, matrix.denominator)
        sums[i] += num
    assert sums == [matrix.denominator] * matrix.size
    info = stationary_and_gap(matrix)
    assert info["is_uniform_stationary"]
    assert info["spectral_gap"] > 0
    assert mixing_time_exact(matrix) == 8

    # long-run frequencies: tallies are thinned because consecutive chain
    # states are correlated and the chi^2 statistic assumes independence
    visits: dict = {}
    state = initial_state(shape, k, RandomSource(1701))
    run_chain(state, 0, 1_000_000, RandomSource(1702), visit_counts=visits, thin=50)
    counts = np.array([visits.get(tuple(s), 0) for s in matrix.states.tolist()], dtype=float)
    assert counts.sum() == 20_000
    size = matrix.size
    assert chi2_pvalue(counts, np.full(size, 1 / size)) > CHI2_P_FLOOR

    for block_depth in (1, 3):
        full = build_transition_matrix(shape, k, block_depth)
        assert mixing_time_exact(full) == 1


@criterion(8, "entropy identities hold to 1e-10 over 1000 random f")
def test_criterion_08_entropy_identities():
    shape, k, block_depth = TreeShape(2, 1), 4, 0
    n_vertices = shape.vertex_count
    size = 36
    dense = build_transition_matrix(shape, k, block_depth).to_dense()
    gen = np.random.default_rng(1801)
    for _ in range(1000):
        f = gen.lognormal(size=size)
        total = entropy_functional(f)
        for v in range(n_vertices):
            drop = total - entropy_functional(
                block_projection(f, shape, k, block_depth, v)
            )
            inside = conditional_entropy(f, shape, k, block_depth, v)
            assert abs(drop - inside) <= 1e-10
        smoothed = entropy_functional(dense @ f)
        local = local_entropy_sum(f, shape, k, block_depth)
        assert total - smoothed >= local / n_vertices - 1e-10


@criterion(9, "bias decays in the uniqueness regime, persists when k << delta")
def test_criterion_09_regime_behavior():
    start = time.perf_counter()
    # k >= delta + 2: the root bias must die off with depth
    unique = []
    for ell in range(2, 7):
        est = estimate_alpha(TreeShape(2, ell), 5, 1, 100_000, RandomSource(1900 + ell))
        unique.append(est)
    means = [e.mean for e in unique]
    assert all(a > b for a, b in zip(means, means[1:]))
    gap = means[0] / 2 - means[-1]
    combined = math.hypot(unique[0].stderr / 2, unique[-1].stderr)
    assert gap > SIGMAS * combined
    # k well below delta/ln(delta): the bias persists at every depth
    for ell in range(6):
        est = estimate_alpha(TreeShape(20, ell), 3, 1, 10_000, RandomSource(1910 + ell))
        assert est.mean >= 0.1
    assert time.perf_counter() - start < 600


@criterion(10, "starring monotonicity exhaustive; q1 estimate matches enumeration")
def test_criterion_10_unbiasing():
    params = UnbiasingParams(Fraction(1, 3))
    for branching in (2, 3):
        for depth in (1, 2):
            shape = TreeShape(branching, depth)
            for k in (2, 3, 4):
                rows = all_leaf_rows(shape.leaf_count, k)
                rows = rows[is_allowed_batch(shape, k, rows)]
                flags = classify_rows(shape, k, params, rows)
                bases = rows[flags[-1][:, 0]]
                for position in range(shape.leaf_count):
                    starred = bases.copy()
                    starred[:, position] = 0
                    assert is_allowed_batch(shape, k, starred).all()
                    again = classify_rows(shape, k, params, starred)
                    assert again[-1][:, 0].all()

    est = estimate_q(TreeShape(4, 1), 3, params, 100_000, RandomSource(1001))
    exact_q1 = Fraction(7, 8)
    assert abs(est.mean - float(exact_q1)) < SIGMAS * est.stderr


@criterion(11, "CLI reruns with one seed produce byte-identical files")
def test_criterion_11_cli_determinism(tmp_path):
    invocations = [
        ["broadcast", "--delta", "2", "--k", "3", "--depth", "2",
         "--samples", "20", "--seed", "7"],
        ["unbiasing", "--delta", "2", "--k", "3", "--depth", "2",
         "--epsilon", "0.3333", "--samples", "300", "--seed", "7",
         "--replicas", "3"],
        ["couple", "--delta", "2", "--k", "3", "--depth", "2", "--c1", "1",
         "--c2", "2", "--mode", "downup", "--samples", "200", "--seed", "7",
         "--format", "csv"],
        ["bias", "--delta", "2", "--k", "4", "--depth-range", "1..3",
         "--color", "1", "--samples", "200", "--seed", "7", "--format", "csv"],
        ["concentration", "--delta", "2", "--k", "4", "--depth", "1",
         "--color", "1", "--threshold", "0.5", "--samples", "300",
         "--seed", "7"],
        ["dynamics", "--delta", "2", "--k", "4", "--n", "1",
         "--block-depth", "0", "--exact"],
        ["sweep", "--kind", "bias", "--delta", "2", "--k", "3",
         "--depth-range", "1..3", "--color", "1", "--samples", "100",
         "--seed", "7", "--format", "csv"],
    ]
    for i, argv in enumerate(invocations):
        outputs = []
        for attempt in ("first", "second"):
            path = tmp_path / f"run{i}_{attempt}.out"
            proc = subprocess.run(
                [sys.executable, "-m", "treecolor.cli", *argv, "--out", str(path)],
                capture_output=True,
                text=True,
                env=cli_subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
