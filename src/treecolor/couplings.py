"""Coupled pairs of leaf colorings and the estimators built on them.

The central construction couples two broadcasts whose roots disagree.  At
a vertex carrying disagreement (a, b), each child draws u uniform on
[k]\\{a}; the first copy takes u, the second takes u unless u = b, in
which case it takes a and the child carries disagreement (b, a).  Both
marginals are exact broadcasts, disagreements stay transpositions, and a
child goes into disagreement with probability exactly 1/(k-1).  Agreeing
vertices sample once and share.

Sampling is done level by level over whole batches; the second copy is
stored as the first plus a disagreement overlay, so agreeing subtrees are
never duplicated.  The Hamming estimators go further and never draw an
agreeing vertex at all: they follow only the disagreement frontier, whose
size is a branching process with mean offspring branching/(k-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import broadcast_sampler, exact_engine
from .errors import InfeasibleChannelError, ValidationError
from .estimators import Estimate, TailEstimate, batch_sums, mean_estimate, tail_estimate
from .exact_engine import ColorDistribution
from .rng import RandomSource
from .tree_model import PartialLeafColoring, TreeShape, _check_k, check_leaf_coloring


@dataclass(frozen=True, eq=False)
class CouplingPair:
    """Two leaf colorings plus the set of positions where they differ."""

    x: PartialLeafColoring
    y: PartialLeafColoring
    disagreements: frozenset

    def __post_init__(self):
        if self.x.k != self.y.k or len(self.x) != len(self.y):
            raise ValidationError("coupled colorings must share shape and k")
        actual = frozenset(int(i) for i in np.flatnonzero(self.x.values != self.y.values))
        if actual != self.disagreements:
            raise ValidationError("disagreement set does not match the colorings")

    @property
    def hamming(self) -> int:
        return len(self.disagreements)


def _check_color(k: int, c: int, name: str) -> int:
    c = int(c)
    if not 1 <= c <= k:
        raise ValidationError(f"{name}={c} out of range 1..{k}")
    return c


def _check_roots(k: int, c1: int, c2: int) -> tuple[int, int]:
    _check_k(k)
    return _check_color(k, c1, "c1"), _check_color(k, c2, "c2")


def coupled_leaf_rows(
    shape: TreeShape, k: int, c1: int, c2: int, n: int, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n coupled pairs as arrays: first-copy rows, second-copy rows, and the
    boolean disagreement overlay."""
    c1, c2 = _check_roots(k, c1, c2)
    gen = rng.generator
    x = np.full((n, 1), c1, dtype=np.int16)
    # partner is the second copy's color where the copies differ, 0 elsewhere
    partner = np.full((n, 1), c2 if c1 != c2 else 0, dtype=np.int16)
    b = shape.branching
    for _ in range(shape.depth):
        child_x = broadcast_sampler._next_level(x, k, b, gen)
        child_dis = child_x == np.repeat(partner, b, axis=1)
        # a child in disagreement flips to its parent's first-copy color
        partner = np.repeat(x, b, axis=1) * child_dis
        x = child_x
    disagree = partner != 0
    y = np.where(disagree, partner, x)
    return x, y, disagree


def downward_couple(
    shape: TreeShape, k: int, c1: int, c2: int, rng: RandomSource
) -> CouplingPair:
    """One coupled pair of leaf colorings with roots pinned to c1 and c2."""
    x, y, disagree = coupled_leaf_rows(shape, k, c1, c2, 1, rng)
    return CouplingPair(
        x=PartialLeafColoring(k, x[0]),
        y=PartialLeafColoring(k, y[0]),
        disagreements=frozenset(int(i) for i in np.flatnonzero(disagree[0])),
    )


def _hamming_distances(
    shape: TreeShape, k: int, c1: int, c2: int, n: int, rng: RandomSource
) -> np.ndarray:
    """Number of disagreeing leaves in each of n coupled pairs.

    Only the disagreement frontier is drawn: each disagreeing vertex carries
    its pair index, its first-copy color a and its partner color b, and each
    of its children draws u uniform on [k]\\{a}, surviving as (b, a) when
    u = b -- the rule of `coupled_leaf_rows`.  Agreeing vertices are never
    drawn.
    """
    c1, c2 = _check_roots(k, c1, c2)
    if c1 == c2:
        return np.zeros(n, dtype=np.int64)
    gen = rng.generator
    b = shape.branching
    pair = np.arange(n)
    a = np.full(n, c1, dtype=np.int16)
    partner = np.full(n, c2, dtype=np.int16)
    for _ in range(shape.depth):
        pair = np.repeat(pair, b)
        a = np.repeat(a, b)
        partner = np.repeat(partner, b)
        r = gen.integers(1, k, size=a.shape, dtype=np.int16)
        flip = r + (r >= a) == partner
        pair, a, partner = pair[flip], partner[flip], a[flip]
    return np.bincount(pair, minlength=n)


def estimate_hamming(
    shape: TreeShape, k: int, c1: int, c2: int, samples: int, rng: RandomSource
) -> Estimate:
    """Mean number of disagreeing leaves across coupled pairs.

    Draws only the disagreement frontier (see `_hamming_distances`), so the
    cost follows the number of disagreeing vertices, about
    (branching/(k-1))**depth per pair, not the leaf count.
    """
    sums = batch_sums(samples, shape.leaf_count,
                      lambda m: _hamming_distances(shape, k, c1, c2, m, rng))
    return mean_estimate(*sums, samples)


# ---------------------------------------------------------------------------
# the disagreement branching process


def disagreement_counts(
    branching: int, k: int, depth: int, n: int, rng: RandomSource
) -> np.ndarray:
    """n independent draws of D_depth for the chain D_0 = 1,
    D_{i+1} ~ Bin(branching * D_i, 1/(k-1))."""
    if branching < 2 or k < 2:
        raise ValidationError("need branching >= 2 and k >= 2")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    gen = rng.generator
    counts = np.ones(n, dtype=np.int64)
    for _ in range(depth):
        counts = gen.binomial(branching * counts, 1.0 / (k - 1))
    return counts


def hamming_tail(
    branching: int, k: int, depth: int, threshold: float, samples: int, rng: RandomSource
) -> TailEstimate:
    """Monte Carlo Pr[D_depth > threshold] for the branching process."""
    successes, _ = batch_sums(
        samples, depth,
        lambda m: disagreement_counts(branching, k, depth, m, rng) > threshold)
    return tail_estimate(threshold, int(successes), samples)


def branching_mean(
    branching: int, k: int, depth: int, samples: int, rng: RandomSource
) -> Estimate:
    """Mean of D_depth across independent branching-process runs."""
    sums = batch_sums(samples, depth,
                      lambda m: disagreement_counts(branching, k, depth, m, rng))
    return mean_estimate(*sums, samples)


def hamming_tail_tree(
    shape: TreeShape,
    k: int,
    c1: int,
    c2: int,
    threshold: float,
    samples: int,
    rng: RandomSource,
) -> TailEstimate:
    """Pr[number of disagreeing leaves > threshold] under the tree coupling.

    Like `estimate_hamming`, draws only the disagreement frontier.
    """
    successes, _ = batch_sums(
        samples, shape.leaf_count,
        lambda m: _hamming_distances(shape, k, c1, c2, m, rng) > threshold)
    return tail_estimate(threshold, int(successes), samples)


# ---------------------------------------------------------------------------
# the upward channel


def upward_channel_tv(dist: ColorDistribution, c1: int, c2: int):
    """Distance between the laws of a fresh neighbor's other endpoint when
    the new vertex is pinned to c1 versus c2.

    Equals max of mu(c1)/(1-mu(c2)) and mu(c2)/(1-mu(c1)).
    """
    c1 = _check_color(dist.k, c1, "c1")
    c2 = _check_color(dist.k, c2, "c2")
    p1 = dist.probability(c1)
    p2 = dist.probability(c2)
    if p1 == 1 or p2 == 1:
        raise InfeasibleChannelError(
            "conditioning forbids a color of probability 1; the channel is degenerate"
        )
    return max(p1 / (1 - p2), p2 / (1 - p1))


def channel_tv_bound(dist: ColorDistribution):
    """The coarser bound p_max/(1 - p_max), valid for every color pair."""
    p = exact_engine.p_max(dist)
    if p == 1:
        raise InfeasibleChannelError("distribution is a point mass; bound diverges")
    return p / (1 - p)


# ---------------------------------------------------------------------------
# interpolation between two leaf colorings


def interpolation_path(
    x: PartialLeafColoring, y: PartialLeafColoring
) -> list[PartialLeafColoring]:
    """x, ..., all differing sites unconstrained, ..., y; one leaf at a time.

    Differing sites are visited in ascending leaf order.  Consecutive
    elements differ in exactly one position.
    """
    if x.k != y.k or len(x) != len(y):
        raise ValidationError("interpolation endpoints must share shape and k")
    sites = [int(i) for i in np.flatnonzero(x.values != y.values)]
    path = [x]
    vals = x.values.copy()
    for i in sites:
        vals[i] = 0
        path.append(PartialLeafColoring(x.k, vals.copy()))
    for i in sites:
        vals[i] = y.values[i]
        path.append(PartialLeafColoring(x.k, vals.copy()))
    return path


def single_disagreement_report(
    shape: TreeShape, k: int, first: PartialLeafColoring, second: PartialLeafColoring
) -> dict:
    """Exact root-law TV for two colorings differing at one leaf, next to the
    product over that leaf's ancestors of p_max/(1-p_max) in the pruned tree."""
    check_leaf_coloring(shape, first)
    check_leaf_coloring(shape, second)
    diff = np.flatnonzero(first.values != second.values)
    if diff.size != 1:
        raise ValidationError("colorings must differ at exactly one leaf")
    leaf_pos = int(diff[0])
    exact_tv = exact_engine.tv_root(shape, k, first, second)
    vertex = shape.level_start(shape.depth) + leaf_pos
    bound = None
    chain = []
    factor = 1
    while vertex != 0:
        parent = (vertex - 1) // shape.branching
        dist = exact_engine.vertex_conditional_marginal(
            shape, k, first, parent, removed_child=vertex
        )
        factor = factor * channel_tv_bound(dist)
        chain.append(parent)
        vertex = parent
    bound = factor if chain else None
    return {
        "leaf": leaf_pos,
        "exact_tv": exact_tv,
        "channel_bound": bound,
        "ancestors": chain,
    }


def interpolation_tv_report(
    shape: TreeShape, k: int, x: PartialLeafColoring, y: PartialLeafColoring
) -> dict:
    """Per-step exact TVs along the interpolation path, with channel bounds.

    The sum over steps dominates the direct TV by the triangle inequality;
    each step's bound is the ancestor-product from single_disagreement_report.
    """
    path = interpolation_path(x, y)
    steps = []
    for z, z_next in zip(path, path[1:]):
        steps.append(single_disagreement_report(shape, k, z, z_next))
    total = sum(step["exact_tv"] for step in steps) if steps else 0
    return {
        "steps": steps,
        "stepwise_total": total,
        "direct_tv": exact_engine.tv_root(shape, k, x, y) if steps else 0,
    }


# ---------------------------------------------------------------------------
# Monte Carlo bias and concentration estimators


def _root_deviations(
    shape: TreeShape, k: int, c: int, n: int, rng: RandomSource
) -> np.ndarray:
    """|P(root=c | leaves) - 1/k| for n independent broadcasts."""
    rows = broadcast_sampler.posterior_rows(shape, k, n, rng)
    return np.abs(rows[:, c - 1] - 1.0 / k)


def estimate_alpha(
    shape: TreeShape, k: int, c: int, samples: int, rng: RandomSource
) -> Estimate:
    """Average deviation |P(root=c | leaves) - 1/k| over broadcast leaves."""
    c = _check_color(k, c, "c")
    sums = batch_sums(samples, max(shape.leaf_count, k),
                      lambda m: _root_deviations(shape, k, c, m, rng))
    return mean_estimate(*sums, samples)


@dataclass(frozen=True)
class BetaTvReport:
    """Two estimators of how far apart two conditioned root laws are.

    `coupling_bound` averages tv_root over coupled pairs (an upper bound
    by construction); `plugin_tv` is the empirical TV between re-inferred
    root colors.  Different quantities -- keep the labels apart.
    """

    coupling_bound: Estimate
    plugin_tv: Estimate


def estimate_beta_tv(
    shape: TreeShape, k: int, c1: int, c2: int, samples: int, rng: RandomSource
) -> BetaTvReport:
    """How far apart the root laws are, given leaves broadcast from root c1
    versus root c2.

    Draws coupled leaf pairs from roots c1 and c2 and reports both the mean
    TV between their exact root posteriors and the plug-in TV between
    root colors redrawn from those posteriors (see BetaTvReport).
    """
    c1, c2 = _check_roots(k, c1, c2)
    if c1 == c2:
        zero = Estimate(mean=0.0, stderr=0.0, n=samples)
        return BetaTvReport(coupling_bound=zero, plugin_tv=zero)
    gen = rng.generator
    counts = np.zeros((2, k), dtype=np.int64)  # plug-in root draws per conditioning

    def posterior_tv(m: int) -> np.ndarray:
        x, y, _ = coupled_leaf_rows(shape, k, c1, c2, m, rng)
        px = exact_engine.root_marginal_batch(shape, k, x)
        py = exact_engine.root_marginal_batch(shape, k, y)
        # plug-in: independent re-inferred root draws from each conditioning
        for count, rows in zip(counts, (px, py)):
            draws = broadcast_sampler.sample_from_rows(rows, gen)
            count += np.bincount(draws, minlength=k + 1)[1:]
        return 0.5 * np.abs(px - py).sum(axis=1)

    sums = batch_sums(samples, max(shape.leaf_count, k) * 2, posterior_tv)
    coupling = mean_estimate(*sums, samples)
    freq1 = counts[0] / samples
    freq2 = counts[1] / samples
    tv_plug = 0.5 * float(np.abs(freq1 - freq2).sum())
    sign = np.sign(freq1 - freq2)
    var1 = (1.0 - float(sign @ freq1) ** 2) / samples
    var2 = (1.0 - float(sign @ freq2) ** 2) / samples
    plugin = Estimate(
        mean=tv_plug, stderr=0.5 * math.sqrt(max(0.0, var1 + var2)), n=samples
    )
    return BetaTvReport(coupling_bound=coupling, plugin_tv=plugin)


def concentration_tail(
    shape: TreeShape, k: int, c: int, threshold: float, samples: int, rng: RandomSource
) -> TailEstimate:
    """Monte Carlo Pr[|P(root=c | leaves) - 1/k| > threshold] under broadcast."""
    if not 0 < threshold < 1:
        raise ValidationError("threshold must lie in (0, 1)")
    c = _check_color(k, c, "c")
    successes, _ = batch_sums(
        samples, max(shape.leaf_count, k),
        lambda m: _root_deviations(shape, k, c, m, rng) > threshold)
    return tail_estimate(threshold, int(successes), samples)


def check_concentration_reduction(A: float, delta: float, measured_tail: float) -> bool:
    """Whether a measured tail obeys the bound 2(e^{-1/delta} + A/delta)."""
    if not 0 < delta < 0.1:
        raise ValidationError("delta must lie in (0, 1/10)")
    if A < 0:
        raise ValidationError("A must be nonnegative")
    return measured_tail <= 2 * (math.exp(-1.0 / delta) + A / delta)
