"""Shared helpers for the test suite: statistics, exact laws, the bottom
blocks' unused-color sets and the CLI subprocess environment."""
from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import stats

import treecolor
from treecolor import InfeasibleBoundaryError, RandomSource, TreeShape
from treecolor.broadcast_sampler import _level_at, _unused_entries

CHI2_P_FLOOR = 0.001


def chi2_pvalue(observed, probs):
    """Goodness-of-fit p-value; cells with expected < 5 are pooled."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(probs, dtype=float) * observed.sum()
    assert observed[expected == 0].sum() == 0, "event of probability zero observed"
    observed = observed[expected > 0]
    expected = expected[expected > 0]
    small = expected < 5
    if small.any():
        observed = np.concatenate([observed[~small], [observed[small].sum()]])
        expected = np.concatenate([expected[~small], [expected[small].sum()]])
    chi2 = ((observed - expected) ** 2 / expected).sum()
    return stats.chi2.sf(chi2, len(observed) - 1)


def downward_leaf_law(shape: TreeShape, k: int, root_color: int) -> dict[tuple, Fraction]:
    """Exact law of the leaf row given the root color, by summing over the
    internal levels (independent oracle for the samplers)."""
    laws = {(root_color,): Fraction(1)}
    width = 1
    for _ in range(shape.depth):
        width *= shape.branching
        nxt: dict[tuple, Fraction] = {}
        for row, p in laws.items():
            parents = [row[i // shape.branching] for i in range(width)]
            choices = [[c for c in range(1, k + 1) if c != parent] for parent in parents]
            step_p = p / Fraction((k - 1) ** width)
            for combo in product(*choices):
                nxt[combo] = nxt.get(combo, Fraction(0)) + step_p
        laws = nxt
    return laws


def block_unused_sets(
    shape: TreeShape, k: int, n: int, rng: RandomSource, root_colors=None
) -> np.ndarray:
    """(n, blocks, k) bool: True where a bottom block leaves color c unused.

    The library's one occupancy draw (`_unused_entries`) below a broadcast
    to depth - 1, scattered densely; `posterior_rows` at height 1 draws the
    same sets from the same stream.
    """
    gen = rng.generator
    level = _level_at(k, shape.branching, shape.depth - 1, n, gen, root_colors)
    _, vertex, color = _unused_entries(level, k, shape.branching, gen)
    unused = np.zeros((level.size, k), dtype=bool)
    unused[vertex, color] = True
    return unused.reshape(level.shape + (k,))


def unused_log_factors(unused: np.ndarray) -> np.ndarray:
    """log(1 - m) for the messages of height-1 vertices with the given
    unused-color sets: m is uniform on the s unused colors, so the factor
    is log(1 - 1/s) there and 0 on the used ones."""
    sizes = unused.sum(axis=-1, keepdims=True)
    if (sizes == 0).any():
        raise InfeasibleBoundaryError("a bottom block uses all colors")
    with np.errstate(divide="ignore"):
        return np.where(unused, np.log1p(-1.0 / sizes), 0.0)


def cli_subprocess_env() -> dict:
    """The environment for a `python -m treecolor.cli` subprocess: PYTHONPATH
    leads with the directory of the package these tests import, so the
    subprocess runs the same code, installed or not."""
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
