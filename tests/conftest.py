"""Shared helpers for the test suite: statistics, exact laws, the bottom
blocks' unused-color sets, oracles for the exact dynamics' state space
and the CLI subprocess environment."""
from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
from scipy import stats

import treecolor
from treecolor import InfeasibleBoundaryError, RandomSource, TreeShape
from treecolor.broadcast_sampler import _level_at
from treecolor.dynamics import block_root, block_vertices
from treecolor.exact_engine import _unused_slot_law

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

    Drawn from the stream `posterior_rows` reads at height 1, written out
    apart from the library's draw: a broadcast to depth - 1; one uniform
    per block, whose u is the number of CDF entries of `_unused_slot_law`
    at or below it; then k - 1 selection rounds, one uniform per block
    with u > 0 in block order, where slot s is color s below the block's
    own color and s + 1 above it.
    """
    gen = rng.generator
    level = _level_at(k, shape.branching, shape.depth - 1, n, gen, root_colors)
    own = level.reshape(-1) - 1
    _, cdf = _unused_slot_law(shape.branching, k)
    u = np.searchsorted(cdf, gen.random(own.size), side="right")
    busy = np.flatnonzero(u > 0)
    need = u[busy]
    unused = np.zeros((own.size, k), dtype=bool)
    unused[np.arange(own.size), own] = True
    for slot in range(k - 1):
        pick = gen.random(busy.size) * (k - 1 - slot) < need
        need = need - pick
        color = slot + (slot >= own[busy])
        unused[busy[pick], color[pick]] = True
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


def enumerate_states_recursive(shape: TreeShape, k: int) -> list[tuple]:
    """Oracle: all proper colorings, lexicographic in the level-order color
    vector, by a search that recurses once per vertex (the recursion limit
    is raised to fit the tree)."""
    n, b = shape.vertex_count, shape.branching
    states = []
    assignment = [0] * n

    def extend(v: int):
        if v == n:
            states.append(tuple(assignment))
            return
        parent_color = assignment[(v - 1) // b] if v else None
        for c in range(1, k + 1):
            if c != parent_color:
                assignment[v] = c
                extend(v + 1)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + 100))
    try:
        extend(0)
    finally:
        sys.setrecursionlimit(limit)
    return states


@lru_cache(maxsize=8)
def outside_groups_oracle(shape: TreeShape, k: int, block_depth: int) -> dict[int, list]:
    """Oracle: per block root, in first-selected order, the indices of the
    states of `enumerate_states_recursive` grouped by a dict keyed by the
    tuple of their colors outside the block, groups and members in
    enumeration order.  Cached: callers must not mutate the result."""
    states = enumerate_states_recursive(shape, k)
    groups: dict[int, list] = {}
    for v in range(shape.vertex_count):
        root = block_root(shape, v, block_depth)
        if root in groups:
            continue
        inside = set(block_vertices(shape, root, block_depth))
        outside = [w for w in range(shape.vertex_count) if w not in inside]
        by_outside: dict[tuple, list[int]] = {}
        for i, s in enumerate(states):
            by_outside.setdefault(tuple(s[w] for w in outside), []).append(i)
        groups[root] = list(by_outside.values())
    return groups


def block_projection(f, shape: TreeShape, k: int, block_depth: int, v: int) -> np.ndarray:
    """The heat-bath kernel a move at v applies to f: each state's value
    replaced by the mean over its group of `outside_groups_oracle`, not of
    `dynamics._outside_groups`, which the checks that use it test."""
    arr = np.asarray(f, dtype=float)
    out = np.empty_like(arr)
    groups = outside_groups_oracle(shape, k, block_depth)
    for members in groups[block_root(shape, v, block_depth)]:
        out[members] = arr[members].mean()
    return out


def cli_subprocess_env() -> dict:
    """The environment for a `python -m treecolor.cli` subprocess: PYTHONPATH
    leads with the directory of the package these tests import, so the
    subprocess runs the same code, installed or not."""
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
