"""Heat-bath block dynamics on proper colorings, with exact diagnostics.

A move picks a uniform vertex, walks up to its `block_depth`-th ancestor
(clipped at the root), and redraws the depth-`block_depth` subtree under
that ancestor uniformly among proper completions given everything
outside: the block root's parent color and, for each vertex on the
block's lower frontier, the colors of its children outside the block.
Routing the chosen vertex to its ancestor keeps blocks full-depth and
makes every move a whole-tree resample once block_depth reaches the tree
depth; at block_depth 0 it is plain single-site Glauber.

Every move goes through one in-place kernel that reads and redraws only
the block and its outside neighbors, so a move costs O(block).  The
kernel makes one exactly uniform draw per move: it counts the block's
proper completions and decodes one integer below that count, taken from
a pre-drawn 64-bit word, top-down into a completion.  A chain draws its
vertex choices and words in batches, runs on one list of colors, keeps
the block counts it has computed for the length of the call, and
validates its coloring once, at exit; single moves (`heat_bath_block`,
`step`) draw one word, copy, redraw and validate the new state.

On instances small enough to enumerate, the states are split once per
block root by their colors outside the block (`_outside_groups`).  A
move on that block lands uniformly on the current state's group, so the
exact transition matrix is assembled from these groups as integer
numerators over one common denominator, and the entropy functionals for
the local-vs-global entropy comparison read the same groups: one block
decomposition for every exact diagnostic.
The mixing time is certified: float64 powers of the kernel decide the
1/(2e) threshold test at step t whenever the computed worst-start TV is
farther from it than the proven rounding bound 4(t+1)(n+2)2^-53 for n
states, and a step closer than that falls back to exact integer matrix
powers, so the reported t is always exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .broadcast_sampler import sample_full
from .errors import CapacityError, NonErgodicChainError, ValidationError
from .exact_engine import count_levels
from .rng import RandomSource, word_below
from .tree_model import FullColoring, TreeShape, is_proper

STATE_GUARD = 10**4
_MIXING_STATE_GUARD = 400
_MIXING_STEP_GUARD = 10_000
_MEMO_CAP = 1 << 15  # count vectors one chain's memo keeps, whatever its length
_CHUNK = 1 << 12  # moves whose vertex choices and words are drawn at once


@dataclass(frozen=True)
class DynamicsState:
    shape: TreeShape
    k: int
    coloring: FullColoring
    time: int = 0

    def __post_init__(self):
        if self.k != self.coloring.k:
            raise ValidationError("state k does not match its coloring")
        if len(self.coloring) != self.shape.vertex_count:
            raise ValidationError("coloring length does not match the tree")


def initial_state(shape: TreeShape, k: int, rng: RandomSource) -> DynamicsState:
    """A uniform proper coloring to start a chain from."""
    return DynamicsState(shape, k, sample_full(shape, k, rng), 0)


def block_vertices(shape: TreeShape, v: int, block_depth: int) -> list[int]:
    """All descendants of v within distance block_depth, v included."""
    shape._check_vertex(v)
    return _block(shape, v, block_depth)[0]


def block_root(shape: TreeShape, v: int, block_depth: int) -> int:
    """The ancestor of v whose depth-`block_depth` block contains v.

    Walking up block_depth levels (clipped at the root) before updating
    keeps chosen blocks full depth; vertices near the leaves select the
    same block as their ancestors instead of a truncated one.
    """
    shape._check_vertex(v)
    if block_depth < 0:
        raise ValidationError("block_depth must be >= 0")
    for _ in range(block_depth):
        if v == 0:
            break
        v = (v - 1) // shape.branching
    return v


def _block(shape: TreeShape, v: int, block_depth: int) -> tuple[list[int], int, int]:
    """The block under v, truncated at the leaves: its vertices in level
    order, how many lie above its frontier (its last level), its height."""
    if block_depth < 0:
        raise ValidationError("block_depth must be >= 0")
    levels = [[v]]
    b = shape.branching
    for _ in range(block_depth):
        nxt = []
        for w in levels[-1]:
            if not shape.is_leaf(w):
                nxt.extend(range(w * b + 1, w * b + b + 1))
        if not nxt:
            break
        levels.append(nxt)
    vertices = [w for level in levels for w in level]
    return vertices, len(vertices) - len(levels[-1]), len(levels) - 1


def _words(gen: np.random.Generator, size: int | None = None):
    """Uniform 64-bit words for `word_below`, as Python ints: one word, or
    a list of `size`."""
    return gen.integers(0, 2**64, size=size, dtype=np.uint64).tolist()


def heat_bath_block(
    state: DynamicsState, v: int, block_depth: int, rng: RandomSource
) -> DynamicsState:
    """Resample the block under v exactly uniformly given the outside.

    Copies the coloring, redraws the block with `_resample` from one
    fresh word and returns a new state, validated once as a
    `FullColoring`; `state` is unchanged.
    """
    shape = state.shape
    shape._check_vertex(v)
    values = state.coloring.values.tolist()
    gen = rng.generator
    _resample(values, shape.branching, state.k, _block(shape, v, block_depth),
              _words(gen), gen, {})
    return DynamicsState(shape, state.k, FullColoring(state.k, values), state.time)


def _resample(
    values: list, b: int, k: int, block: tuple, word: int, gen: np.random.Generator, memo: dict
) -> None:
    """Redraw `block` (from `_block`) of `values` in place, exactly uniformly.

    The block is a complete subtree; each frontier vertex allows the
    colors its children outside the block leave free.  `count_levels`
    counts every block vertex's proper completions by color, bottom-up,
    and `memo` keeps those counts per tuple of frontier bitmasks of
    outside colors, up to `_MEMO_CAP` count vectors in all.  A vertex
    colored c has prod over its children of (T_child - m_child[c])
    completions, where T_child sums the child's counts, so one r in
    [0, total) decodes top-down into a completion: r picks the top color
    by cumulative weight, and the remainder splits mixed-radix with
    divmod over the children, recursively down to the frontier.  The
    decoding is a bijection onto the completions, so the redraw is
    exactly uniform when r is; r comes from the pre-drawn `word` through
    `word_below`.  Only the block and its outside neighbors are read, so
    a move costs O(block) whatever the size of the tree.
    """
    vertices, inner, height = block
    masks = []
    for w in vertices[inner:]:
        m = 0
        for c in values[w * b + 1 : w * b + b + 1]:  # empty past the leaves
            m |= 1 << c
        masks.append(m)
    # the tuple's length, b**height, fixes the block's shape
    key = tuple(masks)
    table = memo.get(key)
    if table is None:
        bottom = [[1 - (m >> c & 1) for c in range(1, k + 1)] for m in masks]
        counts = [vec for level in reversed(count_levels(bottom, b, height)) for vec in level]
        table = counts, [sum(vec) for vec in counts]
        if len(memo) * len(vertices) < _MEMO_CAP:
            memo[key] = table
    counts, totals = table
    # the total is positive: the block's current coloring is a completion
    v = vertices[0]
    avoid = values[(v - 1) // b] if v else 0
    total = totals[0] - counts[0][avoid - 1] if avoid else totals[0]
    digits = [0] * len(vertices)
    digits[0] = word_below(gen, word, total)
    for p, w in enumerate(vertices):
        r = digits[p]
        avoid = values[(w - 1) // b] if w else 0
        for c, weight in enumerate(counts[p], 1):
            if c != avoid:
                if r < weight:
                    break
                r -= weight
        values[w] = c
        if p < inner:
            for q in range(p * b + 1, p * b + b + 1):
                r, digits[q] = divmod(r, totals[q] - counts[q][c - 1])


def step(state: DynamicsState, block_depth: int, rng: RandomSource) -> DynamicsState:
    """One move: uniform vertex choice, then a heat-bath update of the
    block rooted at that vertex's block_depth-th ancestor."""
    v = int(rng.generator.integers(0, state.shape.vertex_count))
    nxt = heat_bath_block(state, block_root(state.shape, v, block_depth), block_depth, rng)
    nxt = DynamicsState(nxt.shape, nxt.k, nxt.coloring, state.time + 1)
    assert is_proper(nxt.shape, nxt.coloring)
    return nxt


def run_chain(
    state: DynamicsState,
    block_depth: int,
    steps: int,
    rng: RandomSource,
    visit_counts: dict | None = None,
    thin: int = 1,
) -> DynamicsState:
    """Advance `steps` moves; optionally tally visited colorings by tuple key.

    Same per-step law as step(), but vertex choices and words are
    pre-drawn in batches of `_CHUNK` moves, so the raw stream consumption
    differs from looping step().  With `thin=m`, only every m-th visited
    coloring is tallied -- consecutive chain states are correlated, so
    thinned tallies are the ones to feed into independence-assuming test
    statistics.

    The chain runs in place on one list of colors, each move redrawing
    only its block, and the final coloring is validated once, as a
    `FullColoring` and for properness, when the chain returns; `state`
    itself is unchanged.  The block-count memo lives for this call only.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if thin < 1:
        raise ValidationError("thin must be >= 1")
    if steps == 0:
        return state
    shape, k = state.shape, state.k
    gen = rng.generator
    roots = [block_root(shape, v, block_depth) for v in range(shape.vertex_count)]
    blocks = {root: _block(shape, root, block_depth) for root in set(roots)}
    block_of = [blocks[root] for root in roots]
    values = state.coloring.values.tolist()
    b = shape.branching
    memo: dict = {}
    done = 0
    while done < steps:
        size = min(_CHUNK, steps - done)
        choices = gen.integers(0, shape.vertex_count, size=size).tolist()
        for v, word in zip(choices, _words(gen, size)):
            _resample(values, b, k, block_of[v], word, gen, memo)
            done += 1
            if visit_counts is not None and done % thin == 0:
                key = tuple(values)
                visit_counts[key] = visit_counts.get(key, 0) + 1
    final = DynamicsState(shape, k, FullColoring(k, values), state.time + steps)
    assert is_proper(shape, final.coloring)
    return final


# ---------------------------------------------------------------------------
# exact matrix diagnostics


def state_space_size(shape: TreeShape, k: int) -> int:
    """k(k-1)^(V-1): proper colorings of a tree factor along edges."""
    return k * (k - 1) ** (shape.vertex_count - 1)


def _check_state_guard(size: int) -> None:
    if size > STATE_GUARD:
        raise CapacityError(
            f"{size} proper colorings exceed the {STATE_GUARD} state guard"
        )


def enumerate_states(shape: TreeShape, k: int) -> list[tuple]:
    """All proper colorings, lexicographic in the level-order color vector."""
    _check_state_guard(state_space_size(shape, k))
    n = shape.vertex_count
    b = shape.branching
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

    extend(0)
    return states


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact block-dynamics kernel on an enumerated tiny instance.

    Entry (i, j) is rows[i][j] / denominator: each row maps a column to a
    positive integer numerator and omits the zero entries, and the
    denominator is the least common one, the lcm of the reduced entries'
    denominators.
    """

    shape: TreeShape
    k: int
    block_depth: int
    states: tuple
    rows: tuple = field(repr=False)  # tuple of {column: int numerator}
    denominator: int

    @property
    def size(self) -> int:
        return len(self.states)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i].get(j, 0), self.denominator)

    def to_dense(self) -> np.ndarray:
        """float64 entries, each the correctly rounded value of its fraction:
        Python's int / int true division rounds correctly.  Built on the
        first call; every call returns that one read-only array."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        dense = np.zeros((self.size, self.size))
        d = self.denominator
        for i, row in enumerate(self.rows):
            dense[i, list(row)] = [num / d for num in row.values()]
        dense.setflags(write=False)
        return dense


def build_transition_matrix(
    shape: TreeShape, k: int, block_depth: int
) -> TransitionMatrix:
    """P = (1/N) * sum over v of the heat-bath kernel on the block that a
    move choosing v updates (the block rooted at v's block_depth-th
    ancestor), matching step() exactly.

    A move on the block under r from state x lands uniformly on the
    states that agree with x outside the block: x's group in
    `_outside_groups`.  So a block root r that m_r of the N vertices
    select adds m_r / (N |G|) to every entry of G x G, for each of its
    groups G: m_r * (L // |G|) over N * L, with L the lcm of the group
    sizes.  The numerators and N * L are then divided by their common
    gcd, which leaves the least common denominator.  Roots are taken in
    increasing order and each group's states in enumeration order, so
    every row lists its columns in the order a per-state scan of the
    block's completions would.
    """
    states, groups, root_of = _outside_groups(shape, k, block_depth)
    lcm = math.lcm(*(len(group) for members in groups.values() for group in members))
    rows = [dict() for _ in states]
    for root in sorted(groups):
        count = root_of.count(root)
        for group in groups[root]:
            weight = count * (lcm // len(group))
            members = group.tolist()
            for i in members:
                row = rows[i]
                for j in members:
                    row[j] = row[j] + weight if j in row else weight
    denominator = shape.vertex_count * lcm
    common = math.gcd(denominator, *(num for row in rows for num in row.values()))
    if common > 1:
        rows = [{j: num // common for j, num in row.items()} for row in rows]
        denominator //= common
    return TransitionMatrix(
        shape=shape,
        k=k,
        block_depth=block_depth,
        states=states,
        rows=tuple(rows),
        denominator=denominator,
    )


def stationary_and_gap(matrix: TransitionMatrix) -> dict:
    """Exact uniform-stationarity check plus a numerical spectral gap."""
    size = matrix.size
    col_sums = [0] * size
    for row in matrix.rows:
        for j, num in row.items():
            col_sums[j] += num
    is_uniform = all(s == matrix.denominator for s in col_sums)
    dense = matrix.to_dense()
    if size <= 4000:
        eigs = np.linalg.eigvalsh(dense)
        lambda2 = float(eigs[-2]) if size > 1 else 0.0
    else:
        lambda2 = _second_eigenvalue_power(dense)
    return {"is_uniform_stationary": is_uniform, "spectral_gap": 1.0 - lambda2}


def _second_eigenvalue_power(dense: np.ndarray, tol: float = 1e-10) -> float:
    """Deflated power iteration on (I+P)/2; monotone in the signed eigenvalue.

    Stops once the residual |y - mu x| of the unit iterate x, with
    y = ((I+P)/2)x and mu = x.y, is at most `tol`: then mu lies within tol
    of an eigenvalue, and for the symmetric kernel within about
    tol**2 / gap of it.  One matrix-vector product per step.
    """
    size = dense.shape[0]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(size)
    x -= x.mean()
    x /= np.linalg.norm(x)
    for _ in range(100_000):
        y = 0.5 * (x + dense @ x)
        y -= y.mean()
        mu = float(x @ y)
        if np.linalg.norm(y - mu * x) <= tol:
            break
        x = y / np.linalg.norm(y)
    return 2.0 * mu - 1.0


def is_ergodic(matrix: TransitionMatrix) -> bool:
    """Reachability over nonzero transitions (symmetric, so plain BFS)."""
    size = matrix.size
    seen = [False] * size
    stack = [0]
    seen[0] = True
    found = 1
    while stack:
        i = stack.pop()
        for j in matrix.rows[i]:
            if not seen[j]:
                seen[j] = True
                found += 1
                stack.append(j)
    return found == size


def _check_mixing_size(size: int) -> None:
    if size > _MIXING_STATE_GUARD:
        raise CapacityError(
            f"exact mixing time supports at most {_MIXING_STATE_GUARD} states"
        )


def check_exact_capacity(shape: TreeShape, k: int) -> None:
    """Raise, before any matrix is built, the CapacityError that
    enumerate_states or mixing_time_exact would raise on this instance."""
    size = state_space_size(shape, k)
    _check_state_guard(size)
    _check_mixing_size(size)


def mixing_time_exact(matrix: TransitionMatrix) -> int:
    """Smallest t with worst-start TV from uniform at most 1/(2e), certified.

    Powers of the float64 kernel decide each step whenever the computed TV
    is farther from 1/(2e) than B_t = 4(t+1)(n+2)2^-53, a proven bound on
    its rounding error (derived below).  A step inside that band hands the
    whole computation to exact integer powers, so the answer is always the
    exact one.
    """
    _check_mixing_size(matrix.size)
    if not is_ergodic(matrix):
        raise NonErgodicChainError(
            "transition graph is disconnected; no mixing time exists"
        )
    # Error bound, with u = 2^-53, n states, gamma_n = nu / (1 - nu), and
    # Q_t = P^t against its float copy R_t (R_1 = fl(P), R_t+1 = fl(R_t fl(P))):
    # * fl(P) is entrywise within u*P (to_dense divides each integer
    #   numerator by the denominator, and int / int rounds correctly),
    #   so ||fl(P)|| <= 1 + u and ||fl(P) - P|| <= u in the max-row-sum norm.
    # * A float product of nonnegative matrices is entrywise within
    #   gamma_n*A*B of AB, whatever the summation order (Higham, Accuracy
    #   and Stability of Numerical Algorithms, section 3.5).
    # * So e_t = ||R_t - Q_t|| has e_1 <= u and 1 + e_t+1 <= (1 + u)(1 +
    #   gamma_n)(1 + e_t), hence e_t <= exp(t(u + gamma_n)) - 1.  Under
    #   the guards t(n+1)u < 1e-9, so e_t <= 1.001 t(n+1)u: the row-sum
    #   error grows like t(gamma_n + u).  Underflow adds at most n 2^-1074
    #   per entry and product, far below what follows.
    # * The worst-row TV is 1/2-Lipschitz in e_t.  Computing it from R_t
    #   costs u/2 for fl(1/n) and 1.5 gamma_n for the n-term sum of
    #   rounded |differences| (a sum of at most 3); fl(1/(2e)) is within u
    #   of 1/(2e), and forming TV +- B_t rounds by at most 1.1u more.
    # Total: 0.51 t(n+1)u + 1.51 nu + 3u, which B_t dominates.
    kernel = power = matrix.to_dense()
    uniform = 1.0 / matrix.size
    threshold = 1.0 / (2.0 * math.e)
    for t in range(1, _MIXING_STEP_GUARD + 1):
        tv = 0.5 * float(np.abs(power - uniform).sum(axis=1).max())
        bound = 4.0 * (t + 1) * (matrix.size + 2) * 2.0**-53
        if tv + bound <= threshold:
            return t
        if tv - bound <= threshold:
            return _mixing_time_integer(matrix)
        power = power @ kernel
    raise CapacityError(f"mixing time exceeds {_MIXING_STEP_GUARD} steps")


def _mixing_time_integer(matrix: TransitionMatrix) -> int:
    """mixing_time_exact from exact integer powers over a common denominator.

    The comparison against the irrational threshold is decided with
    rational bounds on e, tight to ~1e-60, instead of floats.
    """
    size = matrix.size
    denom = matrix.denominator
    base = [[row.get(j, 0) for j in range(size)] for row in matrix.rows]
    base_cols = list(zip(*base))
    e_lo, term = Fraction(0), Fraction(1)
    for i in range(1, 52):
        e_lo += term
        term /= i
    e_hi = e_lo + 2 * term
    power = base
    scale = denom
    for t in range(1, _MIXING_STEP_GUARD + 1):
        worst = max(sum(abs(size * m - scale) for m in row) for row in power)
        # TV <= 1/(2e)  <=>  worst * e <= size * scale
        if worst * e_hi <= size * scale:
            return t
        if worst * e_lo <= size * scale:  # pragma: no cover - e known to 1e-60
            raise CapacityError("mixing threshold undecidable at current e precision")
        power = [[sum(x * y for x, y in zip(row, col)) for col in base_cols] for row in power]
        scale *= denom
    raise CapacityError(f"mixing time exceeds {_MIXING_STEP_GUARD} steps")


# ---------------------------------------------------------------------------
# entropy functionals over the enumerated state space


def entropy_functional(f) -> float:
    """Ent(f) = E[f ln f] - E[f] ln E[f] under the uniform distribution."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("f must be a nonempty vector")
    if (arr < 0).any():
        raise ValidationError("f must be nonnegative")
    if arr.mean() == 0:
        raise ValidationError("f must not be identically zero")
    return _entropy(arr)


def _entropy(arr: np.ndarray) -> float:
    """E[f ln f] - E f ln E f for a nonnegative float vector; 0 if E f = 0."""
    mean = arr.mean()
    if mean == 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        flnf = np.where(arr > 0, arr * np.log(arr), 0.0)
    return float(flnf.mean() - mean * math.log(mean))


@lru_cache(maxsize=8)  # an entry holds every state of its instance
def _outside_groups(shape: TreeShape, k: int, block_depth: int):
    """The enumerated states, grouped per block root by their colors
    outside the block, and the block root of each vertex.

    A move choosing v updates the depth-block_depth subtree under
    root_of[v], v's block_depth-th ancestor, and lands uniformly on the
    group of the current state in groups[root_of[v]].  The transition
    matrix and the entropy functionals both read this one decomposition.
    Cached, so each group is a read-only index array, in enumeration
    order, and every container is a tuple or a read-only mapping.
    """
    states = tuple(enumerate_states(shape, k))
    root_of = tuple(block_root(shape, v, block_depth) for v in range(shape.vertex_count))
    groups: dict[int, tuple] = {}
    for root in root_of:
        if root in groups:
            continue
        inside = set(block_vertices(shape, root, block_depth))
        outside = [w for w in range(shape.vertex_count) if w not in inside]
        by_outside: dict[tuple, list[int]] = {}
        for i, s in enumerate(states):
            by_outside.setdefault(tuple(s[w] for w in outside), []).append(i)
        members = tuple(np.array(group) for group in by_outside.values())
        for index in members:
            index.setflags(write=False)
        groups[root] = members
    return states, MappingProxyType(groups), root_of


def _vertex_groups(f, shape: TreeShape, k: int, block_depth: int, v: int):
    """f as a float vector over the states, checked, and v's groups."""
    arr = np.asarray(f, dtype=float)
    states, groups, root_of = _outside_groups(shape, k, block_depth)
    if arr.shape != (len(states),):
        raise ValidationError("f must have one entry per enumerated state")
    return arr, groups[root_of[v]]


def conditional_entropy(f, shape: TreeShape, k: int, block_depth: int, v: int) -> float:
    """E[Ent(f | colors outside the block a move at v updates)], uniform E."""
    arr, members_of = _vertex_groups(f, shape, k, block_depth, v)
    return sum((len(members) / len(arr) * _entropy(arr[members]) for members in members_of), 0.0)


def local_entropy_sum(f, shape: TreeShape, k: int, block_depth: int) -> float:
    """Sum over vertices of the conditional entropy given the block's outside."""
    return sum(
        conditional_entropy(f, shape, k, block_depth, v)
        for v in range(shape.vertex_count)
    )


def block_projection(f, shape: TreeShape, k: int, block_depth: int, v: int) -> np.ndarray:
    """The heat-bath kernel a move at v applies: conditional mean given the outside."""
    arr, members_of = _vertex_groups(f, shape, k, block_depth, v)
    out = np.empty_like(arr)
    for members in members_of:
        out[members] = arr[members].mean()
    return out


def average_projection(f, shape: TreeShape, k: int, block_depth: int) -> np.ndarray:
    """The full kernel applied to f: average of the per-vertex projections."""
    arr = np.asarray(f, dtype=float)
    acc = np.zeros_like(arr, dtype=float)
    for v in range(shape.vertex_count):
        acc += block_projection(arr, shape, k, block_depth, v)
    return acc / shape.vertex_count


def entropy_ratio_report(
    shape: TreeShape, k: int, block_depth: int, trials: int, rng: RandomSource
) -> dict:
    """Worst observed ratio of summed local entropies to global entropy over
    random log-normal test functions.  Diagnostic only."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    states = _outside_groups(shape, k, block_depth)[0]
    gen = rng.generator
    worst = math.inf
    for _ in range(trials):
        f = gen.lognormal(size=len(states))
        ent = entropy_functional(f)
        if ent <= 0:
            continue
        worst = min(worst, local_entropy_sum(f, shape, k, block_depth) / ent)
    return {"min_ratio": worst, "trials": trials}
