"""Heat-bath block dynamics: kernels, exact matrices, mixing, entropy."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import CHI2_P_FLOOR, chi2_pvalue
from treecolor import dynamics
from treecolor.dynamics import (
    DynamicsState,
    TransitionMatrix,
    average_projection,
    block_projection,
    block_root,
    block_vertices,
    build_transition_matrix,
    conditional_entropy,
    entropy_functional,
    entropy_ratio_report,
    enumerate_states,
    heat_bath_block,
    initial_state,
    is_ergodic,
    local_entropy_sum,
    mixing_time_exact,
    run_chain,
    state_space_size,
    stationary_and_gap,
    step,
)
from treecolor.errors import CapacityError, NonErgodicChainError, ValidationError
from treecolor.rng import RandomSource
from treecolor.tree_model import FullColoring, TreeShape, is_proper


def proper_state(shape: TreeShape, k: int, values) -> DynamicsState:
    state = DynamicsState(shape, k, FullColoring(k, np.asarray(values, dtype=np.int16)))
    assert is_proper(shape, state.coloring)
    return state


# ---------------------------------------------------------------------------
# blocks and single moves


def test_block_vertices_examples():
    shape = TreeShape(2, 2)
    assert block_vertices(shape, 0, 0) == [0]
    assert block_vertices(shape, 0, 1) == [0, 1, 2]
    assert block_vertices(shape, 0, 2) == [0, 1, 2, 3, 4, 5, 6]
    # blocks truncate at the leaves instead of overflowing
    assert block_vertices(shape, 1, 5) == [1, 3, 4]
    assert block_vertices(shape, 3, 2) == [3]
    with pytest.raises(ValidationError):
        block_vertices(shape, 0, -1)
    with pytest.raises(ValidationError):
        block_vertices(shape, 7, 0)
    state = proper_state(shape, 3, [1, 2, 3, 1, 3, 1, 2])
    with pytest.raises(ValidationError):
        heat_bath_block(state, 1, -1, RandomSource(1))
    for block_depth in (0, 1):
        with pytest.raises(ValidationError):
            heat_bath_block(state, 10**6, block_depth, RandomSource(1))


def test_block_root_walks_up_and_clips():
    shape = TreeShape(2, 2)
    assert block_root(shape, 3, 0) == 3
    assert block_root(shape, 3, 1) == 1
    assert block_root(shape, 3, 2) == 0
    assert block_root(shape, 3, 9) == 0
    assert block_root(shape, 6, 1) == 2
    assert block_root(shape, 0, 4) == 0
    with pytest.raises(ValidationError):
        block_root(shape, 1, -1)


def test_state_validation():
    shape = TreeShape(2, 1)
    coloring = FullColoring(3, np.array([1, 2, 3], dtype=np.int16))
    with pytest.raises(ValidationError):
        DynamicsState(shape, 4, coloring)
    with pytest.raises(ValidationError):
        DynamicsState(TreeShape(2, 2), 3, coloring)


def test_initial_state_is_proper_and_deterministic():
    shape = TreeShape(3, 2)
    a = initial_state(shape, 5, RandomSource(7))
    b = initial_state(shape, 5, RandomSource(7))
    assert a.time == 0
    assert is_proper(shape, a.coloring)
    assert np.array_equal(a.coloring.values, b.coloring.values)


def test_single_site_update_hits_exactly_the_free_colors():
    # vertex 1 of a depth-2 tree: its parent has color 1, children 1 and 3,
    # so a heat-bath move must land uniformly on {2} ... here k=4 gives {2, 4}
    shape = TreeShape(2, 2)
    state = proper_state(shape, 4, [1, 2, 3, 1, 3, 1, 2])
    rng = RandomSource(11)
    seen = set()
    for _ in range(200):
        nxt = heat_bath_block(state, 1, 0, rng)
        assert nxt.coloring.values[0] == 1
        assert np.array_equal(nxt.coloring.values[2:], state.coloring.values[2:])
        seen.add(int(nxt.coloring.values[1]))
    assert seen == {2, 4}


def test_block_update_is_uniform_over_proper_completions():
    shape = TreeShape(2, 2)
    k = 3
    state = proper_state(shape, k, [1, 2, 3, 1, 3, 1, 2])
    completions = [
        (c1, c3, c4)
        for c1 in (2, 3)  # root keeps color 1
        for c3 in (1, 2, 3)
        if c3 != c1
        for c4 in (1, 2, 3)
        if c4 != c1
    ]
    assert len(completions) == 8
    index = {c: i for i, c in enumerate(completions)}
    rng = RandomSource(12)
    counts = np.zeros(len(completions))
    for _ in range(16000):
        nxt = heat_bath_block(state, 1, 1, rng)
        vals = nxt.coloring.values
        assert vals[0] == 1 and vals[2] == 3 and vals[5] == 1 and vals[6] == 2
        counts[index[(int(vals[1]), int(vals[3]), int(vals[4]))]] += 1
    assert chi2_pvalue(counts, np.full(8, 1 / 8)) > CHI2_P_FLOOR


def block_completions(shape: TreeShape, k: int, block: list, values) -> list[tuple]:
    """Oracle: every proper coloring of `block` consistent with the frozen
    outside, by depth-first search, in lexicographic order."""
    block_set = set(block)
    b = shape.branching
    completions = []
    scratch = list(values)

    def neighbors_ok(w: int, c: int) -> bool:
        # parents inside the block were assigned already; outside ones are frozen
        if w and scratch[(w - 1) // b] == c:
            return False
        if not shape.is_leaf(w):
            for child in range(w * b + 1, w * b + b + 1):
                if child not in block_set and scratch[child] == c:
                    return False
        return True

    def extend(i: int):
        if i == len(block):
            completions.append(tuple(scratch[w] for w in block))
            return
        w = block[i]
        for c in range(1, k + 1):
            if neighbors_ok(w, c):
                scratch[w] = c
                extend(i + 1)
        scratch[w] = values[w]

    extend(0)
    return completions


EXHAUSTIVE_DECODE = 20_000  # larger blocks decode a sample of words


@pytest.mark.parametrize(
    "branching, depth, k", [(2, 2, 3), (2, 2, 4), (3, 2, 3), (2, 3, 3), (2, 4, 3), (3, 3, 4)]
)
def test_block_decode_is_a_bijection_onto_completions(branching, depth, k):
    # a word r below the block's completion count decodes as r itself, so
    # decoding r = 0 .. count - 1 must list every proper completion exactly
    # once, and r = count must wrap around to r = 0
    shape = TreeShape(branching, depth)
    sampler = np.random.default_rng(900)
    for seed in (901, 902, 903):
        start = initial_state(shape, k, RandomSource(seed)).coloring.values.tolist()
        for block_depth in (1, 2):
            # every vertex as block root: the root block and blocks
            # truncated at the leaves included
            for root in range(shape.vertex_count):
                block = dynamics._block(shape, root, block_depth)
                vertices = block[0]
                inside = set(vertices)
                outside = [w for w in range(shape.vertex_count) if w not in inside]
                completions = None
                if shape.is_leaf(vertices[-1]):
                    # nothing below the block: each vertex avoids its parent
                    # only, so proper colorings factor along the edges
                    count = (k if root == 0 else k - 1) * (k - 1) ** (len(vertices) - 1)
                    if count <= EXHAUSTIVE_DECODE:
                        completions = block_completions(shape, k, vertices, start)
                        assert len(completions) == count
                else:
                    completions = block_completions(shape, k, vertices, start)
                    count = len(completions)
                    assert count <= EXHAUSTIVE_DECODE
                if completions is None:  # the 3**13 blocks of (3, 3, 4) at block depth 2
                    words = sorted({0, count - 1, *sampler.integers(0, count, size=2000).tolist()})
                else:
                    words = range(count)
                memo: dict = {}
                decoded = []
                for r in [*words, count]:
                    values = list(start)
                    dynamics._resample(values, branching, k, block, r, None, memo)
                    assert [values[w] for w in outside] == [start[w] for w in outside]
                    decoded.append(tuple(values[w] for w in vertices))
                    if completions is None:
                        assert is_proper(shape, FullColoring(k, np.array(values, dtype=np.int16)))
                assert decoded.pop() == decoded[0]
                assert len(set(decoded)) == len(decoded)
                if completions is not None:
                    assert sorted(decoded) == sorted(completions)


def test_one_step_law_matches_matrix_row():
    for shape, k, block_depth, start in [
        (TreeShape(2, 1), 3, 0, (1, 2, 2)),
        # the root's block ends at vertices 1 and 2, whose children lie
        # outside it and fix colors those frontier vertices must avoid
        (TreeShape(2, 2), 3, 1, (1, 2, 3, 1, 3, 1, 2)),
    ]:
        matrix = build_transition_matrix(shape, k, block_depth)
        i = matrix.states.index(start)
        row = np.array([float(matrix.entry(i, j)) for j in range(matrix.size)])
        state = proper_state(shape, k, start)
        rng = RandomSource(20260823)
        counts = np.zeros(matrix.size)
        index = {s: j for j, s in enumerate(matrix.states)}
        for _ in range(100_000):
            nxt = step(state, block_depth, rng)
            counts[index[tuple(int(c) for c in nxt.coloring.values)]] += 1
        assert chi2_pvalue(counts, row) > CHI2_P_FLOOR, (shape, block_depth)


def test_full_depth_step_resamples_whole_tree_uniformly():
    # with block_depth = tree depth every chosen vertex routes to the root,
    # so one move lands uniformly on all proper colorings
    shape = TreeShape(2, 1)
    k = 3
    states = enumerate_states(shape, k)
    index = {s: j for j, s in enumerate(states)}
    state = proper_state(shape, k, [1, 2, 2])
    rng = RandomSource(13)
    counts = np.zeros(len(states))
    for _ in range(24000):
        nxt = step(state, 1, rng)
        counts[index[tuple(int(c) for c in nxt.coloring.values)]] += 1
    assert chi2_pvalue(counts, np.full(len(states), 1 / len(states))) > CHI2_P_FLOOR


def test_step_increments_time_and_preserves_properness():
    shape = TreeShape(3, 2)
    state = initial_state(shape, 4, RandomSource(3))
    rng = RandomSource(4)
    for expected_time in (1, 2, 3):
        state = step(state, 1, rng)
        assert state.time == expected_time
        assert is_proper(shape, state.coloring)


# ---------------------------------------------------------------------------
# chains


def test_run_chain_bookkeeping_and_determinism():
    shape = TreeShape(2, 2)
    start = initial_state(shape, 3, RandomSource(0))
    out1 = run_chain(start, 1, 120, RandomSource(5))
    out2 = run_chain(start, 1, 120, RandomSource(5))
    out3 = run_chain(start, 1, 120, RandomSource(6))
    assert out1.time == 120
    assert is_proper(shape, out1.coloring)
    assert np.array_equal(out1.coloring.values, out2.coloring.values)
    assert not np.array_equal(out1.coloring.values, out3.coloring.values)
    assert run_chain(start, 1, 0, RandomSource(5)) is start


def striped_state(shape: TreeShape, k: int) -> DynamicsState:
    """Color 1 + (depth mod k) everywhere: proper, and drawn from no stream."""
    values = [1 + shape.depth_of(v) % k for v in range(shape.vertex_count)]
    return proper_state(shape, k, values)


# Final colorings of run_chain, as digit strings in level order.  They pin
# the one-word stream: per batch of moves, the chain draws every vertex
# choice, then one uniform 64-bit word per move, and each move decodes its
# word into one proper completion of its block.  Any change to what is
# drawn, in what order, or how a word is decoded changes these strings.
PINNED_CHAINS = [
    ((2, 8, 3), 0, 3000, 801, (
        "3213332111111112222222222222222333333333333333333333333333333331"
        "1111111111111111111111111111111111111111111111111111111111111112"
        "2222222222222222222222233222222222222233222232232222222232322322"
        "3222222232222322222222322232222232232222222222322223323222222221"
        "1331311111333313331331313133111313131131333331111221133111311131"
        "3311313333331221113113333223311111333133131133313213122311322311"
        "1223331331311133121313313331213313131313113311113311111333333331"
        "321133122311111331331131133132113113131112213111131131331113133"
    )),
    ((2, 8, 3), 2, 600, 802, (
        "2332221111111323233222322232211211312113113112213333122131322323"
        "3332322333323231232221222233133222221121133113323222312333111312"
        "1112112131111131212211213123111333122131331321331333112222311113"
        "1133131112322112323112122222222132211333122321312221133333212333"
        "1232223313322132321222233223322333132333332333322212231223333221"
        "2212233331133123321122212312221123222221223223331311112222223221"
        "1223212112321232332131211132323132211213232333231313313111311333"
        "322111332331212222231311131232123113131233222121212123122331122"
    )),
    ((3, 3, 4), 1, 1000, 803, "2411133444333334414211313212222441124221"),
]


@pytest.mark.parametrize(
    "dims, block_depth, steps, seed, final",
    PINNED_CHAINS,
    ids=[f"delta{d[0]}-depth{d[1]}-k{d[2]}-block{bd}" for d, bd, *_ in PINNED_CHAINS],
)
def test_run_chain_draw_stream_is_pinned(dims, block_depth, steps, seed, final):
    branching, depth, k = dims
    start = striped_state(TreeShape(branching, depth), k)
    before = start.coloring.values.copy()
    out = run_chain(start, block_depth, steps, RandomSource(seed))
    assert out.time == steps
    assert "".join(str(int(c)) for c in out.coloring.values) == final
    assert np.array_equal(start.coloring.values, before)


def test_thinned_tallies_are_pinned_and_inputs_untouched():
    start = striped_state(TreeShape(2, 1), 3)
    visits: dict = {}
    out = run_chain(start, 0, 2400, RandomSource(804), visit_counts=visits, thin=50)
    assert out.time == 2400
    assert visits == {
        (1, 2, 2): 4, (1, 2, 3): 5, (1, 3, 2): 1, (1, 3, 3): 3,
        (2, 1, 1): 6, (2, 3, 1): 8, (2, 3, 3): 3,
        (3, 1, 1): 2, (3, 1, 2): 7, (3, 2, 1): 3, (3, 2, 2): 6,
    }
    assert all(type(c) is int for key in visits for c in key)
    # the single-move wrappers leave their input state untouched too
    state = striped_state(TreeShape(2, 3), 3)
    before = state.coloring.values.copy()
    rng = RandomSource(805)
    for block_depth in (0, 1, 2):
        heat_bath_block(state, 1, block_depth, rng)
        step(state, block_depth, rng)
    assert np.array_equal(state.coloring.values, before)
    assert state.time == 0


class CountingGenerator:
    """A numpy Generator that counts its `integers` calls."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._gen.integers(*args, **kwargs)


class CountingSource:
    """What the chain reads of a RandomSource: its generator."""

    def __init__(self, seed: int):
        self.generator = CountingGenerator(seed)


def test_chain_draws_in_batches_not_per_move():
    start = striped_state(TreeShape(2, 4), 3)
    for steps in (1000, 3000):
        source = CountingSource(806)
        out = run_chain(start, 2, steps, source)
        assert out.time == steps
        assert source.generator.calls == 2  # the vertex choices, then the words
    # a single move draws its vertex and one word
    source = CountingSource(807)
    step(start, 2, source)
    assert source.generator.calls == 2
    source = CountingSource(808)
    heat_bath_block(start, 1, 2, source)
    assert source.generator.calls == 1


def test_run_chain_thinning_tallies():
    shape = TreeShape(2, 1)
    start = proper_state(shape, 3, [1, 2, 2])
    visits: dict = {}
    run_chain(start, 0, 200, RandomSource(9), visit_counts=visits, thin=50)
    assert sum(visits.values()) == 4
    for key in visits:
        assert is_proper(shape, FullColoring(3, np.array(key, dtype=np.int16)))
    with pytest.raises(ValidationError):
        run_chain(start, 0, 10, RandomSource(9), thin=0)
    with pytest.raises(ValidationError):
        run_chain(start, 0, -1, RandomSource(9))


def test_thinned_visits_match_uniform_stationary_law():
    shape = TreeShape(2, 1)
    k = 3
    states = enumerate_states(shape, k)
    start = proper_state(shape, k, [1, 2, 2])
    visits: dict = {}
    run_chain(start, 0, 200_000, RandomSource(17), visit_counts=visits, thin=50)
    counts = np.array([visits.get(s, 0) for s in states], dtype=float)
    assert counts.sum() == 4000
    assert chi2_pvalue(counts, np.full(len(states), 1 / len(states))) > CHI2_P_FLOOR


# ---------------------------------------------------------------------------
# exact matrices, stationarity, mixing


def test_state_enumeration_counts_and_order():
    for branching, depth, k in [(2, 1, 3), (2, 2, 3), (3, 1, 4)]:
        shape = TreeShape(branching, depth)
        states = enumerate_states(shape, k)
        assert len(states) == state_space_size(shape, k)
        assert len(set(states)) == len(states)
        assert states == sorted(states)
        for s in states:
            assert is_proper(shape, FullColoring(k, np.array(s, dtype=np.int16)))
    assert state_space_size(TreeShape(2, 1), 3) == 12
    assert state_space_size(TreeShape(2, 2), 3) == 192


def test_state_enumeration_guard():
    with pytest.raises(CapacityError):
        enumerate_states(TreeShape(2, 3), 3)  # 49152 proper colorings
    with pytest.raises(CapacityError):
        build_transition_matrix(TreeShape(2, 3), 3, 0)


def test_transition_matrix_rows_are_distributions_and_symmetric():
    for block_depth in (0, 1):
        matrix = build_transition_matrix(TreeShape(2, 1), 3, block_depth)
        for i, row in enumerate(matrix.rows):
            assert sum(row.values()) == matrix.denominator
            for j, val in row.items():
                assert val > 0
                assert matrix.rows[j].get(i) == val
        assert matrix.entry(0, 0) >= Fraction(1, matrix.size)


def oracle_transition_rows(shape: TreeShape, k: int, block_depth: int) -> list[dict]:
    """Oracle: each state's row from a search over its blocks' completions,
    block roots in increasing order, completions in search order."""
    states = enumerate_states(shape, k)
    index = {s: i for i, s in enumerate(states)}
    n_vertices = shape.vertex_count
    multiplicity: dict[int, int] = {}
    for v in range(n_vertices):
        root = block_root(shape, v, block_depth)
        multiplicity[root] = multiplicity.get(root, 0) + 1
    rows = []
    for x in states:
        row: dict = {}
        for root, count in sorted(multiplicity.items()):
            block = block_vertices(shape, root, block_depth)
            completions = block_completions(shape, k, block, x)
            weight = Fraction(count, n_vertices * len(completions))
            y = list(x)
            for completion in completions:
                for w, c in zip(block, completion):
                    y[w] = c
                j = index[tuple(y)]
                row[j] = row.get(j, Fraction(0)) + weight
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "branching, depth, k, block_depth",
    [
        (2, 1, 3, 0),
        (2, 1, 3, 1),
        (2, 1, 4, 5),  # block_depth beyond the tree depth
        (2, 2, 3, 0),
        (2, 2, 3, 1),  # blocks truncated at the leaves, and the root block
        (2, 2, 3, 2),
        (3, 1, 4, 0),
    ],
)
def test_matrix_from_groups_matches_completion_search(branching, depth, k, block_depth):
    # same Fractions, and each row lists its columns in the same order, so
    # every consumer that walks the rows (the CSV dump included) is unchanged;
    # the numerators are ints over the least common denominator
    shape = TreeShape(branching, depth)
    matrix = build_transition_matrix(shape, k, block_depth)
    expected = oracle_transition_rows(shape, k, block_depth)
    assert matrix.states == tuple(enumerate_states(shape, k))
    assert len(matrix.rows) == len(expected)
    for i, (got, want) in enumerate(zip(matrix.rows, expected)):
        assert [(j, matrix.entry(i, j)) for j in got] == list(want.items())
        assert all(type(j) is int and type(val) is int for j, val in got.items())
    assert type(matrix.denominator) is int
    assert matrix.denominator == math.lcm(
        *(val.denominator for want in expected for val in want.values())
    )


def test_full_depth_matrix_rows_are_exactly_uniform():
    for shape, k, block_depth in [
        (TreeShape(2, 1), 3, 5),
        (TreeShape(2, 1), 4, 1),
        (TreeShape(2, 2), 3, 2),
    ]:
        matrix = build_transition_matrix(shape, k, block_depth)
        uniform = Fraction(1, matrix.size)
        for i, row in enumerate(matrix.rows):
            assert len(row) == matrix.size
            assert all(matrix.entry(i, j) == uniform for j in row)
        assert mixing_time_exact(matrix) == 1
        info = stationary_and_gap(matrix)
        assert info["is_uniform_stationary"]
        assert info["spectral_gap"] == pytest.approx(1.0, abs=1e-9)


def test_uniform_stationarity_and_frozen_gaps():
    cases = {
        (2, 1, 3, 0): 0.08097717844411811,
        (2, 1, 4, 0): 0.17227891746853552,
        (2, 2, 3, 0): 0.009954656203382428,
        (2, 2, 3, 1): 0.1496594855163198,
    }
    for (branching, depth, k, block_depth), gap in cases.items():
        matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
        info = stationary_and_gap(matrix)
        assert info["is_uniform_stationary"]
        assert info["spectral_gap"] == pytest.approx(gap, rel=1e-7)
        assert is_ergodic(matrix)


@pytest.mark.parametrize("block_depth", [0, 1])
def test_power_iteration_matches_dense_second_eigenvalue(block_depth):
    # the >4000-state branch of stationary_and_gap, run on a 192-state kernel
    dense = build_transition_matrix(TreeShape(2, 2), 3, block_depth).to_dense()
    eigs = np.linalg.eigvalsh(dense)
    lam2 = float(eigs[-2])
    got = dynamics._second_eigenvalue_power(dense)
    # The iteration stops once the residual |((I+P)/2)x - mu x| is at most
    # 1e-10, which puts the Rayleigh quotient of the symmetric kernel within
    # about 1e-20 / gap of lambda_2, from below; 1e-11 leaves room for
    # rounding on both block depths.
    assert got == pytest.approx(lam2, abs=1e-11)
    assert got <= lam2 + 1e-12


def test_exact_mixing_times():
    assert mixing_time_exact(build_transition_matrix(TreeShape(2, 1), 3, 0)) == 16
    assert mixing_time_exact(build_transition_matrix(TreeShape(2, 1), 4, 0)) == 8
    assert mixing_time_exact(build_transition_matrix(TreeShape(2, 2), 3, 1)) == 10
    assert mixing_time_exact(build_transition_matrix(TreeShape(2, 2), 3, 0)) == 141


def test_mixing_time_meets_threshold_definition():
    # independent float check: worst-start TV drops through 1/(2e) at t_mix
    matrix = build_transition_matrix(TreeShape(2, 1), 3, 0)
    t_mix = 16
    dense = matrix.to_dense()
    uniform = np.full(matrix.size, 1 / matrix.size)

    def worst_tv(power):
        return 0.5 * np.abs(power - uniform).sum(axis=1).max()

    before = np.linalg.matrix_power(dense, t_mix - 1)
    after = before @ dense
    threshold = 1 / (2 * math.e)
    assert worst_tv(before) > threshold + 1e-12
    assert worst_tv(after) <= threshold + 1e-12


def make_matrix(rows, denominator, shape=TreeShape(2, 0), k=2, block_depth=0):
    """A matrix from integer rows {column: numerator} over `denominator`."""
    states = tuple((i,) for i in range(len(rows)))
    return TransitionMatrix(shape, k, block_depth, states, tuple(rows), denominator)


def two_state_matrix(p: Fraction) -> TransitionMatrix:
    """The two-state chain that flips with probability p, over p's denominator."""
    d, flip = p.denominator, p.numerator
    return make_matrix([{0: d - flip, 1: flip}, {0: flip, 1: d - flip}], d)


# TV(1) = lam/2 for the two-state chain with flip probability (1 - lam)/2;
# lam sits 4e-19 above 1/e, deep inside the float rounding bound
NEAR_THRESHOLD_FLIP = (1 - Fraction(367879441171442322, 10**18)) / 2


def test_disconnected_chain_is_reported_not_mixed():
    reducible = make_matrix([{0: 1}, {1: 1}], 1)
    assert not is_ergodic(reducible)
    with pytest.raises(NonErgodicChainError):
        mixing_time_exact(reducible)


@pytest.mark.parametrize(
    "branching, depth, k, block_depth",
    [
        (2, 1, 3, 0),
        (2, 1, 4, 0),
        (2, 2, 3, 1),
        (2, 1, 3, 1),
        (2, 1, 3, 5),
        (2, 1, 4, 1),
        (2, 2, 3, 2),
    ],
)
def test_certified_mixing_time_matches_integer_path(
    monkeypatch, branching, depth, k, block_depth
):
    matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
    expected = dynamics._mixing_time_integer(matrix)
    fallbacks = []
    monkeypatch.setattr(
        dynamics, "_mixing_time_integer", lambda m: fallbacks.append(m) or expected
    )
    assert mixing_time_exact(matrix) == expected
    assert fallbacks == []  # these instances are far from the threshold


def test_mixing_time_near_threshold_falls_back_to_integers(monkeypatch):
    p = NEAR_THRESHOLD_FLIP
    matrix = two_state_matrix(p)
    assert matrix.entry(0, 1) == p and matrix.entry(0, 0) == 1 - p
    integer_path = dynamics._mixing_time_integer
    calls = []

    def counted(m):
        calls.append(m)
        return integer_path(m)

    monkeypatch.setattr(dynamics, "_mixing_time_integer", counted)
    assert mixing_time_exact(matrix) == 2
    assert calls == [matrix]
    assert integer_path(matrix) == 2


@pytest.mark.parametrize(
    "branching, depth, k, block_depth",
    [(2, 1, 3, 0), (2, 1, 4, 0), (2, 2, 3, 0), (2, 2, 3, 1), (3, 1, 4, 0), (2, 2, 3, 2)],
)
def test_to_dense_rounds_every_entry_like_its_fraction(branching, depth, k, block_depth):
    # mixing_time_exact's error bound needs fl(P) correctly rounded entrywise
    matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
    assert_dense_is_rounded_fractions(matrix)


@pytest.mark.parametrize(
    "p",
    [
        NEAR_THRESHOLD_FLIP,
        # both entries round wrong if numerator and denominator are
        # rounded to floats before dividing
        Fraction(1400656654617924231, 2051759417656128434),
    ],
)
def test_to_dense_rounds_a_denominator_beyond_double_precision(p):
    assert p.denominator > 2**53
    assert_dense_is_rounded_fractions(two_state_matrix(p))


def assert_dense_is_rounded_fractions(matrix):
    dense = matrix.to_dense()
    assert dense.dtype == np.float64
    # built once: later calls return the same read-only array
    assert matrix.to_dense() is dense and not dense.flags.writeable
    for i in range(matrix.size):
        for j in range(matrix.size):
            assert dense[i, j] == float(matrix.entry(i, j)), (i, j)


def test_mixing_time_state_guard():
    big = make_matrix([{i: 1} for i in range(401)], 1)
    with pytest.raises(CapacityError):
        mixing_time_exact(big)


# ---------------------------------------------------------------------------
# entropy functionals


def test_entropy_functional_closed_forms():
    assert entropy_functional(np.full(10, 3.7)) == pytest.approx(0.0, abs=1e-12)
    m = 8
    indicator = np.zeros(m)
    indicator[3] = 1.0
    assert entropy_functional(indicator) == pytest.approx(math.log(m) / m, rel=1e-12)
    rng = np.random.default_rng(21)
    f = rng.lognormal(size=50)
    assert entropy_functional(4.5 * f) == pytest.approx(
        4.5 * entropy_functional(f), rel=1e-12
    )


def test_entropy_functional_validation():
    with pytest.raises(ValidationError):
        entropy_functional(np.array([1.0, -0.1]))
    with pytest.raises(ValidationError):
        entropy_functional(np.zeros(4))
    with pytest.raises(ValidationError):
        entropy_functional(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        entropy_functional(np.array([]))


def test_conditional_entropy_decomposition():
    # Ent(f) splits exactly into the part explained by the block and the rest
    shape = TreeShape(2, 1)
    k = 3
    size = state_space_size(shape, k)
    rng = np.random.default_rng(22)
    f = rng.lognormal(size=size)
    total = entropy_functional(f)
    for block_depth in (0, 1):
        for v in range(shape.vertex_count):
            inside = conditional_entropy(f, shape, k, block_depth, v)
            projected = entropy_functional(block_projection(f, shape, k, block_depth, v))
            assert inside + projected == pytest.approx(total, rel=1e-12)
            assert inside >= -1e-12


def test_block_projection_is_a_projection():
    shape = TreeShape(2, 1)
    k = 3
    rng = np.random.default_rng(23)
    f = rng.lognormal(size=state_space_size(shape, k))
    for v in range(shape.vertex_count):
        once = block_projection(f, shape, k, 0, v)
        twice = block_projection(once, shape, k, 0, v)
        assert np.allclose(once, twice, rtol=0, atol=1e-13)
        assert once.mean() == pytest.approx(f.mean(), rel=1e-12)
    with pytest.raises(ValidationError):
        block_projection(f[:-1], shape, k, 0, 0)


def test_average_projection_contracts_entropy():
    shape = TreeShape(2, 1)
    k = 3
    rng = np.random.default_rng(24)
    for block_depth in (0, 1):
        for _ in range(5):
            f = rng.lognormal(size=state_space_size(shape, k))
            smoothed = average_projection(f, shape, k, block_depth)
            assert smoothed.mean() == pytest.approx(f.mean(), rel=1e-12)
            assert entropy_functional(smoothed) <= entropy_functional(f) + 1e-12


def test_average_projection_is_the_matrix_action():
    shape = TreeShape(2, 1)
    k = 3
    rng = np.random.default_rng(28)
    f = rng.lognormal(size=state_space_size(shape, k))
    for block_depth in (0, 1):
        matrix = build_transition_matrix(shape, k, block_depth)
        assert np.allclose(
            average_projection(f, shape, k, block_depth),
            matrix.to_dense() @ f,
            rtol=0,
            atol=1e-12,
        )


def test_convexity_lower_bound_on_entropy_decay():
    # one full-kernel step burns at least the average local entropy
    shape = TreeShape(2, 1)
    k = 3
    n_vertices = shape.vertex_count
    rng = np.random.default_rng(29)
    for block_depth in (0, 1):
        for _ in range(20):
            f = rng.lognormal(size=state_space_size(shape, k))
            decay = entropy_functional(f) - entropy_functional(
                average_projection(f, shape, k, block_depth)
            )
            local = local_entropy_sum(f, shape, k, block_depth)
            assert decay >= local / n_vertices - 1e-10


def test_full_block_makes_local_entropy_global():
    # once the block covers the whole tree, conditioning reveals nothing:
    # every vertex contributes the full entropy
    shape = TreeShape(2, 1)
    k = 3
    n_vertices = shape.vertex_count
    rng = np.random.default_rng(25)
    f = rng.lognormal(size=state_space_size(shape, k))
    total = entropy_functional(f)
    for v in range(n_vertices):
        assert conditional_entropy(f, shape, k, 1, v) == pytest.approx(total, rel=1e-12)
    assert local_entropy_sum(f, shape, k, 1) == pytest.approx(
        n_vertices * total, rel=1e-12
    )


def test_entropy_ratio_report_bounds():
    shape = TreeShape(2, 1)
    k = 3
    n_vertices = shape.vertex_count
    report = entropy_ratio_report(shape, k, 1, 6, RandomSource(26))
    assert report["trials"] == 6
    assert report["min_ratio"] == pytest.approx(n_vertices, rel=1e-9)
    partial = entropy_ratio_report(shape, k, 0, 6, RandomSource(27))
    assert 0.0 < partial["min_ratio"] <= n_vertices + 1e-9
    with pytest.raises(ValidationError):
        entropy_ratio_report(shape, k, 0, 0, RandomSource(1))
