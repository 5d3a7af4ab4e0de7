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


# Final colorings of run_chain, as digit strings in level order, recorded
# from the per-move implementation that copied and re-validated the whole
# coloring on every move.  The in-place chain must make the same draws in
# the same order, so these stay fixed for these seeds.
PINNED_CHAINS = [
    ((2, 8, 3), 0, 3000, 801, (
        "1223333111111112222222222222222333333333333333333333333333333331"
        "1111111111111111111111111111111111111112111111111111121111111112"
        "2323333222322222322222223222233222223222222232222222222223322223"
        "2222233232332223322233222322232322232323222313322222223232223231"
        "3111111211121121131312131113333332233313131313113213131333311111"
        "1133113331133311311111131221133133111313313133331312121133111312"
        "1331131311322113112112111111331121111331122123331311133131311111"
        "231131311111131111111331122112111311333311311111112133133123322"
    )),
    ((2, 8, 3), 2, 600, 802, (
        "1223111222322321331331233131233221211332211233312113222321312211"
        "1332231332312111313323211212221331332332231133321112222233133333"
        "3332121111321332222331222132232331123222131111123331322311111322"
        "2123322213322123311222322211122313222333111333333121133112111121"
        "1122122133233222332231233332222313111311121323313113322131111311"
        "2112233312231133323212323233223332122213322113122222223323211333"
        "3113231112233113332221113333211111133333111111211333332232231111"
        "222223313332121212323222211121111123213232211212333132333322313"
    )),
    ((3, 3, 4), 1, 1000, 803, "2111444423233232113222223111412414141112"),
]


@pytest.mark.parametrize("dims, block_depth, steps, seed, final", PINNED_CHAINS)
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
        (1, 2, 2): 2, (1, 2, 3): 5, (1, 3, 2): 4, (1, 3, 3): 4,
        (2, 1, 1): 4, (2, 1, 3): 2, (2, 3, 1): 1, (2, 3, 3): 3,
        (3, 1, 1): 5, (3, 1, 2): 3, (3, 2, 1): 7, (3, 2, 2): 8,
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
            assert sum(row.values()) == 1
            for j, val in row.items():
                assert val > 0
                assert matrix.entry(j, i) == val
        assert matrix.entry(0, 0) >= Fraction(1, matrix.size)


def test_full_depth_matrix_rows_are_exactly_uniform():
    for shape, k, block_depth in [
        (TreeShape(2, 1), 3, 5),
        (TreeShape(2, 1), 4, 1),
        (TreeShape(2, 2), 3, 2),
    ]:
        matrix = build_transition_matrix(shape, k, block_depth)
        uniform = Fraction(1, matrix.size)
        for row in matrix.rows:
            assert len(row) == matrix.size
            assert all(val == uniform for val in row.values())
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


def make_matrix(rows, shape=TreeShape(2, 0), k=2, block_depth=0):
    states = tuple((i,) for i in range(len(rows)))
    return TransitionMatrix(shape, k, block_depth, states, tuple(rows))


def test_disconnected_chain_is_reported_not_mixed():
    reducible = make_matrix([{0: Fraction(1)}, {1: Fraction(1)}])
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
    # TV(1) = lam/2 for the two-state chain with flip probability (1 - lam)/2;
    # lam sits 4e-19 above 1/e, deep inside the float rounding bound
    lam = Fraction(367879441171442322, 10**18)
    p = (1 - lam) / 2
    matrix = make_matrix([{0: 1 - p, 1: p}, {0: p, 1: 1 - p}])
    integer_path = dynamics._mixing_time_integer
    calls = []

    def counted(m):
        calls.append(m)
        return integer_path(m)

    monkeypatch.setattr(dynamics, "_mixing_time_integer", counted)
    assert mixing_time_exact(matrix) == 2
    assert calls == [matrix]
    assert integer_path(matrix) == 2


def test_mixing_time_state_guard():
    big = make_matrix([{i: Fraction(1)} for i in range(401)])
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
