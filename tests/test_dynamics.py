"""Heat-bath block dynamics: kernels, exact matrices, mixing, entropy."""
from __future__ import annotations

import dataclasses
import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CHI2_P_FLOOR,
    block_projection,
    chi2_pvalue,
    cli_subprocess_env,
    enumerate_states_recursive,
    outside_groups_oracle,
)
from treecolor import dynamics
from treecolor.dynamics import (
    DynamicsState,
    TransitionMatrix,
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
        for block_depth in (0, 1, 2):
            # every vertex as block root: the root block and blocks
            # truncated at the leaves included
            for root in range(shape.vertex_count):
                plan = dynamics._plan(shape, root, block_depth)
                vertices = plan.vertices
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
                memo = dynamics._Memo(branching, k)
                decoded = []
                for r in [*words, count]:
                    values = list(start)
                    dynamics._resample(values, plan, r, None, memo)
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
    ((2, 8, 3), 1, 1500, 809, (
        "1231112332332111122112211332233333333313323113333321211113121221"
        "1211122212112331112112132221112211122113333332233222222132231312"
        "2231322332213131122313323131221322332133232112221111133322232131"
        "1333233331123222211212212221331221231331131331122223111212222221"
        "1311111332213312121111132213222322231332122211213212211321313232"
        "1313311221323111233213132331333332223233232121221313311121133123"
        "2322211221322111211323331123313331322331323313132133313322122233"
        "313333122231212333311221111322233313311123223223122333113111313"
    )),
    ((3, 5, 4), 2, 800, 810, (
        "4311122233243243114144343414241313321244444313224322322213432311"
        "3321413122111234421233411132344142432412224142434412232231333311"
        "3222132244414331113112133133311111313344322242221211244321444442"
        "3144442344243131332244324144343333323443141214322113443334434441"
        "2411212324323421214142413322313423334143121121132123424433344332"
        "22233232343312221122232242414431412144141121"
    )),
    ((2, 6, 5), 3, 400, 811, (
        "1552242454553451132214134223524525351553423515412323453213251111"
        "453114424454234442311142223411144344111211313111354253132522353"
    )),
    ((4, 4, 6), 1, 1200, 812, (
        "3161165252213453543452533216151631226455131555225221631631646261"
        "1214316622242631263361644223455441451311563445215562231265223531"
        "3261142553543345145415551666142443225244443224632142424211664165"
        "4664363533366254651451541533331132152636324415255244253354251436"
        "6662354465225116662522344421413434453641446156321413641335562356"
        "215565524254251254525"
    )),
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


@pytest.mark.parametrize("cap", [0, 40])
@pytest.mark.parametrize(
    "dims, block_depth, steps, seed",
    [((2, 4, 3), 0, 2000, 813), ((2, 6, 3), 2, 1500, 814), ((3, 4, 4), 1, 1500, 815),
     ((2, 5, 5), 3, 600, 816)],
)
def test_memo_changes_no_draw(request, monkeypatch, cap, dims, block_depth, steps, seed):
    # a chain on a cold memo, one on the tables it kept, and one whose memo
    # stores nothing or stops storing partway all draw the same completions
    branching, depth, k = dims
    start = striped_state(TreeShape(branching, depth), k)
    request.addfinalizer(dynamics._shape_memo.cache_clear)

    def chain():
        visits: dict = {}
        out = run_chain(start, block_depth, steps, RandomSource(seed), visit_counts=visits, thin=7)
        return out.coloring.values.tolist(), visits

    dynamics._shape_memo.cache_clear()
    kept = chain()
    assert chain() == kept
    # the capped chain must fill its own memo, not read the kept tables
    monkeypatch.setattr(dynamics, "_MEMO_CAP", cap)
    dynamics._shape_memo.cache_clear()
    assert chain() == kept


def test_chains_share_one_bounded_memo_per_block_shape(request, monkeypatch):
    # nine chains of distinct (b, k, width) leave the eight latest memos,
    # each within the cap, which some of them reach
    request.addfinalizer(dynamics._shape_memo.cache_clear)
    monkeypatch.setattr(dynamics, "_MEMO_CAP", 200)
    dynamics._shape_memo.cache_clear()
    shapes = [(2, 3, 3, 0), (2, 3, 3, 1), (2, 3, 3, 2), (2, 3, 4, 0), (2, 3, 4, 1),
              (2, 3, 4, 2), (3, 2, 3, 0), (3, 2, 3, 1), (3, 2, 4, 1)]
    for seed, (branching, depth, k, block_depth) in enumerate(shapes, 830):
        run_chain(striped_state(TreeShape(branching, depth), k), block_depth, 400,
                  RandomSource(seed))
    assert dynamics._shape_memo.cache_info().currsize == 8
    misses = dynamics._shape_memo.cache_info().misses
    sizes = [dynamics._shape_memo(branching, k, branching**block_depth).size
             for branching, _, k, block_depth in shapes[1:]]
    assert dynamics._shape_memo.cache_info().misses == misses
    assert min(sizes) > 0 and max(sizes) == 200


def test_rerun_chain_builds_no_new_block_table(request):
    request.addfinalizer(dynamics._shape_memo.cache_clear)
    dynamics._shape_memo.cache_clear()
    start = striped_state(TreeShape(2, 6), 3)
    first = run_chain(start, 2, 1500, RandomSource(840))
    memo = dynamics._shape_memo(2, 3, 4)
    tables = len(memo.tables)
    assert tables > 0
    assert run_chain(start, 2, 1500, RandomSource(840)) == first
    assert len(memo.tables) == tables


def test_memo_keeps_at_most_cap_lists(monkeypatch):
    # block-table keys and subtree tables share one budget: a key costs
    # one, a frontier vertex's table k + 5 (itself, its counts and totals,
    # and its k + 1 lists of free colors and the list holding them), and a
    # table above the frontier three (itself, its counts and totals)
    cap, k = 60, 3
    monkeypatch.setattr(dynamics, "_MEMO_CAP", cap)
    memo = dynamics._Memo(2, k)
    gen = np.random.default_rng(817)
    for _ in range(200):
        table = memo.table(tuple(gen.integers(1, k + 1, size=8).tolist()), 4)
        assert len(table) == 7
    frontier = sum(len(masks) == 1 for masks in memo.subtrees)
    above = len(memo.subtrees) - frontier
    assert memo.size == len(memo.tables) + (k + 5) * frontier + 3 * above
    assert memo.size <= cap
    assert 0 < len(memo.tables) < 200


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


def test_properness_checks_survive_optimize():
    # run_chain and step check properness with a raise, not an assert, so
    # `python -O` keeps the checks: a kernel that writes an improper color
    # is caught under it
    script = textwrap.dedent("""
        import sys
        from treecolor import dynamics
        from treecolor.errors import ValidationError
        from treecolor.rng import RandomSource
        from treecolor.tree_model import TreeShape

        def clash(values, *args):
            values[1] = values[0]

        dynamics._resample = clash
        state = dynamics.initial_state(TreeShape(2, 2), 3, RandomSource(1))
        caught = []
        for move in (lambda: dynamics.run_chain(state, 1, 5, RandomSource(2)),
                     lambda: dynamics.step(state, 1, RandomSource(3))):
            try:
                move()
            except ValidationError:
                caught.append(move)
        print(sys.flags.optimize, len(caught))
    """)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=cli_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]


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


NON_INTEGER_ARGUMENTS = {
    # each quietly ran, or died with a TypeError, on a non-integer argument
    "heat_bath_block-block_depth": lambda state, rng: heat_bath_block(state, 0, 1.5, rng),
    "step-block_depth": lambda state, rng: step(state, 1.5, rng),
    "run_chain-block_depth": lambda state, rng: run_chain(state, 1.0, 30, rng),
    "run_chain-steps": lambda state, rng: run_chain(state, 0, 2.5, rng),
    "run_chain-thin": lambda state, rng: run_chain(state, 0, 30, rng, visit_counts={}, thin=1.5),
    "block_root-block_depth": lambda state, rng: block_root(state.shape, 3, 1.0),
    "block_vertices-block_depth": lambda state, rng: block_vertices(state.shape, 0, 1.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_ARGUMENTS.values(), ids=NON_INTEGER_ARGUMENTS)
def test_chain_arguments_must_be_integers(call):
    shape = TreeShape(2, 3)
    # a cached depth-1 plan must not let a block_depth of 1.0 through
    block_vertices(shape, 0, 1)
    with pytest.raises(ValidationError, match="must be an integer"):
        call(striped_state(shape, 3), RandomSource(9))


def test_chain_arguments_accept_numpy_integers():
    start = striped_state(TreeShape(2, 3), 3)
    visits: dict = {}
    out = run_chain(start, np.int64(1), np.int64(30), RandomSource(9), visit_counts=visits,
                    thin=np.int32(3))
    assert out == run_chain(start, 1, 30, RandomSource(9))
    assert type(out.time) is int
    assert sum(visits.values()) == 10
    assert block_vertices(start.shape, 0, np.int64(1)) == [0, 1, 2]
    assert block_root(start.shape, 3, np.int8(1)) == 1
    assert step(start, np.int64(1), RandomSource(9)) == step(start, 1, RandomSource(9))


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


@pytest.mark.parametrize(
    "branching, depth, k",
    [
        (2, 1, 3),
        (2, 2, 3),
        (3, 1, 4),
        (2, 2, 4),
        (7, 1, 4),
        (2, 0, 300),  # colors past int8
        (2, 6, 2),
        (2, 9, 2),  # 1023 vertices: deeper than the default recursion limit
    ],
)
def test_state_array_matches_recursive_order(branching, depth, k):
    shape = TreeShape(branching, depth)
    array = dynamics._state_array(shape, k)
    assert array.dtype == np.int16
    assert array.shape == (state_space_size(shape, k), shape.vertex_count)
    assert enumerate_states(shape, k) == enumerate_states_recursive(shape, k)


# (branching, depth, k, block_depth) for the grouping and matrix oracles
GROUPED_INSTANCES = [
    (2, 1, 3, 0),
    (2, 1, 3, 1),
    (2, 1, 4, 5),  # block_depth beyond the tree depth
    (2, 2, 3, 0),
    (2, 2, 3, 1),  # blocks truncated at the leaves, and the root block
    (2, 2, 3, 2),
    (3, 1, 4, 0),
]


def label_partition(label: np.ndarray) -> list[list[int]]:
    """The groups a label array names, in first-appearance order, each
    listing its state indices in increasing order."""
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(label.tolist()):
        groups.setdefault(g, []).append(i)
    return list(groups.values())


@pytest.mark.parametrize(
    "branching, depth, k, block_depth",
    GROUPED_INSTANCES + [(2, 9, 2, 1)],  # 1023 columns
)
def test_outside_groups_match_dict_grouping(branching, depth, k, block_depth):
    # same roots in the same order, and per root labels 0, 1, ... that
    # split the states exactly as grouping the recursive states by their
    # outside tuples does
    shape = TreeShape(branching, depth)
    labels, root_of = dynamics._outside_groups(shape, k, block_depth)
    expected = outside_groups_oracle(shape, k, block_depth)
    size = state_space_size(shape, k)
    assert root_of == tuple(block_root(shape, v, block_depth) for v in range(shape.vertex_count))
    assert list(labels) == list(expected)
    for root, label in labels.items():
        assert label.shape == (size,) and not label.flags.writeable
        assert sorted(set(label.tolist())) == list(range(len(expected[root])))
        assert label_partition(label) == expected[root]


@pytest.mark.parametrize("branching, depth, k, block_depth", GROUPED_INSTANCES)
def test_conditional_entropy_matches_per_group_formula(branching, depth, k, block_depth):
    # Ent(f) - Ent(M f) against the mean over the oracle's groups of the
    # entropy of f within each group, weighted by the group's share
    shape = TreeShape(branching, depth)
    groups = outside_groups_oracle(shape, k, block_depth)
    rng = np.random.default_rng(30)
    f = rng.lognormal(size=state_space_size(shape, k))
    for v in range(shape.vertex_count):
        members = groups[block_root(shape, v, block_depth)]
        expected = sum(len(m) / f.size * dynamics._entropy(f[m]) for m in members)
        got = conditional_entropy(f, shape, k, block_depth, v)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_state_enumeration_guard():
    with pytest.raises(CapacityError):
        enumerate_states(TreeShape(2, 3), 3)  # 49152 proper colorings
    with pytest.raises(CapacityError):
        build_transition_matrix(TreeShape(2, 3), 3, 0)


def test_matrix_entry_guard_trips_before_any_row_is_built():
    # 7220 states under the state guard, but one group of all of them at
    # block depth 1: 7220**2 row entries
    with pytest.raises(CapacityError, match="row entries"):
        build_transition_matrix(TreeShape(2, 1), 20, 1)


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


@pytest.mark.parametrize("branching, depth, k, block_depth", GROUPED_INSTANCES)
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


def test_power_iteration_raises_when_it_runs_out_of_steps(monkeypatch):
    # P = I - 1e-9 L, L the path Laplacian on 3 states: the gap is 1e-9,
    # far too small for the residual to fall below 1e-10 in 1000 steps
    laplacian = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    dense = np.eye(3) - 1e-9 * laplacian
    monkeypatch.setattr(dynamics, "_POWER_STEPS", 1000)
    with pytest.raises(CapacityError, match="residual"):
        dynamics._second_eigenvalue_power(dense)


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


def test_to_dense_places_the_entries_of_an_asymmetric_matrix():
    # rows stochastic, columns not: a transposed placement would show
    assert_dense_is_rounded_fractions(make_matrix([{0: 1, 2: 2}, {1: 3}, {0: 2, 1: 1}], 3))


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


def mixing_instances(most: int = dynamics._MIXING_STATE_GUARD):
    """Every (branching, depth, k, block_depth) with k >= 3, depth >= 1 and
    at most `most` states: k grows until the state count passes `most`, and
    so do the depth and then the branching."""
    instances = []
    for branching in itertools.count(2):
        if state_space_size(TreeShape(branching, 1), 3) > most:
            return instances
        for depth in itertools.count(1):
            if state_space_size(TreeShape(branching, depth), 3) > most:
                break
            for k in itertools.count(3):
                if state_space_size(TreeShape(branching, depth), k) > most:
                    break
                instances += [(branching, depth, k, bd) for bd in range(depth + 1)]


def all_starts(matrix: TransitionMatrix) -> TransitionMatrix:
    """The same rows with no orbit starts, so every row is propagated."""
    copy = dataclasses.replace(matrix)
    assert matrix._starts is not None and copy._starts is None
    return copy


@pytest.mark.parametrize("branching, depth, k, block_depth", mixing_instances())
def test_orbit_starts_give_the_all_starts_mixing_time(branching, depth, k, block_depth):
    matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
    assert mixing_time_exact(matrix) == mixing_time_exact(all_starts(matrix))


@pytest.mark.parametrize("branching, depth, k, block_depth", mixing_instances())
def test_mixing_time_within_the_relaxation_bounds(branching, depth, k, block_depth):
    # Levin, Peres & Wilmer, Markov Chains and Mixing Times, Theorems 12.4
    # and 12.5 at eps = 1/(2e), uniform stationary law on n states:
    # t_rel - 1 <= t_mix <= t_rel ln(2e n), t_rel the inverse absolute gap.
    # P is positive semidefinite, so the absolute gap is 1 - lambda_2
    matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
    assert np.linalg.eigvalsh(matrix.to_dense())[0] > -1e-12
    t_rel = 1.0 / stationary_and_gap(matrix)["spectral_gap"]
    t_mix = mixing_time_exact(matrix)
    assert t_rel - 1 <= t_mix <= t_rel * math.log(2 * math.e * matrix.size)


def test_mixing_instances_reach_the_guard():
    instances = mixing_instances()
    sizes = {state_space_size(TreeShape(b, d), k) for b, d, k, _ in instances}
    assert max(sizes) == 392  # (2, 1, 8): k = 9 has 648 states
    assert (2, 2, 3, 0) in instances and (7, 1, 3, 1) in instances
    assert len(instances) == 31


@pytest.mark.parametrize(
    "branching, depth, k", [(2, 1, 3), (2, 1, 4), (2, 2, 3), (3, 1, 4), (3, 2, 2), (4, 1, 3)]
)
def test_symmetries_commute_with_the_kernel(branching, depth, k):
    shape = TreeShape(branching, depth)
    images = dynamics._symmetries(shape, k)
    # k - 1 color transpositions, branching - 1 sibling swaps per internal vertex
    internal = (shape.vertex_count - 1) // branching
    assert len(images) == k - 1 + internal * (branching - 1)
    states = enumerate_states(shape, k)
    for image in images:
        assert sorted(image.tolist()) == list(range(len(states)))
        for block_depth in range(depth + 1):
            rows = build_transition_matrix(shape, k, block_depth).rows
            for i, row in enumerate(rows):
                moved = rows[image[i]]
                assert len(moved) == len(row)
                assert all(moved[image[j]] == num for j, num in row.items())


@pytest.mark.parametrize(
    "branching, depth, k, orbits",
    [(2, 2, 3, 12), (2, 1, 3, 2), (2, 1, 4, 2), (3, 1, 4, 3), (2, 2, 4, 34), (2, 0, 5, 1)],
)
def test_orbits_partition_the_states(branching, depth, k, orbits):
    shape = TreeShape(branching, depth)
    labels = dynamics._orbits(shape, k)
    assert not labels.flags.writeable
    starts = build_transition_matrix(shape, k, 0)._starts
    assert len(starts) == orbits
    assert starts.tolist() == sorted(set(labels.tolist()))
    assert int(np.bincount(labels)[starts].sum()) == state_space_size(shape, k)
    index = np.arange(labels.size)
    assert (labels <= index).all() and (labels[starts] == starts).all()
    for image in dynamics._symmetries(shape, k):
        assert (labels[image] == labels).all()  # an orbit is closed under each generator


def test_state_index_reads_the_radix_back():
    for shape, k in [(TreeShape(2, 2), 3), (TreeShape(3, 1), 5), (TreeShape(2, 5), 2)]:
        states = dynamics._state_array(shape, k)
        index = dynamics._state_index(states, shape, k)
        assert index.tolist() == list(range(len(states)))


def test_hand_built_matrix_propagates_every_row():
    # a symmetric doubly-stochastic chain whose three starts have different
    # TVs; nothing proves a symmetry, so no start may be skipped
    matrix = make_matrix([{0: 2, 1: 2}, {0: 2, 1: 1, 2: 1}, {1: 1, 2: 3}], 4)
    assert matrix._starts is None
    dense = matrix.to_dense()
    power = np.linalg.matrix_power(dense, 2)
    tvs = 0.5 * np.abs(power - 1 / 3).sum(axis=1)
    assert len(set(tvs.round(12).tolist())) == 3
    t_mix = mixing_time_exact(matrix)
    assert t_mix == dynamics._mixing_time_integer(matrix)
    one_start = make_matrix(matrix.rows, 4)
    object.__setattr__(one_start, "_starts", np.array([1]))
    assert mixing_time_exact(one_start) < t_mix  # start 1 mixes first


@pytest.mark.parametrize(
    "branching, depth, k, block_depth",
    [(2, 1, 3, 0), (2, 1, 4, 0), (2, 1, 3, 1), (3, 1, 3, 0), (2, 1, 5, 0), (4, 1, 3, 0)],
)
def test_integer_path_from_orbit_starts_matches_all_starts(branching, depth, k, block_depth):
    matrix = build_transition_matrix(TreeShape(branching, depth), k, block_depth)
    integer = dynamics._mixing_time_integer
    assert integer(matrix) == integer(all_starts(matrix))


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


def test_conditional_entropy_checks_its_arguments():
    shape = TreeShape(2, 1)
    k = 3
    f = np.ones(state_space_size(shape, k))
    for v in (-1, 3):
        with pytest.raises(ValidationError):
            conditional_entropy(f, shape, k, 0, v)
    with pytest.raises(ValidationError):
        conditional_entropy(f[:-1], shape, k, 0, 0)


def test_average_projection_contracts_entropy():
    shape = TreeShape(2, 1)
    k = 3
    rng = np.random.default_rng(24)
    for block_depth in (0, 1):
        dense = build_transition_matrix(shape, k, block_depth).to_dense()
        for _ in range(5):
            f = rng.lognormal(size=state_space_size(shape, k))
            smoothed = dense @ f
            assert smoothed.mean() == pytest.approx(f.mean(), rel=1e-12)
            assert entropy_functional(smoothed) <= entropy_functional(f) + 1e-12


def test_average_projection_is_the_matrix_action():
    shape = TreeShape(2, 1)
    k = 3
    rng = np.random.default_rng(28)
    f = rng.lognormal(size=state_space_size(shape, k))
    for block_depth in (0, 1):
        matrix = build_transition_matrix(shape, k, block_depth)
        average = sum(
            block_projection(f, shape, k, block_depth, v) for v in range(shape.vertex_count)
        ) / shape.vertex_count
        assert np.allclose(
            average,
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
        dense = build_transition_matrix(shape, k, block_depth).to_dense()
        for _ in range(20):
            f = rng.lognormal(size=state_space_size(shape, k))
            decay = entropy_functional(f) - entropy_functional(dense @ f)
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
