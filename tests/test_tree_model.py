"""Tree indexing arithmetic, coloring containers, and feasibility checks."""
from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from treecolor import (
    FullColoring,
    PartialLeafColoring,
    TreeShape,
    ValidationError,
    children,
    count_extensions,
    is_allowed,
    is_allowed_batch,
    is_proper,
    restrict_to_subtree,
)
from treecolor.tree_model import STAR, check_leaf_coloring


def leaves(k, *values):
    return PartialLeafColoring(k, np.array(values, dtype=np.int16))


def brute_force_allowed(shape: TreeShape, k: int, values) -> bool:
    """Independent oracle: scan every full assignment for a consistent proper one."""
    n = shape.vertex_count
    first_leaf = shape.level_start(shape.depth)
    b = shape.branching
    for combo in product(range(1, k + 1), repeat=n):
        if any(combo[v] == combo[(v - 1) // b] for v in range(1, n)):
            continue
        if all(
            values[i] == STAR or combo[first_leaf + i] == values[i]
            for i in range(shape.leaf_count)
        ):
            return True
    return False


def all_rows(k: int, length: int, include_star: bool = True) -> np.ndarray:
    lo = 0 if include_star else 1
    span = k + 1 if include_star else k
    grids = np.meshgrid(*[np.arange(lo, k + 1)] * length, indexing="ij")
    return np.stack(grids, axis=-1).reshape(span**length, length).astype(np.int16)


# ---------------------------------------------------------------------------
# shapes and indexing


def test_shape_counts():
    s = TreeShape(2, 3)
    assert s.leaf_count == 8
    assert s.vertex_count == 15
    assert s.level_start(3) == 7
    t = TreeShape(3, 2)
    assert t.leaf_count == 9
    assert t.vertex_count == 13
    single = TreeShape(2, 0)
    assert single.leaf_count == 1
    assert single.vertex_count == 1
    assert single.is_leaf(0)


def test_shape_validation():
    with pytest.raises(ValidationError):
        TreeShape(1, 2)
    with pytest.raises(ValidationError):
        TreeShape(2, -1)


def test_children_examples():
    assert children(TreeShape(2, 2), 0) == [1, 2]
    assert children(TreeShape(2, 2), 1) == [3, 4]
    assert children(TreeShape(3, 1), 0) == [1, 2, 3]


def test_children_of_leaf_raises():
    s = TreeShape(2, 2)
    with pytest.raises(ValidationError):
        children(s, 4)
    with pytest.raises(ValidationError):
        children(s, 99)


def test_parent_child_roundtrip():
    for s in (TreeShape(2, 3), TreeShape(3, 2), TreeShape(4, 2)):
        for v in range(s.level_start(s.depth)):
            for c in children(s, v):
                assert s.parent(c) == v
    with pytest.raises(ValidationError):
        TreeShape(2, 2).parent(0)


def test_depth_and_height():
    s = TreeShape(2, 3)
    assert [s.depth_of(v) for v in (0, 1, 2, 3, 6, 7, 14)] == [0, 1, 1, 2, 2, 3, 3]
    assert s.height_of(0) == 3
    assert s.height_of(7) == 0
    assert s.level_width(2) == 4


def test_leaf_slice():
    s = TreeShape(2, 2)
    assert s.leaf_slice(0) == (0, 4)
    assert s.leaf_slice(1) == (0, 2)
    assert s.leaf_slice(2) == (2, 4)
    assert s.leaf_slice(4) == (1, 2)
    # slices of siblings tile the leaf vector
    t = TreeShape(3, 2)
    spans = [t.leaf_slice(v) for v in children(t, 0)]
    assert spans == [(0, 3), (3, 6), (6, 9)]


# ---------------------------------------------------------------------------
# coloring containers


def test_coloring_validation():
    with pytest.raises(ValidationError):
        leaves(3, 1, 4)  # color out of range
    with pytest.raises(ValidationError):
        leaves(3, -1, 2)
    with pytest.raises(ValidationError):
        PartialLeafColoring(1, np.array([1]))
    with pytest.raises(ValidationError):
        FullColoring(3, np.array([0, 1, 2]))  # stars not legal in full colorings
    x = leaves(3, 1, 0, 2)
    assert not x.values.flags.writeable  # immutable after construction
    assert len(x) == 3
    assert list(x.star_positions()) == [1]


@pytest.mark.parametrize("cls", [PartialLeafColoring, FullColoring])
def test_coloring_checks_entries_before_narrowing(cls):
    # 65537 = 2**16 + 1 would wrap to color 1 in int16, and 1.7 and 2.2
    # would truncate to colors 1 and 2: both must be refused, not cast
    with pytest.raises(ValidationError, match=r"lie in"):
        cls(3, np.array([65537, 2]))
    with pytest.raises(ValidationError, match=r"lie in"):
        cls(3, [2, 32768])
    with pytest.raises(ValidationError, match=r"integers"):
        cls(3, np.array([1.7, 2.2]))
    with pytest.raises(ValidationError, match=r"integers"):
        cls(3, [1.0, 2.0])
    with pytest.raises(ValidationError, match=r"integers"):
        cls(3, np.array([True, False]))
    # any integer dtype is accepted and stored as read-only int16
    for values in ([1, 2], np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.int64)):
        coloring = cls(3, values)
        assert coloring.values.dtype == np.int16
        assert list(coloring.values) == [1, 2]
        assert not coloring.values.flags.writeable


def test_coloring_equality():
    assert leaves(3, 1, 2) == leaves(3, 1, 2)
    assert leaves(3, 1, 2) != leaves(3, 2, 1)
    assert leaves(3, 1, 2) != leaves(4, 1, 2)


def test_text_round_trip():
    x = PartialLeafColoring.from_text("1,2,0,2", k=3)
    assert list(x.values) == [1, 2, 0, 2]
    assert x.to_text() == "1,2,0,2"
    y = PartialLeafColoring.from_text("  1 , 2 \n", k=3)
    assert list(y.values) == [1, 2]
    with pytest.raises(ValidationError):
        PartialLeafColoring.from_text("", k=3)
    with pytest.raises(ValidationError):
        PartialLeafColoring.from_text("1,x", k=3)
    with pytest.raises(ValidationError):
        PartialLeafColoring.from_text("1,7", k=3)


def test_text_parse_skips_empty_entries_and_rejects_bad_ones():
    # whitespace around entries and empty entries are skipped
    for line in ["1,,2", " , 1 , , 2 ,\n", ",1,2", "1,2,", "1\t,\t2\r\n"]:
        assert list(PartialLeafColoring.from_text(line, k=3).values) == [1, 2], line
    # every other malformed entry raises, wherever it sits in the line
    for line in [",", " ,\n", "1,2#3", "1 2,3", "1,1.0", "1,x", "x,1", "1,65537",
                 "1,32768", "1,-1", "99999999999999999999,1", "1,,1e3"]:
        with pytest.raises(ValidationError):
            PartialLeafColoring.from_text(line, k=3)
    # a long line parses to the same colors it was written from
    row = np.random.default_rng(31).integers(0, 4, size=5000).astype(np.int16)
    parsed = PartialLeafColoring.from_text(PartialLeafColoring(3, row).to_text(), k=3)
    assert np.array_equal(parsed.values, row)


def test_check_leaf_coloring_size():
    with pytest.raises(ValidationError):
        check_leaf_coloring(TreeShape(2, 2), leaves(3, 1, 2))


def test_full_coloring_leaf_part():
    s = TreeShape(2, 1)
    full = FullColoring(3, np.array([1, 2, 3]))
    assert full.leaf_part(s) == leaves(3, 2, 3)
    with pytest.raises(ValidationError):
        full.leaf_part(TreeShape(2, 2))


# ---------------------------------------------------------------------------
# subtree restriction


def test_restrict_examples():
    s = TreeShape(2, 2)
    x = leaves(3, 1, 2, 3, 1)
    sub, r1 = restrict_to_subtree(s, x, 1)
    assert sub == TreeShape(2, 1)
    assert r1 == leaves(3, 1, 2)
    _, r2 = restrict_to_subtree(s, x, 2)
    assert r2 == leaves(3, 3, 1)
    _, r0 = restrict_to_subtree(s, x, 0)
    assert r0 == x


def test_restrict_composes():
    s = TreeShape(2, 2)
    x = leaves(4, 1, 2, 3, 4)
    mid_shape, mid = restrict_to_subtree(s, x, 2)
    _, via_child = restrict_to_subtree(mid_shape, mid, 2)
    _, direct = restrict_to_subtree(s, x, 6)
    assert via_child == direct


# ---------------------------------------------------------------------------
# properness


def test_is_proper_examples():
    s = TreeShape(2, 1)
    assert is_proper(s, FullColoring(3, np.array([1, 2, 3])))
    assert not is_proper(s, FullColoring(3, np.array([1, 1, 2])))
    assert is_proper(TreeShape(2, 0), FullColoring(3, np.array([1])))
    with pytest.raises(ValidationError):
        is_proper(s, FullColoring(3, np.array([1, 2])))


def test_is_proper_ignores_sibling_clashes():
    # only parent-child edges exist; equal siblings are fine
    assert is_proper(TreeShape(2, 1), FullColoring(3, np.array([1, 2, 2])))


# ---------------------------------------------------------------------------
# allowedness


def test_is_allowed_examples():
    assert not is_allowed(TreeShape(3, 1), 3, leaves(3, 1, 2, 3))
    assert is_allowed(TreeShape(3, 1), 3, leaves(3, 0, 0, 0))
    assert is_allowed(TreeShape(2, 1), 3, leaves(3, 1, 1))
    assert not is_allowed(TreeShape(2, 1), 2, leaves(2, 1, 2))
    assert is_allowed(TreeShape(2, 0), 2, leaves(2, 1))


def test_is_allowed_k_mismatch():
    with pytest.raises(ValidationError):
        is_allowed(TreeShape(2, 1), 4, leaves(3, 1, 1))


def test_is_allowed_matches_bruteforce_exhaustively():
    cases = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 1, 3)]
    for delta, depth, k in cases:
        shape = TreeShape(delta, depth)
        rows = all_rows(k, shape.leaf_count)
        got = is_allowed_batch(shape, k, rows)
        for row, flag in zip(rows, got):
            assert flag == brute_force_allowed(shape, k, row), (delta, depth, k, row)


def test_is_allowed_batch_agrees_with_scalar():
    shape = TreeShape(3, 2)
    rng = np.random.default_rng(42)
    rows = rng.integers(0, 4, size=(200, shape.leaf_count)).astype(np.int16)
    got = is_allowed_batch(shape, 3, rows)
    for row, flag in zip(rows, got):
        assert flag == is_allowed(shape, 3, PartialLeafColoring(3, row))


def test_is_allowed_batch_validation():
    shape = TreeShape(2, 1)
    with pytest.raises(ValidationError):
        is_allowed_batch(shape, 1, np.zeros((1, 2), dtype=np.int16))
    with pytest.raises(ValidationError):
        is_allowed_batch(shape, 3, np.zeros(2, dtype=np.int16))


def test_allowed_iff_extensions_positive():
    # k = 61 is past what a 64-bit color mask holds
    for delta, depth, k in [(2, 2, 3), (2, 1, 61)]:
        shape = TreeShape(delta, depth)
        for row in all_rows(k, shape.leaf_count):
            x = PartialLeafColoring(k, row)
            assert is_allowed(shape, k, x) == (count_extensions(shape, k, x) > 0), (k, row)


def test_full_boundaries_allowed_with_enough_colors():
    # with k >= branching + 1 the root always keeps a choice, so every
    # star-free boundary is feasible
    cases = [(2, 1, 3), (2, 2, 3), (2, 2, 4), (3, 1, 4), (3, 2, 4)]
    for delta, depth, k in cases:
        shape = TreeShape(delta, depth)
        rows = all_rows(k, shape.leaf_count, include_star=False)
        assert is_allowed_batch(shape, k, rows).all(), (delta, depth, k)
