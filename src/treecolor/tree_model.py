"""Complete rooted trees with fixed branching, and colorings of their leaves.

Vertices are indexed level by level: the root is 0 and the children of v
are v*b + 1 .. v*b + b where b is the branching factor.  Nothing is ever
stored per vertex; all navigation is index arithmetic, so deep trees cost
nothing until a coloring is materialized.

Leaf colorings use 1..k for colors and 0 for an unconstrained leaf.  The
leaf vector is ordered left to right, which makes the leaves under any
vertex a contiguous slice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

STAR = 0  # unconstrained-leaf marker in partial colorings


@dataclass(frozen=True)
class TreeShape:
    """A complete `branching`-ary tree of the given depth (root at depth 0)."""

    branching: int
    depth: int

    def __post_init__(self):
        if self.branching < 2:
            raise ValidationError(f"branching must be >= 2, got {self.branching}")
        if self.depth < 0:
            raise ValidationError(f"depth must be >= 0, got {self.depth}")

    @property
    def leaf_count(self) -> int:
        return self.branching**self.depth

    @property
    def vertex_count(self) -> int:
        return (self.branching ** (self.depth + 1) - 1) // (self.branching - 1)

    def level_start(self, d: int) -> int:
        """Index of the first vertex at depth d."""
        return (self.branching**d - 1) // (self.branching - 1)

    def level_width(self, d: int) -> int:
        return self.branching**d

    def depth_of(self, v: int) -> int:
        self._check_vertex(v)
        d = 0
        while self.level_start(d + 1) <= v:
            d += 1
        return d

    def height_of(self, v: int) -> int:
        """Distance from v down to the leaf level."""
        return self.depth - self.depth_of(v)

    def parent(self, v: int) -> int:
        self._check_vertex(v)
        if v == 0:
            raise ValidationError("the root has no parent")
        return (v - 1) // self.branching

    def is_leaf(self, v: int) -> bool:
        self._check_vertex(v)
        return v >= self.level_start(self.depth)

    def leaf_slice(self, v: int) -> tuple[int, int]:
        """Half-open range of leaf positions lying below v."""
        d = self.depth_of(v)
        pos = v - self.level_start(d)
        span = self.branching ** (self.depth - d)
        return pos * span, (pos + 1) * span

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise ValidationError(f"vertex {v} out of range for {self}")


def children(shape: TreeShape, v: int) -> list[int]:
    """Child indices of v, left to right.  Leaves have none and raise."""
    if shape.is_leaf(v):
        raise ValidationError(f"vertex {v} is a leaf of {shape}")
    b = shape.branching
    return list(range(v * b + 1, v * b + b + 1))


def _as_color_array(values, k: int, *, allow_star: bool) -> np.ndarray:
    """`values` as a read-only int16 vector, checked before it is narrowed.

    Entries must be integers in [lo, k] (lo = 0 with stars, else 1), and at
    most the int16 maximum, so the cast never wraps or truncates.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("coloring values must be one-dimensional")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"coloring entries must be integers, got dtype {arr.dtype}")
    lo = STAR if allow_star else 1
    hi = min(k, np.iinfo(np.int16).max)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValidationError(
            f"coloring entries must lie in [{lo}, {hi}]"
            + (" (0 marks an unconstrained leaf)" if allow_star else "")
        )
    arr = arr.astype(np.int16, copy=False)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PartialLeafColoring:
    """Colors (or 0) for the leaves of some tree, left to right."""

    k: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_k(self.k)
        object.__setattr__(
            self, "values", _as_color_array(self.values, self.k, allow_star=True)
        )

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialLeafColoring):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.values, other.values)

    def star_positions(self) -> np.ndarray:
        return np.flatnonzero(self.values == STAR)

    def to_text(self) -> str:
        return ",".join(str(int(v)) for v in self.values)

    @classmethod
    def from_text(cls, line: str, k: int) -> "PartialLeafColoring":
        """Parse one comma-separated line of leaf colors.

        Whitespace around an entry is ignored and empty entries are
        skipped; every other entry must be a base-10 integer, read as
        int64 and then checked by the class, so a bad or out-of-range
        entry raises ValidationError wherever it sits.  A canonical line,
        as `to_text` writes it, is read over its bytes; any other line
        goes through `np.loadtxt`, and both give the same integers.
        """
        values = _canonical_entries(line)
        return cls(k, _loadtxt_entries(line) if values is None else values)


#: longest entry `_canonical_entries` reads: 18 digits stay below 2**63
_CANONICAL_MAX_DIGITS = 18
_COMMA, _ZERO = ord(","), ord("0")


def _canonical_entries(line: str) -> np.ndarray | None:
    """int64 entries of a canonical line, or None for any other line.

    Canonical: ASCII digit runs of at most _CANONICAL_MAX_DIGITS joined by
    single commas, optionally ending in one LF or CR LF.  The entries
    are summed one digit position at a time, counted from each entry's
    end, so a line of n entries costs a few numpy passes over its bytes.
    """
    if line.endswith("\n"):
        line = line[:-1].removesuffix("\r")
    if not line or not line.isascii():
        return None
    raw = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
    commas = np.flatnonzero(raw == _COMMA)
    digits = raw - np.uint8(_ZERO)  # non-digits wrap past 9
    if np.count_nonzero(digits <= 9) != raw.size - commas.size:
        return None
    ends = np.append(commas, raw.size)
    lengths = ends - np.append(-1, commas) - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _CANONICAL_MAX_DIGITS:
        return None
    values = digits[ends - 1].astype(np.int64)
    for position in range(1, longest):
        place = np.where(lengths > position, digits[ends - 1 - position], 0)
        values += np.int64(10**position) * place
    return values


def _loadtxt_entries(line: str) -> np.ndarray:
    """int64 entries of any line `from_text` accepts, through `np.loadtxt`."""
    if ",," in "," + "".join(line.split()) + ",":  # an empty entry somewhere
        line = ",".join(p for p in line.split(",") if p.strip())
    line = line.strip()
    if not line:
        raise ValidationError("empty leaf-coloring line")
    try:
        return np.loadtxt([line], dtype=np.int64, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValidationError(f"bad leaf-coloring entry: {exc}") from None


@dataclass(frozen=True, eq=False)
class FullColoring:
    """One color per vertex of a tree, in level order."""

    k: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_k(self.k)
        object.__setattr__(
            self, "values", _as_color_array(self.values, self.k, allow_star=False)
        )

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FullColoring):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.values, other.values)

    def leaf_part(self, shape: TreeShape) -> PartialLeafColoring:
        if len(self) != shape.vertex_count:
            raise ValidationError("coloring length does not match the tree")
        return PartialLeafColoring(self.k, self.values[shape.level_start(shape.depth):])


def check_leaf_coloring(shape: TreeShape, coloring: PartialLeafColoring) -> None:
    if len(coloring) != shape.leaf_count:
        raise ValidationError(
            f"coloring has {len(coloring)} leaves but {shape} has {shape.leaf_count}"
        )


def restrict_to_subtree(
    shape: TreeShape, coloring: PartialLeafColoring, v: int
) -> tuple[TreeShape, PartialLeafColoring]:
    """The subtree hanging at v together with the slice of leaves below it."""
    check_leaf_coloring(shape, coloring)
    lo, hi = shape.leaf_slice(v)
    sub = TreeShape(shape.branching, shape.height_of(v))
    return sub, PartialLeafColoring(coloring.k, coloring.values[lo:hi])


def is_proper(shape: TreeShape, coloring: FullColoring) -> bool:
    """Whether no vertex shares its color with its parent."""
    if len(coloring) != shape.vertex_count:
        raise ValidationError("coloring length does not match the tree")
    vals = coloring.values
    if shape.depth == 0:
        return True
    child_idx = np.arange(1, shape.vertex_count)
    parent_idx = (child_idx - 1) // shape.branching
    return bool(np.all(vals[child_idx] != vals[parent_idx]))


def is_allowed(shape: TreeShape, k: int, coloring: PartialLeafColoring) -> bool:
    """Whether some proper coloring of the whole tree agrees with `coloring`.

    Computed bottom-up with per-vertex feasible color sets: a color works
    at an internal vertex iff every child can still take some other color.
    """
    _check_colors_match(k, coloring)
    check_leaf_coloring(shape, coloring)
    return bool(is_allowed_batch(shape, k, coloring.values[np.newaxis, :])[0])


def is_allowed_batch(shape: TreeShape, k: int, leaf_rows: np.ndarray) -> np.ndarray:
    """Vectorized `is_allowed` over rows of leaf colorings (0 = unconstrained).

    Feasible sets are carried as a (k, batch, width) boolean array, level
    by level: a child forces color c when c is its only feasible color, and
    a parent can take c when every child has some feasible color and no
    child forces c.
    """
    _check_k(k)
    rows = np.asarray(leaf_rows)
    if rows.ndim != 2 or rows.shape[1] != shape.leaf_count:
        raise ValidationError("leaf_rows must be (batch, leaf_count)")
    colors = np.arange(1, k + 1).reshape(k, 1, 1)
    feasible = (rows == colors) | (rows == STAR)
    b = shape.branching
    for _ in range(shape.depth):
        # siblings on a contiguous leading axis, (b, k, batch, width): numpy
        # then folds the b slices elementwise, where .all/.any over a short
        # trailing sibling axis run several times slower
        grouped = np.moveaxis(feasible.reshape(k, rows.shape[0], -1, b), 3, 0).copy()
        choices = grouped.sum(axis=1)
        alive = (choices != 0).all(axis=0)
        forced = (grouped & (choices == 1)[:, np.newaxis]).any(axis=0)
        feasible = ~forced & alive
    return feasible[:, :, 0].any(axis=0)


def _check_k(k: int) -> None:
    if k < 2:
        raise ValidationError(f"need at least 2 colors, got k={k}")


def _check_colors_match(k: int, coloring: PartialLeafColoring) -> None:
    if coloring.k != k:
        raise ValidationError(f"coloring was built for k={coloring.k}, not k={k}")
