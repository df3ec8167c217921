"""Sudoku grids and their value layers, without the generators.

A Sudoku matrix of order n is an n^2 x n^2 grid over 1..n^2 whose rows,
columns and n x n blocks are permutations.  It decomposes uniquely into
n^2 pairwise-disjoint block permutation layers, layer k marking the
cells that hold value k, and any full set of pairwise-disjoint layers
composes back into one.  These are the checks and the two conversions
the ``check --kind sudoku``, ``decompose`` and ``compose`` commands run;
they live apart from :mod:`sudogen.sudoku`, so those commands load none
of the generators' code.
"""

from __future__ import annotations

from .errors import CompositionError
from .sigma import SigmaMatrix
from .sigma import block_order as sudoku_order


def is_sudoku(cells: list[list[int]]) -> bool:
    """True iff every row, column and n x n block is a permutation of 1..n^2.

    Checks the 3 n^2 constraint groups with early exit.  Entries outside
    1..n^2 raise ValueError (not a well-formed candidate grid).
    """
    n = sudoku_order(cells)
    side = n * n
    values = set(range(1, side + 1))
    for i, row in enumerate(cells, start=1):
        if not values.issuperset(row):
            v = next(v for v in row if v not in values)
            raise ValueError(f"entry {v!r} in row {i} outside range 1..{side}")
    # every entry is one of the n^2 values, so a group is a permutation
    # iff it holds n^2 distinct ones
    blocks = (
        [cells[s + i][t + j] for i in range(n) for j in range(n)]
        for s in range(0, side, n)
        for t in range(0, side, n)
    )
    return all(
        len(set(group)) == side for groups in (cells, zip(*cells), blocks) for group in groups
    )


def compose(layers: list[SigmaMatrix]) -> list[list[int]]:
    """Sum k * layer_k over a full pairwise-disjoint stack of layers.

    Requires exactly n^2 layers of matching order, with masks in
    [0, 2^(n^4)); ValueError names the first layer that is not.  Raises
    CompositionError naming the first conflicting position if two layers
    overlap, or the first uncovered position if the union misses a cell.
    """
    if not layers:
        raise ValueError("no layers given")
    n = layers[0].n
    side = n * n
    if len(layers) != side:
        raise ValueError(f"expected {side} layers for order {n}, got {len(layers)}")
    size = side * side
    limit = 1 << size
    acc = 0
    flat = [0] * size  # cell (i, j) at i * side + j, as in the masks
    for k, (order, mask) in enumerate(layers, start=1):
        if order != n:
            raise ValueError(f"layer {k} has order {order}, expected {n}")
        if not 0 <= mask < limit:
            raise ValueError(f"layer {k} mask is negative or has bits at or past n^4 = {size}")
        overlap = acc & mask
        if overlap:
            i, j = divmod((overlap & -overlap).bit_length() - 1, side)
            raise CompositionError(
                f"layer {k} overlaps an earlier layer at ({i + 1}, {j + 1})",
                position=(i + 1, j + 1),
            )
        acc |= mask
        # set bits, not sigma._bit_rows: cheaper on the layered order-2 hot path
        while mask:
            low = mask & -mask
            flat[low.bit_length() - 1] = k
            mask ^= low
    missing = ~acc & (limit - 1)
    if missing:
        i, j = divmod((missing & -missing).bit_length() - 1, side)
        raise CompositionError(
            f"no layer covers ({i + 1}, {j + 1})", position=(i + 1, j + 1)
        )
    return [flat[i : i + side] for i in range(0, size, side)]


def decompose(cells: list[list[int]]) -> list[SigmaMatrix]:
    """Split a Sudoku matrix into its n^2 value-indicator layers.

    Layer k has a 1 exactly where the grid holds value k; the layers of
    a valid Sudoku matrix are always valid, pairwise-disjoint block
    permutation matrices.  ValueError if the input is not a Sudoku
    matrix.
    """
    if not is_sudoku(cells):
        raise ValueError("input is not a Sudoku matrix")
    n = sudoku_order(cells)
    side = n * n
    masks = [0] * (side + 1)
    for i in range(side):
        for j in range(side):
            masks[cells[i][j]] |= 1 << (i * side + j)
    return [SigmaMatrix(n, masks[k]) for k in range(1, side + 1)]
