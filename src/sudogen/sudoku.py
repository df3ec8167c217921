"""Sudoku matrices of side n^2 and their layered structure.

A Sudoku matrix decomposes uniquely into n^2 pairwise-disjoint block
permutation layers, layer k marking the cells that hold value k; and
conversely any pairwise-disjoint full set of layers composes to a valid
Sudoku matrix.  The main generator builds the stack layer by layer: layer
1 is the image of a random pi matrix, every later layer is picked
uniformly among the layers that fit (counted, and the draw unranked to a
layer), and a stack that no layer fits is restarted or backtracked; the
last layer is forced, since the cells left uncovered by n^2 - 1 disjoint
layers always form one.  It runs up to order 4 and refuses larger
orders.  The blind-rejection variant, which draws a complete layer tuple
per attempt and keeps it only if already disjoint, is
``gen_sudoku_rejection`` in :mod:`sudogen.analysis`.

Exact counts by order: 1 matrix at n = 1, 288 at n = 2, and
6 670 903 752 021 072 936 960 at n = 3 (embedded constant, far beyond
enumeration).  No formula is known in general.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator, NamedTuple

from .errors import BudgetExhaustedError, CompositionError, InfeasibleError
from .pi import gen_pi_direct
from .rng import RandomSource
# is_sigma is unused here but stays importable as ``sudoku.is_sigma``,
# which the cli-pipeline benchmark's traced replay hooks by name.
from .sigma import SigmaMatrix, _phi_mask, is_sigma  # noqa: F401
from .sigma import block_order as sudoku_order

STATS_SCHEMA_VERSION = 4

# Highest order the layered generator accepts (see gen_sudoku).
MAX_LAYERED_ORDER = 4
# The layered generator keeps the layers that fit a stack as a listing,
# memoised across calls, when at most this many do: every deep order-2 stack
# qualifies (at most 7 layers fit one), and a lookup is cheaper than a count.
_LIST_CAP = 8

SIGMA_COUNTS = {
    1: 1,
    2: 288,
    3: 6_670_903_752_021_072_936_960,
}


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

    Requires exactly n^2 layers of matching order.  Raises
    CompositionError naming the first conflicting position if two layers
    overlap, or the first uncovered position if the union misses a cell.
    """
    if not layers:
        raise ValueError("no layers given")
    n = layers[0].n
    side = n * n
    if len(layers) != side:
        raise ValueError(f"expected {side} layers for order {n}, got {len(layers)}")
    for k, layer in enumerate(layers, start=1):
        if layer.n != n:
            raise ValueError(f"layer {k} has order {layer.n}, expected {n}")
    size = side * side
    acc = 0
    flat = [0] * size  # cell (i, j) at i * side + j, as in the masks
    for k, layer in enumerate(layers, start=1):
        mask = layer.mask
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
    missing = ~acc & ((1 << size) - 1)
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


class DisjointStack:
    """Accumulating stack of pairwise-disjoint sigma layers.

    The occupancy accumulator mirrors the union of the accepted layers;
    after k accepted layers it holds exactly k * n^2 ones.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        self.n = n
        self.layers: list[SigmaMatrix] = []
        self.mask = 0

    def __len__(self) -> int:
        return len(self.layers)

    def try_push(self, layer: SigmaMatrix) -> bool:
        """Accept the layer iff it is disjoint from everything so far."""
        if layer.n != self.n:
            raise ValueError(f"order mismatch: {layer.n} vs {self.n}")
        if self.mask & layer.mask:
            return False
        self.layers.append(layer)
        self.mask |= layer.mask
        return True

    def pop(self) -> SigmaMatrix:
        layer = self.layers.pop()
        self.mask ^= layer.mask
        return layer

    def clear(self) -> None:
        self.layers.clear()
        self.mask = 0


class GenStats(NamedTuple):
    """Versioned per-run statistics of the layered generator.

    ``exact_layers`` counts the layers picked among the layers that fit
    (layers 2 .. n^2 - 1), as opposed to layer 1 and the forced last one.
    Every picked layer fits, so ``candidates`` counts accepted layers,
    including those of abandoned stacks.  ``wall_time_s`` is the whole run.
    """

    n: int
    seed: int | None
    restarts: int = 0
    backtracks: int = 0
    candidates: int = 0
    exact_layers: int = 0
    wall_time_s: float = 0.0

    schema_version = STATS_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {"schema_version": STATS_SCHEMA_VERSION, **self._asdict()}


@functools.cache
def _layer_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # One mask per block (row-major block order), and per cell the mask of
    # every cell outside its row and its column: the cells a layer holding
    # that cell leaves open.
    side = n * n
    full = (1 << (side * side)) - 1
    row = (1 << side) - 1
    column = sum(1 << (i * side) for i in range(side))
    block_rows = sum(((1 << n) - 1) << (i * side) for i in range(n))
    blocks = tuple(block_rows << (s * n * side + t * n) for s in range(n) for t in range(n))
    keep = tuple(
        full & ~((row << (c - c % side)) | (column << (c % side)))
        for c in range(side * side)
    )
    return blocks, keep


@functools.cache
def _layer_counter(n: int) -> Callable[[int, int, list[dict[int, int]]], int]:
    """``count(b, avail, memo)``: the ways to finish a layer from block b on.

    Built once per order.  The memo is an argument, not a variable of the
    closure: ``count`` refers to itself, so anything its closure held would
    sit in a reference cycle and outlive its count table until the cyclic
    garbage collector ran.
    """
    blocks, keep = _layer_tables(n)
    last = len(blocks) - 1
    rest = list(blocks)  # rest[b]: the cells of blocks b and later
    for b in range(last - 1, -1, -1):
        rest[b] |= rest[b + 1]

    def count(b: int, avail: int, memo: list[dict[int, int]]) -> int:
        if b == last:
            return (avail & blocks[last]).bit_count()
        avail &= rest[b]
        known = memo[b].get(avail)
        if known is not None:
            return known
        cells = avail & blocks[b]
        total = 0
        if b + 1 == last:
            # the last block's open cells, without a call per cell
            final = avail & blocks[last]
            while cells:
                low = cells & -cells
                cells ^= low
                total += (final & keep[low.bit_length() - 1]).bit_count()
        else:
            while cells:
                low = cells & -cells
                cells ^= low
                total += count(b + 1, avail & keep[low.bit_length() - 1], memo)
        memo[b][avail] = total
        return total

    return count


def _count_layers(n: int, free: int) -> tuple[int, Callable[[int], int]]:
    """Count the sigma layers inside the ``free`` cells, and rank them.

    A layer takes one cell in each block, and no two of its cells share a
    row or a column.  The walk visits the n^2 blocks in row-major order and
    each block's open cells in ascending index, so the layers come ranked
    by their cells' indices, block by block, compared lexicographically.
    It memoises the number of ways to finish a layer from block b on, which
    depends only on the open cells of blocks b and later.  Returns the
    count and ``unrank``, which maps r in 1..count to the layer of rank r.
    The memo lives as long as ``unrank`` and is freed with it.
    """
    blocks, keep = _layer_tables(n)
    last = len(blocks) - 1
    count = _layer_counter(n)
    memo: list[dict[int, int]] = [{} for _ in blocks]

    def unrank(r: int) -> int:
        avail, layer = free, 0
        for b in range(last + 1):
            cells = avail & blocks[b]
            while cells:
                low = cells & -cells
                cells ^= low
                after = avail & keep[low.bit_length() - 1]
                ways = 1 if b == last else count(b + 1, after, memo)
                if r <= ways:
                    break
                r -= ways
            layer |= low
            avail = after
        return layer

    return count(0, free, memo), unrank


# Listings of the layers that fit, keyed by (n, free), for the stacks that
# at most _LIST_CAP layers fit.  Only 64 free masks of order 2 are ever
# listed, so nearly every order-2 pick is a lookup; under 1% of order-3
# listings repeat.  The memo is emptied when it reaches _LISTED_MAX
# entries: masks that recur come back after a run of one-off ones, where a
# memo that stopped adding once full would shut them out for good.
_listed: dict[tuple[int, int], tuple[int, ...]] = {}
_LISTED_MAX = 4096


def _pick_table(n: int, free: int) -> tuple[int, Callable[[int], int]]:
    """``(total, unrank)`` over the layers inside the ``free`` cells.

    The count and ranks of :func:`_count_layers`.  A table of at most
    ``_LIST_CAP`` layers is kept as the tuple of its layers in rank order
    and looked up on later calls; a dead end is the empty tuple.
    """
    fits = _listed.get((n, free))
    if fits is None:
        total, unrank = _count_layers(n, free)
        if total > _LIST_CAP:
            return total, unrank
        if len(_listed) >= _LISTED_MAX:
            _listed.clear()
        fits = _listed[n, free] = tuple(unrank(r) for r in range(1, total + 1))
    return len(fits), lambda r: fits[r - 1]


def gen_sudoku(
    n: int,
    source: RandomSource,
    *,
    policy: str = "restart",
    max_restarts: int | None = None,
) -> tuple[list[list[int]], GenStats]:
    """Generate a Sudoku matrix by stacking random disjoint layers.

    Every step picks the next layer uniformly among the block permutation
    layers disjoint from the stack so far, in one of three ways:

    - Layer 1 is the image of a fresh random pi matrix; every layer fits
      the empty stack.
    - Layers 2 .. n^2 - 1 take one ``uniform_int`` draw among the layers
      that fit (an "exact" layer): a memoised walk over the blocks counts
      them, and the draw is mapped to the layer of that rank.  When none
      fit, the stack is a dead end.  When at most 8 fit, the layers are
      kept as a listing that later calls look up (see ``_pick_table``);
      larger counts live only as long as their stack.
    - The last layer is forced: the cells n^2 - 1 disjoint layers leave
      uncovered hold one cell per row, column and block, so their mask is
      the only layer that fits.  It draws nothing.

    Returns the grid and its ``GenStats``: the run's counts and its wall
    time.  Every picked layer fits, so each counts as one accepted
    candidate.  A stack that no layer fits is a dead end.
    ``policy="restart"`` (the default) then discards the stack; one full
    restart past ``max_restarts`` (None: no bound, else an int >= 0) raises
    BudgetExhaustedError with the partial stats attached.
    ``policy="backtrack"`` drops the latest layer and no longer picks it for
    the stack below: a draw that hits a layer which already dead-ended the
    same stack is redrawn, and a stack all of whose layers dead-ended is a
    dead end in turn.  It never restarts, so ``max_restarts`` with it raises
    ValueError, as do any other policy and a ``max_restarts`` that is
    neither None nor an int >= 0 (a bool is refused), before any draw.

    Orders above 4 raise InfeasibleError before anything is built: one
    count of the layers that fit an order-5 stack takes about 30 s and
    850 MB, and a stack needs 23 of them.

    The output is not uniform over Sudoku matrices: at n = 2, 160 of the
    288 matrices come out with probability 1/224 and 128 with 1/448.
    ``gen_sudoku_rejection`` samples uniformly (n <= 2).
    """
    if policy not in ("restart", "backtrack"):
        raise ValueError(f"unknown policy mode {policy!r}")
    if policy == "backtrack" and max_restarts is not None:
        raise ValueError("max_restarts does not apply to policy 'backtrack'")
    if max_restarts is not None and (
        not isinstance(max_restarts, int) or isinstance(max_restarts, bool) or max_restarts < 0
    ):
        raise ValueError(f"max_restarts must be None or an int >= 0, got {max_restarts!r}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_LAYERED_ORDER:
        raise InfeasibleError(
            f"layered generation at order {n} is out of reach: a stack counts "
            f"the layers that fit it {n * n - 2} times, and one such count "
            f"already takes about 30 s and 850 MB at order 5"
        )
    side = n * n
    last = side - 1
    full = (1 << (side * side)) - 1
    perf = time.perf_counter
    start = perf()
    restarts = backtracks = candidates = exact_layers = 0
    stack = DisjointStack(n)
    push = stack.try_push
    backtracking = policy == "backtrack"
    if backtracking:
        # per depth, the layers already shown to dead-end the stack of that
        # depth, which are no longer picked there; and the pick table
        # (total, unrank) of that stack, so a pop back to it draws without
        # recounting.  Both are dropped when their stack is popped away.
        dead: list[set[int]] = [set() for _ in range(side)]
        tables: list[tuple[int, Callable[[int], int]] | None] = [None] * side
    # restart mode never returns to a stack: it marks no layer dead and
    # keeps no table
    dead_k = frozenset()
    k = 0  # the stack's depth
    while k < side:
        if k == last:
            mask = full ^ stack.mask
        elif k == 0:
            mask = _phi_mask(gen_pi_direct(n, source), n)
        else:
            if backtracking:
                dead_k = dead[k]
                table = tables[k]
                if table is None:
                    table = tables[k] = _pick_table(n, full ^ stack.mask)
            else:
                table = _pick_table(n, full ^ stack.mask)
            total, unrank = table
            if total > len(dead_k):
                mask = unrank(source.uniform_int(total))
                while mask in dead_k:
                    mask = unrank(source.uniform_int(total))
                exact_layers += 1
            else:
                mask = None  # dead end: no live layer fits this stack
        if mask is not None:
            candidates += 1
            pushed = push(SigmaMatrix(n, mask))
            assert pushed, "every picked layer fits the stack"
            k += 1
        elif backtracking:
            dead[k].clear()
            tables[k] = None
            k -= 1
            dead[k].add(stack.pop().mask)
            backtracks += 1
        else:
            stack.clear()
            k = 0
            restarts += 1
            if max_restarts is not None and restarts > max_restarts:
                stats = GenStats(
                    n, source.seed, restarts, backtracks, candidates, exact_layers, perf() - start
                )
                raise BudgetExhaustedError(
                    f"gave up after {max_restarts} full restarts at order {n}", stats=stats
                )
    cells = compose(stack.layers)
    return cells, GenStats(
        n, source.seed, restarts, backtracks, candidates, exact_layers, perf() - start
    )


def _backtrack_grids(n: int) -> Iterator[list[list[int]]]:
    # Depth-first fill in row-major cell order, values ascending, pruning
    # with per-row/column/block used-value bitmasks.  Yields the live
    # grid; callers must copy before storing.
    side = n * n
    full = (1 << side) - 1
    grid = [[0] * side for _ in range(side)]
    row_used = [0] * side
    col_used = [0] * side
    block_used = [0] * side

    def rec(idx: int) -> Iterator[list[list[int]]]:
        if idx == side * side:
            yield grid
            return
        i, j = divmod(idx, side)
        b = (i // n) * n + (j // n)
        avail = full & ~(row_used[i] | col_used[j] | block_used[b])
        while avail:
            low = avail & -avail
            grid[i][j] = low.bit_length()
            row_used[i] |= low
            col_used[j] |= low
            block_used[b] |= low
            yield from rec(idx + 1)
            row_used[i] ^= low
            col_used[j] ^= low
            block_used[b] ^= low
            avail ^= low
        grid[i][j] = 0

    yield from rec(0)


def _enumeration_guard(n: int) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n >= 3:
        raise InfeasibleError(
            f"exhaustive enumeration at order {n} is out of reach "
            f"(already ~6.67e21 matrices at order 3)"
        )


def enumerate_sudoku(n: int) -> int:
    """Exact count of Sudoku matrices of order n by backtracking (n <= 2)."""
    _enumeration_guard(n)
    return sum(1 for _ in _backtrack_grids(n))


def iter_sudoku(n: int) -> Iterator[list[list[int]]]:
    """Stream every Sudoku matrix of order n once, in lexicographic cell order."""
    _enumeration_guard(n)
    for grid in _backtrack_grids(n):
        yield [row[:] for row in grid]
