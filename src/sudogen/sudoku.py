"""Sudoku matrices of side n^2 and their layered structure.

A Sudoku matrix decomposes uniquely into n^2 pairwise-disjoint block
permutation layers, layer k marking the cells that hold value k; and
conversely any pairwise-disjoint full set of layers composes to a valid
Sudoku matrix.  The main generator builds the stack layer by layer: layer
1 is the image of a random pi matrix, every later layer is picked
uniformly among the layers that fit (listed when few fit, counted and
unranked otherwise), and a stack that no layer fits is restarted or
backtracked; the last layer is forced, since the cells left uncovered by
n^2 - 1 disjoint layers always form one.  It runs up to order 4 and
refuses larger orders.  The blind-rejection variant, which draws a
complete layer tuple per attempt and keeps it only if already disjoint,
is ``gen_sudoku_rejection`` in :mod:`sudogen.analysis`.

Exact counts by order: 1 matrix at n = 1, 288 at n = 2, and
6 670 903 752 021 072 936 960 at n = 3 (embedded constant, far beyond
enumeration).  No formula is known in general.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator

from .errors import BudgetExhaustedError, CompositionError, InfeasibleError
from .perm import _is_perm_trusted
from .pi import gen_pi_direct
from .rng import RandomSource
# is_sigma is unused here but stays importable as ``sudoku.is_sigma``,
# which the cli-pipeline benchmark's traced replay hooks by name.
from .sigma import SigmaMatrix, _phi_mask, is_sigma  # noqa: F401
from .sigma import block_order as sudoku_order

STATS_SCHEMA_VERSION = 3

# Highest order the layered generator accepts (see gen_sudoku).
MAX_LAYERED_ORDER = 4
# The layered generator lists the layers that fit a stack when at most this
# many do, and counts them otherwise: for the at most 7 layers that fit an
# order-2 stack, listing is cheaper than counting and unranking.
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
    for i, row in enumerate(cells, start=1):
        for v in row:
            if not 1 <= v <= side:
                raise ValueError(f"entry {v!r} in row {i} outside range 1..{side}")
    for row in cells:
        if not _is_perm_trusted(row, side):
            return False
    for j in range(side):
        if not _is_perm_trusted([cells[i][j] for i in range(side)], side):
            return False
    for s in range(n):
        for t in range(n):
            block = [cells[s * n + i][t * n + j] for i in range(n) for j in range(n)]
            if not _is_perm_trusted(block, side):
                return False
    return True


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

    def ones_count(self) -> int:
        return self.mask.bit_count()

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


class RestartPolicy:
    """Dead-end handling for the layered generator.

    A stack is a dead end when no layer fits it.  Then either the whole
    stack is discarded (mode "restart") or only the most recent accepted
    layer is dropped, and is no longer picked for the stack below it
    (mode "backtrack").  ``max_restarts`` bounds full restarts; when
    exceeded the generator raises BudgetExhaustedError with partial stats
    attached.  Immutable and hashable, like :class:`SigmaMatrix`.
    """

    __slots__ = ("mode", "max_restarts")

    def __init__(self, mode: str = "restart", max_restarts: int | None = None):
        if mode not in ("restart", "backtrack"):
            raise ValueError(f"unknown policy mode {mode!r}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "max_restarts", max_restarts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.mode, self.max_restarts) == (other.mode, other.max_restarts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mode, self.max_restarts))

    def __repr__(self) -> str:
        return f"RestartPolicy(mode={self.mode!r}, max_restarts={self.max_restarts!r})"

    def __reduce__(self):
        return RestartPolicy, (self.mode, self.max_restarts)


class GenStats:
    """Versioned per-run statistics of the layered generator.

    ``exact_layers`` counts the layers picked among the layers that fit
    (layers 2 .. n^2 - 1), as opposed to layer 1 and the forced last one.
    Every picked layer fits, so ``candidates`` counts accepted layers,
    including those of abandoned stacks.  Mutable, compared field by
    field, and unhashable.
    """

    __slots__ = (
        "n",
        "seed",
        "restarts",
        "backtracks",
        "candidates",
        "exact_layers",
        "wall_time_s",
        "gen_time_s",
        "check_time_s",
        "schema_version",
    )

    def __init__(
        self,
        n: int,
        seed: int | None,
        restarts: int = 0,
        backtracks: int = 0,
        candidates: int = 0,
        exact_layers: int = 0,
        wall_time_s: float = 0.0,
        gen_time_s: float = 0.0,
        check_time_s: float = 0.0,
        schema_version: int = STATS_SCHEMA_VERSION,
    ):
        self.n = n
        self.seed = seed
        self.restarts = restarts
        self.backtracks = backtracks
        self.candidates = candidates
        self.exact_layers = exact_layers
        self.wall_time_s = wall_time_s
        self.gen_time_s = gen_time_s
        self.check_time_s = check_time_s
        self.schema_version = schema_version

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"GenStats({fields})"

    def to_dict(self) -> dict:
        # schema_version first, then the other fields in order
        rest = {name: getattr(self, name) for name in self.__slots__[:-1]}
        return {"schema_version": self.schema_version, **rest}


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


def _fitting_layers(n: int, free: int, cap: int) -> list[int] | None:
    """Masks of every sigma layer inside the ``free`` cells, or None.

    A backtracker walks the n^2 blocks in row-major order, taking in each
    block one free cell whose row and column no earlier choice holds.
    The order of the list is fixed by ``free``.  Once more than ``cap``
    layers are found it stops and returns None, so it never holds more
    than ``cap + 1`` masks.
    """
    blocks, keep = _layer_tables(n)
    last = len(blocks) - 1
    found: list[int] = []

    def walk(b: int, avail: int, acc: int) -> bool:
        cells = avail & blocks[b]
        while cells:
            low = cells & -cells
            cells ^= low
            if b == last:
                found.append(acc | low)
                if len(found) > cap:
                    return False
            elif not walk(b + 1, avail & keep[low.bit_length() - 1], acc | low):
                return False
        return True

    return found if walk(0, free, 0) else None


@functools.lru_cache(maxsize=4096)
def _listed_layers(n: int, free: int) -> tuple[int, ...] | None:
    """``_fitting_layers(n, free, _LIST_CAP)`` as a tuple, memoised.

    A listing depends only on (n, free), and at order 2 only 64 free
    masks ever reach it, so repeated calls look their listing up instead
    of walking again.  The memo is bounded, since at order 3 under 1% of
    listings repeat; each entry holds at most ``_LIST_CAP`` masks.
    """
    fits = _fitting_layers(n, free, _LIST_CAP)
    return None if fits is None else tuple(fits)


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

    Walks the blocks and cells in the order of ``_fitting_layers``,
    memoising the number of ways to finish a layer from block b on.  That
    number depends only on the open cells of blocks b and later, which the
    band rows and the columns used so far fix.  Returns the count and
    ``unrank``, which maps r in 1..count to the r-th layer of the walk, so
    ``unrank(r) == _fitting_layers(n, free, count)[r - 1]``.  The memo
    lives as long as ``unrank`` and is freed with it.
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


def gen_sudoku(
    n: int,
    source: RandomSource,
    policy: RestartPolicy | None = None,
) -> tuple[list[list[int]], GenStats]:
    """Generate a Sudoku matrix by stacking random disjoint layers.

    Every step picks the next layer uniformly among the block permutation
    layers disjoint from the stack so far, in one of three ways:

    - Layer 1 is the image of a fresh random pi matrix; every layer fits
      the empty stack.
    - Layers 2 .. n^2 - 1 take one ``uniform_int`` draw among the layers
      that fit (an "exact" layer).  When at most 8 fit, the generator
      lists them; past that it counts them with a memoised walk over the
      blocks and maps the draw to the layer of that rank.  When none fit,
      the stack is a dead end.  Listings are memoised across calls (see
      ``_listed_layers``); counts live only as long as their stack.
    - The last layer is forced: the cells n^2 - 1 disjoint layers leave
      uncovered hold one cell per row, column and block, so their mask is
      the only layer that fits.  It draws nothing.

    Every picked layer fits, so each counts as one accepted candidate.  A
    dead-ended stack is restarted or backtracked as the policy says.  When
    backtracking, a draw that hits a layer which already dead-ended the
    same stack is redrawn, and a stack all of whose layers dead-ended is a
    dead end in turn.  Seeds at n >= 3 give other matrices than in
    versions that drew deep layers blindly, though each step's law is
    unchanged.

    Orders above 4 raise InfeasibleError before anything is built: one
    count of the layers that fit an order-5 stack takes about 30 s and
    850 MB, and a stack needs 23 of them.

    The output is not uniform over Sudoku matrices: at n = 2, 160 of the
    288 matrices come out with probability 1/224 and 128 with 1/448.
    ``gen_sudoku_rejection`` samples uniformly (n <= 2).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_LAYERED_ORDER:
        raise InfeasibleError(
            f"layered generation at order {n} is out of reach: a stack counts "
            f"the layers that fit it {n * n - 2} times, and one such count "
            f"already takes about 30 s and 850 MB at order 5"
        )
    policy = policy or RestartPolicy()
    side = n * n
    full = (1 << (side * side)) - 1
    perf = time.perf_counter
    start = perf()
    gen_time = 0.0
    check_time = 0.0
    stack = DisjointStack(n)
    restarts = 0
    backtracks = 0
    candidates = 0
    exact_layers = 0
    # backtrack mode: per depth, the layers already shown to dead-end the
    # stack of that depth; they are no longer picked there
    dead: list[set[int]] = [set() for _ in range(side)]
    # backtrack mode: per depth, the pick table (total, unrank) of the
    # stack of that depth, so a pop back to it draws without recounting.
    # Like dead[k], tables[k] is dropped when its stack is popped away.
    # Restart mode never returns to a stack and keeps no table.
    backtracking = policy.mode == "backtrack"
    tables: list[tuple[int, Callable[[int], int]] | None] = [None] * side

    def make_stats() -> GenStats:
        return GenStats(
            n=n,
            seed=source.seed,
            restarts=restarts,
            backtracks=backtracks,
            candidates=candidates,
            exact_layers=exact_layers,
            wall_time_s=perf() - start,
            gen_time_s=gen_time,
            check_time_s=check_time,
        )

    while len(stack) < side:
        k = len(stack)
        t0 = perf()
        if k == side - 1:
            mask = full ^ stack.mask
        elif k == 0:
            mask = _phi_mask(gen_pi_direct(n, source), n)
        else:
            table = tables[k]
            if table is None:
                free = full ^ stack.mask
                fits = _listed_layers(n, free)
                if fits is None:
                    table = _count_layers(n, free)
                else:
                    table = len(fits), lambda r, fits=fits: fits[r - 1]
                if backtracking:
                    tables[k] = table
            total, unrank = table
            if total > len(dead[k]):
                mask = unrank(source.uniform_int(total))
                while mask in dead[k]:
                    mask = unrank(source.uniform_int(total))
                exact_layers += 1
            else:
                mask = None  # dead end: no live layer fits this stack
        t1 = perf()
        gen_time += t1 - t0
        if mask is not None:
            candidates += 1
            pushed = stack.try_push(SigmaMatrix(n, mask))
            assert pushed, "every picked layer fits the stack"
            check_time += perf() - t1
        elif backtracking:
            dead[k].clear()
            tables[k] = None
            dead[k - 1].add(stack.pop().mask)
            backtracks += 1
        else:
            stack.clear()
            restarts += 1
            if policy.max_restarts is not None and restarts > policy.max_restarts:
                raise BudgetExhaustedError(
                    f"gave up after {policy.max_restarts} full restarts at order {n}",
                    stats=make_stats(),
                )
    cells = compose(stack.layers)
    return cells, make_stats()


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
