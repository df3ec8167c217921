"""Sudoku matrices of side n^2 and their layered structure.

A Sudoku matrix decomposes uniquely into n^2 pairwise-disjoint block
permutation layers, layer k marking the cells that hold value k; and
conversely any pairwise-disjoint full set of layers composes to a valid
Sudoku matrix.  The main generator builds the stack layer by layer from
random pi matrices, retrying a layer until it fits and restarting the
whole stack when a layer budget runs out; the last layer is forced, since
the cells left uncovered by n^2 - 1 disjoint layers always form one.  The
blind-rejection variant draws a complete layer tuple per attempt and
keeps it only if already disjoint.

Exact counts by order: 1 matrix at n = 1, 288 at n = 2, and
6 670 903 752 021 072 936 960 at n = 3 (embedded constant, far beyond
enumeration).  No formula is known in general.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BudgetExhaustedError, CompositionError, InfeasibleError
from .perm import _is_perm_trusted
from .pi import gen_pi_direct
from .rng import RandomSource
# is_sigma is unused here but stays importable as ``sudoku.is_sigma``,
# which the cli-pipeline benchmark's traced replay hooks by name.
from .sigma import SigmaMatrix, _phi_mask, is_sigma, ratio_as_float  # noqa: F401

STATS_SCHEMA_VERSION = 1

SIGMA_COUNTS = {
    1: 1,
    2: 288,
    3: 6_670_903_752_021_072_936_960,
}


def sudoku_order(cells: list[list[int]]) -> int:
    """Block order n of an n^2 x n^2 grid; ValueError on a bad shape."""
    side = len(cells)
    n = round(side**0.5)
    if side == 0 or n * n != side:
        raise ValueError(f"grid side {side} is not a perfect square")
    for i, row in enumerate(cells, start=1):
        if len(row) != side:
            raise ValueError(f"row {i} has length {len(row)}, expected {side}")
    return n


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
    acc = 0
    cells = [[0] * side for _ in range(side)]
    for k, layer in enumerate(layers, start=1):
        overlap = acc & layer.mask
        if overlap:
            i, j = divmod((overlap & -overlap).bit_length() - 1, side)
            raise CompositionError(
                f"layer {k} overlaps an earlier layer at ({i + 1}, {j + 1})",
                position=(i + 1, j + 1),
            )
        acc |= layer.mask
        for i, j in layer.ones():
            cells[i - 1][j - 1] = k
    missing = ~acc & ((1 << (side * side)) - 1)
    if missing:
        i, j = divmod((missing & -missing).bit_length() - 1, side)
        raise CompositionError(
            f"no layer covers ({i + 1}, {j + 1})", position=(i + 1, j + 1)
        )
    return cells


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


@dataclass(frozen=True)
class RestartPolicy:
    """Dead-end handling for the layered generator.

    After ``restart_budget`` consecutive rejections at one of the layers
    1 .. n^2 - 1 (default 10000 * n), either the whole stack is discarded
    (mode "restart") or only the most recent accepted layer is dropped
    (mode "backtrack").  The last layer is forced and never rejected, so
    the budget never applies to it.  ``max_restarts`` bounds full
    restarts; when exceeded the generator raises BudgetExhaustedError
    with partial stats attached.
    """

    restart_budget: int | None = None
    mode: str = "restart"
    max_restarts: int | None = None

    def __post_init__(self):
        if self.mode not in ("restart", "backtrack"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.restart_budget is not None and self.restart_budget < 1:
            raise ValueError("restart_budget must be >= 1")

    def budget_for(self, n: int) -> int:
        return self.restart_budget if self.restart_budget is not None else 10_000 * n


@dataclass
class GenStats:
    """Versioned per-run statistics of the layered generator."""

    n: int
    seed: int | None
    rejections_per_layer: list[int] = field(default_factory=list)
    restarts: int = 0
    backtracks: int = 0
    candidates: int = 0
    wall_time_s: float = 0.0
    gen_time_s: float = 0.0
    check_time_s: float = 0.0
    schema_version: int = STATS_SCHEMA_VERSION

    @property
    def total_rejections(self) -> int:
        return sum(self.rejections_per_layer)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "n": self.n,
            "seed": self.seed,
            "rejections_per_layer": list(self.rejections_per_layer),
            "total_rejections": self.total_rejections,
            "restarts": self.restarts,
            "backtracks": self.backtracks,
            "candidates": self.candidates,
            "wall_time_s": self.wall_time_s,
            "gen_time_s": self.gen_time_s,
            "check_time_s": self.check_time_s,
        }


def gen_sudoku(
    n: int,
    source: RandomSource,
    policy: RestartPolicy | None = None,
) -> tuple[list[list[int]], GenStats]:
    """Generate a Sudoku matrix by stacking random disjoint layers.

    Each candidate for layers 1 .. n^2 - 1 is the block permutation image
    of a fresh random pi matrix; it is accepted iff the occupancy
    accumulator stays 0/1, i.e. the candidate is disjoint from all
    accepted layers.  The restart policy keeps the loop a terminating Las
    Vegas process even when a partial stack cannot be extended.

    The last layer is forced: the cells n^2 - 1 disjoint layers leave
    uncovered hold one cell per row, column and block, so their mask is
    the only layer that fits.  It draws nothing, counts as one accepted
    candidate, and ``rejections_per_layer[-1]`` is always 0.  Every
    (n^2 - 1)-stack used to complete by blind draws with the same
    probability, so forcing the layer leaves the output law unchanged;
    only the draw stream, and hence the matrix for a given seed, differs
    from versions that drew the last layer.

    The output is not uniform over Sudoku matrices: at n = 2, 160 of the
    288 matrices come out with probability 1/224 and 128 with 1/448.
    ``gen_sudoku_rejection`` samples uniformly (n <= 2).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    policy = policy or RestartPolicy()
    budget = policy.budget_for(n)
    side = n * n
    full = (1 << (side * side)) - 1
    perf = time.perf_counter
    start = perf()
    gen_time = 0.0
    check_time = 0.0
    stack = DisjointStack(n)
    rejections = [0] * side
    restarts = 0
    backtracks = 0
    candidates = 0
    consecutive = 0

    def make_stats() -> GenStats:
        return GenStats(
            n=n,
            seed=source.seed,
            rejections_per_layer=list(rejections),
            restarts=restarts,
            backtracks=backtracks,
            candidates=candidates,
            wall_time_s=perf() - start,
            gen_time_s=gen_time,
            check_time_s=check_time,
        )

    while len(stack) < side:
        k = len(stack)
        t0 = perf()
        if k == side - 1:
            layer = SigmaMatrix(n, full ^ stack.mask)
        else:
            layer = SigmaMatrix(n, _phi_mask(gen_pi_direct(n, source), n))
        t1 = perf()
        gen_time += t1 - t0
        candidates += 1
        accepted = stack.try_push(layer)
        check_time += perf() - t1
        if accepted:
            consecutive = 0
            continue
        rejections[k] += 1
        consecutive += 1
        if consecutive >= budget:
            consecutive = 0
            if policy.mode == "backtrack" and len(stack) > 0:
                stack.pop()
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


def _sudoku_rejection_feasibility(n: int) -> None:
    import math

    layer_space = (math.factorial(n) ** (2 * n)) ** (n * n)
    if n in SIGMA_COUNTS:
        expected = ratio_as_float(layer_space, SIGMA_COUNTS[n])
        raise InfeasibleError(
            f"blind layer-tuple sampling at order {n} accepts with probability "
            f"about 1/{expected:.3g}; expected {expected:.3g} iterations",
            expected_iterations=expected,
        )
    raise InfeasibleError(
        f"the Sudoku-matrix count is unknown for order {n}; the layer-tuple "
        f"sample space alone has {len(str(layer_space))} decimal digits",
    )


def gen_sudoku_rejection(
    n: int,
    source: RandomSource,
    max_iterations: int | None = None,
) -> tuple[list[list[int]], int]:
    """One-shot rejection sampling over complete layer tuples.

    Each attempt draws n^2 independent uniform block permutation
    matrices (via the pi bijection) and accepts iff they are pairwise
    disjoint, in which case their composition is a Sudoku matrix.
    Ordered disjoint tuples correspond one-to-one to Sudoku matrices, so
    each attempt succeeds with probability sigma_n / ((n!)^(2n))^(n^2):
    1 at n = 1, 288/65536 at n = 2, and about 6.6e-21 at n = 3, so
    n >= 3 is refused with the expected iteration count.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n >= 3:
        _sudoku_rejection_feasibility(n)
    side = n * n
    iterations = 0
    while True:
        iterations += 1
        layers = [
            SigmaMatrix(n, _phi_mask(gen_pi_direct(n, source), n)) for _ in range(side)
        ]
        acc = 0
        for layer in layers:
            if acc & layer.mask:
                break
            acc |= layer.mask
        else:
            cells = compose(layers)
            assert is_sudoku(cells)
            return cells, iterations
        if max_iterations is not None and iterations >= max_iterations:
            raise BudgetExhaustedError(
                f"no Sudoku matrix of order {n} found in {iterations} attempts"
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
