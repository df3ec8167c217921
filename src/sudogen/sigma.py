"""Block permutation matrices ("sigma matrices") of side n^2.

A sigma matrix is an n^2 x n^2 permutation matrix whose n x n blocks
each contain exactly one 1.  There are (n!)^(2n) of them, the same as
the number of pi matrices of order n, and the two families are linked
by a constructive bijection: block (s, t) gets its 1 at in-block row
``p[s][t]`` and in-block column ``p[n+t][s]``.

A ``SigmaMatrix`` is the named tuple ``(n, mask)``: the mask is a packed
bitset (one Python int, bit (i-1)*n^2 + (j-1) for global 1-based
position (i, j)), so disjointness of two matrices is a single integer
AND.  Blind bit-sampling, ``gen_sigma_rejection``, is in
:mod:`sudogen.analysis`, with the package's other rejection loops.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple


class SigmaMatrix(NamedTuple):
    """Block permutation matrix of order ``n`` in packed-bitset form.

    An immutable named tuple ``(n, mask)``, like ``sudoku.GenStats``:
    equal, and hashing alike, iff order and mask are, with tuple
    semantics besides (it equals the plain tuple ``(n, mask)``).  The
    constructor does not validate the mask; ``from_rows`` and
    ``from_ones`` do, and ``phi`` builds only valid ones.
    """

    n: int
    mask: int

    @property
    def side(self) -> int:
        return self.n * self.n

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "SigmaMatrix":
        """Build from a dense 0/1 matrix; ValueError if it is not valid."""
        if not is_sigma(rows):
            raise ValueError("matrix is not a block permutation matrix")
        # exactly one 1 per row, guaranteed by is_sigma
        return _from_columns([row.index(1) for row in rows])

    @classmethod
    def from_ones(cls, n: int, ones: list[tuple[int, int]]) -> "SigmaMatrix":
        """Build from 1-based (row, column) positions of the 1-entries."""
        side = n * n
        rows = [[0] * side for _ in range(side)]
        for i, j in ones:
            if not (1 <= i <= side and 1 <= j <= side):
                raise ValueError(f"position ({i}, {j}) outside 1..{side}")
            rows[i - 1][j - 1] = 1
        return cls.from_rows(rows)

    def ones(self) -> list[tuple[int, int]]:
        """1-based (row, column) positions, sorted by row.

        Mask bits at or past n^4 lie outside the matrix and are ignored.
        """
        return [
            (i, j)
            for i, row in enumerate(_bit_rows(self), start=1)
            for j, bit in enumerate(row, start=1)
            if bit == "1"
        ]

    def to_rows(self) -> list[list[int]]:
        """Dense 0/1 row lists."""
        return [list(map(int, row)) for row in _bit_rows(self)]


def _columns_fit(columns: list[int]) -> bool:
    # is_sigma's column rule: a square side, distinct columns, distinct blocks
    n = math.isqrt(len(columns))
    blocks = {i // n * n + j // n for i, j in enumerate(columns)}
    return len(set(columns)) == len(blocks) == len(columns) == n * n


def _from_columns(columns: list[int]) -> SigmaMatrix:
    # row i's one 1 in column columns[i]; bytes keep the cost linear in n^4
    side = len(columns)
    mask = bytearray((side * side + 7) // 8)
    for i, j in enumerate(columns):
        k = i * side + j
        mask[k >> 3] |= 1 << (k & 7)
    return SigmaMatrix(math.isqrt(side), int.from_bytes(mask, "little"))


def _bit_rows(a: SigmaMatrix) -> list[str]:
    # The n^2 rows of ``a`` as strings of "0"/"1": bit i * side + j is
    # entry (i, j), so the reversed binary string reads the matrix row by
    # row.  Bits at or past n^4 are masked off, as outside the matrix.
    side = a.side
    size = side * side
    bits = format(a.mask & ((1 << size) - 1), f"0{size}b")[::-1]
    return [bits[i : i + side] for i in range(0, size, side)]


def block_order(rows: list[list[int]]) -> int:
    """Block order n of an n^2 x n^2 matrix or grid; ValueError on a bad shape.

    The side must be a positive perfect square and every row must have
    that length.
    """
    side = len(rows)
    n = math.isqrt(side)
    if side == 0 or n * n != side:
        raise ValueError(f"side {side} is not a positive perfect square")
    for i, row in enumerate(rows, start=1):
        if len(row) != side:
            raise ValueError(f"row {i} has length {len(row)}, expected {side}")
    return n


def _phi_mask(rows: list[list[int]], n: int) -> int:
    # Trusted hot path: caller guarantees rows is a valid pi matrix.
    # Block (s, t) gets its 1 at entry ((s*n + k - 1), (t*n + l - 1)) for
    # k = rows[s][t] and l = rows[n + t][s], which is bit
    # base + k * side + l with base from _phi_plan.
    side = n * n
    mask = 0
    for s, t, u, base in _phi_plan(n):
        mask |= 1 << (base + rows[s][t] * side + rows[u][s])
    return mask


@functools.lru_cache(maxsize=32)
def _phi_plan(n: int) -> tuple[tuple[int, int, int, int], ...]:
    # (s, t, n + t, base) per block of order n, base being the bit of
    # block (s, t)'s entry (k, l) less k * side + l.  O(n^2) entries,
    # fewer than the n^4 bits of one mask of that order.
    side = n * n
    return tuple(
        (s, t, n + t, (s * n - 1) * side + t * n - 1) for s in range(n) for t in range(n)
    )


def phi(rows: list[list[int]]) -> SigmaMatrix:
    """Map a pi matrix to its block permutation matrix.

    Block (s, t) receives its single 1 at in-block position
    (rows[s][t], rows[n+t][s]).  Bijective; ValueError if the input
    violates the pi-matrix invariants.
    """
    # pi and perm are imported where they are used, so a process that only
    # reads and checks sigma matrices loads neither
    from .pi import check_pi

    n = check_pi(rows)
    return SigmaMatrix(n, _phi_mask(rows, n))


def phi_inverse(a: SigmaMatrix) -> list[list[int]]:
    """Recover the unique pi matrix whose image is ``a``.

    Reads each block, in row-major order, for its single 1 and writes
    both selector entries, then validates the row-permutation
    invariants; any mask that is not a valid block permutation matrix
    fails one of the two and raises ValueError.  Bits of the mask at or
    past n^4 lie outside the matrix and are ignored.
    """
    from .perm import _is_perm_trusted

    n = a.n
    bit_rows = _bit_rows(a)
    rows = [[0] * n for _ in range(2 * n)]
    for s in range(n):
        band = bit_rows[s * n : (s + 1) * n]
        for t in range(n):
            block = "".join(row[t * n : (t + 1) * n] for row in band)
            count = block.count("1")
            if count == 0:
                raise ValueError(f"block ({s + 1}, {t + 1}) has no 1")
            if count > 1:
                raise ValueError(f"block ({s + 1}, {t + 1}) has more than one 1")
            k, l = divmod(block.index("1"), n)
            rows[s][t] = k + 1
            rows[n + t][s] = l + 1
    for i, row in enumerate(rows, start=1):
        if not _is_perm_trusted(row, n):
            raise ValueError(f"input is not a block permutation matrix (row {i} conflict)")
    return rows


def is_sigma(rows: list[list[int]]) -> bool:
    """Membership check for dense 0/1 matrices, in two phases.

    Phase 1 counts the 0s and 1s of every row: each entry must be one or
    the other, and each row must hold exactly one 1; the column of each
    row's 1 is then its only one.  Phase 2 requires those n^2 columns to
    be distinct, so the matrix is a permutation matrix, and the n^2 ones
    to fall in n^2 distinct n x n blocks.  The side must be a perfect
    square and entries must be 0/1; anything else is a malformed
    candidate and raises ValueError naming the first bad entry.
    """
    block_order(rows)
    single = True
    for i, row in enumerate(rows, start=1):
        ones = row.count(1)
        if ones + row.count(0) != len(row):
            bad = next(v for v in row if v not in (0, 1))
            raise ValueError(f"entry {bad!r} in row {i} is not binary")
        single = single and ones == 1
    if not single:
        return False
    return _columns_fit([row.index(1) for row in rows])


def sigma_disjoint(a: SigmaMatrix, b: SigmaMatrix) -> bool:
    """True iff the two matrices share no 1-position."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    return (a.mask & b.mask) == 0


def enumerate_sigma(n: int) -> Iterator[SigmaMatrix]:
    """All (n!)^(2n) block permutation matrices, via the pi bijection."""
    from .pi import enumerate_pi

    for rows in enumerate_pi(n):
        yield SigmaMatrix(n, _phi_mask(rows, n))
