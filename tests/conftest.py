"""Shared test helpers and exhaustively enumerated small-case fixtures."""

from __future__ import annotations

import pytest

from sudogen import SigmaMatrix, enumerate_pi, iter_sudoku, phi


class ScriptedSource:
    """Duck-typed stand-in for RandomSource replaying a fixed script.

    Each ``uniform_int(k)`` pops the next scripted value (asserting it
    fits in 1..k) and records k in ``calls``, so tests can pin down both
    the exact draws an algorithm makes and what it does with them.
    ``uniform_seq(ks)`` and ``bits(m)`` make one such draw per k (k = 2
    for each bit), and ``perm_ranks(n, m)`` and ``skip_ranks(n, m)`` one
    per k = n, n-1, ..., 1 of each run, so ``calls`` records batched,
    skipped and ranked draws as ``uniform_seq`` would make them.
    """

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0
        self.draws = 0
        self.calls: list[int] = []
        self.seed = None

    def uniform_int(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.pos >= len(self.values):
            raise AssertionError("scripted source exhausted")
        value = self.values[self.pos]
        self.pos += 1
        self.draws += 1
        self.calls.append(k)
        assert 1 <= value <= k, f"scripted value {value} does not fit 1..{k}"
        return value

    def uniform_seq(self, ks) -> list[int]:
        return [self.uniform_int(k) for k in ks]

    def bits(self, m: int) -> list[int]:
        return [self.uniform_int(2) - 1 for _ in range(m)]

    def perm_ranks(self, n: int, m: int) -> list[int]:
        ranks = []
        for _ in range(m):
            rank = 0
            for k in range(n, 0, -1):
                rank = rank * k + self.uniform_int(k) - 1
            ranks.append(rank)
        return ranks

    def skip_ranks(self, n: int, m: int) -> None:
        self.perm_ranks(n, m)

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.values)


def reference_phi_mask(rows, n):
    """Per-entry φ: block (s, t) gets its 1 at row s*n + k - 1 and column
    t*n + l - 1, for k = rows[s][t] and l = rows[n + t][s]."""
    side = n * n
    mask = 0
    for s in range(n):
        for t in range(n):
            k = rows[s][t]
            l = rows[n + t][s]
            mask |= 1 << ((s * n + k - 1) * side + (t * n + l - 1))
    return mask


def reference_to_rows(a):
    """Per-bit reading of a sigma mask: entry (i, j) is bit i * side + j,
    so bits at or past n^4 are never read."""
    side = a.n * a.n
    return [[(a.mask >> (i * side + j)) & 1 for j in range(side)] for i in range(side)]


def reference_ones(a):
    rows = reference_to_rows(a)
    return [(i + 1, j + 1) for i, row in enumerate(rows) for j, v in enumerate(row) if v]


def reference_format_sigma(a):
    return "\n".join(" ".join(str(v) for v in row) for row in reference_to_rows(a))


def reference_phi_inverse(a):
    """Blocks in row-major order, each scanned entry by entry for its
    single 1, then every row of the pi matrix checked to be a permutation."""
    n = a.n
    dense = reference_to_rows(a)
    rows = [[0] * n for _ in range(2 * n)]
    for s in range(n):
        for t in range(n):
            hits = [
                (k, l)
                for k in range(1, n + 1)
                for l in range(1, n + 1)
                if dense[s * n + k - 1][t * n + l - 1]
            ]
            if not hits:
                raise ValueError(f"block ({s + 1}, {t + 1}) has no 1")
            if len(hits) > 1:
                raise ValueError(f"block ({s + 1}, {t + 1}) has more than one 1")
            rows[s][t], rows[n + t][s] = hits[0]
    for i, row in enumerate(rows, start=1):
        if sorted(row) != list(range(1, n + 1)):
            raise ValueError(f"input is not a block permutation matrix (row {i} conflict)")
    return rows


def _malformed_sigma():
    valid2 = phi([[1, 2], [2, 1], [1, 2], [2, 1]]).mask
    valid3 = phi([[1, 2, 3], [2, 3, 1], [3, 1, 2], [1, 2, 3], [3, 1, 2], [2, 3, 1]]).mask
    low3 = valid3 & -valid3  # the 1 of block (1, 1) at order 3
    return {
        "empty-block-2": SigmaMatrix(2, 0),
        "empty-block-3": SigmaMatrix(3, valid3 ^ low3),
        "doubled-block-2": SigmaMatrix(2, 0b11),
        "doubled-block-3": SigmaMatrix(3, valid3 | low3 << 1),
        # block (1, 2) emptied and its 1 moved into block (2, 1)
        "empty-before-doubled-2": SigmaMatrix(2, valid2 ^ 1 << 7 | 1 << 8),
        "row-conflict-2": SigmaMatrix(2, (1 << 0) | (1 << 6) | (1 << 8) | (1 << 14)),
        "bits-past-n4-2": SigmaMatrix(2, valid2 | 1 << 16 | 1 << 100),
        "bits-past-n4-3": SigmaMatrix(3, valid3 | 1 << 81),
    }


# Masks that are not block permutation matrices of their order, or carry
# bits outside the n^2 x n^2 grid, keyed by what is wrong with them.
MALFORMED_SIGMA = _malformed_sigma()


def as_key(cells):
    """Hashable form of a matrix (tuple of row tuples)."""
    return tuple(tuple(row) for row in cells)


@pytest.fixture(scope="session")
def pi16():
    """All 16 pi matrices of order 2."""
    return list(enumerate_pi(2))


@pytest.fixture(scope="session")
def sigma16(pi16):
    """Images of all 16 order-2 pi matrices under the block bijection."""
    return [phi(rows) for rows in pi16]


@pytest.fixture(scope="session")
def sudoku288():
    """All 288 Sudoku matrices of order 2, as emitted by the enumerator."""
    return list(iter_sudoku(2))


@pytest.fixture(scope="session")
def sudoku288_keys(sudoku288):
    return {as_key(cells) for cells in sudoku288}
