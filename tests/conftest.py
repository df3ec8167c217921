"""Shared test helpers and exhaustively enumerated small-case fixtures."""

from __future__ import annotations

import pytest

from sudogen import enumerate_pi, iter_sudoku, phi


class ScriptedSource:
    """Duck-typed stand-in for RandomSource replaying a fixed script.

    Each ``uniform_int(k)`` pops the next scripted value (asserting it
    fits in 1..k) and records k in ``calls``, so tests can pin down both
    the exact draws an algorithm makes and what it does with them.
    ``uniform_seq(ks)`` makes one such draw per k, so ``calls`` records
    batched draws too.
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

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.values)


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
