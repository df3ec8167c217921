"""Exception types and generator ids shared across the package.

Plain invalid arguments (wrong order, out-of-range entries, shape
mismatches) raise ValueError; the classes below cover the structured
failure modes that callers may want to handle individually.

This module imports nothing, so the CLI can build its option choices
from the generator ids without loading :mod:`sudogen.analysis`.
"""

from __future__ import annotations

# Generator ids accepted by estimate_p, and the benchmark targets of
# bench_tau: every generator plus the bare membership checks, so the
# check phase can be timed in isolation.
GENERATOR_IDS = (
    "perm-rejection",
    "perm-direct",
    "pi-rejection",
    "pi-direct",
    "sigma-rejection",
    "sudoku-rejection",
)
BENCH_IDS = GENERATOR_IDS + ("perm-check", "sigma-check")


class SudogenError(Exception):
    """Base class for package-specific errors."""


class InfeasibleError(SudogenError):
    """A requested run would need an astronomical number of iterations.

    Carries the expected iteration count so the refusal is concrete.
    """

    def __init__(self, message: str, expected_iterations: float | None = None):
        super().__init__(message)
        self.expected_iterations = expected_iterations


class BudgetExhaustedError(SudogenError):
    """An iteration/restart budget ran out before a result was found.

    ``stats`` holds whatever partial progress statistics were collected.
    """

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class CompositionError(SudogenError):
    """Layers passed to ``compose`` overlap or fail to cover the grid.

    ``position`` is the first offending (row, column) cell, 1-based.
    """

    def __init__(self, message: str, position: tuple[int, int] | None = None):
        super().__init__(message)
        self.position = position


class UnknownSigmaError(SudogenError):
    """The exact Sudoku-matrix count is not known for this order."""


class MatrixParseError(SudogenError):
    """Ill-formed matrix text; points at the offending line/token."""

    def __init__(self, message: str, line: int | None = None, token: int | None = None):
        if line is not None:
            where = f"line {line}"
            if token is not None:
                where += f", token {token}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.token = token
