"""Text and JSON serialization for the four matrix families.

Text formats are line-oriented and pipeline-friendly:

* permutation: one line of comma-separated integers, e.g. ``3,1,2``
* pi matrix: 2n lines of comma-separated integers
* sigma matrix: n^2 lines of n^2 space-separated 0/1 digits
* Sudoku matrix: n^2 lines of n^2 space-separated integers

Parsers skip blank lines (so pretty-printed Sudoku output re-parses) and
report failures with 1-based line and token positions.
"""

from __future__ import annotations

import re

from .errors import MatrixParseError
from .sigma import SigmaMatrix, _bit_rows

_INT_RE = re.compile(r"[+-]?\d+")


def _parse_int(token: str, line_no: int, token_no: int) -> int:
    if not _INT_RE.fullmatch(token):
        raise MatrixParseError(
            f"invalid integer {token!r}", line=line_no, token=token_no
        )
    return int(token)


def _split_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines with their original 1-based line numbers."""
    out = []
    for no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            out.append((no, line))
    return out


def _parse_csv_line(line: str, line_no: int) -> list[int]:
    values = []
    for token_no, token in enumerate(line.split(","), start=1):
        token = token.strip()
        if not token:
            raise MatrixParseError("empty field", line=line_no, token=token_no)
        values.append(_parse_int(token, line_no, token_no))
    return values


def _parse_space_line(line: str, line_no: int) -> list[int]:
    return [
        _parse_int(token, line_no, token_no)
        for token_no, token in enumerate(line.split(), start=1)
    ]


_BITS = {"0": 0, "1": 1}


def _parse_bit_line(line: str, line_no: int) -> list[int]:
    """One row of space-separated 0/1 entries."""
    try:
        # the common case: every token is exactly "0" or "1"
        return list(map(_BITS.__getitem__, line.split()))
    except KeyError:
        pass
    # anything else ("+1", "01", "2", "x") is read as an integer, and
    # errors name the first bad token as for any other matrix
    row = _parse_space_line(line, line_no)
    for token_no, v in enumerate(row, start=1):
        if v not in (0, 1):
            raise MatrixParseError(
                f"expected 0 or 1, got {v}", line=line_no, token=token_no
            )
    return row


def format_perm(values: list[int]) -> str:
    return ",".join(str(v) for v in values)


def parse_perm(text: str) -> list[int]:
    lines = _split_lines(text)
    if not lines:
        raise MatrixParseError("empty input")
    if len(lines) > 1:
        raise MatrixParseError(
            "expected a single line of comma-separated integers", line=lines[1][0]
        )
    return _parse_csv_line(lines[0][1], lines[0][0])


def format_pi(rows: list[list[int]]) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows)


def parse_pi(text: str) -> list[list[int]]:
    lines = _split_lines(text)
    if not lines:
        raise MatrixParseError("empty input")
    return [_parse_csv_line(line, no) for no, line in lines]


def format_sigma(matrix: SigmaMatrix) -> str:
    # A row of a valid matrix holds exactly one 1: splice it into a shared
    # spaced row of zeros instead of joining side one-character strings.
    zeros = " ".join("0" * matrix.side)
    out = []
    for row in _bit_rows(matrix):
        j = row.find("1")
        if j >= 0 and row.find("1", j + 1) < 0:
            out.append(zeros[: 2 * j] + "1" + zeros[2 * j + 1 :])
        else:
            out.append(" ".join(row))
    return "\n".join(out)


def parse_binary_matrix(text: str) -> list[list[int]]:
    """Rows of space-separated 0/1 digits; shape is checked downstream."""
    lines = _split_lines(text)
    if not lines:
        raise MatrixParseError("empty input")
    return [_parse_bit_line(line, no) for no, line in lines]


def format_sudoku(cells: list[list[int]], pretty: bool = False) -> str:
    if not pretty:
        return "\n".join(" ".join(str(v) for v in row) for row in cells)
    side = len(cells)
    n = round(side**0.5)
    width = len(str(side))
    groups = []
    for s in range(n):
        block_rows = []
        for i in range(s * n, (s + 1) * n):
            row = cells[i]
            parts = [
                " ".join(str(v).rjust(width) for v in row[t * n : (t + 1) * n])
                for t in range(n)
            ]
            block_rows.append("  ".join(parts))
        groups.append("\n".join(block_rows))
    return "\n\n".join(groups)


def parse_cells(text: str) -> list[list[int]]:
    """Rows of space-separated integers (blank separator lines ignored)."""
    lines = _split_lines(text)
    if not lines:
        raise MatrixParseError("empty input")
    return [_parse_space_line(line, no) for no, line in lines]


def parse_layers(text: str) -> list[list[list[int]]]:
    """Blank-line-separated blocks, each a 0/1 matrix in sigma text form."""
    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    expected: int | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        row = _parse_bit_line(raw, no)
        if expected is None:
            expected = len(row)
        current.append(row)
        if len(current) == expected:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    if not blocks:
        raise MatrixParseError("empty input")
    return blocks


def format_layers(layers: list[SigmaMatrix]) -> str:
    return "\n\n".join(format_sigma(layer) for layer in layers)


def perm_json(values: list[int], seed: int | None) -> dict:
    return {"n": len(values), "values": list(values), "seed": seed}


def pi_json(rows: list[list[int]], seed: int | None) -> dict:
    return {"n": len(rows) // 2, "rows": [list(r) for r in rows], "seed": seed}


def sigma_json(matrix: SigmaMatrix, seed: int | None) -> dict:
    return {
        "n": matrix.n,
        "ones": [list(pos) for pos in matrix.ones()],
        "seed": seed,
    }


def sudoku_json(cells: list[list[int]], seed: int | None) -> dict:
    side = len(cells)
    return {
        "n": round(side**0.5),
        "cells": [list(r) for r in cells],
        "seed": seed,
    }
