"""Text and JSON serialization for the four matrix families.

Text formats are line-oriented and pipeline-friendly:

* permutation: one line of comma-separated integers, e.g. ``3,1,2``
* pi matrix: 2n lines of comma-separated integers
* sigma matrix: n^2 lines of n^2 space-separated 0/1 digits
* Sudoku matrix: n^2 lines of n^2 space-separated integers

Parsers skip blank lines (so pretty-printed Sudoku output re-parses) and
report failures with 1-based line and token positions.

A row of a sigma matrix whose single 1 is in column c is written as its
one-hot line: side - 1 "0"s and one "1" at position c, joined by single
spaces (``0 1 0 0`` for c = 1 at order 2).  The 0/1 readers read such a
line by one dict lookup and any other line token by token.  Cell rows
whose tokens are all unsigned decimal digits are converted in one pass,
and any other row token by token.

The CLI's two command modules, :mod:`sudogen.cli` and
:mod:`sudogen.draw`, share one thing from here: ``_echo``, the one
writer of their output.
"""

from __future__ import annotations

import re
import sys

from .errors import MatrixParseError
from .sigma import SigmaMatrix, _bit_rows, _columns_fit, _from_columns, block_order

_INT_RE = re.compile(r"[+-]?\d+")


def _parse_int(token: str, line_no: int, token_no: int) -> int:
    if not _INT_RE.fullmatch(token):
        raise MatrixParseError(
            f"invalid integer {token!r}", line=line_no, token=token_no
        )
    return int(token)


def _split_lines(text: str) -> tuple[list[str], list[int]]:
    """Non-blank lines and their 1-based line numbers; MatrixParseError if none."""
    lines = text.splitlines()
    nos = [no for no, line in enumerate(lines, start=1) if line.strip()]
    if not nos:
        raise MatrixParseError("empty input")
    return [lines[no - 1] for no in nos], nos


def _parse_csv_line(line: str, line_no: int) -> list[int]:
    values = []
    for token_no, token in enumerate(line.split(","), start=1):
        token = token.strip()
        if not token:
            raise MatrixParseError("empty field", line=line_no, token=token_no)
        values.append(_parse_int(token, line_no, token_no))
    return values


def _parse_space_line(line: str, line_no: int) -> list[int]:
    tokens = line.split()
    # Unsigned runs of Unicode decimal digits are exactly the tokens that
    # _INT_RE accepts without a sign, so one check clears the whole line.
    if "".join(tokens).isdecimal():
        return list(map(int, tokens))
    return [
        _parse_int(token, line_no, token_no)
        for token_no, token in enumerate(tokens, start=1)
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
    lines, nos = _split_lines(text)
    if len(lines) > 1:
        raise MatrixParseError(
            "expected a single line of comma-separated integers", line=nos[1]
        )
    return _parse_csv_line(lines[0], nos[0])


def format_pi(rows: list[list[int]]) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows)


def parse_pi(text: str) -> list[list[int]]:
    return [_parse_csv_line(line, no) for line, no in zip(*_split_lines(text))]


def _one_hot_lines(side: int) -> list[str]:
    # Line c is the text of a row of width side whose single 1 is in column c.
    zeros = " ".join("0" * side)
    return [zeros[: 2 * c] + "1" + zeros[2 * c + 1 :] for c in range(side)]


def _format_sigma(matrix: SigmaMatrix, one_hot: list[str]) -> str:
    # A row of a valid matrix holds exactly one 1 and is written as its
    # one-hot line; any other row joins its side one-character strings.
    out = []
    for row in _bit_rows(matrix):
        j = row.find("1")
        if j >= 0 and row.find("1", j + 1) < 0:
            out.append(one_hot[j])
        else:
            out.append(" ".join(row))
    return "\n".join(out)


def format_sigma(matrix: SigmaMatrix) -> str:
    return _format_sigma(matrix, _one_hot_lines(matrix.side))


def _read_bit_blocks(text: str) -> tuple[int, list[list[int | list[int]]]]:
    """``parse_layers``' blocks of 0/1 rows, and the one-hot width.

    A one-hot line of the first line's width, half its length rounded up,
    is read by one dict lookup as the column of its 1; any other line by
    ``_parse_bit_line``, as its list of entries.
    """
    lines, nos = _split_lines(text)
    width = (len(lines[0]) + 1) // 2
    # The one-hot lines are width lines as long as the first, so they are
    # built only where they take no more memory than the text.
    fits = width * len(lines[0]) <= len(text)
    column = {line: c for c, line in enumerate(_one_hot_lines(width) if fits else [])}
    rows = list(map(column.get, lines))
    if None in rows:
        for k in [k for k, row in enumerate(rows) if row is None]:
            rows[k] = _parse_bit_line(lines[k], nos[k])
    # parse_layers' block rule; a line number skips where a blank line lies
    side = width if type(rows[0]) is int else len(rows[0])
    blocks = []
    i = 0
    while i < len(rows):
        j = min(i + side, len(rows))
        if nos[j - 1] - nos[i] != j - 1 - i:
            j = i + 1
            while nos[j] == nos[j - 1] + 1:
                j += 1
        blocks.append(rows[i:j])
        i = j
    return width, blocks


def _entries(row: int | list[int], width: int) -> list[int]:
    # a row of _read_bit_blocks as its list of entries
    if type(row) is list:
        return row
    entries = [0] * width
    entries[row] = 1
    return entries


def parse_binary_matrix(text: str) -> list[list[int]]:
    """Rows of space-separated 0/1 digits; shape is checked downstream."""
    return [row for block in parse_layers(text) for row in block]


def format_sudoku(cells: list[list[int]], pretty: bool = False) -> str:
    if not pretty:
        return "\n".join(" ".join(str(v) for v in row) for row in cells)
    n = block_order(cells)
    width = len(str(n * n))
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
    return [_parse_space_line(line, no) for line, no in zip(*_split_lines(text))]


def parse_layers(text: str) -> list[list[list[int]]]:
    """Blank-line-separated blocks, each a 0/1 matrix in sigma text form.

    A block ends after as many rows as the first row has entries, or
    where a blank line lies between two rows.
    """
    width, blocks = _read_bit_blocks(text)
    return [[_entries(row, width) for row in block] for block in blocks]


def _read_layers(text: str) -> list[SigmaMatrix]:
    """``[SigmaMatrix.from_rows(b) for b in parse_layers(text)]``, in value or error.

    A full block of one-hot lines that passes ``is_sigma``'s column rule
    is packed from its columns; any other goes through ``from_rows``.
    """
    width, blocks = _read_bit_blocks(text)
    layers = []
    for block in blocks:
        if len(block) == width and all(type(r) is int for r in block) and _columns_fit(block):
            layers.append(_from_columns(block))
        else:
            layers.append(SigmaMatrix.from_rows([_entries(row, width) for row in block]))
    return layers


def format_layers(layers: list[SigmaMatrix]) -> str:
    one_hot: dict[int, list[str]] = {}  # side -> its one-hot lines
    out = []
    for layer in layers:
        side = layer.side
        if side not in one_hot:
            one_hot[side] = _one_hot_lines(side)
        out.append(_format_sigma(layer, one_hot[side]))
    return "\n\n".join(out)


def perm_json(values: list[int], seed: int | None) -> dict:
    return {"n": len(values), "values": list(values), "seed": seed}


def pi_json(rows: list[list[int]], seed: int | None) -> dict:
    # imported here, so a process that writes only text loads no sudogen.pi
    from .pi import pi_order

    return {"n": pi_order(rows), "rows": [list(r) for r in rows], "seed": seed}


def sigma_json(matrix: SigmaMatrix, seed: int | None) -> dict:
    return {
        "n": matrix.n,
        "ones": [list(pos) for pos in matrix.ones()],
        "seed": seed,
    }


def sudoku_json(cells: list[list[int]], seed: int | None) -> dict:
    return {"n": block_order(cells), "cells": [list(r) for r in cells], "seed": seed}


def _echo(text: str = "", err: bool = False, nl: bool = True) -> None:
    # One write and a flush per call, so stdout and stderr lines keep their
    # order when both go to one file.
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n" if nl else text)
    stream.flush()
