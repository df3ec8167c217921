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
spaces (``0 1 0 0`` for c = 1 at order 2).  The ``compose`` command
reads layer text made only of such lines, in full valid blocks separated
by empty lines, a line at a time with one dict lookup per line.  Any
other text (other spacing, tabs, signs, whitespace-only lines, an
invalid block) takes the token path from its start, so its errors,
their positions and the order in which they win are those of
``parse_layers`` and ``SigmaMatrix.from_rows``.  Cell rows whose tokens
are all unsigned decimal digits are converted in one pass, and any
other row token by token.

The CLI's two command modules, :mod:`sudogen.cli` and
:mod:`sudogen.draw`, share two things from here: ``_echo``, the one
writer of their output, and the refusal of orders whose text they will
not build.
"""

from __future__ import annotations

import math
import re
import sys

from .errors import InfeasibleError, MatrixParseError
from .sigma import SigmaMatrix, _bit_rows

_INT_RE = re.compile(r"[+-]?\d+")


def _parse_int(token: str, line_no: int, token_no: int) -> int:
    if not _INT_RE.fullmatch(token):
        raise MatrixParseError(
            f"invalid integer {token!r}", line=line_no, token=token_no
        )
    return int(token)


def _split_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank lines with their 1-based line numbers; MatrixParseError if none."""
    out = []
    for no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            out.append((no, line))
    if not out:
        raise MatrixParseError("empty input")
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
    lines = _split_lines(text)
    if len(lines) > 1:
        raise MatrixParseError(
            "expected a single line of comma-separated integers", line=lines[1][0]
        )
    return _parse_csv_line(lines[0][1], lines[0][0])


def format_pi(rows: list[list[int]]) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows)


def parse_pi(text: str) -> list[list[int]]:
    return [_parse_csv_line(line, no) for no, line in _split_lines(text)]


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


def parse_binary_matrix(text: str) -> list[list[int]]:
    """Rows of space-separated 0/1 digits; shape is checked downstream."""
    return [_parse_bit_line(line, no) for no, line in _split_lines(text)]


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
    return [_parse_space_line(line, no) for no, line in _split_lines(text)]


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


def _read_layers(text: str) -> list[SigmaMatrix]:
    """The layers of ``parse_layers`` text, each built as ``from_rows`` builds it.

    Equal in value, or in the error raised, to
    ``[SigmaMatrix.from_rows(b) for b in parse_layers(text)]``.  Text of
    one-hot lines as ``format_sigma`` writes them, in valid blocks
    separated by empty lines, is read a line at a time; any other text
    takes that token path from its start.
    """
    layers = _read_one_hot_layers(text)
    if layers is None:
        layers = [SigmaMatrix.from_rows(b) for b in parse_layers(text)]
    return layers


def _read_one_hot_layers(text: str) -> list[SigmaMatrix] | None:
    # None unless every line is empty or a one-hot line of the first
    # line's width, every block is full and passes is_sigma's checks
    # (distinct columns, in distinct n x n blocks), and empty lines fall
    # only between blocks.
    lines = text.splitlines()
    first = next(filter(None, lines), "")
    side = (len(first) + 1) // 2
    n = math.isqrt(side)
    # A block is side lines as long as the first, so the lines built here
    # never take more memory than the text they are looked up in.
    if side == 0 or n * n != side or side * len(first) > len(text):
        return None
    column = {line: c for c, line in enumerate(_one_hot_lines(side))}
    # row bits of a one-hot row, most significant first, by column
    bits = ["0" * (side - 1 - c) + "1" + "0" * c for c in range(side)]
    layers = []
    cols: list[int] = []
    for line in lines:
        if not line:
            if cols:
                return None
            continue
        c = column.get(line)
        if c is None:
            return None
        cols.append(c)
        if len(cols) == side:
            if len(set(cols)) != side:
                return None
            if len({i // n * n + c // n for i, c in enumerate(cols)}) != side:
                return None
            mask = int("".join(bits[c] for c in reversed(cols)), 2)
            layers.append(SigmaMatrix(n, mask))
            cols = []
    return None if cols else layers


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


def _echo(text: str = "", err: bool = False, nl: bool = True) -> None:
    # One write and a flush per call, so stdout and stderr lines keep their
    # order when both go to one file.
    stream = sys.stderr if err else sys.stdout
    stream.write(text + "\n" if nl else text)
    stream.flush()


def _refuse_order(n: int, bound: int, matrix: str, entries: str, count) -> None:
    # InfeasibleError if n is past bound, the largest order a command
    # builds; ``matrix`` names what it builds and ``entries``, as text and
    # as the function ``count`` of the order, how many entries that has.
    if n > bound:
        raise InfeasibleError(
            f"{matrix} of order {n} has {entries} = {count(n)} entries, "
            f"more than the {count(bound)} of order {bound}, "
            f"the largest this command builds"
        )


# Largest order gen-sigma and map --phi build: a block permutation matrix
# of order n is an n^4-bit mask and n^4 entries of text, and at order 48
# (5.3 million entries) a gen-sigma or map --phi process took about 0.5 s
# and 51 MB, against 2.6 s and 161 MB at order 64 (2 CPUs, Python 3.11.7).
_MAX_SIGMA_ORDER = 48


def _refuse_sigma_order(n: int) -> None:
    _refuse_order(n, _MAX_SIGMA_ORDER, "a block permutation matrix", "n^4", lambda n: n**4)
