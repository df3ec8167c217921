"""Row-permutation matrices: (2n) x n matrices over {1..n} in which
every row is a permutation.  Called "pi matrices" throughout.

There are (n!)^(2n) such matrices of order n.  The first n rows act as
in-block row selectors and the last n rows as in-block column selectors
when a pi matrix is mapped to a block permutation matrix (see
:mod:`sudogen.sigma`); the disjointness predicate below is phrased in
those terms.  The blind generator ``gen_pi_rejection`` is in
:mod:`sudogen.analysis`, with the package's other rejection loops.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from .perm import _TABLE_MAX_ORDER, _decode_loop, _perm_rows, is_permutation
from .rng import RandomSource


def pi_order(rows: list[list[int]]) -> int:
    """Order n of a (2n) x n matrix; ValueError on a bad shape."""
    if not rows or len(rows) % 2 != 0:
        raise ValueError(f"pi matrix needs an even, positive row count, got {len(rows)}")
    n = len(rows) // 2
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
    return n


def check_pi(rows: list[list[int]]) -> int:
    """Validate the full pi-matrix invariants; returns n."""
    n = pi_order(rows)
    for i, row in enumerate(rows, start=1):
        if not is_permutation(row, n):
            raise ValueError(f"row {i} is not a permutation of 1..{n}")
    return n


def is_pi(rows: list[list[int]]) -> bool:
    """Non-raising membership test (any malformed input is just False)."""
    try:
        check_pi(rows)
    except ValueError:
        return False
    return True


def gen_pi_direct(n: int, source: RandomSource) -> list[list[int]]:
    """Uniform random pi matrix: one direct permutation per row, no rejection.

    Makes the 2n^2 draws of 2n ``gen_perm_direct`` calls, row after row,
    and decodes each row as that function does: from order 5 on all of
    them in one ``uniform_seq`` call, decoded by the shift deletion; up
    to order 4 as 2n ranks in one ``RandomSource.perm_ranks`` call, each
    row a fresh copy of that row of the shift decode's table.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > _TABLE_MAX_ORDER:
        return _decode_loop(source.uniform_seq(tuple(range(n, 0, -1)) * (2 * n)), n)
    rows = _perm_rows(n)
    return [list(rows[r]) for r in source.perm_ranks(n, 2 * n)]


def pi_disjoint(c: list[list[int]], d: list[list[int]]) -> bool:
    """True iff no position (s, t) carries the same selector pair in both.

    The selector pair of (s, t) is (rows[s][t], rows[n+t][s]), 1-based.
    Two pi matrices are disjoint exactly when their block permutation
    images share no 1-entry.  O(n^2).  ValueError, under ``python -O``
    too, if either input is not a pi matrix or their orders differ.
    """
    n, m = check_pi(c), check_pi(d)
    if n != m:
        raise ValueError(f"order mismatch: {n} vs {m}")
    for s in range(n):
        cs = c[s]
        ds = d[s]
        for t in range(n):
            if cs[t] == ds[t] and c[n + t][s] == d[n + t][s]:
                return False
    return True


def enumerate_pi(n: int) -> Iterator[list[list[int]]]:
    """All (n!)^(2n) pi matrices of order n, in lexicographic row order.

    Only practical for n <= 2 (16 matrices); n = 3 already has 46 656.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    row_pool = [list(p) for p in permutations(range(1, n + 1))]
    for combo in product(row_pool, repeat=2 * n):
        yield [list(row) for row in combo]
