"""Permutations of {1..n}: membership checks and the direct generator.

A permutation is represented as a plain list of 1-based values.  The
direct generator consumes exactly n draws and never rejects.  The
rejection generator, which draws n values blindly and retries until they
form a permutation (success probability n!/n^n per attempt), is
``gen_perm_rejection`` in :mod:`sudogen.analysis`.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only, so checking code never loads rng
    from .rng import RandomSource


def is_permutation(values: list[int], n: int | None = None) -> bool:
    """True iff ``values`` is a permutation of {1..n} (n = len by default).

    Single pass over a count array, exiting on the first duplicate.
    Values outside {1..n} raise ValueError (the input is then not even a
    well-formed candidate tuple).
    """
    if n is None:
        n = len(values)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if len(values) != n:
        return False
    seen = [False] * (n + 1)
    for a in values:
        if not 1 <= a <= n:
            raise ValueError(f"tuple value {a} outside range 1..{n}")
        if seen[a]:
            return False
        seen[a] = True
    return True


def _is_perm_trusted(values: list[int], n: int) -> bool:
    # Same check without the range guard; for values known to be in 1..n.
    seen = [False] * (n + 1)
    for a in values:
        if seen[a]:
            return False
        seen[a] = True
    return True


def gen_perm_direct(n: int, source: RandomSource) -> list[int]:
    """Uniform random permutation from exactly n draws, never rejecting.

    Draw k selects position x in the remaining pool of n-k+1 values, and
    the chosen value is deleted by shifting the tail left one slot, which
    costs O(n) per draw and O(n^2) overall; from order 5 on the n draws
    are made in one ``uniform_seq`` call and decoded so.  The n draws
    are a Lehmer code, so orders up to 4 draw them as one rank
    (``RandomSource.perm_ranks``, the same stream) and return that row
    of a table the shift decode builds once from all n! runs.  The values
    are the same, but ``bench --generator perm-direct`` at sizes 1-4
    times a lookup; the sizes whose slopes are gated (64 and up) still
    time the decode.
    """
    return _draw_rows(n, 1, source)[0]


def _draw_rows(n: int, m: int, source: RandomSource) -> list[list[int]]:
    # The rows of m gen_perm_direct calls, drawn and decoded as it says,
    # each a fresh list; gen_pi_direct draws its 2n rows here too.
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > _TABLE_MAX_ORDER:
        return _decode_loop(source.uniform_seq(tuple(range(n, 0, -1)) * m), n)
    rows = _perm_rows(n)
    return [list(rows[r]) for r in source.perm_ranks(n, m)]


_TABLE_MAX_ORDER = 4  # largest order decoded through _perm_rows


@functools.cache
def _perm_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # The n! permutations _decode_loop decodes from the runs of n draws,
    # in the order itertools.product lists the runs, which is rank order
    # (RandomSource.perm_ranks); built once per order.
    runs = product(*[range(1, k + 1) for k in range(n, 0, -1)])
    return tuple(map(tuple, _decode_loop([x for run in runs for x in run], n)))


def _decode_loop(xs: list[int], n: int) -> list[list[int]]:
    # The permutations of 1..n that consecutive runs of n draws select.
    # In each run the draws come from {1..n}, {1..n-1}, ..., {1}, and
    # each picks a position among the values not chosen yet; the chosen
    # value is deleted by shifting the tail of the pool left one slot.
    rows = []
    pool = list(range(1, n + 1))
    live = 0  # values not chosen yet in the current run
    for x in xs:
        if not live:
            live = n
            v = pool[:]
            out = []
            rows.append(out)
        out.append(v[x - 1])
        for j in range(x - 1, live - 1):
            v[j] = v[j + 1]
        live -= 1
    return rows
