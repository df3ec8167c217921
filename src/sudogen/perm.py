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

    Draw k selects position x in the remaining pool of n-k+1 values; the
    n draws are made in one ``uniform_seq`` call.  The chosen value is
    deleted by shifting the tail left one slot, which costs O(n) per draw
    and O(n^2) overall.  Orders up to 4 look their permutation up in a
    table that this decode builds once from all n! runs of draws, so the
    values are the same, but ``bench --generator perm-direct`` at sizes
    1-4 times a lookup; the sizes whose slopes are gated (64 and up)
    still time the decode.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _decode_perms(source.uniform_seq(range(n, 0, -1)), n)[0]


_TABLE_MAX_ORDER = 4  # largest order decoded through _perm_table


def _decode_perms(xs: list[int], n: int) -> list[list[int]]:
    # The permutations of 1..n that consecutive runs of n draws select.
    # In each run the draws come from {1..n}, {1..n-1}, ..., {1}, and
    # each picks a position among the values not chosen yet: the run is
    # a Lehmer code.  Up to order 4 there are at most 24 runs, so each is
    # looked up in the table _decode_loop built from all of them; larger
    # orders run the loop itself.
    if n > _TABLE_MAX_ORDER:
        return _decode_loop(xs, n)
    runs = zip(*[iter(xs)] * n)
    return list(map(list, map(_perm_table(n).__getitem__, runs)))


@functools.cache
def _perm_table(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    # Every run of n draws mapped to the permutation _decode_loop decodes
    # from it; built once per order.
    runs = list(product(*[range(1, k + 1) for k in range(n, 0, -1)]))
    rows = _decode_loop([x for run in runs for x in run], n)
    return dict(zip(runs, map(tuple, rows)))


def _decode_loop(xs: list[int], n: int) -> list[list[int]]:
    # _decode_perms without the table: each chosen value is deleted by
    # shifting the tail of the pool left one slot.
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
