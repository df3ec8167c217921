"""Permutations of {1..n}: membership checks and the direct generator.

A permutation is represented as a plain list of 1-based values.  The
direct generator consumes exactly n draws and never rejects.  The
rejection generator, which draws n values blindly and retries until they
form a permutation (success probability n!/n^n per attempt), is
``gen_perm_rejection`` in :mod:`sudogen.analysis`.
"""

from __future__ import annotations

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


def gen_perm_direct(n: int, source: RandomSource, variant: str = "shift") -> list[int]:
    """Uniform random permutation from exactly n draws, never rejecting.

    Draw k selects position x in the remaining pool of n-k+1 values; the
    n draws are made in one ``uniform_seq`` call.  The default "shift"
    variant deletes the chosen value by shifting the tail left one slot,
    which costs O(n) per draw and O(n^2) overall.  The "swap" variant
    instead moves the last live value into the hole, O(1) per draw; it
    exists for benchmarking the difference.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if variant not in ("shift", "swap"):
        raise ValueError(f"unknown variant {variant!r}")
    return _decode_perms(source.uniform_seq(range(n, 0, -1)), n, variant)[0]


def _decode_perms(xs: list[int], n: int, variant: str = "shift") -> list[list[int]]:
    # The permutations of 1..n that consecutive runs of n draws select.
    # In each run the draws come from {1..n}, {1..n-1}, ..., {1}, and
    # each picks a position among the values not chosen yet.
    swap = variant == "swap"
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
        if swap:
            v[x - 1] = v[live - 1]
        else:
            for j in range(x - 1, live - 1):
                v[j] = v[j + 1]
        live -= 1
    return rows
