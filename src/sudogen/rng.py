"""Seedable uniform integer source used by every generator.

The underlying engine is the Mersenne Twister from the standard library
(``random.Random``), a well-known non-cryptographic generator with far
more than 64 bits of state.  Only ``getrandbits`` is used, so sequences
are reproducible bit-for-bit for a given seed across platforms.

Values are mapped to ``{1..k}`` by drawing the minimal number of bits
and rejecting draws that land in the biased remainder range, so every
value has probability exactly 1/k.

A draw from {1, 2} never rejects: it is one ``getrandbits(1)`` call,
which takes one of the engine's 32-bit output words.
``RandomSource.bits`` relies on that to make runs of such draws in one
call without changing the stream, ``RandomSource.perm_ranks`` to draw
order-2 permutations as one ``getrandbits(1)`` each, and
``RandomSource.skip_ranks`` to skip m of them as one
``getrandbits(32 * m)`` call.

Independent attempts must not share a source; they derive child seeds
from a root seed with :func:`derive_seed` (a splitmix64 mix of the root
and the attempt index).
"""

from __future__ import annotations

import itertools
import random

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit output)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _check_u64(name: str, value) -> None:
    # bool is an int, and splitmix64 would fold -1 and 2**64 onto valid seeds
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


def derive_seed(root_seed: int, index: int) -> int:
    """Child seed for attempt ``index``, deterministic in (root, index)."""
    _check_u64("seed", root_seed)
    _check_u64("index", index)
    return splitmix64((root_seed ^ splitmix64(index + 1)) & _MASK64)


def entropy_seed() -> int:
    """Fresh 64-bit seed from system entropy."""
    import secrets  # loads hmac and hashlib, which only unseeded runs need

    return secrets.randbits(64)


class RandomSource:
    """Deterministic stream of uniform integers from ``{1..k}``.

    A source is single-consumer: it may be handed from one thread to
    another but never used from two at once.  ``draws`` counts the
    values drawn, one per ``uniform_int`` call, one per entry of a
    ``uniform_seq`` call, one per bit of ``bits`` and n per rank of
    ``perm_ranks(n, m)`` or ``skip_ranks(n, m)``, for instrumentation.
    All five consume the engine as one ``uniform_int`` call per value
    would, so batching, ranking or skipping draws never changes a seeded
    stream.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = entropy_seed()
        _check_u64("seed", seed)
        self.seed = seed
        self.draws = 0
        self._getrandbits = random.Random(seed).getrandbits

    def uniform_int(self, k: int) -> int:
        """Uniform draw from {1..k}; exact (no modulo bias)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.draws += 1
        if k == 1:
            return 1
        bits = (k - 1).bit_length()
        r = self._getrandbits(bits)
        while r >= k:
            r = self._getrandbits(bits)
        return r + 1

    def uniform_seq(self, ks) -> list[int]:
        """One uniform draw from {1..k} for each k in ``ks``, in order.

        Makes exactly the ``getrandbits`` calls of
        ``[uniform_int(k) for k in ks]`` and returns the same values, in
        one call instead of one per draw.  Adds ``len(ks)`` to ``draws``.
        ``ks`` may be any iterable, iterators included.  ValueError if any
        k < 1, raised before anything is drawn.
        """
        if not isinstance(ks, (list, tuple, range)):
            ks = list(ks)  # the check below must not use an iterator up
        if ks and min(ks) < 1:
            raise ValueError(f"k must be >= 1, got {min(ks)}")
        getrandbits = self._getrandbits
        out = []
        append = out.append
        for k in ks:
            if k == 1:
                append(1)
            elif k == 2:  # one bit, never rejected
                append(getrandbits(1) + 1)
            else:
                bits = (k - 1).bit_length()
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                append(r + 1)
        self.draws += len(out)
        return out

    def bits(self, m: int) -> list[int]:
        """m fair bits (0 or 1): ``uniform_seq((2,) * m)`` minus one each.

        Makes the same ``getrandbits(1)`` calls and adds m to ``draws``.
        ValueError, before drawing, unless m is an int >= 0 (its type exactly
        ``int``: bools and other subclasses are refused).
        """
        if type(m) is not int or m < 0:
            raise ValueError(f"m must be an integer >= 0, got {m!r}")
        self.draws += m
        return list(map(self._getrandbits, itertools.repeat(1, m)))

    def perm_ranks(self, n: int, m: int) -> list[int]:
        """m ranks in 0..n!-1, one per run of draws from {1..n}, ..., {1}.

        A run x_n, ..., x_1 (x_k from {1..k}) is a Lehmer code, and its
        rank is the sum of (x_k - 1) * (k - 1)!, so runs rank in the
        order ``itertools.product`` lists them.  Makes exactly the
        ``getrandbits`` calls of ``uniform_seq(tuple(range(n, 0, -1)) * m)``
        and adds n * m to ``draws``: at n = 2 one ``getrandbits(1)`` per
        run, made as ``bits`` makes them, otherwise ``uniform_int``'s
        rejection loop per bound above 1.  ValueError, before drawing,
        unless n is an int >= 1 and m an int >= 0 (types exactly ``int``:
        bools and other subclasses are refused).
        """
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if type(m) is not int or m < 0:
            raise ValueError(f"m must be an integer >= 0, got {m!r}")
        self.draws += n * m
        getrandbits = self._getrandbits
        if n == 2:  # the draw from {1, 2} is one bit, the one from {1} none
            return list(map(getrandbits, itertools.repeat(1, m)))
        bounds = [(k, (k - 1).bit_length()) for k in range(n, 1, -1)]
        out = []
        for _ in range(m):
            rank = 0
            for k, bits in bounds:
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                rank = rank * k + r  # Horner over the radices n, n-1, ..., 2
            out.append(rank)
        return out

    def skip_ranks(self, n: int, m: int) -> None:
        """Consume exactly what ``perm_ranks(n, m)`` would, building no ranks.

        Moves the engine and ``draws`` as that call would, and refuses
        what it refuses, before drawing.  At n = 2 each rank is one
        ``getrandbits(1)`` call, which takes one 32-bit word, so the m
        ranks are skipped as one ``getrandbits(32 * m)`` call; every
        other order calls ``perm_ranks``.
        """
        if n != 2 or type(n) is not int or type(m) is not int or m < 0:
            self.perm_ranks(n, m)
            return
        self.draws += 2 * m
        self._getrandbits(32 * m)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

