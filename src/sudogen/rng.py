"""Seedable uniform integer source used by every generator.

The underlying engine is the Mersenne Twister from the standard library
(``random.Random``), a well-known non-cryptographic generator with far
more than 64 bits of state.  Only ``getrandbits`` is used, so sequences
are reproducible bit-for-bit for a given seed across platforms.

Values are mapped to ``{1..k}`` by drawing the minimal number of bits
and rejecting draws that land in the biased remainder range, so every
value has probability exactly 1/k.

Independent attempts must not share a source; they derive child seeds
from a root seed with :func:`derive_seed` (a splitmix64 mix of the root
and the attempt index).
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit output)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(root_seed: int, index: int) -> int:
    """Child seed for attempt ``index``, deterministic in (root, index)."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return splitmix64((root_seed ^ splitmix64(index + 1)) & _MASK64)


def entropy_seed() -> int:
    """Fresh 64-bit seed from system entropy."""
    import secrets  # loads hmac and hashlib, which only unseeded runs need

    return secrets.randbits(64)


class RandomSource:
    """Deterministic stream of uniform integers from ``{1..k}``.

    A source is single-consumer: it may be handed from one thread to
    another but never used from two at once.  ``draws`` counts the
    values drawn, one per ``uniform_int`` call and one per entry of a
    ``uniform_seq`` call, for instrumentation.  Both methods consume the
    engine identically, so batching draws never changes a seeded stream.
    """

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = entropy_seed()
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
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

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"
