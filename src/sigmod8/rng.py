"""Deterministic PRNG for the property suites: SplitMix64.

The generator is pinned to a published algorithm so that seeds (and hence
counterexamples printed by the selfcheck command) reproduce in any language:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output = z XOR (z >> 31)

randrange(n) reduces the 64-bit output modulo n (the bias is irrelevant at
the scales used here and keeps the recipe trivially portable).
"""
from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)  # below 2^64 already

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform on the inclusive range [lo, hi]."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]
