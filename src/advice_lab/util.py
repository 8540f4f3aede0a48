"""Small shared helpers: bit packing, exact log2 ceilings, seed derivation."""

from __future__ import annotations

import numpy as np

NORM_TOL = 1e-9


def int_to_bits(value: int, n: int) -> np.ndarray:
    """Unpack an n-bit integer into a uint8 array, index 0 = least significant bit.

    Raises ValueError when the value is negative or needs more than n bits."""
    if not 0 <= int(value) < 1 << n:
        raise ValueError(f"{value} does not fit in {n} unsigned bits")
    return (value >> np.arange(n)) & 1


def bits_to_int(bits) -> int:
    """Pack a 0/1 sequence (index 0 = least significant bit) into an int."""
    out = 0
    for i, b in enumerate(bits):
        out |= int(b) << i
    return out


def bitstring(bits) -> str:
    return "".join("1" if int(b) else "0" for b in bits)


def parse_bitstring(s: str) -> np.ndarray:
    """'0'/'1' characters to a uint8 array; any other character raises ValueError."""
    bits = np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        raise ValueError("bit string holds a character other than '0' or '1'")
    return bits


def ceil_log2(m: int) -> int:
    """Exact ceil(log2(m)) for positive integers, no floating point."""
    if m < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (m - 1).bit_length()


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based seed split: each key names its own independent stream,
    so any single trial can be replayed without running the others."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
