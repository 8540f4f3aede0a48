"""Small shared helpers: integer and bit coercion, bit packing, exact log2
ceilings, seed derivation."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORM_TOL = 1e-9


def int_array(values) -> np.ndarray:
    """values as a 1-D int64 array, never truncated: TypeError for an element
    that is not an integer, ValueError for one outside int64."""
    if (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu"
            and np.can_cast(values.dtype, np.int64)):
        return values.astype(np.int64, copy=False)
    items = [operator.index(v) for v in values]
    try:
        return np.array(items, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"element outside int64: {exc}") from exc


def bit_array(values) -> np.ndarray:
    """values as a 1-D int64 array of 0/1 entries, bools read as 0/1:
    TypeError for an element that is not an integer, ValueError for one other
    than 0 or 1."""
    values = np.asarray(values)
    bits = int_array(values.astype(np.int64) if values.dtype == bool else values)
    if np.any(bits & ~1):
        raise ValueError("bits must be 0/1")
    return bits


def read_index(value, n: int) -> int:
    """value as an index of [0, n): TypeError for a non-integer, ValueError
    outside the range."""
    value = operator.index(value)
    if not 0 <= value < n:
        raise ValueError(f"index {value} outside [0, {n})")
    return value


@dataclass(frozen=True)
class IndexSet:
    """A set of indices of [0, n) read by ``read_index_set``: ``members``
    sorted Python ints (exact past int64), ``lookup`` the same as a frozenset
    built on first use.  One built by hand is taken as read, unchecked."""

    n: int
    members: tuple[int, ...]

    @cached_property
    def lookup(self) -> frozenset[int]:
        return frozenset(self.members)

    def without(self, x: int) -> IndexSet:
        """The set less x, read already."""
        return IndexSet(self.n, tuple([v for v in self.members if v != x]))


def read_index_set(values, n: int) -> IndexSet:
    """values as an ``IndexSet`` of [0, n); an ``IndexSet`` of the same n
    comes back unchanged.  TypeError for an element that is not an integer
    (numpy bools included, as in ``int_array``), ValueError for a repeat or
    an element outside the range."""
    if isinstance(values, IndexSet):
        return values if values.n == n else read_index_set(values.members, n)
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        values = values.tolist()
    items = sorted(map(operator.index, values))
    if items and not 0 <= items[0] <= items[-1] < n:
        raise ValueError(f"index set has an element outside [0, {n})")
    if any(map(operator.eq, items, items[1:])):
        raise ValueError("index set repeats an element")
    return IndexSet(n, tuple(items))


def read_permutation(values) -> np.ndarray:
    """values as a permutation of 0..M-1, an int64 array read by
    ``int_array``: ValueError unless each of 0..M-1 appears once."""
    perm = int_array(values)
    if not np.array_equal(np.sort(perm), np.arange(len(perm))):
        raise ValueError("not a permutation of 0..M-1")
    return perm


def int_to_bits(value: int, n: int) -> np.ndarray:
    """An n-bit integer as an int64 0/1 array, index 0 = least significant bit,
    exact at any n.  ValueError when it is negative or needs more than n bits."""
    value = operator.index(value)
    if not 0 <= value < 1 << n:
        raise ValueError(f"{value} does not fit in {n} unsigned bits")
    raw = np.frombuffer(value.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(np.int64)


def bitstring(bits) -> str:
    """A 0/1 sequence as a '0'/'1' string; any nonzero entry reads as '1'."""
    ones = np.asarray(bits) != 0
    return (ones.view(np.uint8) + ord("0")).tobytes().decode()


def pack_fields(values, widths) -> str:
    """Each value in its own width of bits, least significant bit first, the
    fields concatenated into one '0'/'1' string.  ``widths`` is one width for
    every value or one per value, each in [0, 63].

    Raises ValueError when a value is negative or needs more bits than its
    width (a value outside int64 included) or when the counts of widths and
    values differ, TypeError for a value or width that is not an integer;
    both are read by ``int_array``."""
    values, widths = int_array(values), int_array(np.atleast_1d(widths))
    if len(widths) not in (1, len(values)):
        raise ValueError(f"{len(widths)} field widths for {len(values)} values")
    widths = np.broadcast_to(widths, values.shape)
    if np.any((widths < 0) | (widths > 63)):
        raise ValueError("field widths must lie in [0, 63]")
    if np.any((values < 0) | (values >> widths != 0)):
        raise ValueError("a value does not fit in its field width")
    shifts = np.arange(int(widths.max(initial=0)))
    bits = (values[:, None] >> shifts) & 1
    return bitstring(bits[shifts < widths[:, None]])


def parse_bitstring(s: str) -> np.ndarray:
    """'0'/'1' characters to a uint8 array; any other character raises ValueError."""
    bits = np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        raise ValueError("bit string holds a character other than '0' or '1'")
    return bits


def ceil_log2(m: int) -> int:
    """Exact ceil(log2(m)) for positive integers, no floating point:
    TypeError for a non-integer."""
    m = operator.index(m)
    if m < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (m - 1).bit_length()


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based seed split: each key names its own independent stream,
    so any single trial can be replayed without running the others."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
