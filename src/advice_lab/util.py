"""Small shared helpers: integer and bit coercion, bit packing, exact log2
ceilings, seed derivation and the trial loop."""

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
    """Indices of [0, n): ``members`` increasing Python ints (exact past int64),
    ``lookup`` the same as a frozenset built on first use.  TypeError for a
    member that is not a Python int, ValueError for one out of order or outside [0, n)."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = self.members
        if not all(type(v) is int for v in members):
            raise TypeError("index set members must be Python ints")
        if any(map(operator.ge, members, members[1:])):
            raise ValueError("index set repeats an element or is out of order")
        if members and not (0 <= members[0] and members[-1] < self.n):
            raise ValueError(f"index set has an element outside [0, {self.n})")

    @cached_property
    def lookup(self) -> frozenset[int]:
        return frozenset(self.members)

    def without(self, x: int) -> IndexSet:
        """The set less x."""
        return IndexSet(self.n, tuple([v for v in self.members if v != x]))


def read_index_set(values, n: int) -> IndexSet:
    """values, sorted, as an ``IndexSet`` of [0, n), which checks them; an
    ``IndexSet`` of the same n comes back unchanged.  TypeError for an element
    that is not an integer, numpy bools included as in ``int_array``."""
    if isinstance(values, IndexSet):
        return values if values.n == n else read_index_set(values.members, n)
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        values = values.tolist()
    return IndexSet(n, tuple(sorted(map(operator.index, values))))


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


def pack_fields(values, width: int) -> str:
    """Each value in ``width`` bits, least significant bit first, the fields
    concatenated into one '0'/'1' string that ``read_fields`` reads back.
    ValueError when the width lies outside [0, 63] or a value is negative or
    needs more bits (one outside int64 included), TypeError for a width or
    value that is not an integer; values are read by ``int_array``."""
    width = operator.index(width)
    if not 0 <= width <= 63:
        raise ValueError("field width must lie in [0, 63]")
    values = int_array(values)
    if np.any((values < 0) | (values >> width != 0)):
        raise ValueError("a value does not fit in its field width")
    return bitstring((values[:, None] >> np.arange(width)) & 1)


def read_fields(bits: str, width: int) -> list[int]:
    """The values ``pack_fields(values, width)`` wrote, as Python ints; the
    characters are read by ``parse_bitstring``.  ValueError unless the width
    lies in [1, 63] and the string is a whole number of fields."""
    width = operator.index(width)
    if not 1 <= width <= 63:
        raise ValueError("field width must lie in [1, 63]")
    if len(bits) % width:
        raise ValueError(f"{len(bits)} bits are not a whole number of {width}-bit fields")
    fields = parse_bitstring(bits).reshape(-1, width)
    return (fields @ (1 << np.arange(width, dtype=np.int64))).tolist()


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


def fan_out(worker, count: int) -> list:
    """Run worker(0..count-1) in trial order: the one trial loop of every command."""
    return [worker(i) for i in range(count)]


def seeded_trials(seed: int, count: int, trial, *prefix: int) -> list:
    """trial(t, stream_rng(seed, *prefix, t)) for t = 0..count-1 through ``fan_out``:
    the one place a trial's stream is drawn, so any trial replays alone."""
    return fan_out(lambda t: trial(t, stream_rng(seed, *prefix, t)), count)
