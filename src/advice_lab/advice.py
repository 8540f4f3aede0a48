"""Classical precomputed-advice constructions with measured size/query accounting.

Two structures live here: per-group parity pads, which answer single-bit
queries about a string while skipping one index, and anchor tables built from
iterates of a permutation, which invert it with a bounded number of forward
evaluations.  Both carry exact bit-size accounting and JSON round-trips.
Each structure's reads, walk and advice bits are defined here once; the
statevector adapters embed these same definitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .qsim import BitStringOracle, PermutationOracle
from .util import bits_to_int, bitstring, ceil_log2, int_to_bits, parse_bitstring


class CorruptTableError(RuntimeError):
    """Raised when an inversion walk runs past the cycle bound."""


# ---------------------------------------------------------------------------
# Parity pads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityPad:
    """m contiguous groups covering [N]; one parity bit per group.

    Groups are an equal split with earlier groups larger when N is not a
    multiple of m, so the first group always has the maximal size ceil(N/m).
    """

    num_positions: int
    boundaries: np.ndarray  # m group start indices, boundaries[0] == 0
    parities: np.ndarray    # m bits

    def __post_init__(self):
        boundaries, parities = np.asarray(self.boundaries), np.asarray(self.parities)
        if len(boundaries) != len(parities):
            raise ValueError("one parity per group")
        if (len(boundaries) == 0 or boundaries[0] != 0 or np.any(np.diff(boundaries) <= 0)
                or boundaries[-1] >= self.num_positions):
            raise ValueError("group starts must begin at 0, strictly increase and stay below N")
        if np.any((parities != 0) & (parities != 1)):
            raise ValueError("parities must be 0/1")
        object.__setattr__(self, "boundaries", boundaries.astype(np.int64))
        object.__setattr__(self, "parities", parities.astype(np.uint8))

    @property
    def m(self) -> int:
        return len(self.boundaries)

    @property
    def bit_size(self) -> int:
        return self.m

    def group_of(self, j: int) -> int:
        return int(np.searchsorted(self.boundaries, j, side="right")) - 1

    def group_bounds(self, k: int) -> tuple[int, int]:
        lo = int(self.boundaries[k])
        hi = int(self.boundaries[k + 1]) if k + 1 < self.m else self.num_positions
        return lo, hi

    def reads(self, j: int) -> tuple[np.ndarray, int]:
        """What answering bit j reads: the other positions of j's group, and
        the group's pad bit."""
        if not 0 <= j < self.num_positions:
            raise ValueError("index out of range")
        k = self.group_of(j)
        lo, hi = self.group_bounds(k)
        return np.r_[lo:j, j + 1:hi], int(self.parities[k])

    def to_json(self) -> str:
        return json.dumps({
            "m": self.m,
            "boundaries": [int(b) for b in self.boundaries],
            "parities": bitstring(self.parities),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str, num_positions: int) -> "ParityPad":
        doc = json.loads(payload)
        return cls(num_positions, np.array(doc["boundaries"]), parse_bitstring(doc["parities"]))


def group_boundaries(n: int, m: int) -> np.ndarray:
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < N")
    base, rem = divmod(n, m)
    sizes = np.full(m, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def parity_preprocess(bits, m: int) -> ParityPad:
    """Record the parity of each of m contiguous groups of the string."""
    x = _as_bits(bits)
    starts = group_boundaries(len(x), m)
    parities = np.bitwise_xor.reduceat(x, starts)
    return ParityPad(len(x), starts, parities)


def parity_answer(j: int, pad: ParityPad, oracle) -> tuple[int, int]:
    """Recover bit j by reading every other bit of j's group and folding in the
    group's recorded parity.  Returns (bit, number of positions read)."""
    others, pad_bit = pad.reads(j)
    return pad_bit ^ int(np.bitwise_xor.reduce(_as_bits(oracle)[others])), len(others)


def parity_answer_sweep(strings: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch audit of parity_answer: answers and read counts for every index of
    every row of ``strings`` (shape (batch, N)).

    Global prefix and suffix XOR accumulations, cut at each column's group
    bounds, give each excluded-index parity without that column ever flowing
    into its own answer.
    """
    X = np.asarray(strings, dtype=np.uint8)
    batch, n = X.shape
    starts = group_boundaries(n, m)
    ends = np.append(starts[1:], n)
    group = np.repeat(np.arange(m), ends - starts)
    lo, hi, cols = starts[group], ends[group], np.arange(n)
    pre = np.zeros((batch, n + 1), dtype=np.uint8)
    pre[:, 1:] = np.bitwise_xor.accumulate(X, axis=1)
    suf = np.zeros((batch, n + 1), dtype=np.uint8)
    suf[:, :n] = np.bitwise_xor.accumulate(X[:, ::-1], axis=1)[:, ::-1]
    others = pre[:, cols] ^ pre[:, lo] ^ suf[:, cols + 1] ^ suf[:, hi]
    pads = np.bitwise_xor.reduceat(X, starts, axis=1)
    answers = pads[:, group] ^ others
    counts = hi - lo - 1
    return answers, counts


# ---------------------------------------------------------------------------
# Iterate tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HellmanTable:
    """Anchor pairs (x, f^stride(x)) along each cycle of a permutation.

    Anchors start at each cycle's minimum element and are laid stride-to-stride
    around the cycle, ceil(L/s) pairs for a cycle of length L; the final pair
    wraps past the starting anchor.  Cycles shorter than s get a single
    self-pair whose stride still satisfies f^stride(x) = x_next.
    """

    n: int  # log2 of the domain size
    s: int
    cycles: tuple  # tuple of cycles; each cycle is a tuple of (left, right, stride)

    @property
    def num_positions(self) -> int:
        return 1 << self.n

    @property
    def entry_count(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def bit_size(self) -> int:
        """2n bits per stored pair, headers reported separately."""
        return self.entry_count * 2 * self.n

    @property
    def header_bits(self) -> int:
        """Per-cycle pair count field."""
        return len(self.cycles) * ceil_log2(self.num_positions + 1)

    def rights(self) -> dict[int, tuple[int, int]]:
        """Map each pair's right element to (left element, stride)."""
        return {right: (left, stride) for cycle in self.cycles for left, right, stride in cycle}

    @cached_property
    def anchors(self) -> dict[int, int]:
        """Map each pair's right element to its left element: hellman_walk's jumps."""
        return {right: left for cycle in self.cycles for left, right, _stride in cycle}

    def to_bits(self) -> str:
        """The stored advice: per cycle, its pair count in ceil_log2(N + 1)
        bits, then each pair's left and right in n bits each (integers least
        significant bit first).  Exactly bit_size + header_bits long."""
        width = ceil_log2(self.num_positions + 1)
        fields = []
        for cycle in self.cycles:
            fields.append(int_to_bits(len(cycle), width))
            for left, right, _stride in cycle:
                fields += [int_to_bits(left, self.n), int_to_bits(right, self.n)]
        return "".join(bitstring(field) for field in fields)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "s": self.s,
            "cycles": [{"anchors": [[int(a), int(b), int(st)] for a, b, st in cyc]}
                       for cyc in self.cycles],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "HellmanTable":
        doc = json.loads(payload)
        cycles = tuple(tuple((a, b, st) for a, b, st in cyc["anchors"]) for cyc in doc["cycles"])
        return cls(doc["n"], doc["s"], cycles)


def iterate(f, x: int, s: int) -> int:
    """f applied s times, one evaluation per step; iteration has no shortcut."""
    if s < 0:
        raise ValueError("negative iteration count")
    fn = _as_fn(f)
    for _ in range(s):
        x = fn(x)
    return x


def hellman_build(f, s: int) -> HellmanTable:
    """Decompose f into cycles and store anchor pairs every s iterates."""
    table = _as_table(f)
    n_elems = len(table)
    if not 1 <= s <= n_elems:
        raise ValueError("stride out of range")
    n = ceil_log2(n_elems)
    if 1 << n != n_elems:
        raise ValueError("domain size must be a power of two")
    seen = np.zeros(n_elems, dtype=bool)
    cycles = []
    for start in range(n_elems):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        z = int(table[start])
        while z != start:
            cycle.append(z)
            seen[z] = True
            z = int(table[z])
        length = len(cycle)
        pairs = []
        num_pairs = -(-length // s)
        stride = s if length >= s else length
        for k in range(num_pairs):
            left = cycle[(k * s) % length]
            right = cycle[((k + 1) * s) % length] if length >= s else start
            pairs.append((left, right, stride))
        cycles.append(tuple(pairs))
    return HellmanTable(n, s, tuple(cycles))


def parse_hellman_bits(advice: str, num_positions: int) -> dict[int, int]:
    """Read HellmanTable.to_bits records until the bits run out, into the
    anchors map {right: left}.  Raises ValueError on a record cut short or a
    pair count of zero."""
    n = ceil_log2(num_positions)
    width = ceil_log2(num_positions + 1)
    bits = parse_bitstring(advice)
    weights = 1 << np.arange(n, dtype=np.int64)
    anchors = {}
    pos = 0
    while pos < len(bits):
        count = bits_to_int(bits[pos:pos + width])
        end = pos + width + count * 2 * n
        if end > len(bits):
            raise ValueError("anchor record cut short")
        if count == 0:
            raise ValueError("anchor record with no pairs")
        values = (bits[pos + width:end].reshape(2 * count, n) @ weights).tolist()
        anchors.update(zip(values[1::2], values[0::2]))
        pos = end
    return anchors


def hellman_walk(anchors: dict[int, int], y: int):
    """The anchor-table inversion walk for image y, one transition per query:
    ``transition(t, pos, ans, work) -> (pos, ans, work)``.

    Position holds the element queried next and answer its image.  Workspace
    is 0 while the walk hunts forward from y for an anchor's right element and
    1 once it has jumped back to that anchor's left element and walks toward
    the preimage.  When a query answers y in walk mode the walk parks: the
    preimage stays in position from then on.
    """

    def transition(t, pos, ans, work):
        if t == 0:
            ans, work = y, 0
        if work == 0:
            return (anchors[ans], 0, 1) if ans in anchors else (ans, 0, 0)
        return (pos if ans == y else ans), 0, 1

    return transition


def hellman_invert(y: int, table: HellmanTable, f) -> tuple[int, int]:
    """Drive hellman_walk for y against f until it parks on the preimage.
    Returns (x, evaluations of f); the count stays within 2s + 2.  Raises
    CorruptTableError once 2N + 1 evaluations pass without parking."""
    fn = _as_fn(f)
    transition = hellman_walk(table.anchors, y)
    pos, _, work = transition(0, 0, 0, 0)
    for calls in range(1, 2 * table.num_positions + 2):
        ans = fn(pos)
        if work == 1 and ans == y:
            return pos, calls
        pos, _, work = transition(calls, pos, ans, work)
    raise CorruptTableError("the walk did not park within 2N + 1 evaluations")


def measure_tradeoff(f, s: int) -> dict:
    """Build a table for f and measure its size against worst-case inversion
    cost over every image point."""
    table = hellman_build(f, s)
    perm = _as_table(f)
    n_elems = len(perm)
    worst = 0
    for y in range(n_elems):
        x, calls = hellman_invert(y, table, perm)
        if perm[x] != y:
            raise AssertionError(f"inversion failed at y={y}")
        worst = max(worst, calls)
    return {
        "s": s,
        "entries": table.entry_count,
        "advice_bits": table.bit_size,
        "header_bits": table.header_bits,
        "worst_calls": worst,
        "bits_times_calls": table.bit_size * worst,
    }


# ---------------------------------------------------------------------------
# argument coercion
# ---------------------------------------------------------------------------

def _as_bits(x) -> np.ndarray:
    if isinstance(x, BitStringOracle):
        return x.bits
    return np.asarray(x)


def _as_table(f) -> np.ndarray:
    if isinstance(f, PermutationOracle):
        return f.table
    return np.asarray(f, dtype=np.int64)


def _as_fn(f) -> Callable[[int], int]:
    if isinstance(f, PermutationOracle):
        table = f.table
        return lambda z: int(table[z])
    if callable(f):
        return f
    table = np.asarray(f)
    return lambda z: int(table[z])
