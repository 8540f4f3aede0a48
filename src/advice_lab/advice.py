"""Classical precomputed-advice constructions with measured size/query accounting.

Two structures live here: per-group parity pads, which answer single-bit
queries about a string while skipping one index and are the advice classes
of the box problem, and anchor tables built from iterates of a permutation,
which invert it with a bounded number of forward evaluations.  Both carry
exact bit-size accounting; anchor tables also round-trip through JSON.
Each structure's reads, walk and advice bits are defined here once; the
statevector adapters embed these same definitions.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qsim import BitStringOracle, PermutationOracle
from .util import bit_array, ceil_log2, pack_fields, parse_bitstring, read_index, read_index_set


class CorruptTableError(RuntimeError):
    """Raised when an inversion walk runs past the cycle bound."""


# ---------------------------------------------------------------------------
# Parity pads
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParityPad:
    """One parity bit for each of m = len(parities) contiguous groups of [N].

    Group k is [bounds[k], bounds[k + 1]) for ``bounds = group_boundaries(N,
    m)``: an equal split with earlier groups larger when N is not a multiple
    of m, so the first group always has the maximal size ceil(N/m).  Parities
    are read by ``util.bit_array``; ValueError unless 1 <= m < N.

    A pad is also its advice class: the N-bit strings (ints, bit z = position
    z) whose group parities it records, a coset of the kernel of the m
    group-parity maps holding exactly 2^(N-m) strings.  Two pads are equal
    when they have the same N and parities.
    """

    num_positions: int
    parities: np.ndarray  # m bits
    bounds: np.ndarray = field(init=False, repr=False)  # the m + 1 group bounds, 0 to N

    def __post_init__(self):
        parities = bit_array(self.parities).astype(np.uint8)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "bounds", group_boundaries(self.num_positions, len(parities)))

    def _key(self) -> tuple[int, bytes]:
        return self.num_positions, self.parities.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ParityPad) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def m(self) -> int:
        return len(self.parities)

    @property
    def log2_class_size(self) -> int:
        return self.num_positions - self.m

    def group_of(self, j: int) -> int:
        return int(np.searchsorted(self.bounds, j, side="right")) - 1

    def reads(self, j: int) -> tuple[np.ndarray, int]:
        """What answering bit j reads: the other positions of j's group, and
        the group's pad bit.  j is read by ``util.read_index``."""
        j = read_index(j, self.num_positions)
        k = self.group_of(j)
        lo, hi = int(self.bounds[k]), int(self.bounds[k + 1])
        return np.r_[lo:j, j + 1:hi], int(self.parities[k])

    def collision(self, window) -> tuple[int, int]:
        """The pair ``hybrid.collision_in_window`` finds in the class, in
        O(N): p is the least window index that is not its group's first window
        index w0.  The larger string is the least one in the class with bit p
        set; the smaller flips its bits p and w0, which keeps every group
        parity.  The window is read by ``util.read_index_set``."""
        window = read_index_set(window, self.num_positions)
        groups = [self.group_of(i) for i in window]
        k = next((k for k in range(1, len(window)) if groups[k] == groups[k - 1]), None)
        if k is None:
            raise ValueError("no collision: the window holds at most one index per group")
        least = sum(1 << lo for lo in self.bounds[:-1][self.parities == 1].tolist())
        base = least ^ (1 << int(self.bounds[groups[k]]))
        return base ^ (1 << window[k - 1]), base ^ (1 << window[k])


def group_boundaries(n: int, m: int) -> np.ndarray:
    """The m + 1 bounds of m contiguous groups of [n], from 0 to n, earlier
    groups larger by one when m does not divide n.  ValueError unless
    1 <= m < n."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < N")
    base, rem = divmod(n, m)
    sizes = np.full(m, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate(([0], np.cumsum(sizes)))


def parity_preprocess(bits, m: int) -> ParityPad:
    """Record the parity of each of m contiguous groups of the string."""
    x = _as_bits(bits)
    return ParityPad(len(x), np.bitwise_xor.reduceat(x, group_boundaries(len(x), m)[:-1]))


def parity_answer(j: int, pad: ParityPad, oracle) -> tuple[int, int]:
    """Recover bit j by reading every other bit of j's group and folding in the
    group's recorded parity.  Returns (bit, number of positions read)."""
    others, pad_bit = pad.reads(j)
    return pad_bit ^ int(np.bitwise_xor.reduce(_as_bits(oracle)[others])), len(others)


def parity_answer_sweep(strings: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch audit of parity_answer: answers and read counts for every index of
    every row of ``strings`` (shape (batch, N)), whose entries are read by
    ``util.bit_array``.

    Global prefix and suffix XOR accumulations, cut at each column's group
    bounds, give each excluded-index parity without that column ever flowing
    into its own answer.
    """
    X = np.asarray(strings)
    X = bit_array(X.reshape(-1)).astype(np.uint8).reshape(X.shape)
    batch, n = X.shape
    bounds = group_boundaries(n, m)
    group = np.repeat(np.arange(m), np.diff(bounds))
    lo, hi, cols = bounds[group], bounds[group + 1], np.arange(n)
    pre = np.zeros((batch, n + 1), dtype=np.uint8)
    pre[:, 1:] = np.bitwise_xor.accumulate(X, axis=1)
    suf = np.zeros((batch, n + 1), dtype=np.uint8)
    suf[:, :n] = np.bitwise_xor.accumulate(X[:, ::-1], axis=1)[:, ::-1]
    others = pre[:, cols] ^ pre[:, lo] ^ suf[:, cols + 1] ^ suf[:, hi]
    pads = np.bitwise_xor.reduceat(X, bounds[:-1], axis=1)
    answers = pads[:, group] ^ others
    counts = hi - lo - 1
    return answers, counts


# ---------------------------------------------------------------------------
# Iterate tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HellmanTable:
    """Anchor pairs (left, right, stride) with right = f^stride(left), in
    advice order.

    Anchors start at each cycle's minimum element, cycles in order of that
    element, and are laid stride-to-stride around the cycle, ceil(L/s) pairs
    for a cycle of length L; the final pair wraps past the starting anchor.
    Cycles shorter than s get a single self-pair whose stride still satisfies
    f^stride(x) = x_next.
    """

    n: int  # log2 of the domain size
    s: int
    pairs: tuple  # (left, right, stride) triples

    @property
    def num_positions(self) -> int:
        return 1 << self.n

    @property
    def entry_count(self) -> int:
        return len(self.pairs)

    @property
    def bit_size(self) -> int:
        """2n bits per stored pair, headers reported separately."""
        return self.entry_count * 2 * self.n

    @property
    def header_bits(self) -> int:
        """The pair count field in front of the pairs."""
        return ceil_log2(self.num_positions + 1)

    def rights(self) -> dict[int, tuple[int, int]]:
        """Map each pair's right element to (left element, stride)."""
        return {right: (left, stride) for left, right, stride in self.pairs}

    @cached_property
    def anchors(self) -> dict[int, int]:
        """Map each pair's right element to its left element: hellman_walk's jumps."""
        return {right: left for left, right, _stride in self.pairs}

    def to_bits(self) -> str:
        """The stored advice: the pair count in header_bits = ceil_log2(N + 1)
        bits, then each pair's left and right in n bits each (integers least
        significant bit first).  Exactly bit_size + header_bits long."""
        values = [v for left, right, _stride in self.pairs for v in (left, right)]
        return pack_fields([self.entry_count, *values], [self.header_bits] + [self.n] * len(values))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "s": self.s, "pairs": [list(p) for p in self.pairs]},
                          sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "HellmanTable":
        """Load a table, raising ValueError when the document is not
        {"n", "s", "pairs": [[left, right, stride], ...]} of integers, n lies
        outside [1, 62] (``to_bits`` writes the pair count in n + 1 bits, and
        ``util.pack_fields`` at most 63), s outside [1, 2^n] or a stride below
        1.  The pairs are then written out with ``to_bits`` and read back by
        ``parse_hellman_bits``, the parser ``decode`` trusts: an element
        outside [0, 2^n) does not fit its field, and an empty table or a
        repeated right element fails the parse."""
        doc = json.loads(payload)
        try:
            n, s = doc["n"], doc["s"]
            pairs = tuple((left, right, stride) for left, right, stride in doc["pairs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"anchor table field missing or misshapen: {exc!r}") from exc
        if any(type(v) is not int for v in (n, s, *(v for pair in pairs for v in pair))):
            raise ValueError("anchor table values must be integers")
        if not 1 <= n <= 62:
            raise ValueError("n outside [1, 62]")
        if not 1 <= s <= 1 << n:
            raise ValueError("s outside [1, 2^n]")
        if any(stride < 1 for _left, _right, stride in pairs):
            raise ValueError("anchor stride below 1")
        table = cls(n, s, pairs)
        parse_hellman_bits(table.to_bits(), table.num_positions)
        return table


def hellman_build(f, s: int) -> HellmanTable:
    """Decompose f (read by ``_as_oracle``) into cycles and store anchor pairs
    every s iterates.  TypeError unless s is an integer, ValueError unless 1 <= s <= N."""
    succ = _as_oracle(f).table.tolist()
    n_elems = len(succ)
    s = operator.index(s)
    if not 1 <= s <= n_elems:
        raise ValueError("s outside [1, 2^n]")
    seen = bytearray(n_elems)
    pairs = []
    for start in range(n_elems):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        z = succ[start]
        while z != start:
            cycle.append(z)
            seen[z] = 1
            z = succ[z]
        length = len(cycle)
        if length < s:
            pairs.append((start, start, length))
            continue
        for k in range(-(-length // s)):
            pairs.append((cycle[k * s], cycle[((k + 1) * s) % length], s))
    return HellmanTable(ceil_log2(n_elems), s, tuple(pairs))


def parse_hellman_bits(advice: str, num_positions: int) -> dict[int, int]:
    """Read HellmanTable.to_bits into the anchors map {right: left}.  Raises
    ValueError unless the advice is a pair count of at least 1 followed by
    exactly that many pairs, or when two pairs share a right element."""
    n = ceil_log2(num_positions)
    width = ceil_log2(num_positions + 1)
    bits = parse_bitstring(advice)
    weights = 1 << np.arange(width, dtype=np.int64)
    head = bits[:width]
    count = int(head @ weights[:len(head)])
    if count < 1 or len(bits) != width + 2 * n * count:
        raise ValueError("anchor advice is not a positive pair count followed by that many pairs")
    values = (bits[width:].reshape(2 * count, n) @ weights[:n]).tolist()
    anchors = dict(zip(values[1::2], values[0::2]))
    if len(anchors) != count:
        raise ValueError("two anchor pairs share a right element")
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
    """Drive hellman_walk for y against f (read by ``_as_oracle``) until it
    parks on the preimage.  Returns (x, evaluations of f); the count stays
    within 2s + 2.  ValueError when f and the table differ in size, TypeError
    for a y that is not an integer, ValueError for one outside [0, N), and
    CorruptTableError once 2N + 1 evaluations pass without parking."""
    images = _as_oracle(f).table
    if len(images) != table.num_positions:
        raise ValueError(f"f has {len(images)} positions, the table {table.num_positions}")
    y = read_index(y, table.num_positions)
    transition = hellman_walk(table.anchors, y)
    pos, _, work = transition(0, 0, 0, 0)
    for calls in range(1, 2 * table.num_positions + 2):
        ans = int(images[pos])
        if work == 1 and ans == y:
            return pos, calls
        pos, _, work = transition(calls, pos, ans, work)
    raise CorruptTableError("the walk did not park within 2N + 1 evaluations")


def measure_tradeoff(f, s: int) -> dict:
    """Build a table for f and measure its size against worst-case inversion
    cost over every image point.  f is read once, by ``_as_oracle``."""
    oracle = _as_oracle(f)
    table = hellman_build(oracle, s)
    perm = oracle.table
    worst = 0
    for y in range(len(perm)):
        x, calls = hellman_invert(y, table, oracle)
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
    return bit_array(x)


def _as_oracle(f) -> PermutationOracle:
    """f as a PermutationOracle, which checks that it permutes [2^n] for some
    n >= 1; an oracle passes through without a second check."""
    return f if isinstance(f, PermutationOracle) else PermutationOracle(f)

