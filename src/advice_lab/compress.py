"""Compressing a permutation with the help of an algorithm that inverts it.

The encoder fixes a random subset R of the domain, finds the elements of R the
algorithm inverts while putting almost no query mass on the rest of R, and
writes the permutation as: the advice string, the image set f(R), the bijection
off R, the images of the good elements, and the bijection on the leftover part
of R.  The good elements themselves are never written: the decoder re-derives
them by simulating the algorithm against a fake oracle that is constant on R,
which the good elements cannot distinguish from the real one.  All set and
permutation components are stored as exact combinatorial ranks, so encoding
lengths are measured in bits with no serialization slack.
"""

from __future__ import annotations

import base64
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .qsim import FunctionOracle, PermutationOracle, State, run, top_two
from .util import (IndexSet, bitstring, ceil_log2, int_array, parse_bitstring, read_index,
                   read_index_set, read_permutation)

ARGMAX_TOL = 1e-9
# An element counts as inverted when its run outputs it with at least this probability.
SUCCESS_THRESHOLD = 2.0 / 3.0


class DecodeFailure(RuntimeError):
    """Decoding could not certify the permutation it reconstructed.

    ``finals`` maps each stored image y to the final state of its run against
    the hybrid oracle ``build_h(table, R, y)``: decode makes every run before
    it checks any image, so a failure carries all of them."""

    def __init__(self, message: str, finals: dict[int, State]):
        super().__init__(message)
        self.finals = finals


class AmbiguousDecodeError(DecodeFailure):
    """Top two output probabilities within tolerance; no certain answer."""


class CorruptEncodingError(ValueError):
    """The encoding is not one ``encode`` writes: a stored rank or count is
    outside its declared range, or the advice fails to parse or to match the
    decoded table."""


# ---------------------------------------------------------------------------
# Subset codec (combinatorial number system, colexicographic order)
# ---------------------------------------------------------------------------

def rank_set(elements) -> int:
    """Colex rank of a subset among all subsets of its size: the sorted
    elements s_0 < s_1 < ... contribute sum C(s_i, i+1).  TypeError for a
    non-integer element, ValueError for a repeat or a negative element."""
    sorted_elems = sorted(operator.index(e) for e in elements)
    if any(b <= a for a, b in zip(sorted_elems, sorted_elems[1:])):
        raise ValueError("elements must be distinct")
    if sorted_elems and sorted_elems[0] < 0:
        raise ValueError("elements must be nonnegative")
    return sum(math.comb(e, i + 1) for i, e in enumerate(sorted_elems))


def unrank_set(rank: int, n: int, k: int) -> np.ndarray:
    """Inverse of rank_set over k-subsets of [n]; rank must lie in [0, C(n,k)).

    The largest element left is the largest c below the previous one with
    C(c, i) <= rank; a search that doubles its step down from the previous
    element and then bisects finds it in O(log gap) binomials.  TypeError
    for an argument that is not an integer."""
    rank, n, k = operator.index(rank), operator.index(n), operator.index(k)
    if not 0 <= k <= n:
        raise CorruptEncodingError("subset size out of range")
    if not 0 <= rank < math.comb(n, k):
        raise CorruptEncodingError("subset rank out of range")
    out = []
    hi = n  # every element left lies below hi
    for i in range(k, 0, -1):
        # C(i - 1, i) = 0 <= rank, so the answer lies in [i - 1, hi).
        lo, step = hi - 1, 1
        while lo > i - 1 and math.comb(lo, i) > rank:
            hi, lo, step = lo, max(i - 1, lo - step), 2 * step
        while hi - lo > 1:  # C(lo, i) <= rank < C(hi, i)
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= rank:
                lo = mid
            else:
                hi = mid
        out.append(lo)
        rank -= math.comb(lo, i)
        hi = lo
    return np.array(out[::-1], dtype=np.int64)


# ---------------------------------------------------------------------------
# Permutation codec (factorial number system / Lehmer code)
#
# The rank of a permutation g of [0, M) is sum_i d_i (M-1-i)!, with Lehmer
# digit d_i the number of later elements smaller than g[i].  Read left to
# right, the digits are a mixed-radix numeral with radices M, M-1, ..., 1.
# A product tree over the radices converts between digits and integer:
# Horner's rule on leaves of _LEAF digits, then halves joined as
# a * P_right + b, and split back top down with one divmod per node.  M! is
# never built.
# ---------------------------------------------------------------------------

_DIGIT_BLOCK = 256  # positions whose digits one block of array work counts
_LEAF = 64          # digits per leaf of the mixed-radix product tree
# np.triu(ones, 1) built once: entry [i, j] is i < j.
_EARLIER = np.triu(np.ones((_DIGIT_BLOCK, _DIGIT_BLOCK), dtype=bool), 1)


def _lehmer_digits(g: np.ndarray) -> np.ndarray:
    """d_i = g[i] minus the number of earlier elements below g[i].  Earlier
    blocks are counted through a cumulative sum of the values seen so far,
    the block's own earlier elements by one triangular comparison."""
    m = len(g)
    seen = np.zeros(m, dtype=np.int64)
    digits = np.empty(m, dtype=np.int64)
    for lo in range(0, m, _DIGIT_BLOCK):
        blk = g[lo:lo + _DIGIT_BLOCK]
        k = len(blk)
        earlier_blocks = np.cumsum(seen)[blk]  # placed values <= v; v is not placed yet
        seen[blk] = 1
        this_block = ((blk[:, None] < blk) & _EARLIER[:k, :k]).sum(axis=0)
        digits[lo:lo + k] = blk - earlier_blocks - this_block
    return digits


def _leaf_bounds(m: int) -> list[tuple[int, int]]:
    return [(a, min(a + _LEAF, m)) for a in range(0, m, _LEAF)]


def _radix_products(m: int) -> list[list[int]]:
    """Levels of the product tree, leaves first: a node's entry is the
    product of its digits' radices, (M-a)!/(M-b)! for digits [a, b).  The
    root's product (M!) is never formed."""
    levels = [[math.perm(m - a, b - a) for a, b in _leaf_bounds(m)]]
    while len(levels[-1]) > 2:
        w = levels[-1]
        # An odd last node rises to the next level unpaired.
        levels.append([w[i] * w[i + 1] for i in range(0, len(w) - 1, 2)] + w[len(w) & ~1:])
    return levels


def rank_perm(perm) -> int:
    """Lehmer rank: identity maps to 0, the reversal to M! - 1.  perm is read
    by ``util.read_permutation``."""
    g = read_permutation(perm)
    m = len(g)
    digits = _lehmer_digits(g).tolist()
    values = []
    for a, b in _leaf_bounds(m):
        value = 0
        for d, radix in zip(digits[a:b], range(m - a, m - b, -1)):
            value = value * radix + d
        values.append(value)
    for products in _radix_products(m):
        if len(values) == 1:
            break
        values = ([values[i] * products[i + 1] + values[i + 1] for i in range(0, len(values) - 1, 2)]
                  + values[len(values) & ~1:])
    return values[0] if values else 0


def unrank_perm(rank: int, m: int) -> np.ndarray:
    """Inverse of rank_perm; rank must lie in [0, M!).

    The rank splits top down through the product tree, one divmod per node.
    Only the leftmost path can carry an excess, so a rank of M! or more
    leaves a nonzero quotient after the first leaf's digits.  Each digit
    then pops its value from the list of values not yet taken, moving at
    most M^2/2 list pointers in all."""
    rank = operator.index(rank)
    if m < 0:
        raise CorruptEncodingError("permutation size out of range")
    if rank < 0:
        raise CorruptEncodingError("permutation rank out of range")
    values = [rank]
    for products in reversed(_radix_products(m)):
        split = []
        for i, value in enumerate(values):
            if 2 * i + 1 < len(products):
                split += divmod(value, products[2 * i + 1])
            else:
                split.append(value)
        values = split
    digits, leftover = [], rank if m == 0 else 0
    for (a, b), value in zip(_leaf_bounds(m), values):
        leaf = []
        for radix in range(m - b + 1, m - a + 1):
            value, d = divmod(value, radix)
            leaf.append(d)
        digits += leaf[::-1]
        leftover += value
    if leftover:
        raise CorruptEncodingError("permutation rank out of range")
    remaining = list(range(m))
    return np.array([remaining.pop(d) for d in digits], dtype=np.int64)


# ---------------------------------------------------------------------------
# Parameters and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionParams:
    """Knobs of the encoder.

    The asymptotic proof wants sqrt(c) < 1/24 (so a good element's output
    distribution stays past the 1/2 certainty line) and delta < c/20 (so the
    good set is large with constant probability).  Those constants empty out R
    at desk scale, so they are not enforced; only the tests read the flags
    below.  Instances tune delta for nonempty samples and keep c small.
    """

    delta: float
    c: float

    def __post_init__(self):
        if not 0 < self.delta < 1 or not 0 < self.c < 1:
            raise ValueError("delta and c must lie in (0, 1)")

    @property
    def certainty_margin_ok(self) -> bool:
        return math.sqrt(self.c) < 1.0 / 24.0

    @property
    def claim_positivity_ok(self) -> bool:
        return self.delta / 2 - 10 * self.delta ** 2 / self.c > 0

    @property
    def asymptotic_regime_ok(self) -> bool:
        return self.certainty_margin_ok and self.claim_positivity_ok


def sample_R(n_elements: int, delta: float, num_queries: int, seed) -> np.ndarray:
    """Each element of [N] joins R independently with probability delta/T^2.
    TypeError for a query count that is not an integer."""
    num_queries = operator.index(num_queries)
    if num_queries < 1:
        raise ValueError("query count must be positive for subset sampling")
    p = delta / float(num_queries) ** 2
    if not 0 < p <= 1:
        raise ValueError(f"inclusion probability {p} outside (0, 1]")
    rng = np.random.default_rng(seed)  # a Generator comes back unchanged
    return np.flatnonzero(rng.random(n_elements) < p).astype(np.int64)


# ---------------------------------------------------------------------------
# Inverted and good elements
# ---------------------------------------------------------------------------

def prepare(f: PermutationOracle, family):
    """The family's advice for f and the algorithm built from it."""
    advice = family.preprocess(f)
    return advice, family.spec(advice, f.num_positions)


def _inverts(alg, final: State, x: int) -> bool:
    """The run ending in ``final`` outputs x with probability at least
    SUCCESS_THRESHOLD, read exactly off the final state.  That probability
    exceeds 1/2, so only the most likely outcome can reach it."""
    outcome, p, _ = top_two(final, alg.output_register)
    return outcome == x and p >= SUCCESS_THRESHOLD - 1e-12


def _inverted_runs(f: PermutationOracle, alg, xs):
    """Run alg on the image of each x of xs against f, in order, and yield
    (x, final state, trace) for each x the run inverts."""
    for x in map(int, xs):
        final, trace = run(alg, f, int(f.table[x]))
        if _inverts(alg, final, x):
            yield x, final, trace


def inversion_set(f: PermutationOracle, family) -> np.ndarray:
    """Elements x whose image the algorithm sends back to x (``_inverts``)."""
    _, alg = prepare(f, family)
    return np.array([x for x, _, _ in _inverted_runs(f, alg, range(f.num_positions))], dtype=np.int64)


def _good_elements(f: PermutationOracle, alg, R: IndexSet,
                   params: CompressionParams) -> dict[int, State]:
    """Each good element of the read set R, in R's order, mapped to the final
    state of its run against f."""
    threshold = params.c / alg.num_queries if alg.num_queries > 0 else math.inf
    return {x: final for x, final, trace in _inverted_runs(f, alg, R.members)
            if trace.mass_on(R.without(x)) <= threshold}


def good_set(f: PermutationOracle, family, R, params: CompressionParams) -> np.ndarray:
    """Elements of R that are inverted and whose runs put at most c/T total
    query magnitude on the rest of R.  R is read by ``util.read_index_set``."""
    R = read_index_set(R, f.num_positions)
    _, alg = prepare(f, family)
    return np.array(list(_good_elements(f, alg, R, params)), dtype=np.int64)


# ---------------------------------------------------------------------------
# The encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Encoding:
    """Six-component compressed permutation; ranks are exact big integers.

    ``runs`` maps each good element to the final state of its run against f:
    a ``BasisState`` of coordinates for a classical family, a dense
    ``PureState`` otherwise.  The encoder fills it so the caller can audit
    those runs without redoing them; it is not part of the encoding: the
    envelope does not store it, equality ignores it, and decode never reads it.
    """

    num_elements: int
    advice: str
    good_count: int
    r_size: int
    fR_rank: int
    outer_rank: int
    fG_rank: int
    inner_rank: int
    runs: dict[int, State] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.good_count <= self.r_size <= self.num_elements:
            raise CorruptEncodingError("component counts out of range")

    @property
    def advice_bits(self) -> int:
        return len(self.advice)

    @property
    def header_bits(self) -> int:
        """Accounting charge for the good-element count and |R| fields."""
        return 2 * ceil_log2(self.num_elements + 1)

    def component_bits(self) -> dict[str, int]:
        return dict(self._component_bits)

    @cached_property
    def _component_bits(self) -> dict[str, int]:
        """Computed once per encoding: the factorials grow with N."""
        n, r, g = self.num_elements, self.r_size, self.good_count
        return {
            "advice": self.advice_bits,
            "fR": ceil_log2(max(1, math.comb(n, r))),
            "outer": ceil_log2(max(1, math.factorial(n - r))),
            "fG": ceil_log2(max(1, math.comb(r, g))),
            "inner": ceil_log2(max(1, math.factorial(r - g))),
            "header": self.header_bits,
        }

    @property
    def logical_bits(self) -> int:
        return sum(self._component_bits.values())


def length_bound_bits(enc: Encoding) -> float:
    """S + log2 N! - log2 |G|! + 4 log2 N, the budget the logical length must
    stay under (the 4 log2 N absorbs ceilings and the header)."""
    n, g = enc.num_elements, enc.good_count
    return (enc.advice_bits
            + math.log2(math.factorial(n))
            - math.log2(math.factorial(g))
            + 4 * math.log2(n))


def build_h(known: np.ndarray, R, y: int) -> FunctionOracle:
    """The hybrid oracle: ``known`` (the permutation off R, -1 on R) with
    every element of R sent to y.  It agrees with the original permutation
    everywhere outside R and at the preimage of y.  known is read by
    ``util.int_array``, R by ``util.read_index_set`` and y by
    ``util.read_index``; ValueError unless known is -1 exactly on R."""
    table = int_array(known).copy()
    on_R = np.zeros(len(table), dtype=bool)
    on_R[list(read_index_set(R, len(table)).members)] = True
    if not np.array_equal(table == -1, on_R):
        raise ValueError("known images must be -1 exactly on R")
    table[on_R] = read_index(y, len(table))
    return FunctionOracle(table)


def encode(f: PermutationOracle, family, R, params: CompressionParams) -> Optional[Encoding]:
    """Emit the six components, or None when no element of R is good (a
    counted failure of the randomness, not an error).  The good elements' runs
    against f ride along in ``Encoding.runs``."""
    n = f.num_positions
    R_set = read_index_set(R, n)
    advice, alg = prepare(f, family)
    runs = _good_elements(f, alg, R_set, params)
    if not runs:
        return None
    good = np.array(list(runs), dtype=np.int64)
    R = np.array(R_set.members, dtype=np.int64)

    # R, fR and fG are sorted, so each complement deletes positions.
    fR = np.sort(f.table[R])
    outside_images = np.delete(np.arange(n), fR)
    outer = np.searchsorted(outside_images, f.table[np.delete(np.arange(n), R)])

    fG_at = np.searchsorted(fR, np.sort(f.table[good]))
    leftover = np.delete(R, np.searchsorted(R, good))
    inner = np.searchsorted(np.delete(fR, fG_at), f.table[leftover])

    return Encoding(
        num_elements=n,
        advice=advice,
        good_count=len(good),
        r_size=len(R),
        fR_rank=rank_set(fR),
        outer_rank=rank_perm(outer),
        fG_rank=rank_set(fG_at),
        inner_rank=rank_perm(inner),
        runs=runs,
    )


def decode(enc: Encoding, R, family) -> tuple[np.ndarray, dict[int, State]]:
    """Reconstruct the permutation and return it with the runs that did it.

    Ranks and advice are read first, so a CorruptEncodingError for either
    comes before any run.  Then each stored image y is run once against the
    hybrid oracle ``build_h(table, R, y)``, ``table`` being the mapping off R
    with -1 on R; ``finals`` maps y to that run's final state.  Each image's
    preimage is the run's output when it is an unambiguous winner and a fresh
    element of R; the leftover mapping fills the rest of R, so the table is a
    permutation by construction.  A DecodeFailure carries ``finals``.  Last,
    the family's deterministic ``preprocess`` must re-derive the stored advice
    from the table, else CorruptEncodingError: altered advice that still
    parses never decodes to a wrong permutation."""
    n = enc.num_elements
    R_set = read_index_set(R, n)
    R = np.array(R_set.members, dtype=np.int64)
    if len(R) != enc.r_size:
        raise CorruptEncodingError("sampled set size disagrees with the encoding")
    r, g = enc.r_size, enc.good_count

    fR = unrank_set(enc.fR_rank, n, r)
    outer = unrank_perm(enc.outer_rank, n - r)
    fG_at = unrank_set(enc.fG_rank, r, g)
    inner = unrank_perm(enc.inner_rank, r - g)
    try:
        alg = family.spec(enc.advice, n)
    except ValueError as exc:
        raise CorruptEncodingError(f"advice does not parse: {exc}") from exc

    table = np.full(n, -1, dtype=np.int64)
    table[np.delete(np.arange(n), R)] = np.delete(np.arange(n), fR)[outer]

    finals = {y: run(alg, build_h(table, R_set, y), y)[0] for y in map(int, fR[fG_at])}
    for y, final in finals.items():
        x, p, runner_up = top_two(final, alg.output_register)
        if p - runner_up <= ARGMAX_TOL:
            raise AmbiguousDecodeError(
                f"no clear inverse for image {y}: top probabilities {runner_up}, {p}", finals)
        if table[x] != -1:  # off R, or recovered already
            raise DecodeFailure(f"simulated inverse {x} of image {y} is not fresh in R", finals)
        table[x] = y

    table[R[table[R] == -1]] = np.delete(fR, fG_at)[inner]
    if family.preprocess(PermutationOracle(table)) != enc.advice:
        raise CorruptEncodingError("the decoded table does not re-derive the stored advice")
    return table, finals


# ---------------------------------------------------------------------------
# Counting check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingReport:
    holds: bool
    required_bits: float  # log2(c) + log2 |X|
    available_bits: float
    slack_bits: float


def counting_check(x_size_log2: float, enc_bits_max: float, c: float = 0.8) -> CountingReport:
    """A decoder that succeeds with probability c in (0, 1] (else ValueError)
    on every input needs c|X| codewords: log2(c) + log2|X| <= encoding bits."""
    if not 0 < c <= 1:
        raise ValueError(f"success probability c={c} outside (0, 1]")
    required = math.log2(c) + x_size_log2
    return CountingReport(
        holds=required <= enc_bits_max + 1e-12,
        required_bits=required,
        available_bits=enc_bits_max,
        slack_bits=enc_bits_max - required,
    )


# ---------------------------------------------------------------------------
# JSON envelope
# ---------------------------------------------------------------------------

def _blob(value: int) -> str:
    payload = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return base64.b64encode(len(payload).to_bytes(4, "big") + payload).decode("ascii")


def _b64decode(text, what: str) -> bytes:
    if not isinstance(text, str):
        raise CorruptEncodingError(f"{what} is not a string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise CorruptEncodingError(f"{what} is not valid base64: {exc}") from exc


def _unblob(text) -> int:
    raw = _b64decode(text, "rank blob")
    length = int.from_bytes(raw[:4], "big")
    if len(raw) != 4 + length:
        raise CorruptEncodingError("bad length prefix in rank blob")
    return int.from_bytes(raw[4:], "big")


def encoding_to_json(enc: Encoding) -> str:
    packed = np.packbits(parse_bitstring(enc.advice))
    return json.dumps({
        "S": enc.advice_bits,
        "good_count": enc.good_count,
        "r_size": enc.r_size,
        "ranks": {
            "fR": _blob(enc.fR_rank),
            "outer": _blob(enc.outer_rank),
            "fG": _blob(enc.fG_rank),
            "inner": _blob(enc.inner_rank),
        },
        "advice": base64.b64encode(packed.tobytes()).decode("ascii"),
        "logical_bits": enc.logical_bits,
    }, sort_keys=True)


def encoding_from_json(payload: str, num_elements: int) -> Encoding:
    """Parse an envelope; any malformed, missing or inconsistent field raises
    CorruptEncodingError."""
    try:
        doc = json.loads(payload)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise CorruptEncodingError(f"envelope is not JSON: {exc}") from exc
    try:
        s_bits, good_count, r_size = doc["S"], doc["good_count"], doc["r_size"]
        advice, logical_bits = doc["advice"], doc["logical_bits"]
        fR, outer, fG, inner = (doc["ranks"][k] for k in ("fR", "outer", "fG", "inner"))
    except (KeyError, TypeError) as exc:
        raise CorruptEncodingError(f"envelope field missing: {exc}") from exc
    if not all(type(v) is int for v in (s_bits, good_count, r_size, logical_bits)):
        raise CorruptEncodingError("S, good_count, r_size and logical_bits must be integers")
    raw = np.frombuffer(_b64decode(advice, "advice"), dtype=np.uint8)
    if s_bits < 0 or len(raw) != (s_bits + 7) // 8:
        raise CorruptEncodingError("advice byte count disagrees with S")
    bits = np.unpackbits(raw)
    if bits[s_bits:].any():
        raise CorruptEncodingError("advice padding bits past S are not zero")
    bits = bits[:s_bits]
    enc = Encoding(
        num_elements=num_elements,
        advice=bitstring(bits),
        good_count=good_count,
        r_size=r_size,
        fR_rank=_unblob(fR),
        outer_rank=_unblob(outer),
        fG_rank=_unblob(fG),
        inner_rank=_unblob(inner),
    )
    if enc.logical_bits != logical_bits:
        raise CorruptEncodingError("stored logical length disagrees with the components")
    return enc
