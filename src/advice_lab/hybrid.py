"""Empirical verifiers for the query-perturbation bounds and the box experiment.

The central inequality: changing the oracle only on positions carrying little
total query magnitude moves the final state of a run by at most
sqrt(T * sum of those magnitudes).  This module checks that inequality (and
the measurement-distance bound that rides on it) on real runs, and drives the
advice-class collision experiment that feeds it adversarial oracle pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .advice import ParityPad, parity_preprocess
from .qsim import (
    AlgorithmSpec,
    BitStringOracle,
    Oracle,
    PureState,
    euclidean_distance,
    measurement_distribution,
    oracle_delta,
    run,
    tv_distance,
)
from .util import bitstring, int_to_bits, stream_rng

SWAP_TOL = 1e-9
ENUMERATION_CAP = 12  # advice classes are enumerated over all 2^n strings


# ---------------------------------------------------------------------------
# Advice partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdvicePartition:
    """All n-bit strings mapping to one advice value under a scheme."""

    n: int
    advice_bits: int
    alpha: str
    members: np.ndarray  # strings packed as ints, bit z = position z

    @property
    def size(self) -> int:
        return len(self.members)

    def meets_size_bound(self) -> bool:
        return self.size >= 2 ** (self.n - self.advice_bits)


@dataclass(frozen=True)
class ParityAdviceScheme:
    """Advice = per-group parities of the string (the pad construction)."""

    m: int

    def pad_for(self, bits) -> ParityPad:
        return parity_preprocess(bits, self.m)

    def advice_string(self, bits) -> str:
        return bitstring(self.pad_for(bits).parities)

    def partition(self, n: int, alpha: str) -> AdvicePartition:
        if n > ENUMERATION_CAP:
            raise ValueError(f"class enumeration is capped at n <= {ENUMERATION_CAP}")
        xs = np.arange(1 << n, dtype=np.uint64)
        pad = self.pad_for(np.zeros(n, dtype=np.uint8))
        keys = np.zeros(1 << n, dtype=np.uint64)
        for g in range(self.m):
            lo, hi = pad.group_bounds(g)
            mask = np.uint64(((1 << hi) - 1) ^ ((1 << lo) - 1))
            parity = np.bitwise_count(xs & mask).astype(np.uint64) & np.uint64(1)
            keys |= parity << np.uint64(g)
        alpha_key = sum(int(b) << g for g, b in enumerate(alpha))
        members = np.flatnonzero(keys == alpha_key).astype(np.int64)
        return AdvicePartition(n, self.m, alpha, members)


def collision_in_window(members, window: Sequence[int], n: int) -> tuple[int, int]:
    """Find two strings of the set that agree everywhere outside the window.

    Bucketing on the coordinates outside the window has only 2^(n - |window|)
    possible keys, so a set larger than that must collide.  Deterministic:
    strings are scanned in increasing order and the first bucket collision is
    returned.
    """
    window = sorted(set(int(i) for i in window))
    if any(not 0 <= i < n for i in window):
        raise ValueError("window index out of range")
    outside_mask = ((1 << n) - 1) ^ sum(1 << i for i in window)
    buckets: dict[int, int] = {}
    for x in sorted(int(v) for v in members):
        key = x & outside_mask
        if key in buckets:
            return buckets[key], x
        buckets[key] = x
    raise ValueError(
        f"no collision: set of {len(buckets)} strings is below the 2^(n-m) size bound")


# ---------------------------------------------------------------------------
# Inequality verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapReport:
    """One checked instance of the oracle-perturbation bound."""

    bound: float
    actual: float
    delta_set: tuple
    holds: bool
    num_queries: int
    totals: np.ndarray  # query-magnitude totals of the first run


def verify_swapping(alg: AlgorithmSpec, oracle_x: Oracle, oracle_y: Oracle,
                    run_input=None) -> SwapReport:
    """Run the same algorithm (same advice, same input) against two oracles and
    compare the final-state distance to sqrt(T * magnitude mass on the
    disagreement set), measured on the first run."""
    delta = oracle_delta(oracle_x, oracle_y)
    final_x, trace_x = run(alg, oracle_x, run_input)
    final_y, _ = run(alg, oracle_y, run_input)
    mass = float(trace_x.totals[delta].sum()) if len(delta) else 0.0
    bound = math.sqrt(alg.num_queries * mass)
    actual = euclidean_distance(final_x, final_y)
    return SwapReport(
        bound=bound,
        actual=actual,
        delta_set=tuple(int(d) for d in delta),
        holds=actual <= bound + SWAP_TOL,
        num_queries=alg.num_queries,
        totals=trace_x.totals,
    )


@dataclass(frozen=True)
class TvReport:
    tv: float
    euclidean: float
    bound: float
    holds: bool


def verify_tv(a: PureState, b: PureState, register: str = "position") -> TvReport:
    """Measurement distributions of nearby states are close: total variation is
    at most four times the Euclidean distance."""
    tv = tv_distance(measurement_distribution(a, register), measurement_distribution(b, register))
    eucl = euclidean_distance(a, b)
    bound = 4.0 * eucl
    return TvReport(tv=tv, euclidean=eucl, bound=bound, holds=tv <= bound + SWAP_TOL)


# ---------------------------------------------------------------------------
# Box experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationReport:
    """Sampled mean of the total query magnitude at a random allowed position,
    against the exact per-position average T/(N-1)."""

    mean: float
    expected: float
    stderr: float
    samples: int
    within_3se: bool


def expectation_check(totals: np.ndarray, j: int, num_queries: int,
                      rng: np.random.Generator, samples: int = 10_000) -> ExpectationReport:
    n = len(totals)
    zs = rng.integers(0, n - 1, size=samples)
    zs = zs + (zs >= j)
    draws = totals[zs]
    mean = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(samples))
    expected = num_queries / (n - 1)
    return ExpectationReport(
        mean=mean,
        expected=expected,
        stderr=stderr,
        samples=samples,
        within_3se=abs(mean - expected) <= 3 * stderr + 1e-12,
    )


@dataclass(frozen=True)
class BoxTrialRecord:
    trial: int
    j: int
    alpha: str
    class_size: int
    window: tuple
    x: int
    y: int
    swap: SwapReport
    eq_bound: float  # T * sqrt((m+1)/(N-1)), the averaged form of the bound
    expectation: ExpectationReport


@dataclass(frozen=True)
class BoxExperimentResult:
    n: int
    m: int
    records: tuple

    @property
    def all_swaps_hold(self) -> bool:
        return all(r.swap.holds for r in self.records)

    @property
    def all_expectations_within(self) -> bool:
        return all(r.expectation.within_3se for r in self.records)


def box_experiment(n: int, scheme: ParityAdviceScheme,
                   algorithm_factory: Callable[[ParityPad, int], AlgorithmSpec],
                   trials: int, seed: int) -> BoxExperimentResult:
    """Per trial: take the advice class of a random string and a random window
    of m + 1 coordinates (m = scheme.m), find two class members differing only
    inside the window, and check the perturbation bound on the algorithm the
    factory builds from the shared advice.  A parity class is a coset of a
    kernel of dimension N - m, so it always holds 2^(N-m) strings; a class
    below that bound raises RuntimeError."""
    m = scheme.m
    if n > ENUMERATION_CAP:
        raise ValueError(f"box experiment enumerates classes; capped at N <= {ENUMERATION_CAP}")
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < N")
    records = []
    for t in range(trials):
        rng = stream_rng(seed, t)
        j = int(rng.integers(n))
        x0 = int(rng.integers(1 << n))
        part = scheme.partition(n, scheme.advice_string(int_to_bits(x0, n)))
        if not part.meets_size_bound():
            raise RuntimeError(f"advice class {part.alpha!r} holds {part.size} strings, "
                               f"below the 2^(N-m) size bound")
        window = tuple(sorted(int(i) for i in rng.choice(n, size=m + 1, replace=False)))
        x, y = collision_in_window(part.members, window, n)
        bits_x = int_to_bits(x, n)
        pad = scheme.pad_for(bits_x)
        alg = algorithm_factory(pad, j)
        oracle_x = BitStringOracle(bits_x, forbidden=j)
        oracle_y = BitStringOracle(int_to_bits(y, n), forbidden=j)
        swap = verify_swapping(alg, oracle_x, oracle_y, j)
        eq_bound = alg.num_queries * math.sqrt((m + 1) / (n - 1))
        expectation = expectation_check(swap.totals, j, alg.num_queries, rng)
        records.append(BoxTrialRecord(
            trial=t, j=j, alpha=part.alpha, class_size=part.size, window=window,
            x=x, y=y, swap=swap, eq_bound=eq_bound, expectation=expectation,
        ))
    return BoxExperimentResult(n, m, tuple(records))
