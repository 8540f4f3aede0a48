"""Empirical verifiers for the query-perturbation bounds and the box experiment.

The hybrid lemma: changing the oracle only on positions carrying little total
query magnitude moves a run's final state by at most 2 * sqrt(T * that mass).
This module checks it (and the measurement-distance bound that rides on it) on
real runs, and drives the advice-class collision experiment that feeds it
adversarial oracle pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .advice import ParityPad, group_boundaries, parity_preprocess
from .qsim import (
    FORBIDDEN_MASS_TOL,
    MASS_RANGE,
    AlgorithmSpec,
    BitStringOracle,
    Oracle,
    PureState,
    QueryTrace,
    State,
    euclidean_distance,
    measurement_distribution,
    oracle_delta,
    run,
    top_two,
    tv_distance,
)
from .util import bitstring, int_to_bits, parse_bitstring, read_index, read_index_set, seeded_trials

SWAP_TOL = 1e-9


# ---------------------------------------------------------------------------
# Advice classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityAdviceScheme:
    """Advice = per-group parities of the string (the pad construction)."""

    m: int

    def partition(self, n: int, alpha: str) -> ParityPad:
        """The class of advice alpha, one 0/1 character per group: the pad
        that records those parities."""
        if len(alpha) != self.m or not set(alpha) <= {"0", "1"}:
            raise ValueError(f"advice must be {self.m} characters of 0/1, got {alpha!r}")
        return ParityPad(n, parse_bitstring(alpha))


def collision_in_window(strings, window: Sequence[int], n: int) -> tuple[int, int]:
    """Find two strings of the set that agree everywhere outside the window.

    Bucketing on the coordinates outside the window has only 2^(n - |window|)
    possible keys, so a set larger than that must collide.  Deterministic:
    strings are scanned in increasing order and the first bucket collision is
    returned.  Both are index sets read by ``util.read_index_set``: the window
    over [0, n), the strings over [0, 2^n) (the size bound counts distinct
    strings).  A repeated window index or string raises ValueError.
    """
    window = read_index_set(window, n).members
    xs = read_index_set(strings, 1 << n).members
    outside_mask = ((1 << n) - 1) ^ sum(1 << i for i in window)
    buckets: dict[int, int] = {}
    for x in xs:
        key = x & outside_mask
        if key in buckets:
            return buckets[key], x
        buckets[key] = x
    raise ValueError(
        f"no collision: set of {len(buckets)} strings is below the 2^(n-m) size bound")


# ---------------------------------------------------------------------------
# Inequality verifiers
# ---------------------------------------------------------------------------

def perturbation_bound(num_queries: int, mass: float) -> float:
    """The hybrid lemma (BBBV 1997): query t moves the state by at most
    2 * sqrt(q_t(delta)); the triangle inequality and Cauchy-Schwarz sum them."""
    return 2.0 * math.sqrt(num_queries * mass)


@dataclass(frozen=True, eq=False)
class SwapReport:
    """One checked instance of the oracle-perturbation bound."""

    bound: float
    actual: float
    delta_set: tuple
    holds: bool
    trace: QueryTrace  # the first run's
    final: State  # the first run's


def verify_swapping(alg: AlgorithmSpec, oracle_x: Oracle, oracle_y: Oracle,
                    run_input=None) -> SwapReport:
    """Run the same algorithm (same advice, same input) against two oracles and
    compare the final-state distance to perturbation_bound(T, magnitude mass
    on the disagreement set), the mass measured on the first run."""
    delta = oracle_delta(oracle_x, oracle_y)
    final_x, trace_x = run(alg, oracle_x, run_input)
    final_y, _ = run(alg, oracle_y, run_input)
    bound = perturbation_bound(alg.num_queries, trace_x.mass_on(delta))
    actual = euclidean_distance(final_x, final_y)
    return SwapReport(
        bound=bound,
        actual=actual,
        delta_set=tuple(int(d) for d in delta),
        holds=actual <= bound + SWAP_TOL,
        trace=trace_x,
        final=final_x,
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
    """Mean total query magnitude over the positions other than j, against
    the per-position average T/(N-1) the hybrid argument uses."""

    mean: float
    expected: float
    holds: bool


def expectation_check(trace: QueryTrace, j: int) -> ExpectationReport:
    """The exact mean (total mass - mass on j) / (N - 1) of a run's trace.  It
    equals T/(N-1) when the run spent its T units of mass off j, so ``holds``
    checks that within the tolerances ``run`` keeps on every step: the mass
    is at least T * MASS_RANGE[0] (the trace itself refuses more than
    T * MASS_RANGE[1]) and j carries at most T * FORBIDDEN_MASS_TOL.
    TypeError for a j that is not an integer, ValueError for one outside
    [0, N) or for N < 2."""
    n, num_queries = trace.num_positions, trace.num_queries
    if n < 2:
        raise ValueError(f"no mean off j over N < 2 positions (N = {n})")
    j = read_index(j, n)
    total, on_j = trace.total_mass, trace.mass_on((j,))
    holds = num_queries * MASS_RANGE[0] <= total and on_j <= num_queries * FORBIDDEN_MASS_TOL
    return ExpectationReport(mean=(total - on_j) / (n - 1), expected=num_queries / (n - 1),
                             holds=holds)


@dataclass(frozen=True)
class BoxTrialRecord:
    trial: int
    j: int
    alpha: str
    log2_class_size: int  # N - m: the class holds exactly 2^(N-m) strings
    window: tuple
    x: int
    y: int
    swap: SwapReport
    eq_bound: float  # the bound at a window's mean mass (m+1)T/(N-1): 2T sqrt((m+1)/(N-1))
    window_mass: float  # the query mass the first run put on the window
    expectation: ExpectationReport
    answer_ok: bool  # the run on x outputs bit j of x with probability >= 1 - SWAP_TOL


def box_experiment(n: int, m: int,
                   algorithm_factory: Callable[[ParityPad, int], AlgorithmSpec],
                   trials: int, seed: int) -> tuple[BoxTrialRecord, ...]:
    """Per trial: draw an N-bit string and its parity pad over m groups (the
    advice alpha its whole class shares), a random window of m + 1
    coordinates and the pair the pad's ``collision`` builds there; check the
    perturbation bound on the algorithm the factory builds from the pad, the
    exact query-mass mean off j of its run on x, and that this run answers
    bit j of x.  ValueError unless 1 <= m < N, raised by ``group_boundaries``
    before any trial."""
    group_boundaries(n, m)

    def trial(t: int, rng) -> BoxTrialRecord:
        j = int(rng.integers(n))
        pad = parity_preprocess(rng.integers(0, 2, size=n), m)
        window = read_index_set(rng.choice(n, size=m + 1, replace=False), n)
        x, y = pad.collision(window)
        alg = algorithm_factory(pad, j)
        swap = verify_swapping(alg, BitStringOracle(int_to_bits(x, n), forbidden=j),
                               BitStringOracle(int_to_bits(y, n), forbidden=j), j)
        eq_bound = perturbation_bound(alg.num_queries, alg.num_queries * (m + 1) / (n - 1))
        answer, p, _ = top_two(swap.final, alg.output_register)
        return BoxTrialRecord(
            trial=t, j=j, alpha=bitstring(pad.parities), log2_class_size=pad.log2_class_size,
            window=window.members, x=x, y=y, swap=swap, eq_bound=eq_bound,
            window_mass=swap.trace.mass_on(window),
            expectation=expectation_check(swap.trace, j),
            answer_ok=answer == (x >> j) & 1 and p >= 1 - SWAP_TOL,
        )

    return tuple(seeded_trials(seed, trials, trial))
