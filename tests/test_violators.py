"""Inputs that must make a verdict false.

A check that cannot fail proves nothing.  Each test here feeds one named
input that breaks the premise a verdict rests on, and asserts the verdict
catches it: a spec whose queried oracle is not position-wise, a family whose
decoder differs from its encoder (``h_ok``), and an inverter that keeps its
inverse table outside its advice (``counting_check``).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from advice_lab import compress
from advice_lab.adapters import LookupInversion
from advice_lab.harness import compress_trial
from advice_lab.hybrid import perturbation_bound, verify_swapping
from advice_lab.qsim import AlgorithmSpec, BasisLayout, ClassicalSpec, PermutationOracle, run


def _reader(position: int, marks_of) -> ClassicalSpec:
    """One query of ``position`` in the bit string ``marks_of`` makes of the
    oracle; the answer is the output."""
    def steps(_run_input):
        def transition(t, pos, ans, work):
            return position, ans, work
        return transition
    return ClassicalSpec(f"reader[{position}]", BasisLayout(4, 2, 1), 1, steps, "answer",
                         marks_of=marks_of)


class TestPositionWiseOracles:
    """The hybrid lemma charges each query to the position it reads, so the
    queried oracle may change only where the base oracle changes.  A derived
    oracle computed from the whole base oracle (every mark equal to bit 0 of
    f(0), read at position 1) moved a run by sqrt(2) with zero mass on the
    disagreement set; a per-answer mark cannot."""

    def test_no_spec_field_takes_the_whole_oracle(self):
        names = [f.name for f in dataclasses.fields(AlgorithmSpec)]
        assert names == ["name", "layout", "num_queries", "steps", "output_register", "marks_of"]
        seen = []

        def marks_of(*args):
            seen.append(args)
            return np.array([0, 1, 1, 0])

        run(_reader(1, marks_of), PermutationOracle(np.arange(4)), 3)
        assert seen == [(3,)]  # the run input alone, never the oracle

    def test_marks_change_only_where_the_base_table_changes(self):
        f = np.array([2, 0, 3, 1])
        for marks in itertools.product((0, 1), repeat=4):
            marks = np.array(marks)
            for a, b in itertools.combinations(range(4), 2):
                g = f.copy()
                g[[a, b]] = g[[b, a]]
                for position in range(4):
                    rep = verify_swapping(_reader(position, lambda _y: marks),
                                          PermutationOracle(f), PermutationOracle(g))
                    assert rep.holds
                    moved = marks[f[position]] != marks[g[position]]
                    assert rep.actual == (math.sqrt(2) if moved else 0.0)
                    if position not in (a, b):
                        assert rep.bound == 0.0 and rep.actual == 0.0
                    else:
                        assert rep.bound == perturbation_bound(1, 1.0) == 2.0


class DriftingLookup:
    """``LookupInversion`` whose second ``spec`` call, decode's, reads advice
    bit 0 flipped: the decoder is not the encoder."""

    name = "lookup[drifting]"

    def __init__(self):
        self.lookup = LookupInversion()
        self.spec_calls = 0

    def preprocess(self, f):
        return self.lookup.preprocess(f)

    def spec(self, advice, n_elements):
        self.spec_calls += 1
        if self.spec_calls == 2:
            advice = "10"[int(advice[0])] + advice[1:]
        return self.lookup.spec(advice, n_elements)


def test_h_ok_catches_a_decoder_that_differs_from_its_encoder():
    f = PermutationOracle(np.random.default_rng(1).permutation(16))
    R = compress.sample_R(16, 0.2, 1, 5)
    params = compress.CompressionParams(0.2, 0.001)
    honest = compress_trial(f, LookupInversion(), R, params)
    assert honest["roundtrip_exact"] and honest["h_ok"] and honest["max_h_distance"] == 0.0
    record = compress_trial(f, DriftingLookup(), R, params)
    assert len(R) == record["good_count"] == 3
    assert record["max_h_distance"] == math.sqrt(2) > perturbation_bound(1, params.c)
    assert not record["h_ok"]
    assert not record["roundtrip_exact"]


@dataclasses.dataclass(frozen=True)
class ClosureInversion:
    """Inverts f with one query from an inverse table held in its closure:
    its advice is empty (S = 0, T = 1), so the encoder's size accounting does
    not see what it carries."""

    f: PermutationOracle
    name = "closure"

    def preprocess(self, f):
        return ""

    def spec(self, advice, n_elements):
        inverse = np.argsort(self.f.table).tolist()

        def steps(y):
            def transition(t, pos, ans, work):
                return inverse[y], 0, 0
            return transition
        return ClassicalSpec(self.name, BasisLayout(n_elements, n_elements, 1), 1, steps)


@pytest.mark.parametrize("family, holds", [("closure", False), ("lookup", True)])
def test_counting_check_catches_an_inverter_that_carries_its_table(family, holds):
    n, params = 1024, compress.CompressionParams(0.5, 0.001)
    log2_factorial = math.log2(math.factorial(n))
    largest = 0
    for seed in range(3):
        f = PermutationOracle(np.random.default_rng(seed).permutation(n))
        inverter = ClosureInversion(f) if family == "closure" else LookupInversion()
        record = compress_trial(f, inverter, compress.sample_R(n, 0.5, 1, seed), params)
        assert record["roundtrip_exact"] and record["h_ok"]
        largest = max(largest, record["logical_bits"])
    report = compress.counting_check(log2_factorial, largest, params.c)
    assert report.holds == holds
    if not holds:  # thousands of bits short of log2 N! at N = 1024
        assert report.slack_bits < -3000
