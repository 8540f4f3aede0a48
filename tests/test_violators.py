"""Inputs that must make a verdict false.

A check that cannot fail proves nothing.  Each test here feeds one named
input that breaks the premise a verdict rests on, and asserts the verdict
catches it: a spec whose queried oracle is not position-wise, a family whose
decoder differs from its encoder (``h_ok``), an encoding with a rank past its
component's bits (``length_identity_ok``), and an inverter that keeps its
inverse table outside its advice (``counting_check``).  A verdict that no
input can make false is proved an identity instead (``length_bound_ok``), and
the hybrid lemma is checked where it comes closest to its bound.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from advice_lab import compress
from advice_lab.adapters import HellmanInversion, LookupInversion
from advice_lab.harness import compress_trial
from advice_lab.hybrid import perturbation_bound, verify_swapping
from advice_lab.qsim import (
    AlgorithmSpec,
    BasisLayout,
    ClassicalSpec,
    PermutationOracle,
    grover_spec,
    run,
)

# One f at N = 16, and the R and parameters the audit violators encode it with.
F16 = PermutationOracle(np.random.default_rng(1).permutation(16))
R16 = compress.sample_R(16, 0.2, 1, 5)
PARAMS16 = compress.CompressionParams(0.2, 0.001)


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
    honest = compress_trial(F16, LookupInversion(), R16, PARAMS16)
    assert honest["roundtrip_exact"] and honest["h_ok"] and honest["max_h_distance"] == 0.0
    record = compress_trial(F16, DriftingLookup(), R16, PARAMS16)
    assert len(R16) == record["good_count"] == 3
    assert record["max_h_distance"] == math.sqrt(2) > perturbation_bound(1, PARAMS16.c)
    assert not record["h_ok"]
    assert not record["roundtrip_exact"]


def test_length_identity_ok_catches_a_rank_past_its_bits(monkeypatch):
    honest = compress_trial(F16, LookupInversion(), R16, PARAMS16)
    assert honest["length_identity_ok"] and honest["roundtrip_exact"]
    encode = compress.encode

    def oversized(*args):
        enc = encode(*args)
        return dataclasses.replace(enc, fR_rank=1 << enc.component_bits()["fR"])

    monkeypatch.setattr(compress, "encode", oversized)
    record = compress_trial(F16, LookupInversion(), R16, PARAMS16)
    assert not record["encode_failed"]
    assert not record["length_identity_ok"]
    assert not record["roundtrip_exact"]


def test_length_bound_ok_is_an_identity_of_the_bit_accounting():
    """``logical_bits`` never exceeds ``length_bound_bits``, so
    ``length_bound_ok`` checks arithmetic, not a run.  The advice adds S to
    both sides and the ranks add to neither, so advice "" and zero ranks stand
    for every encoding of a given (N, |R|, |G|)."""
    excess = {}
    for n in (1 << k for k in range(1, 9)):  # N = 2, 4, ..., 256
        for r in range(n + 1):
            for g in range(r + 1):
                enc = compress.Encoding(num_elements=n, advice="", good_count=g, r_size=r,
                                        fR_rank=0, outer_rank=0, fG_rank=0, inner_rank=0)
                excess[n, r, g] = enc.logical_bits - compress.length_bound_bits(enc)
    assert len(excess) == 44_463
    assert max(excess.values()) == 0.0
    # the bound is met with equality only by the six encodings at N = 2
    assert [key for key, bits in excess.items() if bits == 0.0] == [
        (2, r, g) for r in range(3) for g in range(r + 1)]


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


class TestHybridLemmaAtItsTightest:
    """Every image y and every swap of two images of F16: 1,920 pairs per
    family, all of which hold.  A transcript moves only when it reads a
    swapped position, and then by sqrt(2) against a bound of at least
    2 sqrt(T), so its largest actual/bound is 1/sqrt(2T)."""

    @staticmethod
    def _largest_ratio(alg) -> float:
        f, ratios = F16.table, []
        for a, b in itertools.combinations(range(16), 2):
            g = f.copy()
            g[[a, b]] = g[[b, a]]
            for y in range(16):
                rep = verify_swapping(alg, F16, PermutationOracle(g), y)
                assert rep.holds, (a, b, y)
                ratios.append(rep.actual / rep.bound if rep.bound else 0.0)
        assert len(ratios) == 1920
        return max(ratios)

    @pytest.mark.parametrize("family", [LookupInversion(), HellmanInversion(2)],
                             ids=["lookup", "hellman-2"])
    def test_a_transcript_comes_to_one_over_root_2t(self, family):
        _, alg = compress.prepare(F16, family)
        expected = 1 / math.sqrt(2 * alg.num_queries)  # 0.70711 at T = 1, 0.28868 at T = 6
        assert abs(self._largest_ratio(alg) - expected) <= 1e-12

    def test_grover_comes_to_a_third_of_its_bound(self):
        assert abs(self._largest_ratio(grover_spec(16, 3)) - 0.3384482) <= 1e-7
