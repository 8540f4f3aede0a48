"""Codecs, sampling, good sets, encode/decode, counting arithmetic."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from advice_lab import compress as compress_mod
from advice_lab.adapters import GroverInversion, HellmanInversion, LookupInversion
from advice_lab.compress import (
    AmbiguousDecodeError,
    CompressionParams,
    CorruptEncodingError,
    DecodeFailure,
    Encoding,
    build_h,
    counting_check,
    decode,
    encode,
    encoding_from_json,
    encoding_to_json,
    good_set,
    inversion_set,
    length_bound_bits,
    rank_perm,
    rank_set,
    sample_R,
    unrank_perm,
    unrank_set,
)
from advice_lab.qsim import AlgorithmSpec, BasisLayout, PermutationOracle
from advice_lab.qsim import run as qrun
from advice_lab.util import ceil_log2, stream_rng


# ---------------------------------------------------------------------------
# Quadratic reference codecs: the direct definitions the array codecs must
# reproduce rank for rank.
# ---------------------------------------------------------------------------

def rank_set_reference(elements) -> int:
    return sum(math.comb(e, i + 1) for i, e in enumerate(sorted(int(e) for e in elements)))


def unrank_set_reference(rank: int, n: int, k: int) -> list:
    out = []
    c = n - 1
    for i in range(k, 0, -1):
        while math.comb(c, i) > rank:
            c -= 1
        out.append(c)
        rank -= math.comb(c, i)
        c -= 1
    return sorted(out)


def rank_perm_reference(perm) -> int:
    g = [int(v) for v in perm]
    m = len(g)
    rank = 0
    for i in range(m):
        smaller_later = sum(1 for j in range(i + 1, m) if g[j] < g[i])
        rank += smaller_later * math.factorial(m - 1 - i)
    return rank


def unrank_perm_reference(rank: int, m: int) -> list:
    remaining = list(range(m))
    out = []
    for i in range(m):
        digit, rank = divmod(rank, math.factorial(m - 1 - i))
        out.append(remaining.pop(digit))
    return out


# Sizes at the codec's block (256) and product-tree leaf (64) edges.
EDGE_SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def permutations(draw, max_m=600):
    m = draw(st.integers(0, max_m))
    return np.array(draw(st.permutations(range(m))), dtype=np.int64)


@st.composite
def perm_ranks(draw, max_m=600):
    m = draw(st.integers(0, max_m))
    return draw(st.integers(0, math.factorial(m) - 1)), m


@st.composite
def set_ranks(draw, max_n=600):
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, n))
    return draw(st.integers(0, math.comb(n, k) - 1)), n, k


class TestCodecsAgainstReference:
    @PROPERTY_SETTINGS
    @given(permutations())
    @example(np.arange(64)[::-1].copy())
    @example(np.arange(257))
    def test_rank_perm_matches_reference(self, perm):
        assert rank_perm(perm) == rank_perm_reference(perm)

    @PROPERTY_SETTINGS
    @given(perm_ranks())
    def test_unrank_perm_matches_reference(self, rank_m):
        rank, m = rank_m
        perm = unrank_perm(rank, m)
        assert perm.tolist() == unrank_perm_reference(rank, m)
        assert rank_perm(perm) == rank

    @pytest.mark.parametrize("m", EDGE_SIZES)
    def test_edge_sizes_match_reference(self, m):
        rng = np.random.default_rng(m)
        for perm in (rng.permutation(m), np.arange(m), np.arange(m)[::-1].copy()):
            rank = rank_perm(perm)
            assert rank == rank_perm_reference(perm)
            assert unrank_perm(rank, m).tolist() == perm.tolist()

    @PROPERTY_SETTINGS
    @given(set_ranks())
    def test_unrank_set_matches_reference(self, rank_n_k):
        rank, n, k = rank_n_k
        subset = unrank_set(rank, n, k)
        assert subset.tolist() == unrank_set_reference(rank, n, k)
        assert rank_set(subset) == rank_set_reference(subset) == rank

    @pytest.mark.parametrize("m", EDGE_SIZES)
    def test_perm_rank_out_of_range(self, m):
        for rank in (-1, math.factorial(m)):
            with pytest.raises(CorruptEncodingError, match="rank out of range"):
                unrank_perm(rank, m)
        assert len(unrank_perm(math.factorial(m) - 1, m)) == m

    def test_two_to_the_sixteen_roundtrip(self):
        perm = np.random.default_rng(16).permutation(1 << 16)
        assert np.array_equal(unrank_perm(rank_perm(perm), 1 << 16), perm)


class TestSubsetCodec:
    def test_first_subset_has_rank_zero(self):
        assert rank_set([0, 1]) == 0
        assert rank_set([]) == 0

    def test_full_set_rank_zero(self):
        assert rank_set(range(8)) == 0

    def test_all_twenty_subsets_are_a_bijection(self):
        ranks = sorted(rank_set(c) for c in itertools.combinations(range(6), 3))
        assert ranks == list(range(20))

    def test_exhaustive_roundtrip_small(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for combo in itertools.combinations(range(n), k):
                    r = rank_set(combo)
                    assert 0 <= r < math.comb(n, k)
                    assert tuple(unrank_set(r, n, k)) == combo

    def test_big_integer_ranks_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            subset = np.sort(rng.choice(64, size=17, replace=False))
            r = rank_set(subset)
            assert r < math.comb(64, 17)
            assert np.array_equal(unrank_set(r, 64, 17), subset)

    def test_rank_out_of_range(self):
        with pytest.raises(CorruptEncodingError):
            unrank_set(math.comb(6, 3), 6, 3)
        with pytest.raises(CorruptEncodingError):
            unrank_set(-1, 6, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            rank_set([1, 1, 2])

    @pytest.mark.parametrize("elements", [[0.5, 2.7], [1.0], np.array([0.0, 3.0]), ["1"]])
    def test_rejects_non_integers(self, elements):
        with pytest.raises(TypeError):
            rank_set(elements)

    @pytest.mark.parametrize("rank, n, k", [(1.5, 4, 2), (1, 4.0, 2), (1, 4, 2.0),
                                            (np.float64(1), 4, 2)])
    def test_unrank_rejects_non_integers(self, rank, n, k):
        # 1.5 used to unrank as [0, 2]
        with pytest.raises(TypeError):
            unrank_set(rank, n, k)


class TestPermutationCodec:
    def test_identity_rank_zero(self):
        assert rank_perm([0, 1, 2, 3]) == 0

    def test_reversal_is_last(self):
        assert rank_perm([4, 3, 2, 1, 0]) == math.factorial(5) - 1

    def test_all_of_s4_is_a_bijection(self):
        ranks = sorted(rank_perm(p) for p in itertools.permutations(range(4)))
        assert ranks == list(range(24))

    def test_full_s6_roundtrip(self):
        for perm in itertools.permutations(range(6)):
            assert tuple(unrank_perm(rank_perm(perm), 6)) == perm

    def test_random_eight_element_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            perm = rng.permutation(8)
            assert np.array_equal(unrank_perm(rank_perm(perm), 8), perm)

    def test_large_roundtrip(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(64)
        assert np.array_equal(unrank_perm(rank_perm(perm), 64), perm)

    def test_rank_out_of_range(self):
        with pytest.raises(CorruptEncodingError):
            unrank_perm(math.factorial(4), 4)

    @pytest.mark.parametrize("perm", [[0.0, 1.5], [0.0, 1.0], np.array([1.0, 0.0]), [0, None]])
    def test_rejects_non_integers(self, perm):
        with pytest.raises(TypeError):
            rank_perm(perm)

    @pytest.mark.parametrize("perm", [[0, 0], [1, 2], [-1, 0], [0, 1 << 70], np.array([0, 2])])
    def test_rejects_non_permutations(self, perm):
        with pytest.raises(ValueError, match="not a permutation|outside int64"):
            rank_perm(perm)


class TestParamsAndSampling:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionParams(delta=0.0, c=0.5)
        with pytest.raises(ValueError):
            CompressionParams(delta=0.5, c=1.0)

    def test_regime_flags(self):
        tuned = CompressionParams(delta=0.2, c=0.001)
        assert tuned.certainty_margin_ok          # sqrt(c) < 1/24
        assert not tuned.claim_positivity_ok      # delta far above c/20
        strict = CompressionParams(delta=1e-5, c=0.001)
        assert strict.asymptotic_regime_ok

    def test_certain_inclusion(self):
        assert list(sample_R(10, 1.0, 1, 0)) == list(range(10))

    def test_over_unit_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_R(10, 1.5, 1, 0)

    def test_zero_query_sampling_rejected(self):
        with pytest.raises(ValueError):
            sample_R(8, 0.5, 0, 0)

    def test_a_generator_is_drawn_from_in_place(self):
        rng = np.random.default_rng(5)
        first, second = sample_R(64, 0.5, 1, rng), sample_R(64, 0.5, 1, rng)
        assert np.array_equal(first, sample_R(64, 0.5, 1, 5))
        reference = np.random.default_rng(5)
        reference.random(64)
        assert np.array_equal(second, np.flatnonzero(reference.random(64) < 0.5))

    def test_binomial_statistics(self):
        n, p = 10_000, 0.1
        sizes = [len(sample_R(n, 0.1, 1, seed)) for seed in range(100)]
        mean = np.mean(sizes)
        se = math.sqrt(n * p * (1 - p)) / math.sqrt(100)
        assert abs(mean - n * p) <= 3 * se


def toy_constant_family(x0: int):
    """Outputs x0 regardless of oracle or input; zero queries."""

    class Family:
        name = f"const[{x0}]"

        def preprocess(self, f):
            return ""

        def spec(self, advice, n_elements):
            lay = BasisLayout(n_elements, n_elements, 1)

            def steps(_inp):
                def step(t, amps):
                    out = np.zeros_like(amps)
                    out[lay.index(x0, 0, 0)] = 1.0
                    return out
                return step

            return AlgorithmSpec(Family.name, lay, 0, steps)

    return Family()


def toy_uniform_family():
    """Outputs the uniform distribution; decoding can never be certain."""

    class Family:
        name = "uniform"

        def preprocess(self, f):
            return ""

        def spec(self, advice, n_elements):
            lay = BasisLayout(n_elements, n_elements, 1)

            def steps(_inp):
                def step(t, amps):
                    out = np.zeros_like(amps)
                    for i in range(n_elements):
                        out[lay.index(i, 0, 0)] = 1 / math.sqrt(n_elements)
                    return out
                return step

            return AlgorithmSpec(Family.name, lay, 0, steps)

    return Family()


class TestInversionAndGoodSets:
    def test_full_table_inverts_everything(self):
        f = PermutationOracle(np.random.default_rng(3).permutation(16))
        assert np.array_equal(inversion_set(f, HellmanInversion(s=1)), np.arange(16))

    def test_constant_output_inverts_one_point(self):
        f = PermutationOracle(np.random.default_rng(4).permutation(8))
        assert list(inversion_set(f, toy_constant_family(5))) == [5]

    def test_grover_inverts_everything_at_sixteen(self):
        f = PermutationOracle(np.random.default_rng(5).permutation(16))
        assert np.array_equal(inversion_set(f, GroverInversion()), np.arange(16))

    def test_empty_sample_gives_empty_good_set(self):
        f = PermutationOracle(np.random.default_rng(6).permutation(8))
        params = CompressionParams(delta=0.2, c=0.001)
        assert len(good_set(f, LookupInversion(), [], params)) == 0

    def test_lookup_never_strays_so_all_sampled_are_good(self):
        f = PermutationOracle(np.random.default_rng(7).permutation(16))
        params = CompressionParams(delta=0.2, c=0.001)
        R = [1, 4, 9, 12]
        assert list(good_set(f, LookupInversion(), R, params)) == R

    def test_good_set_deterministic(self):
        f = PermutationOracle(np.random.default_rng(8).permutation(16))
        params = CompressionParams(delta=0.3, c=0.01)
        family = HellmanInversion(s=2)
        R = sample_R(16, 0.3, 1, 123)
        a = good_set(f, family, R, params)
        b = good_set(f, family, R, params)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", [LookupInversion(), HellmanInversion(2), GroverInversion()],
                             ids=lambda family: family.name)
    @pytest.mark.parametrize("R", [[2, 5, 11], [0, 3, 6, 9, 12, 15]])
    def test_good_set_lies_in_inverted_sample(self, family, R):
        # good_set and inversion_set share one success predicate
        f = PermutationOracle(np.random.default_rng(12).permutation(16))
        good = good_set(f, family, R, CompressionParams(delta=0.2, c=0.9))
        assert set(good) <= set(inversion_set(f, family)) & set(R)

    def test_grover_strays_everywhere_with_tiny_c(self):
        # amplification spreads query mass, so no sampled element stays under
        # c/T when c is small and the sample has company
        f = PermutationOracle(np.random.default_rng(9).permutation(16))
        params = CompressionParams(delta=0.2, c=0.001)
        assert len(good_set(f, GroverInversion(), [2, 5, 11], params)) == 0


class TestBuildH:
    def test_empty_sample_reproduces_f(self):
        f = np.random.default_rng(10).permutation(8)
        h = build_h(f, [], 3)
        assert np.array_equal(h.table, f)

    def test_full_sample_is_constant(self):
        h = build_h(np.full(8, -1), list(range(8)), 5)
        assert np.array_equal(h.table, np.full(8, 5))

    def test_agrees_with_f_at_the_preimage(self):
        f = np.random.default_rng(11).permutation(4)
        known = f.copy()
        known[2] = -1
        h = build_h(known, [2], int(f[2]))
        assert np.array_equal(h.table, f)
        assert known[2] == -1  # the caller's array is left as it was

    def test_coverage_mismatch(self):
        # known must be -1 exactly on R: a value on R, a -1 off R and an
        # element of R outside [0, N) are each rejected
        for known, R in (([1, 0, 3, 2], [2]), ([1, -1, -1, 2], [2]), ([1, 0, -1, 2], [2, 4])):
            with pytest.raises(ValueError):
                build_h(np.array(known), R, 0)


class TestSampleValidation:
    """encode, decode and good_set read R through one check."""

    F = PermutationOracle(np.random.default_rng(0).permutation(16))
    FAMILY = LookupInversion()
    PARAMS = CompressionParams(delta=0.2, c=0.001)

    def _call(self, which, R):
        if which == "encode":
            return encode(self.F, self.FAMILY, R, self.PARAMS)
        if which == "good_set":
            return good_set(self.F, self.FAMILY, R, self.PARAMS)
        enc = encode(self.F, self.FAMILY, [1, 6, 11], self.PARAMS)
        return decode(enc, R, self.FAMILY)

    @pytest.mark.parametrize("which", ["encode", "decode", "good_set"])
    @pytest.mark.parametrize("R, match", [
        ([-1, 6, 11], "outside"),
        ([1, 6, 99], "outside"),
        ([1, 6, 6], "repeats"),
    ], ids=["negative", "past-N", "repeat"])
    def test_bad_element_rejected(self, which, R, match):
        with pytest.raises(ValueError, match=match):
            self._call(which, R)

    @pytest.mark.parametrize("which", ["encode", "decode", "good_set"])
    def test_non_integer_rejected(self, which):
        with pytest.raises(TypeError):
            self._call(which, [1.5, 6, 11])

    @pytest.mark.parametrize("which", ["encode", "decode", "good_set"])
    def test_unsorted_numpy_sample_accepted(self, which):
        assert self._call(which, np.array([11, 1, 6])) is not None


class TestEncodeDecode:
    def setup_method(self):
        self.params = CompressionParams(delta=0.2, c=0.001)

    def test_identity_instance_by_hand(self):
        # identity on [4], lookup, R = {0,1}: each run queries only its own
        # element, so everything sampled is good and every rank collapses to zero
        f = PermutationOracle(np.arange(4))
        family = LookupInversion()
        enc = encode(f, family, [0, 1], self.params)
        assert enc is not None
        assert enc.good_count == 2 and enc.r_size == 2
        assert (enc.fR_rank, enc.outer_rank, enc.fG_rank, enc.inner_rank) == (0, 0, 0, 0)
        table, finals = decode(enc, [0, 1], family)
        assert np.array_equal(table, np.arange(4))
        assert sorted(finals) == [0, 1]

    def test_empty_sample_fails(self):
        f = PermutationOracle(np.arange(4))
        assert encode(f, LookupInversion(), [], self.params) is None

    def test_encode_fails_exactly_when_no_element_is_good(self):
        family, params = HellmanInversion(2), CompressionParams(delta=0.9, c=0.001)
        outcomes = set()
        for t in range(40):
            rng = stream_rng(31, t)
            f = PermutationOracle(rng.permutation(16))
            R = rng.choice(16, size=int(rng.integers(1, 4)), replace=False)
            good = good_set(f, family, R, params)
            enc = encode(f, family, R, params)
            assert (enc is None) == (len(good) == 0)
            if enc is not None:
                assert enc.good_count == len(good)
            outcomes.add(enc is None)
        assert outcomes == {True, False}

    def test_length_identity_on_every_success(self):
        rng = np.random.default_rng(12)
        f = PermutationOracle(rng.permutation(16))
        family = LookupInversion()
        for t in range(30):
            R = sample_R(16, 0.3, 1, stream_rng(99, t))
            enc = encode(f, family, R, self.params)
            if enc is None:
                continue
            parts = enc.component_bits()
            assert enc.logical_bits == sum(parts.values())
            exact = (math.comb(16, enc.r_size)
                     * math.factorial(16 - enc.r_size)
                     * math.comb(enc.r_size, enc.good_count)
                     * math.factorial(enc.r_size - enc.good_count))
            # the unceilinged information content telescopes to N!/|G|!
            assert exact == math.factorial(16) // math.factorial(enc.good_count)
            assert enc.logical_bits <= length_bound_bits(enc) + 1e-9

    def test_roundtrip_frequency(self):
        f = PermutationOracle(np.random.default_rng(13).permutation(16))
        family = LookupInversion()
        exact = 0
        for t in range(40):
            R = sample_R(16, 0.2, 1, stream_rng(7, 1, t))
            enc = encode(f, family, R, self.params)
            if enc is None:
                continue
            assert np.array_equal(decode(enc, R, family)[0], f.table)
            exact += 1
        assert exact >= 32  # 0.8 of the draws

    def test_hellman_family_nontrivial_leftover(self):
        # with a walking inverter some sampled elements stray into R, so the
        # leftover mapping and its rank actually carry information
        rng = np.random.default_rng(14)
        params = CompressionParams(delta=0.9, c=0.01)
        family = HellmanInversion(s=2)
        saw_leftover = saw_success = 0
        for t in range(60):
            f = PermutationOracle(rng.permutation(16))
            R = sample_R(16, 0.9, 2, stream_rng(15, t))
            enc = encode(f, family, R, params)
            if enc is None:
                continue
            saw_success += 1
            if enc.good_count < enc.r_size:
                saw_leftover += 1
            assert np.array_equal(decode(enc, R, family)[0], f.table)
        assert saw_success > 10
        assert saw_leftover > 0

    def test_decode_rejects_wrong_sample_size(self):
        f = PermutationOracle(np.arange(8))
        family = LookupInversion()
        enc = encode(f, family, [1, 2], self.params)
        with pytest.raises(CorruptEncodingError):
            decode(enc, [1, 2, 3], family)

    def test_decode_rejects_corrupt_rank(self):
        f = PermutationOracle(np.arange(8))
        family = LookupInversion()
        enc = encode(f, family, [1, 2], self.params)
        bad = Encoding(enc.num_elements, enc.advice, enc.good_count, enc.r_size,
                       math.comb(8, 2), enc.outer_rank, enc.fG_rank, enc.inner_rank)
        with pytest.raises(CorruptEncodingError):
            decode(bad, [1, 2], family)

    def test_ambiguous_output_rejected(self):
        f = PermutationOracle(np.arange(8))
        helper = LookupInversion()
        enc = encode(f, helper, [1, 2], self.params)
        with pytest.raises(AmbiguousDecodeError) as failure:
            decode(enc, [1, 2], toy_uniform_family())
        # every stored image was run before the first one was checked
        assert sorted(failure.value.finals) == [1, 2]

    def test_wrong_preimage_rejected(self):
        # a constant algorithm lands outside R, which decode must refuse
        f = PermutationOracle(np.arange(8))
        helper = LookupInversion()
        enc = encode(f, helper, [1, 2], self.params)
        with pytest.raises(DecodeFailure) as failure:
            decode(enc, [1, 2], toy_constant_family(6))
        assert sorted(failure.value.finals) == [1, 2]

    def test_corrupt_inner_rank_raises_before_any_run(self, monkeypatch):
        f = PermutationOracle(np.arange(8))
        family = LookupInversion()
        enc = encode(f, family, [1, 2], self.params)
        assert enc.good_count == 2  # so decode has images to run
        bad = dataclasses.replace(enc, inner_rank=math.factorial(enc.r_size - enc.good_count))

        def no_run(*_args):
            raise AssertionError("decode ran the algorithm before unranking")

        monkeypatch.setattr(compress_mod, "run", no_run)
        with pytest.raises(CorruptEncodingError):
            decode(bad, [1, 2], family)

    @pytest.mark.parametrize("family, corrupt, message", [
        (HellmanInversion(2), lambda advice: flip_bit(advice, 0), "positive pair count"),
        (LookupInversion(), lambda advice: advice[:-1], "does not match the domain"),
    ], ids=["hellman", "lookup"])
    def test_unparseable_advice_raises_corrupt_encoding_before_any_run(self, monkeypatch, family,
                                                                       corrupt, message):
        f = PermutationOracle(np.random.default_rng(3).permutation(64))
        R = sample_R(64, 0.9, 6, 0)
        assert R.tolist() == [3, 11]
        enc = encode(f, family, R, CompressionParams(0.9, 0.001))
        bad = dataclasses.replace(enc, advice=corrupt(enc.advice))
        with pytest.raises(ValueError, match=message):
            family.spec(bad.advice, 64)

        def no_run(*_args):
            raise AssertionError("decode ran the algorithm before parsing the advice")

        monkeypatch.setattr(compress_mod, "run", no_run)
        with pytest.raises(CorruptEncodingError, match=message):
            decode(bad, R, family)

    def test_cut_advice_raises_corrupt_encoding_before_any_run(self, monkeypatch):
        # some prefixes of this advice end between two cycles' pairs; they fail too
        f = PermutationOracle(np.random.default_rng(28).permutation(16))
        family = HellmanInversion(2)
        R = sample_R(16, 0.9, 3, 28)
        assert R.tolist() == [3, 4, 13]
        enc = encode(f, family, R, CompressionParams(0.9, 0.001))

        def no_run(*_args):
            raise AssertionError("decode ran the algorithm before parsing the advice")

        monkeypatch.setattr(compress_mod, "run", no_run)
        for i in range(enc.advice_bits):
            with pytest.raises(CorruptEncodingError, match="positive pair count"):
                decode(dataclasses.replace(enc, advice=enc.advice[:i]), R, family)

    @pytest.mark.parametrize("family", [LookupInversion(), HellmanInversion(s=1),
                                        HellmanInversion(s=2), GroverInversion()],
                             ids=lambda family: family.name)
    def test_finals_are_the_runs_against_the_hybrid_oracle(self, family):
        # decode's finals, read from its return value or from the failure it
        # raises, equal fresh runs against build_h(f off R, R, y)
        f = PermutationOracle(np.random.default_rng(21).permutation(16))
        params = CompressionParams(delta=0.5, c=0.9)
        alg = family.spec(family.preprocess(f), 16)
        encoded = 0
        for R in ([3], [0, 9], [2, 5, 11], [1, 4, 7, 13], [6, 8, 10, 12, 14]):
            enc = encode(f, family, R, params)
            if enc is None:
                continue
            encoded += 1
            try:
                finals = decode(enc, R, family)[1]
            except DecodeFailure as failure:
                finals = failure.finals
            known = f.table.copy()
            known[R] = -1
            assert sorted(finals) == sorted(int(f.table[x]) for x in enc.runs)
            for y, final in finals.items():
                expected, _ = qrun(alg, build_h(known, R, y), y)
                assert np.array_equal(final.amplitudes, expected.amplitudes)
        assert encoded >= 2

    def test_h_closeness_for_good_elements(self):
        f = PermutationOracle(np.random.default_rng(16).permutation(16))
        family = LookupInversion()
        advice = family.preprocess(f)
        alg = family.spec(advice, 16)
        R = [2, 6, 7, 13]
        good = good_set(f, family, R, self.params)
        known = f.table.copy()
        known[R] = -1
        for x in good:
            y = int(f.table[x])
            h = build_h(known, R, y)
            final_f, _ = qrun(alg, f, y)
            final_h, _ = qrun(alg, h, y)
            dist = float(np.linalg.norm(final_f.amplitudes - final_h.amplitudes))
            assert dist <= math.sqrt(self.params.c) + 1e-9


class TestEventIndependence:
    def test_sampled_membership_and_stray_mass_are_independent(self):
        # event A: x lands in the sample; event B: the run's stray mass on the
        # rest of the sample stays under c/T.  A reads x's coin, B reads the
        # others, so their joint frequency matches the product of marginals.
        n, x = 8, 3
        f = PermutationOracle(np.random.default_rng(17).permutation(n))
        family = HellmanInversion(s=2)
        alg = family.spec(family.preprocess(f), n)
        _, trace = qrun(alg, f, int(f.table[x]))
        threshold = 0.01 / alg.num_queries
        draws = 10_000
        p = 0.35
        a = np.zeros(draws, dtype=bool)
        b = np.zeros(draws, dtype=bool)
        for t in range(draws):
            rng = stream_rng(18, t)
            R = np.flatnonzero(rng.random(n) < p)
            a[t] = x in R
            stray = trace.totals[R].sum() - (trace.totals[x] if a[t] else 0.0)
            b[t] = stray <= threshold
        pa, pb, pab = a.mean(), b.mean(), (a & b).mean()
        se = math.sqrt(pa * pb * (1 - pa) * (1 - pb) / draws)
        assert abs(pab - pa * pb) <= 3 * se
        assert 0.05 < pb < 0.95  # the event is informative for this instance


class TestCounting:
    def test_equality_holds_at_c_one(self):
        rep = counting_check(10.0, 10.0, c=1.0)
        assert rep.holds and abs(rep.slack_bits) < 1e-12

    def test_one_bit_short_fails(self):
        rep = counting_check(10.0, 10.0 + math.log2(0.8) - 1.0, c=0.8)
        assert not rep.holds

    def test_desk_instance_slack(self):
        # measured instance arithmetic: |X| = 0.8-fraction decodable space
        n = 16
        x_bits = math.log2(math.factorial(n))
        enc_bits = x_bits + 5.0
        rep = counting_check(x_bits, enc_bits, c=0.8)
        assert rep.holds
        assert rep.slack_bits == pytest.approx(5.0 - math.log2(0.8))

    @pytest.mark.parametrize("c", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_a_success_probability_outside_the_unit_interval(self, c):
        with pytest.raises(ValueError, match=r"c=.* outside \(0, 1\]"):
            counting_check(10.0, 10.0, c=c)


class TestComponentBits:
    def _encoding(self):
        return Encoding(num_elements=64, advice="0110", good_count=2, r_size=5,
                        fR_rank=0, outer_rank=0, fG_rank=0, inner_rank=0)

    def test_factorials_computed_once_per_encoding(self, monkeypatch):
        enc = self._encoding()
        calls = []
        factorial = math.factorial
        monkeypatch.setattr(compress_mod.math, "factorial", lambda k: calls.append(k) or factorial(k))
        first = enc.component_bits()
        for _ in range(4):
            assert enc.component_bits() == first
            assert enc.logical_bits == sum(first.values())
        assert sorted(calls) == [3, 59]  # (|R| - |G|)! and (N - |R|)!, once each

    def test_returns_a_fresh_dict(self):
        enc = self._encoding()
        enc.component_bits()["outer"] = -1
        assert enc.component_bits()["outer"] == ceil_log2(math.factorial(59))
        assert enc == self._encoding()


def flip_bit(advice: str, i: int) -> str:
    return advice[:i] + "10"[int(advice[i])] + advice[i + 1:]


@st.composite
def advice_mutations(draw):
    """An encoding at N=16 and R, and the same encoding with one advice bit
    flipped or the advice cut short, passed through the JSON envelope."""
    family = draw(st.sampled_from([HellmanInversion(1), HellmanInversion(2), LookupInversion()]))
    seed = draw(st.integers(0, 2 ** 16))
    f = PermutationOracle(np.random.default_rng(seed).permutation(16))
    R = [int(x) for x in draw(st.permutations(range(16)))[:draw(st.integers(1, 4))]]
    enc = encode(f, family, R, CompressionParams(0.9, 0.001))
    assume(enc is not None)
    i = draw(st.integers(0, enc.advice_bits - 1))
    advice = flip_bit(enc.advice, i) if draw(st.booleans()) else enc.advice[:i]
    payload = encoding_to_json(dataclasses.replace(enc, advice=advice))
    return f, family, R, encoding_from_json(payload, 16)


class TestCorruptAdvice:
    @PROPERTY_SETTINGS
    @given(advice_mutations())
    def test_mutated_advice_decodes_to_a_permutation_or_raises_a_codec_error(self, case):
        # decode returns only a table that re-derives the advice it read, so a
        # mutation never decodes to f; any other error would escape.
        f, family, R, enc = case
        try:
            table, _ = decode(enc, R, family)
        except (CorruptEncodingError, DecodeFailure):
            return
        assert np.array_equal(np.sort(table), np.arange(16))
        assert family.preprocess(PermutationOracle(table)) == enc.advice
        assert not np.array_equal(table, f.table)

    def test_flipped_anchor_bit_never_decodes_to_a_wrong_permutation(self):
        f = PermutationOracle(np.random.default_rng(5).permutation(16))
        family = HellmanInversion(2)
        R = sample_R(16, 0.9, 3, 5)
        enc = encode(f, family, R, CompressionParams(0.9, 0.001))
        try:
            table, _ = decode(dataclasses.replace(enc, advice=flip_bit(enc.advice, 7)), R, family)
        except (CorruptEncodingError, DecodeFailure):
            return
        assert np.array_equal(table, f.table)


class TestEnvelope:
    def _encoding(self, advice_bits=64):
        f = PermutationOracle(np.random.default_rng(19).permutation(16))
        family = LookupInversion()
        enc = encode(f, family, [3, 5, 8], CompressionParams(delta=0.2, c=0.001))
        assert enc is not None
        return dataclasses.replace(enc, advice=enc.advice[:advice_bits])

    def test_roundtrip_bit_exact(self):
        enc = self._encoding()
        payload = encoding_to_json(enc)
        clone = encoding_from_json(payload, 16)
        assert clone == enc
        assert encoding_to_json(clone) == payload

    def test_tampered_length_rejected(self):
        import json
        enc = self._encoding()
        doc = json.loads(encoding_to_json(enc))
        doc["logical_bits"] += 1
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(json.dumps(doc), 16)

    @pytest.mark.parametrize("path", [("S",), ("good_count",), ("r_size",), ("advice",),
                                      ("logical_bits",), ("ranks",), ("ranks", "fG")])
    def test_missing_field_rejected(self, path):
        import json
        doc = json.loads(encoding_to_json(self._encoding()))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        del owner[path[-1]]
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(json.dumps(doc), 16)

    @pytest.mark.parametrize("key, value", [("S", "64"), ("S", 64.0), ("good_count", 1.5),
                                            ("r_size", None), ("good_count", True)])
    def test_non_integer_count_rejected(self, key, value):
        import json
        doc = json.loads(encoding_to_json(self._encoding()))
        doc[key] = value
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(json.dumps(doc), 16)

    def test_bad_blob_rejected(self):
        import json
        enc = self._encoding()
        doc = json.loads(encoding_to_json(enc))
        doc["ranks"]["fR"] = "AAAA"
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(json.dumps(doc), 16)

    @pytest.mark.parametrize("path, value", [
        (("ranks", "fR"), 5),          # rank blob that is not a string
        (("ranks", "outer"), "abc"),   # base64 with bad padding
        (("ranks", "inner"), "AA!A"),  # character outside the base64 alphabet
        (("ranks", "fG"), "\u00e9AAA"),  # text that is not ASCII
        (("advice",), 7),              # advice that is not a string
        (("advice",), "abc"),          # base64 with bad padding
        (("advice",), "AA!A"),
        (("S",), 72),                  # more advice bits than bytes stored
        (("S",), -1),
        (("logical_bits",), 116.0),     # the stored length, but not an integer
        (("advice",), "7auC+QbHMUU="),  # stored advice with the padding bit past S set
    ])
    def test_mutated_field_rejected(self, path, value):
        # 63 advice bits leave one padding bit at the end of the last byte
        doc = json.loads(encoding_to_json(self._encoding(63)))
        assert doc["S"] == 63 and doc["logical_bits"] == 116 and doc["advice"] == "7auC+QbHMUQ="
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(json.dumps(doc), 16)

    @pytest.mark.parametrize("payload", ["", "{not json", "[1, 2]", "5", '"envelope"'])
    def test_non_envelope_text_rejected(self, payload):
        with pytest.raises(CorruptEncodingError):
            encoding_from_json(payload, 16)
