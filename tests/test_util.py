"""Shared helpers: bit packing and bit strings round-trip or fail loudly, and
each input is read by one checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advice_lab.adapters import LookupInversion
from advice_lab.advice import hellman_build, hellman_invert, measure_tradeoff
from advice_lab.compress import CompressionParams, build_h, good_set, rank_perm, sample_R
from advice_lab.hybrid import ParityAdviceScheme, collision_in_window
from advice_lab.qsim import BasisLayout, DenseTrace, PermutationOracle, Transcript

from advice_lab.util import (
    IndexSet,
    bit_array,
    bitstring,
    ceil_log2,
    int_array,
    int_to_bits,
    pack_fields,
    parse_bitstring,
    read_fields,
    read_index,
    read_index_set,
    read_permutation,
    seeded_trials,
    stream_rng,
)


class TestIntArray:
    @pytest.mark.parametrize("values", [[3, 1, 2], (3, 1, 2), np.array([3, 1, 2], dtype=np.uint8),
                                        np.array([3, 1, 2], dtype=np.int32)])
    def test_integers_pass_as_int64(self, values):
        out = int_array(values)
        assert out.dtype == np.int64 and out.tolist() == [3, 1, 2]

    @pytest.mark.parametrize("values", [[1.0, 2.0], np.array([0.5, 1.0]), ["1"], [0, None],
                                        np.array([True, False]), np.zeros((2, 2), dtype=int)])
    def test_non_integers_raise_type_error(self, values):
        with pytest.raises(TypeError):
            int_array(values)

    @pytest.mark.parametrize("values", [[1 << 63], np.array([1 << 63], dtype=np.uint64)])
    def test_values_outside_int64_raise_value_error(self, values):
        with pytest.raises(ValueError, match="outside int64"):
            int_array(values)


class TestBitArray:
    @pytest.mark.parametrize("values", [[1, 0, 1], (1, 0, 1), [True, False, True],
                                        np.array([True, False, True]),
                                        np.array([1, 0, 1], dtype=np.uint8)])
    def test_bits_and_bools_pass_as_int64(self, values):
        out = bit_array(values)
        assert out.dtype == np.int64 and out.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("values", [[0, 2], [-1, 1], [1, 256], np.array([3], dtype=np.uint8),
                                        [1 << 63]])
    def test_non_bits_raise_value_error(self, values):
        with pytest.raises(ValueError):
            bit_array(values)

    @pytest.mark.parametrize("values", [[0.0, 1.0], np.array([0.0, 1.0]), ["1"],
                                        np.zeros((2, 2), dtype=int)])
    def test_non_integers_raise_type_error(self, values):
        with pytest.raises(TypeError):
            bit_array(values)


class TestReadIndex:
    def test_reads_integers_in_range(self):
        assert [read_index(v, 4) for v in (0, np.int64(3))] == [0, 3]

    @pytest.mark.parametrize("value, error", [(-1, ValueError), (4, ValueError), (2.0, TypeError),
                                              (np.float64(1), TypeError)])
    def test_rejects_other_values(self, value, error):
        with pytest.raises(error):
            read_index(value, 4)


class TestReadIndexSet:
    @pytest.mark.parametrize("values", [[3, 0, 2], (3, 0, 2), np.array([3, 0, 2]),
                                        np.array([3, 0, 2], dtype=np.uint8), {0, 2, 3}],
                             ids=["list", "tuple", "int64", "uint8", "set"])
    def test_reads_a_sorted_list_of_ints(self, values):
        out = read_index_set(values, 4).members
        assert out == (0, 2, 3) and all(type(v) is int for v in out)

    def test_empty_set(self):
        assert (read_index_set([], 4).members
                == read_index_set(np.zeros(0, dtype=np.int64), 4).members == ())

    def test_wider_than_int64(self):
        wide = [(1 << 100) + 1, 1 << 100, 3]
        assert read_index_set(wide, 1 << 101).members == tuple(sorted(wide))

    def test_a_read_set_passes_through(self):
        read = read_index_set([3, 0, 2], 4)
        assert read_index_set(read, 4) is read
        assert read.lookup == {0, 2, 3}
        assert read.without(2) == read_index_set([0, 3], 4) and read.without(2).lookup == {0, 3}

    def test_a_set_read_over_another_n_is_read_again(self):
        assert read_index_set(read_index_set([3, 0], 8), 4) == read_index_set([0, 3], 4)

    @pytest.mark.parametrize("members, error", [((9, 9), ValueError), ((2, 1), ValueError),
                                                ((1, 1), ValueError), ((-1, 2), ValueError),
                                                ((0, 4), ValueError), ((1.5,), TypeError),
                                                ((np.True_,), TypeError)],
                             ids=["repeat-past-n", "unsorted", "repeat", "negative", "past-n",
                                  "float", "numpy-bool"])
    def test_a_set_built_by_hand_checks_itself(self, members, error):
        with pytest.raises(error):
            IndexSet(4, members)

    @pytest.mark.parametrize("values", [[1.0, 2.0], np.array([0.5]), ["1"], [0, None],
                                        np.array([True, False]), np.zeros((2, 2), dtype=int)],
                             ids=["floats", "float-array", "string", "none", "bool-array", "2-d"])
    def test_non_integers_raise_type_error(self, values):
        with pytest.raises(TypeError):
            read_index_set(values, 4)

    @pytest.mark.parametrize("values, message", [([0, 4], "outside"), ([-1, 2], "outside"),
                                                 (np.array([2, 1, 2]), "repeats")],
                             ids=["past-n", "negative", "repeat"])
    def test_bad_sets_raise_value_error(self, values, message):
        with pytest.raises(ValueError, match=message):
            read_index_set(values, 4)


class TestReadPermutation:
    @pytest.mark.parametrize("values", [[2, 0, 1], np.array([2, 0, 1], dtype=np.uint8), []])
    def test_reads_a_permutation_as_int64(self, values):
        out = read_permutation(values)
        assert out.dtype == np.int64 and out.tolist() == list(values)

    @pytest.mark.parametrize("values, error", [([0, 1.0], TypeError), ([1, 1], ValueError),
                                               ([-1, 0], ValueError), ([0, 2], ValueError)])
    def test_rejects_other_values(self, values, error):
        with pytest.raises(error):
            read_permutation(values)


# Every site that takes an index set, an index, an integer table or a
# permutation, each with one bad argument per way to be bad.  Index sets are
# over N = 4; the site raises its reader's error, never a truncated answer.
BAD_INDEX_SETS = {"float": ([0, 1.5], TypeError), "negative": ([0, -1], ValueError),
                  "past-n": ([0, 4], ValueError), "repeat": ([0, 1, 1], ValueError),
                  "read-over-larger-n": (read_index_set([0, 4], 8), ValueError)}
INDEX_SET_SITES = {
    "transcript-mass_on": lambda v: Transcript(4, [1, 2]).mass_on(v),
    "dense-mass_on": lambda v: DenseTrace(2, [0.0, 1.0, 1.0, 0.0]).mass_on(v),
    "parity-window": lambda v: ParityAdviceScheme(2).partition(4, "01").collision(v),
    "collision-window": lambda v: collision_in_window(range(16), v, 4),
}
READER_CASES = {
    **{f"{site}-{kind}": (lambda call=call, v=v: call(v), error)
       for site, call in INDEX_SET_SITES.items() for kind, (v, error) in BAD_INDEX_SETS.items()},
    "build_h-known-float": (lambda: build_h([-1, 1.7, 2, 3], [0], 1), TypeError),
    "build_h-known-negative": (lambda: build_h([-1, -2, 2, 3], [0], 1), ValueError),
    "build_h-known-past-n": (lambda: build_h([-1, 4, 2, 3], [0], 1), ValueError),
    "build_h-y-float": (lambda: build_h([-1, 1, 2, 3], [0], 2.7), TypeError),
    "build_h-y-negative": (lambda: build_h([-1, 1, 2, 3], [0], -1), ValueError),
    "build_h-y-past-n": (lambda: build_h([-1, 1, 2, 3], [0], 4), ValueError),
    "pack_fields-width-float": (lambda: pack_fields([3], 2.5), TypeError),
    "pack_fields-width-negative": (lambda: pack_fields([3], -1), ValueError),
    "pack_fields-width-past-63": (lambda: pack_fields([3], 64), ValueError),
    "read_fields-partial-field": (lambda: read_fields("0110", 3), ValueError),
    "read_fields-bad-character": (lambda: read_fields("012", 3), ValueError),
    "read_fields-width-0": (lambda: read_fields("", 0), ValueError),
    "read_fields-width-64": (lambda: read_fields("0" * 64, 64), ValueError),
    "rank_perm-float": (lambda: rank_perm([0, 1.5]), TypeError),
    "rank_perm-negative": (lambda: rank_perm([-1, 0]), ValueError),
    "rank_perm-past-m": (lambda: rank_perm([0, 2]), ValueError),
    "rank_perm-repeat": (lambda: rank_perm([1, 1]), ValueError),
    "permutation-oracle-float": (lambda: PermutationOracle([0, 1.5]), TypeError),
    "permutation-oracle-negative": (lambda: PermutationOracle([-1, 0]), ValueError),
    "permutation-oracle-past-n": (lambda: PermutationOracle([0, 2]), ValueError),
    "permutation-oracle-repeat": (lambda: PermutationOracle([1, 1]), ValueError),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_every_site_raises_its_readers_error(case):
    call, error = READER_CASES[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("indices", [[], [2], (0, 3), np.array([3, 1]), {1, 2},
                                     read_index_set([2, 1], 4),
                                     *(v for v, _ in BAD_INDEX_SETS.values())],
                         ids=["empty", "one", "tuple", "array", "set", "index-set",
                              *BAD_INDEX_SETS])
def test_both_query_records_read_one_index_set(indices):
    """A transcript and the dense trace of its totals give the same mass, or
    the same error, for every index set."""
    transcript = Transcript(4, [1, 2, 2])
    outcomes = []
    for trace in (transcript, DenseTrace(3, transcript.totals)):
        try:
            outcomes.append(trace.mass_on(indices))
        except (TypeError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_a_read_set_weighs_what_its_raw_list_weighs():
    transcript = Transcript(4, [1, 2, 2])
    for trace in (transcript, DenseTrace(3, transcript.totals)):
        assert trace.mass_on(read_index_set([2, 1], 4)) == trace.mass_on([2, 1]) == 3.0


class TestIntToBits:
    def test_round_trips_every_value_that_fits(self):
        for n in range(5):
            for value in range(1 << n):
                bits = int_to_bits(value, n)
                assert sum(int(b) << i for i, b in enumerate(bits)) == value

    @pytest.mark.parametrize("value, n", [(4, 2), (1, 0), (-1, 8), (1 << 16, 16), (1 << 80, 80)])
    def test_rejects_values_that_do_not_fit(self, value, n):
        with pytest.raises(ValueError):
            int_to_bits(value, n)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4096])
    def test_exact_past_int64(self, n):
        rng = np.random.default_rng(n)
        for value in {0, (1 << n) - 1, int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n)}:
            out = int_to_bits(value, n)
            assert out.dtype == np.int64
            assert out.tolist() == [(value >> i) & 1 for i in range(n)]

    def test_high_bit_past_int64(self):
        assert np.flatnonzero(int_to_bits(1 << 70, 80)).tolist() == [70]


class TestParseBitstring:
    def test_parses_zeros_and_ones(self):
        assert parse_bitstring("0110").tolist() == [0, 1, 1, 0]
        assert parse_bitstring("").tolist() == []

    @pytest.mark.parametrize("text", ["0a1x", "01 ", "2", "0\u00e91"])
    def test_rejects_other_characters(self, text):
        with pytest.raises(ValueError):
            parse_bitstring(text)


class TestPackFields:
    def test_matches_per_field_join(self):
        rng = np.random.default_rng(3)
        widths = rng.integers(0, 20, size=200)
        values = [int(rng.integers(1 << w)) for w in widths]
        reference = "".join(bitstring(int_to_bits(v, int(w))) for v, w in zip(values, widths))
        assert "".join(pack_fields([v], w) for v, w in zip(values, widths)) == reference
        assert pack_fields(values[:3], 20) == "".join(bitstring(int_to_bits(v, 20)) for v in values[:3])

    def test_empty_and_zero_width(self):
        assert pack_fields([], 5) == ""
        assert pack_fields([0, 0], 0) == ""
        assert pack_fields([5], 3) == "101"

    @pytest.mark.parametrize("values, width", [([4], 2), ([1], 0), ([-1], 8), ([8], 3),
                                               ([0], 64), ([0], -1), ([1 << 70], 63)])
    def test_rejects_values_that_do_not_fit(self, values, width):
        with pytest.raises(ValueError):
            pack_fields(values, width)


class TestReadFields:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 63).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=8))))
    def test_inverts_pack_fields(self, width_values):
        width, values = width_values
        out = read_fields(pack_fields(values, width), width)
        assert out == values and all(type(v) is int for v in out)


class TestCeilLog2:
    def test_non_integer_raises_type_error(self):
        with pytest.raises(TypeError):
            ceil_log2(1.5)


class TestBitstring:
    def test_nonzero_reads_as_one(self):
        assert bitstring([0, 1, 2, 0]) == "0110"
        assert bitstring(np.array([True, False])) == "10"
        assert bitstring([]) == ""


def _hellman_size_mismatch():
    """A table for a permutation of 16, walked against a permutation of 32."""
    rng = np.random.default_rng(0)
    table = hellman_build(rng.permutation(16), 2)
    return hellman_invert(2, table, rng.permutation(32))


# Inputs that two copies of one check used to judge differently: each call
# list must raise one error, with one message.
DRIFT_CASES = {
    "bool-index-set": ([
        lambda: collision_in_window(np.array([True, False]), [0], 2),
        lambda: good_set(PermutationOracle(np.arange(4)), LookupInversion(), np.array([True]),
                         CompressionParams(0.2, 0.001)),
    ], TypeError),
    "hellman-build-one-element": ([lambda: hellman_build([0], 1)], ValueError),
    "tradeoff-one-element": ([lambda: measure_tradeoff([0], 1)], ValueError),
    "layout-float-size": ([lambda: BasisLayout(2.5, 2)], TypeError),
    "sample-float-query-count": ([lambda: sample_R(16, 0.2, 2.5, 1)], TypeError),
    "hellman-invert-size-mismatch": ([_hellman_size_mismatch], ValueError),
}


@pytest.mark.parametrize("case", sorted(DRIFT_CASES))
def test_one_reader_per_decision(case):
    calls, error = DRIFT_CASES[case]
    messages = set()
    for call in calls:
        with pytest.raises(error) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_seeded_trials_gives_trial_t_the_stream_prefix_then_t():
    def draw(t, rng):
        return t, int(rng.integers(2 ** 62))

    for prefix in ((), (1,), (8, 3)):
        expected = [(t, int(stream_rng(11, *prefix, t).integers(2 ** 62))) for t in range(4)]
        assert seeded_trials(11, 4, draw, *prefix) == expected
    assert seeded_trials(11, 0, draw) == []
