"""Shared helpers: bit packing and bit strings round-trip or fail loudly."""

import numpy as np
import pytest

from advice_lab.util import (
    bit_array,
    bitstring,
    ceil_log2,
    int_array,
    int_to_bits,
    pack_fields,
    parse_bitstring,
    read_index,
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
        assert pack_fields(values, widths) == reference
        assert pack_fields(values[:3], 20) == "".join(bitstring(int_to_bits(v, 20)) for v in values[:3])

    def test_empty_and_zero_width(self):
        assert pack_fields([], 5) == ""
        assert pack_fields([0, 0], 0) == ""
        assert pack_fields([5, 0], [3, 0]) == "101"

    @pytest.mark.parametrize("values, widths", [([4], 2), ([1], 0), ([-1], 8), ([3, 8], [2, 3]),
                                                ([0], 64), ([0], -1), ([1 << 70], 63)])
    def test_rejects_values_that_do_not_fit(self, values, widths):
        with pytest.raises(ValueError):
            pack_fields(values, widths)


class TestCeilLog2:
    def test_non_integer_raises_type_error(self):
        with pytest.raises(TypeError):
            ceil_log2(1.5)


class TestBitstring:
    def test_nonzero_reads_as_one(self):
        assert bitstring([0, 1, 2, 0]) == "0110"
        assert bitstring(np.array([True, False])) == "10"
        assert bitstring([]) == ""
