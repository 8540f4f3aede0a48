"""Shared helpers: bit packing and bit strings round-trip or fail loudly."""

import pytest

from advice_lab.util import bits_to_int, int_to_bits, parse_bitstring


class TestIntToBits:
    def test_round_trips_every_value_that_fits(self):
        for n in range(5):
            for value in range(1 << n):
                assert bits_to_int(int_to_bits(value, n)) == value

    @pytest.mark.parametrize("value, n", [(4, 2), (1, 0), (-1, 8), (1 << 16, 16)])
    def test_rejects_values_that_do_not_fit(self, value, n):
        with pytest.raises(ValueError):
            int_to_bits(value, n)


class TestParseBitstring:
    def test_parses_zeros_and_ones(self):
        assert parse_bitstring("0110").tolist() == [0, 1, 1, 0]
        assert parse_bitstring("").tolist() == []

    @pytest.mark.parametrize("text", ["0a1x", "01 ", "2", "0\u00e91"])
    def test_rejects_other_characters(self, text):
        with pytest.raises(ValueError):
            parse_bitstring(text)
