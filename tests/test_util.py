"""Shared helpers: bit packing round-trips and fails loudly on overflow."""

import pytest

from advice_lab.util import bits_to_int, int_to_bits


class TestIntToBits:
    def test_round_trips_every_value_that_fits(self):
        for n in range(5):
            for value in range(1 << n):
                assert bits_to_int(int_to_bits(value, n)) == value

    @pytest.mark.parametrize("value, n", [(4, 2), (1, 0), (-1, 8), (1 << 16, 16)])
    def test_rejects_values_that_do_not_fit(self, value, n):
        with pytest.raises(ValueError):
            int_to_bits(value, n)
