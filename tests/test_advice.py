"""Parity pads and iterate tables: correctness, accounting, serialization."""

import math

import numpy as np
import pytest

from advice_lab.advice import (
    CorruptTableError,
    HellmanTable,
    ParityPad,
    group_boundaries,
    hellman_build,
    hellman_invert,
    iterate,
    measure_tradeoff,
    parity_answer,
    parity_answer_sweep,
    parity_preprocess,
    parse_hellman_bits,
)
from advice_lab.util import ceil_log2


class TestParityPad:
    def test_group_split_earlier_groups_larger(self):
        starts = group_boundaries(10, 3)
        assert list(starts) == [0, 4, 7]  # sizes 4, 3, 3

    def test_preprocess_example(self):
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 0])
        pad = parity_preprocess(bits, 2)
        assert list(pad.parities) == [1, 1]

    def test_all_zero_string(self):
        for m in (1, 2, 3, 5):
            pad = parity_preprocess(np.zeros(8, dtype=int), m)
            assert not pad.parities.any()

    def test_single_group_is_total_parity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=11)
        pad = parity_preprocess(bits, 1)
        assert pad.parities[0] == bits.sum() % 2

    def test_answer_example(self):
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 0])
        pad = parity_preprocess(bits, 2)
        bit, count = parity_answer(2, pad, bits)
        assert (bit, count) == (1, 3)

    def test_answer_zero_string(self):
        bits = np.zeros(8, dtype=int)
        pad = parity_preprocess(bits, 2)
        for j in range(8):
            bit, count = parity_answer(j, pad, bits)
            assert bit == 0 and count == 3

    def test_singleton_group_needs_no_reads(self):
        bits = np.random.default_rng(1).integers(0, 2, size=8)
        pad = parity_preprocess(bits, 7)  # group sizes 2,1,1,1,1,1,1
        bit, count = parity_answer(7, pad, bits)
        assert count == 0 and bit == bits[7]

    def test_answer_always_correct_with_count_bound(self):
        rng = np.random.default_rng(2)
        n = 24
        for m in range(1, n):
            cap = math.ceil(n / m) - 1
            bits = rng.integers(0, 2, size=n)
            pad = parity_preprocess(bits, m)
            for j in range(n):
                bit, count = parity_answer(j, pad, bits)
                assert bit == bits[j]
                assert count <= cap
            # the first group is a largest one: the bound is attained there
            assert parity_answer(0, pad, bits)[1] == cap

    def test_sweep_matches_scalar(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(5, 16)).astype(np.uint8)
        for m in (1, 3, 5, 15):
            answers, counts = parity_answer_sweep(X, m)
            assert np.array_equal(answers, X)
            for row in range(5):
                pad = parity_preprocess(X[row], m)
                for j in (0, 7, 15):
                    bit, count = parity_answer(j, pad, X[row])
                    assert bit == answers[row, j]
                    assert count == counts[j]

    def test_pad_bit_size_and_json_roundtrip(self):
        bits = np.random.default_rng(4).integers(0, 2, size=12)
        pad = parity_preprocess(bits, 5)
        assert pad.bit_size == 5
        clone = ParityPad.from_json(pad.to_json(), 12)
        assert np.array_equal(clone.boundaries, pad.boundaries)
        assert np.array_equal(clone.parities, pad.parities)
        assert pad.to_json() == clone.to_json()

    @pytest.mark.parametrize("boundaries, parities", [
        ([], []),              # no groups
        ([1, 4], [0, 1]),      # does not start at 0
        ([0, 4, 4], [0, 1, 0]),  # empty group
        ([0, 5, 3], [0, 1, 0]),  # decreasing
        ([0, 8], [0, 1]),      # group starts past the end
        ([0, 4], [0, 2]),      # parity is not a bit
    ])
    def test_rejects_malformed_pads(self, boundaries, parities):
        with pytest.raises(ValueError):
            ParityPad(8, boundaries, parities)

    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError):
            ParityPad.from_json('{"m":2,"boundaries":[3,1],"parities":"12"}', 8)

    def test_answer_index_out_of_range(self):
        bits = np.zeros(8, dtype=int)
        pad = parity_preprocess(bits, 2)
        for j in (-1, 8):
            with pytest.raises(ValueError):
                parity_answer(j, pad, bits)


class TestIterate:
    def test_zero_steps(self):
        assert iterate(np.arange(8), 3, 0) == 3

    def test_plus_one_mod_eight(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        assert iterate(f, 2, 3) == 5

    def test_full_cycle_returns_start(self):
        rng = np.random.default_rng(5)
        f = rng.permutation(32)
        x = 7
        # independent cycle-length oracle: walk until return
        length, z = 1, int(f[x])
        while z != x:
            z = int(f[z])
            length += 1
        assert iterate(f, x, length) == x


class TestHellmanTable:
    def test_anchor_example_plus_one_mod_eight(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        table = hellman_build(f, 3)
        assert table.cycles == (((0, 3, 3), (3, 6, 3), (6, 1, 3)),)

    def test_stride_one_is_full_graph(self):
        rng = np.random.default_rng(6)
        f = rng.permutation(16)
        table = hellman_build(f, 1)
        assert table.entry_count == 16
        pairs = {left: right for cyc in table.cycles for left, right, _ in cyc}
        assert pairs == {x: int(f[x]) for x in range(16)}

    def test_full_stride_cyclic_single_pair(self):
        n = 8
        f = np.array([(x + 1) % n for x in range(n)])
        table = hellman_build(f, n)
        assert table.cycles == (((0, 0, 8),),)

    def test_pair_consistency_and_coverage(self):
        rng = np.random.default_rng(7)
        for s in (2, 3, 5, 8):
            f = rng.permutation(32)
            table = hellman_build(f, s)
            anchors = set()
            for cyc in table.cycles:
                for left, right, stride in cyc:
                    assert iterate(f, left, stride) == right
                    anchors.add(left)
            # every element reaches an anchor within s-1 forward steps
            for x in range(32):
                z, ok = x, False
                for _ in range(s):
                    if z in anchors:
                        ok = True
                        break
                    z = int(f[z])
                assert ok
            num_cycles = len(table.cycles)
            assert table.entry_count <= math.ceil(32 / s) + num_cycles

    def test_invert_example(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        table = hellman_build(f, 3)
        x, calls = hellman_invert(4, table, f)
        assert x == 3
        assert calls <= 8

    def test_invert_anchor_right_element_is_cheap(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        table = hellman_build(f, 3)
        x, calls = hellman_invert(3, table, f)  # 3 is the right of (0, 3)
        assert int(f[x]) == 3
        assert calls <= 3

    def test_invert_all_points_random_permutations(self):
        rng = np.random.default_rng(8)
        s = 16
        for _ in range(5):
            f = rng.permutation(256)
            table = hellman_build(f, s)
            for y in range(256):
                x, calls = hellman_invert(y, table, f)
                assert int(f[x]) == y
                assert calls <= 2 * s + 2

    def test_corrupt_table_rejected(self):
        g = np.array([(x + 1) % 8 for x in range(8)])
        # no anchor anywhere: the forward walk runs past the cycle bound
        with pytest.raises(CorruptTableError):
            hellman_invert(7, HellmanTable(3, 3, ()), g)
        # anchor jumps into the wrong cycle: the preimage walk never closes
        two_cycles = np.array([1, 2, 3, 0, 5, 6, 7, 4])
        bogus = HellmanTable(3, 3, (((5, 2, 3),),))
        with pytest.raises(CorruptTableError):
            hellman_invert(2, bogus, two_cycles)

    def test_bit_accounting(self):
        f = np.random.default_rng(9).permutation(64)
        table = hellman_build(f, 8)
        assert table.bit_size == table.entry_count * 2 * 6
        assert table.header_bits == len(table.cycles) * ceil_log2(65)

    def test_bits_parse_back_to_anchors(self):
        f = np.random.default_rng(12).permutation(32)
        for s in (1, 3, 32):
            table = hellman_build(f, s)
            assert parse_hellman_bits(table.to_bits(), 32) == table.anchors
            assert table.anchors == {r: left for r, (left, _) in table.rights().items()}

    def test_parse_rejects_cut_and_empty_records(self):
        bits = hellman_build(np.random.default_rng(13).permutation(32), 4).to_bits()
        width = ceil_log2(33)
        for bad in (bits[:-1], bits + "1", bits[:width - 1]):
            with pytest.raises(ValueError, match="cut short"):
                parse_hellman_bits(bad, 32)
        with pytest.raises(ValueError, match="no pairs"):
            parse_hellman_bits("0" * width + bits, 32)
        with pytest.raises(ValueError):
            parse_hellman_bits(bits[:-1] + "2", 32)

    def test_json_roundtrip_bit_exact(self):
        f = np.random.default_rng(10).permutation(64)
        table = hellman_build(f, 8)
        clone = HellmanTable.from_json(table.to_json())
        assert clone == table
        assert clone.to_json() == table.to_json()

    def test_tradeoff_band(self):
        rng = np.random.default_rng(11)
        n = 256
        target = n * 2 * 8
        for s in (4, 8, 16, 32):
            point = measure_tradeoff(rng.permutation(n), s)
            ratio = point["bits_times_calls"] / target
            assert 1 / 8 <= ratio <= 8, (s, point)
            assert point["worst_calls"] <= 2 * s + 2
