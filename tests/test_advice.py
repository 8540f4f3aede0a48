"""Parity pads and iterate tables: correctness, accounting, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advice_lab.adapters import parity_box_algorithm
from advice_lab.advice import (
    CorruptTableError,
    HellmanTable,
    ParityPad,
    group_boundaries,
    hellman_build,
    hellman_invert,
    measure_tradeoff,
    parity_answer,
    parity_answer_sweep,
    parity_preprocess,
    parse_hellman_bits,
)
from advice_lab.util import ceil_log2, int_to_bits


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])

# JSON's own punctuation, digits, bits, a letter, a non-ASCII letter and a lone surrogate
CHARACTERS = st.sampled_from('{}[]",:-.e0129a\u00e9\ud800')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(CHARACTERS, max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(CHARACTERS, max_size=3), inner, max_size=3)),
    max_leaves=6)


def _nodes(doc, path=()):
    """Every path into a parsed JSON document, the root's () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def mutated_payloads(draw, payload: str) -> str:
    """payload with one change: a node replaced by a random JSON value, a
    node deleted, the text cut short, or one character of it replaced."""
    kind = draw(st.sampled_from(["replace", "delete", "truncate", "character"]))
    if kind in ("truncate", "character"):
        at = draw(st.integers(0, len(payload) - 1))
        tail = draw(CHARACTERS) + payload[at + 1:] if kind == "character" else ""
        return payload[:at] + tail
    doc = json.loads(payload)
    paths = list(_nodes(doc))[kind == "delete":]
    path = draw(st.sampled_from(paths))
    if not path:
        return json.dumps(draw(JSON_VALUES))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if kind == "delete":
        del owner[path[-1]]
    else:
        owner[path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def anchor_tables(draw) -> HellmanTable:
    n_elems = 1 << draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n_elems)))
    return hellman_build(perm, draw(st.integers(1, n_elems)))


def iterate(f, x: int, s: int) -> int:
    """f applied s times, one table lookup per step: the stride reference."""
    for _ in range(s):
        x = int(f[x])
    return x


def to_bits_reference(table: HellmanTable) -> str:
    """The per-field join HellmanTable.to_bits must reproduce: the pair count,
    then every pair's left and right."""
    fields = [int_to_bits(table.entry_count, ceil_log2(table.num_positions + 1))]
    for left, right, _stride in table.pairs:
        fields += [int_to_bits(left, table.n), int_to_bits(right, table.n)]
    return "".join("1" if b else "0" for field in fields for b in field)


class TestParityPad:
    def test_group_split_earlier_groups_larger(self):
        assert group_boundaries(10, 3).tolist() == [0, 4, 7, 10]  # sizes 4, 3, 3

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

    def test_pad_compares_by_value(self):
        bits = np.random.default_rng(4).integers(0, 2, size=12)
        pad = parity_preprocess(bits, 5)
        assert (pad.m, pad.log2_class_size) == (5, 7)
        assert pad == parity_preprocess(bits, 5) and hash(pad) == hash(parity_preprocess(bits, 5))
        assert pad != parity_preprocess(bits, 4)
        assert pad != ParityPad(13, pad.parities)
        assert pad != pad.parities.tolist()

    def test_pad_derives_its_group_starts(self):
        pad = ParityPad(10, [1, 0, 1])
        assert pad.m == 3 and pad.bounds.tolist() == [0, 4, 7, 10]
        assert pad.reads(9)[0].tolist() == [7, 8]  # the last group ends at N

    @pytest.mark.parametrize("parities", [[], [0] * 8, [0, 2]],
                             ids=["no-groups", "a-group-per-position", "not-a-bit"])
    def test_rejects_malformed_pads(self, parities):
        with pytest.raises(ValueError):
            ParityPad(8, parities)

    @pytest.mark.parametrize("call", [
        lambda: parity_preprocess([2, 3, 0, 1], 1),  # 2 XOR 3 XOR 1 would give parity 0
        lambda: parity_answer(0, parity_preprocess([0, 1, 0, 1], 2), [0, 3, 0, 1]),
        lambda: parity_answer_sweep(np.array([[256, 1, 0, 1]]), 2),  # 256 would wrap to 0
        lambda: parity_answer_sweep(np.array([[0, 1], [-1, 0]]), 1),
    ], ids=["preprocess", "answer", "sweep-wrap", "sweep-negative"])
    def test_non_bits_raise_value_error(self, call):
        with pytest.raises(ValueError, match="0/1"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: parity_preprocess([0.0, 1.0, 1.0, 0.0], 2),
        lambda: parity_answer(0, parity_preprocess([0, 1, 0, 1], 2), [0.0, 1.0, 0.0, 1.0]),
        lambda: parity_answer_sweep(np.array([[0.0, 1.0, 0.0, 1.0]]), 2),
    ], ids=["preprocess", "answer", "sweep"])
    def test_float_bits_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("call", [
        lambda pad: pad.reads(2.5),  # used to return positions [0., 1., 2., 3.5, 4.5]
        lambda pad: parity_answer(2.5, pad, [1, 0, 0, 1, 1, 0, 1, 0, 0]),
        lambda pad: parity_box_algorithm(pad, 2.5),  # used to fail only inside run
    ], ids=["reads", "answer", "box-algorithm"])
    def test_non_integer_index_raises_type_error(self, call):
        with pytest.raises(TypeError):
            call(ParityPad(9, [1, 0]))

    def test_bool_bits_read_as_integers(self):
        bits = np.array([True, False, True, True])
        pad = parity_preprocess(bits, 2)
        assert pad.parities.tolist() == [1, 0]
        assert parity_answer(3, pad, bits) == (1, 1)
        answers, _ = parity_answer_sweep(bits[None, :], 2)
        assert answers.tolist() == [[1, 0, 1, 1]]

    def test_answer_index_out_of_range(self):
        bits = np.zeros(8, dtype=int)
        pad = parity_preprocess(bits, 2)
        for j in (-1, 8):
            with pytest.raises(ValueError):
                parity_answer(j, pad, bits)


class TestJsonProperties:
    @PROPERTY_SETTINGS
    @given(anchor_tables())
    def test_anchor_table_roundtrip(self, table):
        clone = HellmanTable.from_json(table.to_json())
        assert clone == table and clone.to_bits() == table.to_bits()

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_mutated_anchor_table_loads_or_raises_value_error(self, data):
        table = data.draw(anchor_tables())
        payload = data.draw(mutated_payloads(table.to_json()))
        try:
            clone = HellmanTable.from_json(payload)
        except ValueError:
            return
        assert HellmanTable.from_json(clone.to_json()) == clone
        clone.to_bits()  # every loaded table can write its advice


class TestAnchorAdviceProperties:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_advice_parses_back_and_every_cut_or_flip_fails_loudly(self, data):
        n_elems = 1 << data.draw(st.integers(1, 8))
        perm = data.draw(st.permutations(range(n_elems)))
        table = hellman_build(perm, data.draw(st.integers(1, n_elems)))
        bits = table.to_bits()
        assert parse_hellman_bits(bits, n_elems) == table.anchors
        assert len(bits) == table.bit_size + ceil_log2(n_elems + 1)
        for bad in [bits[:i] for i in range(len(bits))] + [bits + "0", bits + "1"]:
            with pytest.raises(ValueError):
                parse_hellman_bits(bad, n_elems)
        for i in range(len(bits)):
            try:
                parse_hellman_bits(bits[:i] + "10"[int(bits[i])] + bits[i + 1:], n_elems)
            except ValueError:
                pass


class TestIterate:
    def test_zero_steps(self):
        assert iterate(np.arange(8), 3, 0) == 3

    def test_plus_one_mod_eight(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        assert iterate(f, 2, 3) == 5

    def test_non_integer_tables_raise(self):
        with pytest.raises(TypeError):
            hellman_build([1.9, 0.3], 1)
        with pytest.raises(TypeError):
            hellman_build(np.array([1.0, 0.0]), 1)

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


def cycles_of(f) -> list:
    """Every cycle of f from its least element, walked one numpy element at
    a time, in order of that element."""
    f = np.asarray(f)
    seen = np.zeros(len(f), dtype=bool)
    cycles = []
    for start in range(len(f)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        z = int(f[start])
        while z != start:
            cycle.append(z)
            seen[z] = True
            z = int(f[z])
        cycles.append(cycle)
    return cycles


def pairs_reference(f, s: int) -> tuple:
    """The anchor pairs, element by element: from each cycle's least element
    every s-th element to the one s further on; a cycle shorter than s is one
    self-pair whose stride is its length."""
    pairs = []
    for cycle in cycles_of(f):
        length = len(cycle)
        for k in range(0, length, s):
            right = cycle[(k + s) % length] if length >= s else cycle[0]
            pairs.append((cycle[k], right, min(s, length)))
    return tuple(pairs)


class TestHellmanTable:
    def test_cycles_match_element_walk(self):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            n_elems = 1 << n
            perms = (rng.permutation(n_elems), np.arange(n_elems) ^ 1, np.arange(n_elems))
            for f in perms:
                for s in range(1, n_elems + 1):
                    assert hellman_build(f, s).pairs == pairs_reference(f, s)

    def test_anchor_example_plus_one_mod_eight(self):
        f = np.array([(x + 1) % 8 for x in range(8)])
        table = hellman_build(f, 3)
        assert table.pairs == ((0, 3, 3), (3, 6, 3), (6, 1, 3))

    def test_stride_one_is_full_graph(self):
        rng = np.random.default_rng(6)
        f = rng.permutation(16)
        table = hellman_build(f, 1)
        assert table.entry_count == 16
        pairs = {left: right for left, right, _ in table.pairs}
        assert pairs == {x: int(f[x]) for x in range(16)}

    def test_full_stride_cyclic_single_pair(self):
        n = 8
        f = np.array([(x + 1) % n for x in range(n)])
        table = hellman_build(f, n)
        assert table.pairs == ((0, 0, 8),)

    def test_pair_consistency_and_coverage(self):
        rng = np.random.default_rng(7)
        for s in (2, 3, 5, 8):
            f = rng.permutation(32)
            table = hellman_build(f, s)
            anchors = set()
            for left, right, stride in table.pairs:
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
            num_cycles = len(cycles_of(f))
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
        bogus = HellmanTable(3, 3, ((5, 2, 3),))
        with pytest.raises(CorruptTableError):
            hellman_invert(2, bogus, two_cycles)

    @pytest.mark.parametrize("f", [[1, 1, 2, 3], [0, 1, 2, 4], [3, 2, 1, -1]])
    def test_non_permutation_rejected(self, f):
        # a repeated image would send the cycle walk round forever;
        # PermutationOracle is the one check, and f1, f2 fail its range check
        with pytest.raises(ValueError, match="not a permutation|values out of range"):
            hellman_build(np.array(f), 2)
        with pytest.raises(ValueError, match="not a permutation|values out of range"):
            measure_tradeoff(np.array(f), 2)

    @pytest.mark.parametrize("f", [np.arange(4), np.array([1, 2, 3, 0])],
                             ids=["fixed-points", "one-cycle"])
    def test_stride_read_as_an_integer(self, f):
        # the stride builds a table that from_json reloads, or fails as from_json does
        with pytest.raises(TypeError):
            hellman_build(f, 1.5)
        for s in (0, 5):
            with pytest.raises(ValueError, match=r"s outside \[1, 2\^n\]"):
                hellman_build(f, s)
        table = hellman_build(f, np.int64(2))
        assert type(table.s) is int
        assert HellmanTable.from_json(table.to_json()) == table

    def test_bit_accounting(self):
        f = np.random.default_rng(9).permutation(64)
        table = hellman_build(f, 8)
        assert table.bit_size == table.entry_count * 2 * 6
        assert table.header_bits == ceil_log2(65)

    def test_bits_parse_back_to_anchors(self):
        f = np.random.default_rng(12).permutation(32)
        for s in (1, 3, 32):
            table = hellman_build(f, s)
            assert parse_hellman_bits(table.to_bits(), 32) == table.anchors
            assert table.anchors == {r: left for r, (left, _) in table.rights().items()}

    def test_parse_rejects_cut_and_empty_records(self):
        bits = hellman_build(np.random.default_rng(13).permutation(32), 4).to_bits()
        width = ceil_log2(33)
        for bad in (bits[:-1], bits + "1", bits[:width - 1], "", "0" * width, "0" * width + bits[width:]):
            with pytest.raises(ValueError, match="positive pair count"):
                parse_hellman_bits(bad, 32)
        with pytest.raises(ValueError):
            parse_hellman_bits(bits[:-1] + "2", 32)

    def test_parse_rejects_repeated_right(self):
        with pytest.raises(ValueError, match="share a right"):
            parse_hellman_bits(HellmanTable(3, 2, ((0, 2, 2), (4, 2, 2))).to_bits(), 8)

    @pytest.mark.parametrize("n_elems", [2, 16, 128, 1024])
    def test_built_tables_parse(self, n_elems):
        f = np.random.default_rng(n_elems).permutation(n_elems)
        for s in sorted({1, 2, n_elems // 2, n_elems}):
            table = hellman_build(f, s)
            assert parse_hellman_bits(table.to_bits(), n_elems) == table.anchors
            assert HellmanTable.from_json(table.to_json()) == table

    @pytest.mark.parametrize("n_elems", [2, 16, 128, 1024])
    def test_to_bits_matches_per_field_join(self, n_elems):
        f = np.random.default_rng(n_elems + 1).permutation(n_elems)
        for s in sorted({1, 2, 4, math.isqrt(n_elems)} & set(range(1, n_elems + 1))):
            table = hellman_build(f, s)
            assert table.to_bits() == to_bits_reference(table)
            assert len(table.to_bits()) == table.bit_size + table.header_bits

    def test_json_roundtrip_bit_exact(self):
        f = np.random.default_rng(10).permutation(64)
        table = hellman_build(f, 8)
        clone = HellmanTable.from_json(table.to_json())
        assert clone == table
        assert clone.to_json() == table.to_json()

    # Each case breaks one field of a valid n=3, s=2 table and names the
    # message it must fail with; the first is the table that used to load and
    # fail only when walked or written out.  The pair checks come from writing
    # the pairs out and parsing them back.
    BAD_TABLES = {
        "element_out_of_range": ({"n": 3, "s": 2, "pairs": [[9, 12, 2]]}, "does not fit"),
        "n_below_one": ({"n": 0, "s": 1, "pairs": [[0, 0, 1]]}, r"n outside \[1, 62\]"),
        # its pair count would need a field of n + 1 = 64 bits
        "n_above_62": ({"n": 63, "s": 1, "pairs": [[0, 0, 1]]}, r"n outside \[1, 62\]"),
        "n_huge": ({"n": 2 ** 70, "s": 1, "pairs": [[0, 0, 1]]}, r"n outside \[1, 62\]"),
        "s_zero": ({"n": 3, "s": 0, "pairs": [[0, 2, 2]]}, r"s outside \[1, 2\^n\]"),
        "s_above_domain": ({"n": 3, "s": 9, "pairs": [[0, 2, 2]]}, r"s outside \[1, 2\^n\]"),
        # an empty table: its advice would be a pair count of 0
        "no_cycles": ({"n": 3, "s": 2, "pairs": []}, "positive pair count"),
        "negative_left": ({"n": 3, "s": 2, "pairs": [[-1, 2, 2]]}, "does not fit"),
        "right_out_of_range": ({"n": 3, "s": 2, "pairs": [[0, 8, 2]]}, "does not fit"),
        "stride_zero": ({"n": 3, "s": 2, "pairs": [[0, 2, 0]]}, "stride below 1"),
        "missing_n": ({"s": 2, "pairs": [[0, 2, 2]]}, "field missing"),
        "missing_pairs": ({"n": 3, "s": 2}, "field missing"),
        "cycles_form": ({"n": 3, "s": 2, "cycles": [{"anchors": [[0, 2, 2]]}]}, "field missing"),
        "short_anchor": ({"n": 3, "s": 2, "pairs": [[0, 2]]}, "misshapen"),
        "non_integer_element": ({"n": 3, "s": 2, "pairs": [[0, 2.0, 2]]}, "must be integers"),
        "repeated_right": ({"n": 3, "s": 2, "pairs": [[0, 2, 2], [4, 2, 2]]}, "share a right"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_TABLES))
    def test_from_json_rejects(self, case):
        doc, message = self.BAD_TABLES[case]
        with pytest.raises(ValueError, match=message):
            HellmanTable.from_json(json.dumps(doc))

    def test_widest_loadable_table_writes_its_bits(self):
        doc = {"n": 62, "s": 1, "pairs": [[0, (1 << 62) - 1, 1]]}
        table = HellmanTable.from_json(json.dumps(doc))
        assert len(table.to_bits()) == 63 + 2 * 62

    def test_from_json_keeps_valid_tables(self):
        for n_elems, s in ((2, 1), (2, 2), (64, 64), (128, 2)):
            table = hellman_build(np.random.default_rng(n_elems).permutation(n_elems), s)
            payload = table.to_json()
            assert HellmanTable.from_json(payload).to_json() == payload

    def test_tradeoff_band(self):
        rng = np.random.default_rng(11)
        n = 256
        target = n * 2 * 8
        for s in (4, 8, 16, 32):
            point = measure_tradeoff(rng.permutation(n), s)
            ratio = point["bits_times_calls"] / target
            assert 1 / 8 <= ratio <= 8, (s, point)
            assert point["worst_calls"] <= 2 * s + 2
