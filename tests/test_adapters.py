"""Built-in algorithms: classical adapters through the simulator, families."""

import numpy as np
import pytest

from advice_lab.adapters import (
    GroverInversion,
    HellmanInversion,
    LookupInversion,
    haar_scrambler,
    masked_box_grover,
    parity_box_algorithm,
)
from advice_lab.advice import hellman_build, hellman_invert, parity_preprocess
from advice_lab.qsim import (
    BasisLayout,
    BitStringOracle,
    PermutationOracle,
    measurement_distribution,
    run,
)


class TestParityBoxAdapter:
    def test_trace_totals_match_group_reads(self):
        # N=8, m=2, excluded index 2: the adapter reads exactly {0, 1, 3}
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 0])
        pad = parity_preprocess(bits, 2)
        alg = parity_box_algorithm(pad, 2)
        final, trace = run(alg, BitStringOracle(bits, forbidden=2), 2)
        assert np.allclose(trace.totals, [1, 1, 0, 1, 0, 0, 0, 0])
        assert trace.num_queries == 3
        answer = measurement_distribution(final, "workspace")
        assert answer[bits[2]] == 1.0

    def test_per_step_magnitudes_are_zero_or_one(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=16)
        pad = parity_preprocess(bits, 4)
        alg = parity_box_algorithm(pad, 5)
        _, trace = run(alg, BitStringOracle(bits, forbidden=5), 5)
        assert set(np.unique(trace.per_step)) <= {0.0, 1.0}
        assert trace.per_step.sum(axis=1).tolist() == [1.0] * alg.num_queries

    def test_correct_for_every_index(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=12)
        for m in (1, 3, 4, 11):
            pad = parity_preprocess(bits, m)
            for j in range(12):
                alg = parity_box_algorithm(pad, j)
                final, trace = run(alg, BitStringOracle(bits, forbidden=j), j)
                dist = measurement_distribution(final, "workspace")
                assert dist[bits[j]] == 1.0
                assert trace.totals[j] == 0.0
                assert trace.totals.sum() == float(alg.num_queries)

    def test_singleton_group_makes_zero_queries(self):
        bits = np.random.default_rng(2).integers(0, 2, size=8)
        pad = parity_preprocess(bits, 7)
        alg = parity_box_algorithm(pad, 7)
        assert alg.num_queries == 0
        final, trace = run(alg, BitStringOracle(bits, forbidden=7), 7)
        assert np.allclose(trace.totals, 0)
        assert measurement_distribution(final, "workspace")[bits[7]] == 1.0


class TestMaskedBoxGrover:
    def test_never_touches_excluded_index(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=16)
        alg = masked_box_grover(16)
        for j in (0, 7, 15):
            _, trace = run(alg, BitStringOracle(bits, forbidden=j), j)
            assert trace.totals[j] == 0.0
            assert trace.totals.sum() <= alg.num_queries + 1e-9

    def test_allowed_mass_sums_to_query_count(self):
        bits = np.random.default_rng(4).integers(0, 2, size=16)
        alg = masked_box_grover(16)
        _, trace = run(alg, BitStringOracle(bits, forbidden=3), 3)
        assert abs(trace.totals.sum() - alg.num_queries) < 1e-9
        assert np.allclose(trace.per_step.sum(axis=1), 1.0)

    def test_uniform_mass_when_nothing_is_marked(self):
        # with an all-zero string the query is the identity, so the state stays
        # uniform over the allowed positions the whole run
        alg = masked_box_grover(16)
        _, trace = run(alg, BitStringOracle(np.zeros(16, dtype=int), forbidden=3), 3)
        allowed = np.delete(trace.totals, 3)
        assert np.allclose(allowed, alg.num_queries / 15)


class TestLookupFamily:
    def test_advice_is_inverse_table(self):
        rng = np.random.default_rng(5)
        f = PermutationOracle(rng.permutation(16))
        family = LookupInversion(verify=True)
        advice = family.preprocess(f)
        assert len(advice) == 16 * 4
        alg = family.spec(advice, 16)
        assert alg.num_queries == 1
        for y in range(16):
            final, trace = run(alg, f, y)
            x = int(np.argmax(measurement_distribution(final, "position")))
            assert int(f.table[x]) == y
            assert trace.totals[x] == 1.0
            assert trace.totals.sum() == 1.0

    def test_query_free_variant(self):
        f = PermutationOracle(np.random.default_rng(6).permutation(8))
        family = LookupInversion(verify=False)
        alg = family.spec(family.preprocess(f), 8)
        assert alg.num_queries == 0
        final, trace = run(alg, f, 5)
        assert np.allclose(trace.totals, 0)
        assert int(np.argmax(measurement_distribution(final, "position"))) == int(
            np.flatnonzero(f.table == 5)[0])

    def test_rejects_wrong_advice_length(self):
        with pytest.raises(ValueError):
            LookupInversion().spec("0101", 16)


class TestHellmanFamily:
    def test_advice_parse_matches_table(self):
        rng = np.random.default_rng(7)
        f = PermutationOracle(rng.permutation(32))
        family = HellmanInversion(s=4)
        advice = family.preprocess(f)
        rights = family.parse_advice(advice, 32)
        table = hellman_build(f, 4)
        assert rights == {right: left for cyc in table.cycles for left, right, _ in cyc}

    def test_inverts_every_point(self):
        rng = np.random.default_rng(8)
        f = PermutationOracle(rng.permutation(16))
        family = HellmanInversion(s=2)
        alg = family.spec(family.preprocess(f), 16)
        assert alg.num_queries == 2 * 2 + 2
        for y in range(16):
            final, trace = run(alg, f, y)
            dist = measurement_distribution(final, "position")
            x = int(np.argmax(dist))
            assert dist[x] == 1.0
            assert int(f.table[x]) == y
            assert set(np.unique(trace.per_step)) <= {0.0, 1.0}
            assert trace.totals.sum() == float(alg.num_queries)

    def test_identity_roundtrip_at_most_cycles(self):
        # the identity has N one-element cycles, the most a table can have
        table = hellman_build(np.arange(1024), 1)
        advice = HellmanInversion(1).preprocess(PermutationOracle(np.arange(1024)))
        assert HellmanInversion(1).parse_advice(advice, 1024) == {x: x for x in range(1024)}
        assert len(advice) == table.bit_size + table.header_bits

    @pytest.mark.parametrize("n", [2, 16, 128, 1024])
    def test_advice_length_is_reported_size(self, n):
        f = PermutationOracle(np.random.default_rng(n).permutation(n))
        for s in sorted({min(n, s) for s in (1, 2, 3, n // 16 or 1, n // 2, n)}):
            table = hellman_build(f, s)
            assert len(HellmanInversion(s).preprocess(f)) == table.bit_size + table.header_bits

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_embedded_walk_matches_hellman_invert(self, n, s):
        # the classical inversion evaluates f exactly where the embedded run
        # queries before it parks, and the run's final position is its answer
        f = PermutationOracle(np.random.default_rng(100 + n + s).permutation(n))
        table = hellman_build(f, s)
        family = HellmanInversion(s)
        alg = family.spec(family.preprocess(f), n)
        for y in range(n):
            evaluated = []
            x, calls = hellman_invert(y, table, lambda z: evaluated.append(z) or int(f.table[z]))
            final, trace = run(alg, f, y)
            queried = np.argmax(trace.per_step, axis=1).tolist()
            assert evaluated == queried[:calls]
            assert queried[calls:] == [x] * (alg.num_queries - calls)
            assert measurement_distribution(final, "position")[x] == 1.0

    def test_distinct_runs_share_nothing(self):
        f = PermutationOracle(np.random.default_rng(9).permutation(16))
        family = HellmanInversion(s=2)
        alg = family.spec(family.preprocess(f), 16)
        _, first = run(alg, f, 3)
        _, again = run(alg, f, 3)
        assert np.array_equal(first.per_step, again.per_step)


class TestGroverFamily:
    def test_adviceless(self):
        f = PermutationOracle(np.random.default_rng(10).permutation(16))
        family = GroverInversion()
        assert family.preprocess(f) == ""
        alg = family.spec("", 16)
        assert alg.num_queries == 3


class TestScrambler:
    def test_deterministic_and_norm_preserving(self):
        layout = BasisLayout(8, 2, 2)
        alg_a = haar_scrambler(layout, 5, seed=123)
        alg_b = haar_scrambler(layout, 5, seed=123)
        bits = np.random.default_rng(11).integers(0, 2, size=8)
        fa, ta = run(alg_a, BitStringOracle(bits), 0)
        fb, tb = run(alg_b, BitStringOracle(bits), 0)
        assert np.array_equal(fa.amplitudes, fb.amplitudes)
        assert np.array_equal(ta.per_step, tb.per_step)
        assert ta.totals.sum() <= 5 + 1e-9
