"""Built-in algorithms: classical adapters through the simulator, families."""

import numpy as np
import pytest

from advice_lab import adapters
from advice_lab.adapters import (
    GroverInversion,
    HellmanInversion,
    LookupInversion,
    haar_scrambler,
    masked_box_grover,
    parity_box_algorithm,
)
from advice_lab.advice import hellman_build, hellman_invert, hellman_walk, parity_preprocess
from advice_lab.compress import _inverts, prepare
from advice_lab.qsim import (
    BasisLayout,
    BasisState,
    BitStringOracle,
    PermutationOracle,
    grover_invert,
    measurement_distribution,
    run,
)
from advice_lab.util import ceil_log2, int_to_bits


def walk_evaluations(anchors, f, y):
    """Reference: the elements the classical anchor walk for y evaluates f
    at, in order, ending with the preimage it parks on."""
    transition = hellman_walk(anchors, y)
    pos, _, work = transition(0, 0, 0, 0)
    evaluated = [pos]
    while not (work == 1 and f[pos] == y):
        pos, _, work = transition(len(evaluated), pos, int(f[pos]), work)
        evaluated.append(pos)
    return evaluated


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

    def test_totals_count_each_read_once(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=16)
        pad = parity_preprocess(bits, 4)
        alg = parity_box_algorithm(pad, 5)
        _, trace = run(alg, BitStringOracle(bits, forbidden=5), 5)
        expected = np.zeros(16)
        expected[pad.reads(5)[0]] = 1.0
        assert np.array_equal(trace.totals, expected)
        assert trace.totals.sum() == alg.num_queries == 3

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

    @pytest.mark.parametrize("j, error", [(16, ValueError), (-1, ValueError), (2.5, TypeError)],
                             ids=["past-N", "negative", "non-integer"])
    def test_rejects_an_index_outside_the_positions(self, j, error):
        # with no position excluded the run would spread mass over all 16
        with pytest.raises(error):
            run(masked_box_grover(16), BitStringOracle(np.zeros(16, dtype=int)), j)

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
        family = LookupInversion()
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

    def test_rejects_wrong_advice_length(self):
        with pytest.raises(ValueError):
            LookupInversion().spec("0101", 16)

    @pytest.mark.parametrize("n_elements", [2, 16, 256])
    def test_advice_matches_per_element_join(self, n_elements):
        f = PermutationOracle(np.random.default_rng(n_elements).permutation(n_elements))
        n = ceil_log2(n_elements)
        inverse = np.argsort(f.table)
        reference = "".join("1" if b else "0" for x in inverse for b in int_to_bits(int(x), n))
        family = LookupInversion()
        assert family.preprocess(f) == reference
        alg = family.spec(reference, n_elements)
        for y in range(n_elements):
            final, _ = run(alg, f, y)
            assert int(np.argmax(measurement_distribution(final, "position"))) == inverse[y]


class TestHellmanFamily:
    def test_advice_parse_matches_table(self):
        rng = np.random.default_rng(7)
        f = PermutationOracle(rng.permutation(32))
        family = HellmanInversion(s=4)
        advice = family.preprocess(f)
        rights = family.parse_advice(advice, 32)
        table = hellman_build(f, 4)
        assert rights == {right: left for left, right, _ in table.pairs}

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
            assert np.array_equal(trace.totals, np.rint(trace.totals))
            assert trace.totals.sum() == float(alg.num_queries)

    def test_identity_roundtrip_at_most_cycles(self):
        # the identity has N one-element cycles, the most a table can have;
        # its advice is one 11-bit pair count and 1024 pairs of 10-bit elements
        table = hellman_build(np.arange(1024), 1)
        advice = HellmanInversion(1).preprocess(PermutationOracle(np.arange(1024)))
        assert HellmanInversion(1).parse_advice(advice, 1024) == {x: x for x in range(1024)}
        assert len(advice) == table.bit_size + table.header_bits == 11 + 1024 * 20

    @pytest.mark.parametrize("n", [2, 16, 128, 1024])
    def test_advice_length_is_reported_size(self, n):
        f = PermutationOracle(np.random.default_rng(n).permutation(n))
        for s in sorted({min(n, s) for s in (1, 2, 3, n // 16 or 1, n // 2, n)}):
            table = hellman_build(f, s)
            assert len(HellmanInversion(s).preprocess(f)) == table.bit_size + ceil_log2(n + 1)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_embedded_walk_matches_hellman_invert(self, n, s, reference_run):
        # the classical inversion evaluates f exactly where the embedded run
        # queries before it parks, and the run's final position is its answer;
        # the query order comes from the point-mass reference's rows
        f = PermutationOracle(np.random.default_rng(100 + n + s).permutation(n))
        table = hellman_build(f, s)
        family = HellmanInversion(s)
        alg = family.spec(family.preprocess(f), n)
        for y in range(n):
            evaluated = walk_evaluations(table.anchors, f.table, y)
            x, calls = hellman_invert(y, table, f)
            assert (x, calls) == (evaluated[-1], len(evaluated))
            final, trace = run(alg, f, y)
            _, ref_rows = reference_run(alg, f, y)
            assert np.array_equal(trace.totals, ref_rows.sum(axis=0))
            queried = np.argmax(ref_rows, axis=1).tolist()
            assert evaluated == queried[:calls]
            assert queried[calls:] == [x] * (alg.num_queries - calls)
            assert measurement_distribution(final, "position")[x] == 1.0

    def test_runs_at_two_to_the_sixteen(self):
        # a dense final state here would be 2^33 amplitudes
        n = 2 ** 16
        f = PermutationOracle(np.random.default_rng(16).permutation(n))
        _, alg = prepare(f, HellmanInversion(s=4))
        for x in np.random.default_rng(17).choice(n, size=64, replace=False):
            final, _ = run(alg, f, int(f.table[x]))
            assert isinstance(final, BasisState)
            assert _inverts(alg, final, int(x))

    def test_distinct_runs_share_nothing(self):
        f = PermutationOracle(np.random.default_rng(9).permutation(16))
        family = HellmanInversion(s=2)
        alg = family.spec(family.preprocess(f), 16)
        _, first = run(alg, f, 3)
        _, again = run(alg, f, 3)
        assert first.totals is not again.totals
        assert np.array_equal(first.totals, again.totals)


class TestGroverFamily:
    def test_adviceless(self):
        f = PermutationOracle(np.random.default_rng(10).permutation(16))
        family = GroverInversion()
        assert family.preprocess(f) == ""
        alg = family.spec("", 16)
        assert alg.num_queries == 3


def _run_family(family, f, y):
    return run(family.spec(family.preprocess(f), f.num_positions), f, y)


# Each inverter against an image outside [0, N) or one that is not an
# integer, at N=16: a Python list would read -1 from its end, int() would run
# 2.5 as 2, and Grover would run 99 with no marked position.
BAD_IMAGES = {
    "hellman-invert-16": (lambda f: hellman_invert(16, hellman_build(f, 2), f), ValueError),
    "hellman-invert-negative": (lambda f: hellman_invert(-1, hellman_build(f, 2), f), ValueError),
    "hellman-invert-float": (lambda f: hellman_invert(2.0, hellman_build(f, 2), f), TypeError),
    "lookup-negative": (lambda f: _run_family(LookupInversion(), f, -1), ValueError),
    "lookup-16": (lambda f: _run_family(LookupInversion(), f, 16), ValueError),
    "hellman-run-float": (lambda f: _run_family(HellmanInversion(2), f, 2.5), TypeError),
    "hellman-run-16": (lambda f: _run_family(HellmanInversion(2), f, 16), ValueError),
    "grover-99": (lambda f: grover_invert(f, 99), ValueError),
    "grover-float": (lambda f: grover_invert(f, 1.5), TypeError),
}


@pytest.mark.parametrize("case", sorted(BAD_IMAGES))
def test_inverters_reject_images_outside_the_domain(case):
    call, error = BAD_IMAGES[case]
    with pytest.raises(error):
        call(PermutationOracle(np.random.default_rng(16).permutation(16)))


class TestScrambler:
    def test_deterministic_and_norm_preserving(self):
        layout = BasisLayout(8, 2, 2)
        alg_a = haar_scrambler(layout, 5, seed=123)
        alg_b = haar_scrambler(layout, 5, seed=123)
        bits = np.random.default_rng(11).integers(0, 2, size=8)
        fa, ta = run(alg_a, BitStringOracle(bits), 0)
        fb, tb = run(alg_b, BitStringOracle(bits), 0)
        assert np.array_equal(fa.amplitudes, fb.amplitudes)
        assert np.array_equal(ta.totals, tb.totals)
        assert ta.totals.sum() <= 5 + 1e-9

    @staticmethod
    def reference_unitaries(layout, num_queries, seed):
        """One Gaussian pair, QR and phase fix per matrix, in draw order."""
        rng = np.random.default_rng(seed)
        unitaries = []
        for _ in range(num_queries + 1):
            z = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
            q, r = np.linalg.qr(z)
            unitaries.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        return unitaries

    @pytest.mark.parametrize("shape", [(8, 2, 2), (8, 8, 2), (16, 16, 1)])
    def test_unitaries_match_per_matrix_draws_bit_for_bit(self, shape):
        layout = BasisLayout(*shape)
        identity = np.eye(layout.dim, dtype=np.complex128)
        for seed in (0, 1, 123):
            for num_queries in (0, 1, 3):
                step = haar_scrambler(layout, num_queries, seed).steps(None)
                expected = self.reference_unitaries(layout, num_queries, seed)
                for t, u in enumerate(expected):
                    assert np.array_equal(step(t, identity), u)

    @pytest.mark.parametrize("num_queries", [-1, -2])
    def test_negative_query_count(self, num_queries):
        with pytest.raises(ValueError, match="negative query count"):
            haar_scrambler(BasisLayout(8, 2, 2), num_queries, seed=0)


def test_adapters_bind_no_bit_codec():
    """Advice bits are written and read in ``advice``; the adapters only embed
    its structures."""
    assert not {"pack_fields", "read_fields", "parse_bitstring"} & set(vars(adapters))
