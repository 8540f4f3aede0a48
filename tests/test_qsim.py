"""Core simulator: oracle application, instrumentation, measurement, Grover."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from advice_lab.adapters import (
    HellmanInversion,
    LookupInversion,
    haar_scrambler,
    masked_box_grover,
    parity_box_algorithm,
)
from advice_lab.advice import parity_preprocess
from advice_lab.qsim import (
    MASS_RANGE,
    AlgorithmSpec,
    BasisLayout,
    BasisState,
    BitStringOracle,
    ClassicalSpec,
    DenseTrace,
    ForbiddenIndexError,
    FunctionOracle,
    NonUnitaryStepError,
    PermutationOracle,
    PureState,
    QueryTrace,
    Transcript,
    apply_oracle,
    default_grover_iterations,
    euclidean_distance,
    grover_invert,
    grover_spec,
    measurement_distribution,
    query_magnitudes,
    run,
    top_two,
    tv_distance,
)


def dense_oracle_matrix(layout: BasisLayout, table) -> np.ndarray:
    """Independent reference: build the query operator entry by entry from the
    basis-state mapping (i, a, w) -> (i, a ^ table[i], w)."""
    mat = np.zeros((layout.dim, layout.dim))
    for i in range(layout.num_positions):
        for a in range(layout.answer_dim):
            for w in range(layout.workspace_dim):
                src = layout.index(i, a, w)
                dst = layout.index(i, a ^ int(table[i]), w)
                mat[dst, src] = 1.0
    return mat


def random_state(rng, layout) -> PureState:
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(vec / np.linalg.norm(vec), layout)


class TestLayoutAndState:
    def test_index_coords_roundtrip(self):
        lay = BasisLayout(4, 4, 3)
        seen = set()
        for i in range(4):
            for a in range(4):
                for w in range(3):
                    idx = lay.index(i, a, w)
                    assert lay.coords(idx) == (i, a, w)
                    seen.add(idx)
        assert seen == set(range(lay.dim))

    @pytest.mark.parametrize("coords", [(0, 0, 2), (-1, 0, 0), (3, 1, 2), (4, 0, 0), (0, 2, 0)])
    def test_coordinates_outside_the_layout_rejected(self, coords):
        # (0, 0, 2) used to alias (0, 1, 0), -1 to wrap to position 3, and
        # (3, 1, 2) to fail with a bare IndexError
        lay = BasisLayout(4, 2, 2)
        for build in (lay.index, lambda *c: BasisState(lay, c)):
            with pytest.raises(ValueError, match="outside"):
                build(*coords)

    def test_non_integer_coordinate_rejected(self):
        lay = BasisLayout(4, 2, 2)
        for build in (lay.index, lambda *c: BasisState(lay, c)):
            with pytest.raises(TypeError):
                build(1.5, 0, 0)
        assert type(BasisState(lay, (np.int64(3), 0, 0)).coords[0]) is int

    def test_basis_state_is_its_coordinates(self):
        lay = BasisLayout(4, 2, 2)
        state = BasisState(lay, (3, 1, 1))
        assert state.coords == (3, 1, 1)
        assert state == BasisState(lay, (3, 1, 1))
        expected = np.zeros(lay.dim, dtype=np.complex128)
        expected[lay.index(3, 1, 1)] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_state_norm_enforced(self):
        lay = BasisLayout(2, 2)
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), lay)

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            PermutationOracle(np.array([0, 0, 1, 2]))
        with pytest.raises(ValueError):
            PermutationOracle(np.arange(6))  # not a power of two
        with pytest.raises(ValueError):
            BitStringOracle(np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            BitStringOracle(np.array([0, 1, 1]), forbidden=3)

    @pytest.mark.parametrize("make", [
        lambda: PermutationOracle(np.array([1.7, 0.2])),
        lambda: FunctionOracle([0.0, 1.0]),
        lambda: BitStringOracle([0.5, 1.0]),
        lambda: BitStringOracle(np.array([0.0, 1.0, 1.0])),
        lambda: BitStringOracle([0, 1, 1], forbidden=1.5),
    ], ids=["permutation", "function", "bits-list", "bits-float-array", "forbidden-float"])
    def test_oracles_reject_non_integer_entries(self, make):
        with pytest.raises(TypeError):
            make()

    def test_bit_strings_accept_bools(self):
        assert BitStringOracle(np.array([True, False, True])).bits.tolist() == [1, 0, 1]
        assert BitStringOracle([False, True]).bits.tolist() == [0, 1]

    def test_permutation_oracle_is_function_oracle(self):
        oracle = PermutationOracle(np.array([2, 0, 3, 1]))
        assert isinstance(oracle, FunctionOracle)
        assert (oracle.num_positions, oracle.answer_dim, oracle.forbidden) == (4, 4, None)


class TestApplyOracle:
    def test_identity_permutation_xors_position(self):
        # f(i) = i, so a=0 picks up the value i itself
        lay = BasisLayout(4, 4)
        state = BasisState(lay, (3, 0, 0))
        out = apply_oracle(state, PermutationOracle(np.arange(4)))
        assert abs(out.amplitudes[lay.index(3, 3)] - 1.0) < 1e-12

    def test_zero_bitstring_is_identity(self):
        lay = BasisLayout(4, 2, 2)
        rng = np.random.default_rng(0)
        state = random_state(rng, lay)
        out = apply_oracle(state, BitStringOracle(np.zeros(4, dtype=int)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_plus_one_mod_four_uniform_superposition(self):
        # Reference values from the dense matrix, not the implementation.
        lay = BasisLayout(4, 4)
        table = np.array([(x + 1) % 4 for x in range(4)])
        amps = np.zeros(lay.dim, dtype=complex)
        for i in range(4):
            amps[lay.index(i, 0)] = 0.5
        state = PureState(amps, lay)
        out = apply_oracle(state, PermutationOracle(table))
        expected = dense_oracle_matrix(lay, table) @ amps
        assert np.allclose(out.amplitudes, expected)
        for i in range(4):
            assert abs(out.amplitudes[lay.index(i, (i + 1) % 4)] - 0.5) < 1e-12

    @pytest.mark.parametrize("kind", ["perm", "bits", "func"])
    def test_matches_dense_matrix_on_random_states(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(20):
            if kind == "perm":
                oracle = PermutationOracle(rng.permutation(8))
                lay = BasisLayout(8, 8, 2)
            elif kind == "func":
                oracle = FunctionOracle(rng.integers(0, 8, size=8))
                lay = BasisLayout(8, 8, 2)
            else:
                oracle = BitStringOracle(rng.integers(0, 2, size=8))
                lay = BasisLayout(8, 2, 3)
            state = random_state(rng, lay)
            out = apply_oracle(state, oracle)
            expected = dense_oracle_matrix(lay, oracle.table) @ state.amplitudes
            assert np.allclose(out.amplitudes, expected, atol=1e-12)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    @pytest.mark.parametrize("kind", ["perm", "bits"])
    def test_involution(self, kind):
        rng = np.random.default_rng(7)
        if kind == "perm":
            oracle = PermutationOracle(rng.permutation(8))
            lay = BasisLayout(8, 8)
        else:
            oracle = BitStringOracle(rng.integers(0, 2, size=5))
            lay = BasisLayout(5, 2, 2)
        state = random_state(rng, lay)
        twice = apply_oracle(apply_oracle(state, oracle), oracle)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12

    def test_forbidden_index_rejects_mass(self):
        lay = BasisLayout(4, 2)
        oracle = BitStringOracle(np.array([1, 0, 1, 0]), forbidden=2)
        with pytest.raises(ForbiddenIndexError):
            apply_oracle(BasisState(lay, (2, 0, 0)), oracle)
        # mass elsewhere is fine
        apply_oracle(BasisState(lay, (1, 0, 0)), oracle)

    def test_layout_mismatch(self):
        lay = BasisLayout(4, 2)
        with pytest.raises(ValueError):
            apply_oracle(BasisState(lay, (0, 0, 0)), PermutationOracle(np.arange(4)))


class TestQueryMagnitudes:
    def test_point_mass(self):
        lay = BasisLayout(4, 2, 2)
        q = query_magnitudes(BasisState(lay, (2, 1, 1)))
        assert np.allclose(q, [0, 0, 1, 0])

    def test_uniform(self):
        lay = BasisLayout(4, 2)
        amps = np.zeros(lay.dim, dtype=complex)
        for i in range(4):
            amps[lay.index(i, 0)] = 0.5
        assert np.allclose(query_magnitudes(PureState(amps, lay)), 0.25)

    def test_moduli_squared(self):
        lay = BasisLayout(4, 2)
        amps = np.zeros(lay.dim, dtype=complex)
        for i, p in enumerate([0.5, 0.3, 0.2, 0.0]):
            amps[lay.index(i, 0)] = math.sqrt(p)
        q = query_magnitudes(PureState(amps, lay))
        assert np.allclose(q, [0.5, 0.3, 0.2, 0.0])
        assert q.sum() <= 1 + 1e-9


class TestQueryTrace:
    def test_holds_totals_and_query_count(self):
        trace = DenseTrace(3, [1, 2, 0])
        assert trace.totals.dtype == np.float64
        assert np.array_equal(trace.totals, [1.0, 2.0, 0.0])
        assert trace.num_queries == 3 and trace.num_positions == 3
        assert [f.name for f in dataclasses.fields(DenseTrace)] == ["num_queries", "totals"]
        assert [f.name for f in dataclasses.fields(Transcript)] == ["num_positions", "positions"]
        # a transcript that read 1, 0, 1 has the same dense view, and T = 3 reads
        transcript = Transcript(3, [np.int64(1), 0, 1])
        assert transcript.positions.dtype == np.int64
        assert transcript.positions.tolist() == [1, 0, 1]
        assert transcript.num_queries == transcript.total_mass == 3
        assert transcript.totals.dtype == np.float64
        assert np.array_equal(transcript.totals, [1.0, 2.0, 0.0])
        assert isinstance(trace, QueryTrace) and isinstance(transcript, QueryTrace)

    def test_accepts_mass_up_to_the_tolerance(self):
        DenseTrace(1, np.array([0.5, MASS_RANGE[1] - 0.5]))
        DenseTrace(0, np.zeros(3))
        assert Transcript(3, ()).total_mass == 0.0

    def test_rejects_bad_totals(self):
        with pytest.raises(ValueError, match="negative"):
            DenseTrace(1, np.array([-0.1, 0.5]))
        with pytest.raises(ValueError, match="NaN"):
            DenseTrace(1, np.array([np.nan, 0.5]))
        with pytest.raises(ValueError, match="exceeds the query count"):
            DenseTrace(1, np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="exceeds the query count"):
            DenseTrace(0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one value per position"):
            DenseTrace(2, np.zeros((2, 3)))

    def test_rejects_bad_positions(self):
        for bad in (4, -1):
            with pytest.raises(ValueError, match=r"outside \[0, N\)"):
                Transcript(4, (1, bad))
        with pytest.raises(TypeError):
            Transcript(4, (1.0,))


class TestRun:
    def _noop_alg(self, lay, queries=0):
        def steps(_inp):
            def step(t, amps):
                return amps
            return step
        return AlgorithmSpec("noop", lay, queries, steps)

    def test_zero_query_run(self):
        lay = BasisLayout(4, 2)
        final, trace = run(self._noop_alg(lay), BitStringOracle(np.array([1, 0, 1, 1])))
        assert np.allclose(final.amplitudes, BasisState(lay, (0, 0, 0)).amplitudes)
        assert trace.num_queries == 0
        assert np.allclose(trace.totals, 0)

    def test_rejects_norm_breaking_step(self):
        lay = BasisLayout(4, 2)

        def steps(_inp):
            def step(t, amps):
                return amps * 0.5
            return step

        alg = AlgorithmSpec("shrink", lay, 1, steps)
        with pytest.raises(NonUnitaryStepError):
            run(alg, BitStringOracle(np.array([1, 0, 1, 1])))

    def test_deterministic_traces(self):
        f = PermutationOracle(np.random.default_rng(3).permutation(16))
        alg = grover_spec(16, 3)
        final_a, trace_a = run(alg, f, 5)
        final_b, trace_b = run(alg, f, 5)
        assert np.array_equal(final_a.amplitudes, final_b.amplitudes)
        assert np.array_equal(trace_a.totals, trace_b.totals)

    def test_grover_trace_mass_equals_queries(self):
        f = PermutationOracle(np.random.default_rng(1).permutation(8))
        _, trace = run(grover_spec(8, 2), f, 3)
        assert abs(trace.totals.sum() - 2.0) < 1e-9

    def test_rejects_mass_on_forbidden_position(self):
        # the box Grover excludes position 3, so position 5 gets mass 1/7
        bits = np.zeros(8, dtype=int)
        with pytest.raises(ForbiddenIndexError):
            run(masked_box_grover(8), BitStringOracle(bits, forbidden=5), 3)
        run(masked_box_grover(8), BitStringOracle(bits, forbidden=3), 3)

    def test_layout_mismatch(self):
        alg = self._noop_alg(BasisLayout(4, 2), 1)
        with pytest.raises(ValueError, match="incompatible"):
            run(alg, PermutationOracle(np.arange(4)))

    def _scaled_alg(self, scale):
        def steps(_inp):
            def step(t, amps):
                return amps * scale if t == 0 else amps
            return step
        return AlgorithmSpec("scaled", BasisLayout(4, 2), 2, steps)

    def test_norm_within_tolerance_runs_and_measures(self):
        final, trace = run(self._scaled_alg(1 + 0.9e-9), BitStringOracle(np.array([1, 0, 1, 1])))
        assert measurement_distribution(final, "position")[0] > 1.0
        assert trace.totals.sum() > 2.0

    def test_norm_beyond_tolerance_rejected(self):
        with pytest.raises(NonUnitaryStepError):
            run(self._scaled_alg(1 + 1.1e-9), BitStringOracle(np.array([1, 0, 1, 1])))

    @pytest.mark.parametrize("scale", [0.5, 1 + 1.1e-9, math.nan])
    def test_rejects_a_norm_broken_only_at_the_last_step(self, scale):
        def steps(_inp):
            def step(t, amps):
                return amps * scale if t == 2 else amps
            return step

        alg = AlgorithmSpec("last-step", BasisLayout(4, 2), 2, steps)
        with pytest.raises(NonUnitaryStepError, match="step 2 of last-step"):
            run(alg, BitStringOracle(np.array([1, 0, 1, 1])))


def _differential_cases():
    rng = np.random.default_rng(2024)
    f = PermutationOracle(rng.permutation(16))
    cases = [pytest.param(grover_spec(16, 3), f, 5, id="grover")]
    for family in (HellmanInversion(2), LookupInversion()):
        spec = family.spec(family.preprocess(f), 16)
        cases += [pytest.param(spec, f, y, id=f"{family.name}-y{y}") for y in (0, 7, 13)]
    bits = rng.integers(0, 2, size=16)
    for j in (0, 6, 15):
        box = BitStringOracle(bits, forbidden=j)
        cases.append(pytest.param(parity_box_algorithm(parity_preprocess(bits, 4), j), box, j,
                                  id=f"parity-j{j}"))
        cases.append(pytest.param(masked_box_grover(16), box, j, id=f"box-grover-j{j}"))
    scrambler = haar_scrambler(BasisLayout(8, 8, 2), 4, seed=9)
    cases.append(pytest.param(scrambler, FunctionOracle(rng.integers(0, 8, size=8)), 0, id="scrambler"))
    return cases


@pytest.mark.parametrize("alg, oracle, run_input", _differential_cases())
def test_run_matches_per_query_reference(alg, oracle, run_input, reference_run):
    final, trace = run(alg, oracle, run_input)
    ref_final, ref_rows = reference_run(alg, oracle, run_input)
    assert np.array_equal(final.amplitudes, ref_final.amplitudes)
    assert np.array_equal(trace.totals, ref_rows.sum(axis=0))


@pytest.mark.parametrize("n", [16, 64])
def test_transcripts_match_dense_reference_for_every_input(n, reference_run):
    """Every classical family, every run input: the transcript run and the
    point-mass statevector run agree bit for bit."""
    rng = np.random.default_rng(n)
    f = PermutationOracle(rng.permutation(n))
    sweeps = []
    for family in (HellmanInversion(1), HellmanInversion(2), HellmanInversion(4), LookupInversion()):
        spec = family.spec(family.preprocess(f), n)
        sweeps += [(spec, f, y) for y in range(n)]
    bits = rng.integers(0, 2, size=n)
    for m in (1, 2, 4):
        pad = parity_preprocess(bits, m)
        sweeps += [(parity_box_algorithm(pad, j), BitStringOracle(bits, forbidden=j), j)
                   for j in range(n)]
    distances = set()
    prev = prev_ref = None
    for alg, oracle, run_input in sweeps:
        assert isinstance(alg, ClassicalSpec)
        final, trace = run(alg, oracle, run_input)
        ref_final, ref_rows = reference_run(alg, oracle, run_input)
        assert isinstance(final, BasisState)
        assert np.array_equal(final.amplitudes, ref_final.amplitudes), (alg.name, run_input)
        assert np.array_equal(trace.totals, ref_rows.sum(axis=0)), (alg.name, run_input)
        for register in ("position", "answer", "workspace"):
            assert np.array_equal(measurement_distribution(final, register),
                                  measurement_distribution(ref_final, register))
        if prev is not None and prev.layout == final.layout:
            # the readers' shortcut and the dense norm agree exactly, for a
            # pair of basis states and for a mixed pair
            dense = np.linalg.norm(final.amplitudes - prev.amplitudes)
            assert euclidean_distance(final, prev) == dense
            assert euclidean_distance(final, prev_ref) == dense
            assert euclidean_distance(ref_final, prev) == dense
            distances.add(float(dense))
        prev, prev_ref = final, ref_final
    assert distances == {0.0, math.sqrt(2.0)}
    with pytest.raises(ValueError, match="unknown register"):
        measurement_distribution(prev, "spin")


def _parity_pad_run():
    bits = np.random.default_rng(0).integers(0, 2, size=4096)
    alg = parity_box_algorithm(parity_preprocess(bits, 4), 5)
    assert alg.num_queries == 1023
    return alg, BitStringOracle(bits, forbidden=5), 5


def _hellman_run():
    f = PermutationOracle(np.random.default_rng(16).permutation(2 ** 16))
    family = HellmanInversion(4)
    return family.spec(family.preprocess(f), 2 ** 16), f, 3


@pytest.mark.parametrize("case", [_parity_pad_run, _hellman_run], ids=["parity-pad", "hellman"])
def test_run_peak_memory_stays_under_one_mib(case):
    # a T x N table of float64 magnitudes would take 32 MiB for the parity
    # pad (T=1023, N=4096) and 5 MiB for Hellman (T=10, N=2^16)
    alg, oracle, run_input = case()
    run(alg, oracle, run_input)  # first call outside the measurement
    tracemalloc.start()
    try:
        _, trace = run(alg, oracle, run_input)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.totals.sum() == alg.num_queries
    assert peak < 2 ** 20


def test_transcript_run_allocates_nothing_of_size_n():
    # one float64 per position would take 512 KiB at N = 2^16
    alg, oracle, run_input = _hellman_run()
    run(alg, oracle, run_input)
    tracemalloc.start()
    try:
        _, trace = run(alg, oracle, run_input)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.positions) == alg.num_queries == 10
    assert peak < 4096


@pytest.mark.parametrize("alg, oracle, run_input", _differential_cases())
def test_mass_readers_match_the_dense_totals(alg, oracle, run_input):
    """mass_on and total_mass against the dense view, over the index sets
    callers pass: sorted arrays as a disagreement set or a sample R is, a
    window tuple, the empty set and every single index."""
    _, trace = run(alg, oracle, run_input)
    assert isinstance(trace, Transcript) == isinstance(alg, ClassicalSpec)
    n = trace.num_positions
    rng = np.random.default_rng(n + run_input)
    arrays = [np.flatnonzero(rng.random(n) < p) for p in (0.2, 0.5)]
    window = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
    for indices in [*arrays, window, (), np.array([], dtype=np.int64), *((k,) for k in range(n))]:
        expected = trace.totals[np.asarray(indices, dtype=np.int64)].sum()
        assert trace.mass_on(indices) == expected, indices
    assert trace.total_mass == trace.totals.sum()


class TestClassicalRun:
    def _reader(self, position, queries=2):
        def steps(_run_input):
            def transition(t, pos, ans, work):
                return position, 0, work ^ ans
            return transition
        return ClassicalSpec("reader", BasisLayout(4, 2, 2), queries, steps, "workspace")

    def test_query_on_forbidden_index_rejected(self):
        bits = np.array([1, 0, 1, 1])
        with pytest.raises(ForbiddenIndexError):
            run(self._reader(2), BitStringOracle(bits, forbidden=2))
        final, trace = run(self._reader(1), BitStringOracle(bits, forbidden=2))
        assert np.array_equal(trace.totals, [0, 2, 0, 0])
        assert measurement_distribution(final, "position")[1] == 1.0

    def test_layout_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            run(self._reader(1), PermutationOracle(np.arange(4)))

    @pytest.mark.parametrize("bad_step, bad", [(0, (0, 0, 2)), (1, (-1, 0, 0)), (2, (0, 0, 2))])
    def test_transition_leaving_the_layout_rejected(self, bad_step, bad):
        # a stray triple mid-run used to wrap (position -1 queried position 3)
        # or alias, and the run still ended in an in-range state
        def steps(_run_input):
            def transition(t, pos, ans, work):
                return bad if t == bad_step else (1, 0, 0)
            return transition
        alg = ClassicalSpec("stray", BasisLayout(4, 2, 2), 2, steps, "workspace")
        with pytest.raises(ValueError, match="outside"):
            run(alg, BitStringOracle(np.array([1, 0, 1, 1])))


class TestAmplificationKernel:
    @staticmethod
    def _reflection_run(n, j, oracle):
        """The box Grover with the reflection written as
        2 * outer(allowed, allowed @ grid) - grid."""
        allowed = np.full(n, 1.0 / math.sqrt(n - 1))
        allowed[j] = 0.0
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        grid = np.outer(allowed, minus).astype(np.complex128)
        signs = np.where(oracle.bits == 1, -1.0, 1.0)[:, None]
        for _ in range(default_grover_iterations(n - 1)):
            grid = grid * signs  # the query's phase kickback on |0> - |1>
            grid = 2.0 * np.outer(allowed, allowed @ grid) - grid
        return grid.reshape(-1)

    @pytest.mark.parametrize("j", [0, 6, 15])
    def test_masked_box_grover_matches_outer_reflection(self, j):
        bits = np.zeros(16, dtype=np.int64)
        bits[(j + 5) % 16] = 1
        oracle = BitStringOracle(bits, forbidden=j)
        final, trace = run(masked_box_grover(16), oracle, j)
        expected = self._reflection_run(16, j, oracle)
        assert np.max(np.abs(final.amplitudes - expected)) <= 1e-12
        assert trace.totals[j] == 0.0
        assert measurement_distribution(final, "position")[j] == 0.0


class TestMeasurement:
    def test_point_mass(self):
        lay = BasisLayout(4, 2, 2)
        dist = measurement_distribution(BasisState(lay, (3, 0, 0)), "position")
        assert np.allclose(dist, [0, 0, 0, 1])

    def test_uniform(self):
        lay = BasisLayout(4, 2)
        amps = np.zeros(lay.dim, dtype=complex)
        for i in range(4):
            amps[lay.index(i, 1)] = 0.5
        assert np.allclose(measurement_distribution(PureState(amps, lay), "position"), 0.25)

    def test_post_grover_point_mass_at_four(self):
        # one round at N=4 lands exactly on the marked item: sin^2(3*pi/6) = 1
        f = PermutationOracle(np.array([2, 0, 3, 1]))
        alg = grover_spec(4, 1)
        final, _ = run(alg, f, 3)
        dist = measurement_distribution(final, "position")
        marked = int(np.flatnonzero(f.table == 3)[0])
        assert abs(dist[marked] - 1.0) < 1e-9
        assert abs(dist.sum() - 1.0) < 1e-9

    def test_register_selection(self):
        lay = BasisLayout(2, 2, 3)
        state = BasisState(lay, (1, 0, 2))
        assert np.allclose(measurement_distribution(state, "workspace"), [0, 0, 1])
        assert np.allclose(measurement_distribution(state, "answer"), [1, 0])
        with pytest.raises(ValueError):
            measurement_distribution(state, "spin")


def reference_top_two(state, register):
    dist = measurement_distribution(state, register)
    outcome = int(np.argmax(dist))
    runner_up = np.partition(dist, -2)[-2] if len(dist) > 1 else 0.0
    return outcome, dist[outcome], runner_up


def dense_finals():
    """Seeded dense final states: Grover runs at several round counts and
    Haar-scrambler runs, some with a one-value workspace register."""
    for n, rounds in ((4, 1), (8, 0), (8, 2), (16, 3), (32, 4)):
        f = PermutationOracle(np.random.default_rng(n + rounds).permutation(n))
        yield run(grover_spec(n, rounds), f, n - 1)[0]
    for seed, (n, workspace) in enumerate([(4, 2), (4, 1), (2, 3)]):
        f = FunctionOracle(np.random.default_rng(seed).integers(0, n, size=n))
        yield run(haar_scrambler(BasisLayout(n, n, workspace), 2, seed=seed), f)[0]


class TestTopTwo:
    @pytest.mark.parametrize("register", ["position", "answer", "workspace"])
    def test_dense_states_match_the_distribution(self, register):
        for state in dense_finals():
            assert isinstance(state, PureState)
            outcome, p, runner_up = top_two(state, register)
            ref_outcome, ref_p, ref_runner_up = reference_top_two(state, register)
            assert (outcome, p, runner_up) == (ref_outcome, ref_p, ref_runner_up)
            assert type(outcome) is int and type(p) is float and type(runner_up) is float

    @pytest.mark.parametrize("register", ["position", "answer", "workspace"])
    def test_basis_states_match_the_distribution(self, register):
        for layout in (BasisLayout(4, 2, 1), BasisLayout(8, 8, 2), BasisLayout(2, 2, 3)):
            for index in range(0, layout.dim, 3):
                state = BasisState(layout, layout.coords(index))
                assert top_two(state, register) == reference_top_two(state, register)

    def test_one_value_register_has_no_runner_up(self):
        lay = BasisLayout(4, 2, 1)
        assert top_two(BasisState(lay, (2, 1, 0)), "workspace") == (0, 1.0, 0.0)
        dense = PureState(BasisState(lay, (2, 1, 0)).amplitudes, lay)
        assert top_two(dense, "workspace") == (0, 1.0, 0.0)

    def test_unknown_register_rejected(self):
        lay = BasisLayout(4, 2)
        basis = BasisState(lay, (1, 0, 0))
        for state in (basis, PureState(basis.amplitudes, lay)):
            with pytest.raises(ValueError):
                top_two(state, "spin")


class TestDistances:
    def test_identical(self):
        lay = BasisLayout(4, 2)
        s = BasisState(lay, (1, 0, 0))
        assert euclidean_distance(s, s) == 0.0
        assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_orthogonal_states(self):
        lay = BasisLayout(4, 2)
        d = euclidean_distance(BasisState(lay, (0, 0, 0)), BasisState(lay, (1, 0, 0)))
        assert abs(d - math.sqrt(2)) < 1e-12

    def test_disjoint_point_masses_tv_two(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            euclidean_distance(BasisState(BasisLayout(4, 2), (0, 0, 0)),
                               BasisState(BasisLayout(4, 4), (0, 0, 0)))


class TestGroverInversion:
    def test_exact_at_four(self):
        f = PermutationOracle(np.array([1, 3, 0, 2]))
        candidate, prob, trace = grover_invert(f, 0)
        assert candidate == 2 and abs(prob - 1.0) < 1e-9
        assert trace.num_queries == 1

    def test_zero_iterations_at_two(self):
        f = PermutationOracle(np.array([1, 0]))
        final, trace = run(grover_spec(2, 0), f, 0)
        _, prob, _ = top_two(final)
        assert abs(prob - 0.5) < 1e-12
        assert trace.num_queries == 0

    def test_sixty_four(self):
        f = PermutationOracle(np.random.default_rng(11).permutation(64))
        candidate, prob, trace = grover_invert(f, 17)
        closed = math.sin(13 * math.asin(1 / 8)) ** 2
        assert trace.num_queries == 6
        assert abs(prob - closed) < 1e-6
        assert prob >= 0.99
        assert int(f.table[candidate]) == 17

    def test_amplification_curve_matches_closed_form(self):
        # probability after k rounds is sin^2((2k+1) * asin(1/sqrt(N)))
        n = 8
        f = PermutationOracle(np.random.default_rng(5).permutation(n))
        theta = math.asin(1 / math.sqrt(n))
        for k in range(5):
            final, _ = run(grover_spec(n, k), f, 6)
            marked = int(np.flatnonzero(f.table == 6)[0])
            prob = measurement_distribution(final, "position")[marked]
            assert abs(prob - math.sin((2 * k + 1) * theta) ** 2) < 1e-9

    def test_default_iterations(self):
        assert default_grover_iterations(4) == 1
        assert default_grover_iterations(64) == 6
        assert default_grover_iterations(1024) == 25
