"""Collision finder, perturbation-bound verifiers, box experiment."""

import itertools
import math

import numpy as np
import pytest

from advice_lab.adapters import haar_scrambler, masked_box_grover, parity_box_algorithm
from advice_lab.advice import group_boundaries, parity_preprocess
from advice_lab.hybrid import (
    ParityAdviceScheme,
    box_experiment,
    collision_in_window,
    expectation_check,
    perturbation_bound,
    verify_swapping,
    verify_tv,
)
from advice_lab.qsim import (
    AlgorithmSpec,
    BasisLayout,
    BasisState,
    BitStringOracle,
    FunctionOracle,
    PermutationOracle,
    DenseTrace,
    PureState,
    Transcript,
    default_grover_iterations,
    grover_spec,
    run,
)
from advice_lab.util import bitstring


def brute_force_pair(members, window, n):
    """Independent oracle: scan all pairs for one agreeing outside the window."""
    outside = ((1 << n) - 1) ^ sum(1 << i for i in window)
    items = sorted(int(v) for v in members)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if (a ^ b) & outside == 0:
                return a, b
    return None


def enumerate_class(n, m, alpha):
    """Reference class: scan all 2^n strings for those whose group parities
    spell alpha, returned in increasing order."""
    xs = np.arange(1 << n, dtype=np.uint64)
    keys = np.zeros(1 << n, dtype=np.uint64)
    bounds = group_boundaries(n, m).tolist()
    for g in range(m):
        mask = np.uint64(((1 << bounds[g + 1]) - 1) ^ ((1 << bounds[g]) - 1))
        parity = np.bitwise_count(xs & mask).astype(np.uint64) & np.uint64(1)
        keys |= parity << np.uint64(g)
    alpha_key = sum(int(b) << g for g, b in enumerate(alpha))
    return np.flatnonzero(keys == alpha_key)


def advice_of(m, x, n):
    """Advice string of an n-bit int of any size, m parity groups."""
    return bitstring(parity_preprocess([(x >> i) & 1 for i in range(n)], m).parities)


def perturbation_instance(rng):
    """A random (algorithm, oracle pair, input): Grover with T = 1 or 2 against
    a swapped permutation, box-Grover against flipped bits, or a Haar scrambler
    with T = 1 to 3 against flipped bits, at N = 4 to 16."""
    kind = ("grover", "box-grover", "scrambler")[int(rng.integers(3))]
    n = int(rng.choice([4, 8, 16] if kind != "scrambler" else [4, 8]))
    if kind == "grover":
        f = rng.permutation(n)
        a, b = rng.choice(n, size=2, replace=False)
        g = f.copy()
        g[[a, b]] = g[[b, a]]
        y = int(f[a]) if rng.random() < 0.7 else int(rng.integers(n))
        return grover_spec(n, int(rng.integers(1, 3))), PermutationOracle(f), PermutationOracle(g), y
    bits = rng.integers(0, 2, size=n)
    j = int(rng.integers(n))
    other = bits.copy()
    other[rng.choice(np.delete(np.arange(n), j), size=int(rng.integers(1, 3)), replace=False)] ^= 1
    if kind == "box-grover":
        return (masked_box_grover(n), BitStringOracle(bits, forbidden=j),
                BitStringOracle(other, forbidden=j), j)
    alg = haar_scrambler(BasisLayout(n, 2, 2), int(rng.integers(1, 4)), int(rng.integers(2 ** 31)))
    return alg, BitStringOracle(bits), BitStringOracle(other), 0


def agree_outside(x, y, window, n):
    return (x ^ y) & (((1 << n) - 1) ^ sum(1 << i for i in window)) == 0


class TestCollisionFinder:
    def test_half_space_example(self):
        # n=4, m=1: all strings with bit 0 clear, window = last two coordinates
        members = [x for x in range(16) if not x & 1]
        x, y = collision_in_window(members, [2, 3], 4)
        assert x != y and x in members and y in members
        assert (x ^ y) & 0b0011 == 0

    def test_two_string_class(self):
        x, y = collision_in_window([0b00, 0b11], [0, 1], 2)
        assert (x, y) == (0, 3)

    def test_constructed_flips_inside_window(self):
        # strings equal outside the window by construction
        members = [0b0000, 0b0101, 0b0001, 0b0100]
        x, y = collision_in_window(members, [0, 2], 4)
        assert (x ^ y) & 0b1010 == 0

    def test_matches_brute_force_on_random_classes(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(4, 11))
            m = int(rng.integers(1, min(n - 1, 6) + 1))
            members = rng.choice(1 << n, size=2 ** (n - m), replace=False)
            window = sorted(int(i) for i in rng.choice(n, size=m + 1, replace=False))
            x, y = collision_in_window(members, window, n)
            outside = ((1 << n) - 1) ^ sum(1 << i for i in window)
            assert x != y and (x ^ y) & outside == 0
            assert {x, y} <= set(int(v) for v in members)
            assert brute_force_pair(members, window, n) is not None

    @pytest.mark.parametrize("strings, window", [([1, 9], [1]), ([-8, 0], [0])],
                             ids=["past-2^n", "negative"])
    def test_rejects_strings_outside_n_bits(self, strings, window):
        with pytest.raises(ValueError, match="outside"):
            collision_in_window(strings, window, 3)

    @pytest.mark.parametrize("strings, window", [([1.5, 3.9], [0, 1]), ([0, 3], [0.9, 1.2])],
                             ids=["string", "window"])
    def test_rejects_non_integers(self, strings, window):
        with pytest.raises(TypeError):
            collision_in_window(strings, window, 3)

    def test_rejects_a_repeated_string(self):
        # one string is not two members: the size bound counts distinct strings
        with pytest.raises(ValueError, match="repeats an element"):
            collision_in_window([5, 5], [0], 3)

    def test_rejects_when_no_pair_exists(self):
        # too small a set, all pairwise different outside the window
        with pytest.raises(ValueError):
            collision_in_window([0b0000, 0b1000], [0, 1], 4)


class TestParityPartitions:
    def test_class_sizes_and_membership(self):
        scheme = ParityAdviceScheme(2)
        n = 8
        pad = scheme.partition(n, "10")
        assert pad.log2_class_size == n - 2
        for window in itertools.combinations(range(n), 3):
            x, y = pad.collision(window)
            assert x < y and agree_outside(x, y, window, n)
            assert advice_of(scheme.m, x, n) == advice_of(scheme.m, y, n) == "10"

    def test_partition_derives_its_group_starts(self):
        pad = ParityAdviceScheme(3).partition(10, "101")
        assert pad.bounds.tolist() == [0, 4, 7, 10] and pad.parities.tolist() == [1, 0, 1]
        assert (pad.m, pad.log2_class_size) == (3, 7)
        with pytest.raises(ValueError, match="1 <= m < N"):
            ParityAdviceScheme(3).partition(3, "010")
        bits = np.random.default_rng(6).integers(0, 2, size=12)
        drawn = parity_preprocess(bits, 3)
        assert ParityAdviceScheme(3).partition(12, bitstring(drawn.parities)) == drawn

    def test_partitions_cover_everything(self):
        scheme = ParityAdviceScheme(3)
        n = 6
        total = 0
        for key in range(8):
            alpha = format(key, "03b")[::-1]
            total += 1 << scheme.partition(n, alpha).log2_class_size
        assert total == 2 ** n

    def test_coset_pair_matches_enumeration(self):
        cases = 0
        for n in range(2, 9):
            for m in range(1, n):
                scheme = ParityAdviceScheme(m)
                for key in range(1 << m):
                    alpha = format(key, f"0{m}b")
                    pad = scheme.partition(n, alpha)
                    members = enumerate_class(n, m, alpha)
                    assert 1 << pad.log2_class_size == len(members)
                    for window in itertools.combinations(range(n), m + 1):
                        assert pad.collision(window) == collision_in_window(members, window, n)
                        cases += 1
        assert cases == 4880

    def test_classes_past_enumeration_range(self):
        rng = np.random.default_rng(11)
        n, m = 4096, 4
        scheme = ParityAdviceScheme(m)
        for _ in range(5):
            alpha = "".join(rng.choice(["0", "1"], size=m))
            pad = scheme.partition(n, alpha)
            assert pad.log2_class_size == n - m
            window = sorted(int(i) for i in rng.choice(n, size=m + 1, replace=False))
            x, y = pad.collision(window)
            assert x < y and agree_outside(x, y, window, n)
            assert advice_of(scheme.m, x, n) == advice_of(scheme.m, y, n) == alpha

    @pytest.mark.parametrize("alpha", ["1", "101", "12", "ab", ""])
    def test_rejects_malformed_advice(self, alpha):
        with pytest.raises(ValueError, match="characters of 0/1"):
            ParityAdviceScheme(2).partition(8, alpha)

    def test_collision_rejects_bad_windows(self):
        pad = ParityAdviceScheme(2).partition(8, "01")
        with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
            pad.collision([0, 1, 8])
        with pytest.raises(ValueError, match=r"outside \[0, 8\)"):
            pad.collision([-1, 0, 1])
        with pytest.raises(ValueError, match="no collision"):
            pad.collision([0, 4])  # one index in each group
        with pytest.raises(TypeError):
            pad.collision([0.9, 1.2, 4])


class TestVerifySwapping:
    def test_identical_oracles(self):
        bits = np.random.default_rng(1).integers(0, 2, size=8)
        pad_alg = parity_box_algorithm(parity_preprocess(bits, 2), 3)
        rep = verify_swapping(pad_alg, BitStringOracle(bits, forbidden=3),
                              BitStringOracle(bits.copy(), forbidden=3), 3)
        assert rep.bound == 0.0 and rep.actual == 0.0 and rep.holds
        assert rep.delta_set == ()

    def test_adapter_avoiding_the_difference(self):
        bits = np.zeros(8, dtype=int)
        other = bits.copy()
        other[6] = 1  # group 1; the adapter for j in group 0 never reads it
        pad = parity_preprocess(bits, 2)
        alg = parity_box_algorithm(pad, 1)
        rep = verify_swapping(alg, BitStringOracle(bits, forbidden=1),
                              BitStringOracle(other, forbidden=1), 1)
        assert rep.bound == 0.0 and rep.actual == 0.0 and rep.holds

    def test_grover_random_single_swap_trials(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = 16
            f = rng.permutation(n)
            a, b = rng.choice(n, size=2, replace=False)
            g = f.copy()
            g[[a, b]] = g[[b, a]]
            alg = grover_spec(n, default_grover_iterations(n))
            rep = verify_swapping(alg, PermutationOracle(f), PermutationOracle(g),
                                  int(f[a]))
            assert rep.holds, rep

    def test_one_query_needs_the_factor_two(self):
        # one Grover round at N=4 moves the state by sqrt(2) = 2 * sqrt(T * mass)
        alg = grover_spec(4, 1)
        rep = verify_swapping(alg, PermutationOracle(np.array([0, 1, 2, 3])),
                              PermutationOracle(np.array([1, 0, 2, 3])), 0)
        mass = rep.trace.mass_on(rep.delta_set)
        assert rep.actual == pytest.approx(math.sqrt(2))
        assert rep.actual > math.sqrt(rep.trace.num_queries * mass) + 1e-9
        assert rep.bound == perturbation_bound(1, mass) == pytest.approx(math.sqrt(2))
        assert rep.holds

    def test_factor_two_bounds_and_is_needed_on_random_instances(self):
        rng = np.random.default_rng(1997)
        needed = 0
        for _ in range(300):
            alg, ox, oy, run_input = perturbation_instance(rng)
            rep = verify_swapping(alg, ox, oy, run_input)
            mass = rep.trace.mass_on(rep.delta_set)
            num_queries = rep.trace.num_queries
            assert rep.bound == perturbation_bound(num_queries, mass)
            assert rep.actual <= 2 * math.sqrt(num_queries * mass) + 1e-9
            needed += rep.actual > math.sqrt(num_queries * mass) + 1e-9
        assert needed > 0

    def test_oracle_shape_mismatch(self):
        alg = grover_spec(4, 1)
        with pytest.raises(ValueError):
            verify_swapping(alg, PermutationOracle(np.arange(4)),
                            BitStringOracle(np.array([0, 1, 0, 1])), 0)


def test_types_holding_arrays_compare_by_identity():
    def make():
        bits = np.array([0, 1, 1, 0])
        final, trace = run(grover_spec(4, 1), PermutationOracle(np.arange(4)), 1)
        report = verify_swapping(masked_box_grover(4), BitStringOracle(bits, forbidden=0),
                                 BitStringOracle(bits, forbidden=0), 0)
        return (final, trace, Transcript(4, [1, 2]), FunctionOracle(np.arange(4)),
                PermutationOracle(np.arange(4)), BitStringOracle(bits), report)

    firsts, seconds = make(), make()
    assert [type(a).__name__ for a in firsts] == [
        "PureState", "DenseTrace", "Transcript", "FunctionOracle", "PermutationOracle",
        "BitStringOracle", "SwapReport"]
    for a, b in zip(firsts, seconds):
        assert (a == a) is True and (a == b) is False and (a != b) is True


class TestVerifyTv:
    def test_equal_states(self):
        lay = BasisLayout(4, 2)
        state = PureState(np.full(8, math.sqrt(1 / 8)), lay)
        rep = verify_tv(state, state)
        assert rep.tv == 0.0 and rep.holds

    def test_orthogonal_basis_states(self):
        lay = BasisLayout(4, 2)
        rep = verify_tv(BasisState(lay, (0, 0, 0)), BasisState(lay, (1, 0, 0)))
        assert abs(rep.tv - 2.0) < 1e-12
        assert abs(rep.bound - 4 * math.sqrt(2)) < 1e-12
        assert rep.holds

    def test_random_state_pairs(self):
        rng = np.random.default_rng(3)
        lay = BasisLayout(8, 2, 2)
        for _ in range(100):
            va = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
            vb = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
            a = PureState(va / np.linalg.norm(va), lay)
            b = PureState(vb / np.linalg.norm(vb), lay)
            for register in ("position", "answer", "workspace"):
                assert verify_tv(a, b, register).holds


class TestExpectationCheck:
    def test_full_read_adapter_has_unit_mean(self):
        # one group covering everything: every allowed position is read once,
        # so the mean off j is exactly T/(N-1) = 1
        bits = np.random.default_rng(4).integers(0, 2, size=16)
        pad = parity_preprocess(bits, 1)
        alg = parity_box_algorithm(pad, 9)
        _, trace = run(alg, BitStringOracle(bits, forbidden=9), 9)
        rep = expectation_check(trace, 9)
        assert rep.expected == 1.0
        assert rep.mean == 1.0
        assert rep.holds

    def test_hand_made_totals(self):
        def check(totals):
            return expectation_check(DenseTrace(15, totals), 4)

        # T = 15 at N = 16: one unit on every position but j = 4
        exact = np.ones(16)
        exact[4] = 0.0
        rep = check(exact)
        assert rep.mean == rep.expected == 1.0 and rep.holds
        # dense box-Grover totals differ from T by rounding of this size
        assert check(exact * (1 + 1.8e-13)).holds
        off = exact.copy()  # the sum is off T: above it, the trace itself refuses
        off[0] += 1e-6
        with pytest.raises(ValueError, match="exceeds the query count"):
            check(off)
        off[0] -= 2e-6
        assert not check(off).holds
        on_j = exact.copy()  # the sum is T, but j carries mass
        on_j[7], on_j[4] = 1 - 1e-6, 1e-6
        assert not check(on_j).holds

    @pytest.mark.parametrize("j, error", [(20, ValueError), (-1, ValueError), (2.5, TypeError)],
                             ids=["past-N", "negative", "non-integer"])
    def test_rejects_a_bad_forbidden_index(self, j, error):
        with pytest.raises(error):
            expectation_check(DenseTrace(120, np.arange(16.0)), j)

    @pytest.mark.parametrize("trace", [Transcript(1, []), DenseTrace(0, [0.0])],
                             ids=["transcript", "dense"])
    def test_rejects_a_one_position_trace(self, trace):
        with pytest.raises(ValueError, match="N < 2"):
            expectation_check(trace, 0)


class TestBoxExperiment:
    def test_parity_adapter_all_hold(self):
        records = box_experiment(8, 2, parity_box_algorithm, trials=30, seed=42)
        assert len(records) == 30
        assert all(rec.swap.holds for rec in records)
        assert all(rec.expectation.holds for rec in records)
        for rec in records:
            assert rec.log2_class_size == 6
            assert len(rec.window) == 3
            assert rec.window_mass == float(rec.swap.trace.totals[list(rec.window)].sum())
            # pair members really sit in the advice class and differ inside it
            outside = ((1 << 8) - 1) ^ sum(1 << i for i in rec.window)
            assert (rec.x ^ rec.y) & outside == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_window_and_bound_follow_the_scheme(self, m):
        for rec in box_experiment(8, m, parity_box_algorithm, trials=4, seed=m):
            assert len(rec.window) == m + 1
            assert rec.log2_class_size == 8 - m
            assert rec.eq_bound == pytest.approx(
                2 * rec.swap.trace.num_queries * math.sqrt((m + 1) / 7))

    def test_zero_query_algorithm_gives_zero_distances(self):
        lay = BasisLayout(8, 2, 1)

        def factory(pad, j):
            def steps(_inp):
                def step(t, amps):
                    return amps
                return step
            return AlgorithmSpec("idle", lay, 0, steps)

        for rec in box_experiment(8, 2, factory, trials=10, seed=7):
            assert rec.swap.actual == 0.0
            assert rec.swap.bound == 0.0
            assert rec.expectation.mean == 0.0
            assert rec.swap.holds and rec.expectation.holds

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_past_enumeration_all_hold(self, n):
        for rec in box_experiment(n, 2, parity_box_algorithm, trials=6, seed=n):
            assert rec.swap.holds
            assert rec.log2_class_size == n - 2
            assert rec.x != rec.y and agree_outside(rec.x, rec.y, rec.window, n)
            assert advice_of(2, rec.x, n) == advice_of(2, rec.y, n) == rec.alpha

    @pytest.mark.parametrize("m", [0, 8])
    def test_rejects_bad_m(self, m):
        for trials in (0, 1):  # checked before any trial
            with pytest.raises(ValueError, match="1 <= m < N"):
                box_experiment(8, m, parity_box_algorithm, trials, 0)
