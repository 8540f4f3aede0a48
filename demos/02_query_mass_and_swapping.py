"""Query-magnitude accounting and the oracle-perturbation bound.

Shows a run's per-position query totals on a classical adapter (whole query
counts: the positions its transcript reads) and on amplification runs of 1, 2
and 3 rounds (fractional mass gathering on the preimage), then perturbs
oracles on small sets and compares the final-state movement to the hybrid
lemma's 2 * sqrt(T * mass on the perturbed positions).
"""

import numpy as np

from advice_lab import (
    BitStringOracle,
    PermutationOracle,
    grover_spec,
    parity_box_algorithm,
    parity_preprocess,
    run,
    verify_swapping,
)


def transcript_demo():
    print("-" * 72)
    print("  classical adapter: the totals count the transcript's reads")
    bits = np.array([1, 0, 1, 1, 0, 1, 0, 0])
    pad = parity_preprocess(bits, 2)
    j = 2
    alg = parity_box_algorithm(pad, j)
    _, trace = run(alg, BitStringOracle(bits, forbidden=j), j)
    others, pad_bit = pad.reads(j)
    print(f"  string 10110100, two parity groups, recover index {j}")
    print(f"  reads positions {others.tolist()} and pad bit {pad_bit}")
    print(f"  totals: {trace.totals}")


def magnitude_demo():
    print("-" * 72)
    print("  amplification runs: fractional mass gathers on the preimage")
    rng = np.random.default_rng(1)
    f = PermutationOracle(rng.permutation(8))
    x = 5
    y = int(f.table[x])
    print(f"  per-position query totals after k rounds, preimage x = {x}:")
    for k in (1, 2, 3):
        _, trace = run(grover_spec(8, k), f, y)
        print("    k = %d: %s  (sum %.6f, on x %.6f)"
              % (k, np.array2string(trace.totals, precision=3), trace.totals.sum(),
                 trace.totals[x]))


def swapping_demo():
    print("-" * 72)
    print("  perturbation bound: ||final_x - final_y|| vs 2 * sqrt(T * mass on delta)")
    rng = np.random.default_rng(7)
    print(f"  {'instance':<26} {'|delta|':>7} {'bound':>9} {'actual':>9} {'holds':>6}")
    for trial in range(6):
        n = 16
        f = rng.permutation(n)
        a, b = rng.choice(n, size=2, replace=False)
        g = f.copy()
        g[[a, b]] = g[[b, a]]
        alg = grover_spec(n, 3)
        rep = verify_swapping(alg, PermutationOracle(f), PermutationOracle(g), int(f[a]))
        print(f"  transposed pair #{trial:<9} {len(rep.delta_set):>7} "
              f"{rep.bound:>9.4f} {rep.actual:>9.4f} {str(rep.holds):>6}")
    bits = rng.integers(0, 2, size=16)
    other = bits.copy()
    other[10] ^= 1
    pad = parity_preprocess(bits, 2)
    alg = parity_box_algorithm(pad, 3)
    rep = verify_swapping(alg, BitStringOracle(bits, forbidden=3),
                          BitStringOracle(other, forbidden=3), 3)
    print(f"  {'bit flip, adapter':<26} {len(rep.delta_set):>7} "
          f"{rep.bound:>9.4f} {rep.actual:>9.4f} {str(rep.holds):>6}")


def main():
    print("=" * 72)
    print("  QUERY MAGNITUDES AND THE PERTURBATION BOUND")
    print("=" * 72)
    transcript_demo()
    magnitude_demo()
    swapping_demo()


if __name__ == "__main__":
    main()
