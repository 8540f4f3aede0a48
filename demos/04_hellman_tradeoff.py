"""Iterate tables: trade advice bits against forward evaluations.

Builds anchor tables at a sweep of strides for random permutations on 1024
elements, inverts every point through each table, and tabulates measured
advice size S (bits) against worst-case oracle calls T.  The product S*T
hugs N * 2n across the whole sweep.
"""

import numpy as np

from advice_lab import hellman_build, hellman_invert, measure_tradeoff


def anchor_tour():
    print("-" * 72)
    print("  anchors on the 8-cycle of x -> x+1 (stride 3)")
    f = np.array([(x + 1) % 8 for x in range(8)])
    table = hellman_build(f, 3)
    for left, right, stride in table.pairs:
        print(f"    pair ({left} -> {right}), stride {stride}")
    x, calls = hellman_invert(4, table, f)
    print(f"  invert y=4: walk to an anchor, jump back, walk forward -> "
          f"x={x} in {calls} evaluations")


def sweep():
    n = 1024
    target = n * 2 * 10
    rng = np.random.default_rng(99)
    print("-" * 72)
    print(f"  stride sweep at N={n} (3 random permutations per stride)")
    print(f"  {'s':>4} {'entries':>8} {'S bits':>8} {'T worst':>8} "
          f"{'S*T':>9} {'S*T/(N*2n)':>11}")
    for s in (8, 16, 32, 64, 128):
        for _ in range(3):
            point = measure_tradeoff(rng.permutation(n), s)
            ratio = point["bits_times_calls"] / target
            print(f"  {s:>4} {point['entries']:>8} {point['advice_bits']:>8} "
                  f"{point['worst_calls']:>8} {point['bits_times_calls']:>9} "
                  f"{ratio:>11.2f}")
    print(f"\n  target N*2n = {target} bits*calls; doubling the stride halves")
    print("  the table and doubles the walk, so the product barely moves.")


def main():
    print("=" * 72)
    print("  TIME/MEMORY TRADEOFF FOR PERMUTATION INVERSION")
    print("=" * 72)
    anchor_tour()
    sweep()


if __name__ == "__main__":
    main()
