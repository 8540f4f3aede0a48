"""Compressing a permutation with an inversion algorithm.

An algorithm that inverts many points while rarely touching a random sample R
lets us drop part of the permutation from its description: the decoder
re-derives those values by simulating the algorithm against a patched oracle
that is constant on R.  This walkthrough encodes a random permutation on 16
elements, prints the exact component bit accounting, decodes it back, and
closes with the counting arithmetic that turns short encodings into a bound.
"""

import math

import numpy as np

from advice_lab import (
    CompressionParams,
    LookupInversion,
    PermutationOracle,
    counting_check,
    decode,
    encode,
    encoding_to_json,
    inversion_set,
    length_bound_bits,
    sample_R,
)


def main():
    n = 16
    rng = np.random.default_rng(5)
    f = PermutationOracle(rng.permutation(n))
    family = LookupInversion(verify=True)
    params = CompressionParams(delta=0.2, c=0.001)

    print("=" * 72)
    print("  PERMUTATION COMPRESSION VIA AN INVERTER")
    print("=" * 72)
    print(f"\n  f = {f.table.tolist()}")

    inverted = inversion_set(f, family)
    print(f"  the inverter succeeds on {len(inverted)}/{n} points "
          f"(threshold 2/3, read exactly off the statevector)")

    R = sample_R(n, params.delta, 1, rng)
    print(f"\n  sampled R = {R.tolist()}")
    enc = encode(f, family, R, params)
    if enc is None:
        print("  encoding failed (too few good elements) -- redraw R")
        return
    print(f"  good elements (inverted, stray mass on R under c/T): {sorted(enc.runs)}")
    print("\n  component bit accounting:")
    for name, bits in enc.component_bits().items():
        print(f"    {name:>7}: {bits:>4} bits")
    print(f"    total logical length: {enc.logical_bits} bits")
    bound = length_bound_bits(enc)
    plain = enc.advice_bits + math.log2(math.factorial(n))
    print(f"    budget S + log2 N! - log2 |G|! + 4 log2 N = {bound:.1f} bits")
    print(f"    writing f next to the advice would cost {plain:.1f} bits")
    print(f"    envelope: {len(encoding_to_json(enc))} JSON bytes")

    decoded, finals = decode(enc, R, family, params)
    print(f"\n  decode reconstructs f exactly: {bool(np.array_equal(decoded, f.table))}")
    print("  (the good values were never written; the decoder re-derived them")
    print("   by simulating the inverter against the patched oracle, once for")
    print(f"   each of the {len(finals)} stored images)")

    print("\n  counting arithmetic: a decoder correct for 80% of a set X needs")
    print("  at least 0.8|X| distinct encodings, so short encodings bound |X|.")
    x_bits = math.log2(math.factorial(n))
    rep = counting_check(x_bits, enc.logical_bits + 10, c=0.8)
    print(f"    log2(0.8) + log2 16! = {rep.required_bits:.1f} bits required")
    print(f"    available here: {rep.available_bits:.1f} bits -> holds: {rep.holds}")
    print(f"    slack: {rep.slack_bits:.1f} bits (the asymptotic argument drives")
    print("    this slack negative for algorithms that are too good, which is")
    print("    exactly what rules them out)")


if __name__ == "__main__":
    main()
