"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Seeds are pinned; every expected value is either a closed form
evaluated in place or checked against an independent reference path.
"""

import itertools
import math
import time

import numpy as np

from advice_lab import harness
from advice_lab.adapters import masked_box_grover, parity_box_algorithm
from advice_lab.advice import measure_tradeoff, parity_answer, parity_answer_sweep, parity_preprocess
from advice_lab.compress import rank_perm, rank_set, unrank_perm, unrank_set
from advice_lab.hybrid import expectation_check
from advice_lab.qsim import BitStringOracle, PermutationOracle, grover_invert, run
from advice_lab.util import stream_rng

SEED = 24601


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_grover_exact_success():
    start = time.perf_counter()
    f64 = PermutationOracle(stream_rng(SEED, 1).permutation(64))
    _, p64, trace64 = grover_invert(f64, 17)
    closed = math.sin(13 * math.asin(1 / 8)) ** 2
    f4 = PermutationOracle(np.array([2, 0, 3, 1]))
    _, p4, _ = grover_invert(f4, 3)
    elapsed = time.perf_counter() - start
    ok = (abs(p64 - closed) <= 1e-6 and trace64.num_queries == 6
          and abs(p4 - 1.0) <= 1e-9 and elapsed < 1.0)
    _report(1, "grover inversion", ok,
            f"N=64 p={p64:.9f} vs sin^2(13*asin(1/8))={closed:.9f}, "
            f"N=4 p={p4:.12f}, runtime {elapsed:.3f}s")


def test_criterion_02_total_mass_audit():
    trials = 600  # cycles through the six built-ins: 100 instances each
    rows = harness.eq2_trials(trials, SEED)
    per_alg = {}
    for row in rows:
        per_alg.setdefault(row["algorithm"].split("[")[0], []).append(row)
    ok = all(row["holds"] for row in rows) and all(len(v) == 100 for v in per_alg.values())
    worst = max(row["total_mass"] - row["num_queries"] for row in rows)
    _report(2, "total query magnitude <= T", ok,
            f"{len(rows)} runs over {sorted(per_alg)} , max excess {worst:.2e}")


def test_criterion_03_swapping_bound():
    rows = harness.swapping_trials(100, SEED)
    holds = sum(1 for r in rows if r["holds"])
    margin = min(r["bound"] - r["actual"] for r in rows)
    ok = holds == 100
    _report(3, "final-state distance bound", ok,
            f"{holds}/100 hold at N in (8,16), min margin {margin:.4f}")


def test_criterion_04_tv_bound():
    rows = harness.tv_trials(100, SEED)
    holds = sum(1 for r in rows if r["holds"])
    ok = holds == 100
    _report(4, "tv <= 4 * euclidean", ok, f"{holds}/100 hold")


def test_criterion_05_parity_pad_exhaustive():
    rng = stream_rng(SEED, 5)
    checked = 0
    ok = True
    for exp in range(3, 11):
        n = 2 ** exp
        strings = rng.integers(0, 2, size=(20, n)).astype(np.uint8)
        for m in range(1, n):
            cap = math.ceil(n / m) - 1
            answers, counts = parity_answer_sweep(strings, m)
            ok = ok and np.array_equal(answers, strings)
            ok = ok and counts.max() <= cap and counts[0] == cap
            checked += answers.size
            # spot-check the single-query path against the batch path
            row = int(rng.integers(20))
            j = int(rng.integers(n))
            pad = parity_preprocess(strings[row], m)
            bit, count = parity_answer(j, pad, strings[row])
            ok = ok and bit == strings[row, j] and count == counts[j]
            if not ok:
                break
        if not ok:
            break
    _report(5, "parity pad always correct within ceil(N/m)-1 reads", ok,
            f"{checked} recoveries over N=8..1024, every m, every index")


def test_criterion_06_hellman_tradeoff():
    start = time.perf_counter()
    n = 1024
    target = n * 2 * 10
    points = []
    ok = True
    for trial in range(50):
        f = stream_rng(SEED, 6, 32, trial).permutation(n)
        point = measure_tradeoff(f, 32)  # verifies f(x)=y for every y
        ok = ok and point["worst_calls"] <= 2 * 32 + 2
        points.append(point)
    ratios = []
    for s in (8, 16, 64):
        for trial in range(3):
            f = stream_rng(SEED, 6, s, trial).permutation(n)
            point = measure_tradeoff(f, s)
            ok = ok and point["worst_calls"] <= 2 * s + 2
            points.append(point)
    for point in points:
        ratio = point["bits_times_calls"] / target
        ratios.append(ratio)
        ok = ok and 1 / 8 <= ratio <= 8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(6, "iterate-table inversion and size*time band", ok,
            f"50 permutations at s=32 all inverted, product/(N*2n) in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}] across s=8..64, runtime {elapsed:.1f}s")


def test_criterion_07_compression_roundtrip():
    table = harness.cmd_compress(16, delta=0.2, c=0.001, trials=100, seed=SEED)
    successes = sum(1 for r in table.rows if r["roundtrip_exact"])
    lengths_ok = all(r["length_identity_ok"] and r["length_bound_ok"]
                     for r in table.rows if not r["encode_failed"])
    ok = successes >= 80 and lengths_ok
    _report(7, "decode(encode(f)) = f", ok,
            f"{successes}/100 exact roundtrips, length identity and "
            f"S + log2 N! - log2 |G|! + 4 log2 N bound on every encode")
    global _COMPRESS_ROWS
    _COMPRESS_ROWS = table.rows


_COMPRESS_ROWS = None


def test_criterion_08_hybrid_oracle_closeness():
    rows = _COMPRESS_ROWS or harness.cmd_compress(
        16, delta=0.2, c=0.001, trials=100, seed=SEED).rows
    bound = 2 * math.sqrt(0.001) + 1e-9
    worst = max(r["max_h_distance"] for r in rows)
    ok = all(r["h_ok"] for r in rows) and worst <= bound
    _report(8, "good elements cannot tell f from the patched oracle", ok,
            f"max final-state distance {worst:.3e} <= 2*sqrt(c)={2 * math.sqrt(0.001):.4f}")


def test_criterion_09_codec_bijections():
    ok = True
    for n in range(1, 9):
        for k in range(n + 1):
            ranks = set()
            for combo in itertools.combinations(range(n), k):
                r = rank_set(combo)
                ok = ok and tuple(unrank_set(r, n, k)) == combo
                ranks.add(r)
            ok = ok and ranks == set(range(math.comb(n, k)))
    perm_ranks = set()
    for perm in itertools.permutations(range(6)):
        r = rank_perm(perm)
        ok = ok and tuple(unrank_perm(r, 6)) == perm
        perm_ranks.add(r)
    ok = ok and perm_ranks == set(range(math.factorial(6)))
    rng = stream_rng(SEED, 9)
    for _ in range(10_000):
        perm = rng.permutation(8)
        ok = ok and np.array_equal(unrank_perm(rank_perm(perm), 8), perm)
    _report(9, "set and permutation ranks are bijections", ok,
            "subsets exhaustive to N=8, permutations full 6! plus 10^4 draws at 8!")


def test_criterion_10_collision_finder():
    rows = harness.collision_trials(100, SEED)
    holds = sum(1 for r in rows if r["holds"])
    ok = holds == 100
    _report(10, "window collision finder vs independent sorted-key scan", ok,
            f"{holds}/100 valid pairs at n <= 10")


def test_criterion_11_box_expectation():
    n = 16
    rng = stream_rng(SEED, 11)
    details = []
    ok = True
    algorithms = [
        ("box-grover", lambda bits, j: masked_box_grover(n)),
        ("parity m=2", lambda bits, j: parity_box_algorithm(parity_preprocess(bits, 2), j)),
        ("parity m=4", lambda bits, j: parity_box_algorithm(parity_preprocess(bits, 4), j)),
    ]
    for name, factory in algorithms:
        bits = rng.integers(0, 2, size=n)
        holds, worst = 0, 0.0
        for j in range(n):
            alg = factory(bits, j)
            _, trace = run(alg, BitStringOracle(bits, forbidden=j), j)
            rep = expectation_check(trace, j)
            holds += rep.holds
            worst = max(worst, abs(rep.mean - rep.expected))
        ok = ok and holds == n
        details.append(f"{name}: {holds}/{n} j hold, max |mean - T/(N-1)| {worst:.1e}")
    _report(11, "mean query magnitude off j is T/(N-1), every j", ok,
            "; ".join(details))
