"""The benchmark's four workloads.

Each workload builds a pool of seeded inputs at set-up and runs one trial per
input, cycling through the pool.  A trial calls the library's public
functions, checks their outputs and returns (checks hold, canonical row).  The
rows of one pass over the pool are hashed into the run's digest, so two
commits can be compared for byte-identical output.

The seed chooses the inputs; the sizes, and so the work shape, are fixed per
workload.  ``small`` shrinks every size for the benchmark's own tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library functions are called through their modules so that the traced run's
# wrappers, installed on the modules, see every call.
from advice_lab import adapters, advice, compress, harness, qsim


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, bool], list]  # (seed, small) -> pool of inputs
    trial: Callable[[object], tuple]  # input -> (checks hold, canonical row)
    shape: Callable[[list], tuple]  # the sizes of a pool, independent of the seed


def input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# grover-dense: the query-step kernel on a 2^15-amplitude state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroverInput:
    f: qsim.PermutationOracle
    y: int
    preimage: int


def grover_inputs(seed: int, small: bool) -> list:
    n = 1 << (8 if small else 14)
    out = []
    for i in range(16):
        rng = input_rng(seed, i)
        table = rng.permutation(n)
        y = int(rng.integers(n))
        out.append(GroverInput(qsim.PermutationOracle(table), y, int(np.flatnonzero(table == y)[0])))
    return out


def grover_trial(inp: GroverInput) -> tuple:
    n = inp.f.num_positions
    iterations = qsim.default_grover_iterations(n)
    expected = math.sin((2 * iterations + 1) * math.asin(1.0 / math.sqrt(n))) ** 2
    candidate, prob, trace = qsim.grover_invert(inp.f, inp.y)
    ok = (candidate == inp.preimage and abs(prob - expected) <= 1e-6
          and trace.num_queries == iterations)
    return ok, f"{candidate},{prob!r}"


def grover_shape(inputs: list) -> tuple:
    return tuple(inp.f.num_positions for inp in inputs)


# ---------------------------------------------------------------------------
# compress-hellman: the paper's encoder end to end, with the audit
# ---------------------------------------------------------------------------

COMPRESS_PARAMS = compress.CompressionParams(0.9, 0.001)

# |R| per pool entry.  sample_R(128, 0.9, 6) gives |R| ~ Binomial(128, 0.025);
# this schedule is that law's shape over 16 draws with |R| = 0 left out.  A
# trial costs about one run per element of R, so a fixed schedule keeps the
# work of a pool the same for every seed while R itself stays sample_R's.
R_SIZES = (1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 7)
R_SIZES_SMALL = (1, 2)


@dataclass(frozen=True)
class CompressInput:
    f: qsim.PermutationOracle
    family: adapters.HellmanInversion
    R: np.ndarray


def compress_inputs(seed: int, small: bool) -> list:
    n = 16 if small else 128
    family = adapters.HellmanInversion(s=2)
    num_queries = 2 * family.s + 2
    out = []
    for i, size in enumerate(R_SIZES_SMALL if small else R_SIZES):
        rng = input_rng(seed, i)
        f = qsim.PermutationOracle(rng.permutation(n))
        R = compress.sample_R(n, COMPRESS_PARAMS.delta, num_queries, rng)
        while len(R) != size:  # sample_R conditioned on |R|
            R = compress.sample_R(n, COMPRESS_PARAMS.delta, num_queries, rng)
        out.append(CompressInput(f, family, R))
    return out


AUDIT_FLAGS = ("length_identity_ok", "length_bound_ok", "envelope_ok", "h_ok")


def compress_hellman_trial(inp: CompressInput) -> tuple:
    record = harness.compress_trial(inp.f, inp.family, inp.R, COMPRESS_PARAMS)
    audits = all(record[k] for k in AUDIT_FLAGS)
    # encode returning None is the paper's counted failure, not an error.
    roundtrip = record["encode_failed"] or (record["decode_ok"] and record["roundtrip_exact"])
    return audits and roundtrip, json.dumps(record, sort_keys=True)


def compress_shape(inputs: list) -> tuple:
    return tuple((inp.f.num_positions, inp.family.s, len(inp.R)) for inp in inputs)


# ---------------------------------------------------------------------------
# codec-scale: classical formats, walks and big-integer codecs, no qsim
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecInput:
    f: np.ndarray  # permutation of [N]
    s: int
    perm: np.ndarray  # permutation of [m]
    subset: np.ndarray  # sorted k-subset of [N]


def codec_inputs(seed: int, small: bool) -> list:
    n, s, m, k = (1 << 8, 8, 1 << 6, 1 << 5) if small else (1 << 12, 64, 1 << 10, 1 << 9)
    out = []
    for i in range(8):
        rng = input_rng(seed, i)
        out.append(CodecInput(
            f=rng.permutation(n),
            s=s,
            perm=rng.permutation(m),
            subset=np.sort(rng.choice(n, size=k, replace=False)),
        ))
    return out


def codec_trial(inp: CodecInput) -> tuple:
    n, s = len(inp.f), inp.s
    point = advice.measure_tradeoff(inp.f, s)

    family = adapters.HellmanInversion(s)
    advice_bits = family.preprocess(qsim.PermutationOracle(inp.f))
    rights = family.parse_advice(advice_bits, n)

    table = advice.hellman_build(inp.f, s)
    table_back = advice.HellmanTable.from_json(table.to_json())

    perm_rank = compress.rank_perm(inp.perm)
    perm_back = compress.unrank_perm(perm_rank, len(inp.perm))
    set_rank = compress.rank_set(inp.subset)
    set_back = compress.unrank_set(set_rank, n, len(inp.subset))

    enc = compress.Encoding(num_elements=n, advice=advice_bits, good_count=0, r_size=len(inp.subset),
                   fR_rank=set_rank, outer_rank=perm_rank, fG_rank=0, inner_rank=0)
    enc_back = compress.encoding_from_json(compress.encoding_to_json(enc), n)

    ok = (point["worst_calls"] <= 2 * s + 2
          and rights == {right: left for right, (left, _stride) in table.rights().items()}
          and table_back == table
          and np.array_equal(perm_back, inp.perm)
          and np.array_equal(set_back, inp.subset)
          and enc_back == enc)
    row = json.dumps({"tradeoff": point, "advice": advice_bits,
                      "perm_rank": hex(perm_rank), "set_rank": hex(set_rank)}, sort_keys=True)
    return ok, row


def codec_shape(inputs: list) -> tuple:
    return tuple((len(inp.f), inp.s, len(inp.perm), len(inp.subset)) for inp in inputs)


# ---------------------------------------------------------------------------
# verify-suite: thousands of tiny simulations through the worker pool
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyInput:
    seed: int
    verify_trials: int
    box_trials: int


def verify_inputs(seed: int, small: bool) -> list:
    verify_trials, box_trials = (3, 2) if small else (50, 20)
    return [VerifyInput(int(input_rng(seed, i).integers(2 ** 31)), verify_trials, box_trials)
            for i in range(16)]


# The perturbation inequalities (swapping, tv, collision, eq2, the box swap)
# are theorems: every row must hold.  The sampled-mean rows (the expectation
# suite and the box's qz_within_3se) are 3-standard-error tests that miss
# about 0.2% of the time by design, so `table.ok` is false on about one trial
# in nine (13 of 120 seeds measured).  A trial fails when more of them miss
# than chance explains: 4 or more of its 70 such rows has probability under 1e-4.
STAT_MISS_BUDGET = 3


def verify_trial(inp: VerifyInput) -> tuple:
    verify = harness.cmd_verify("all", inp.verify_trials, inp.seed)
    box = harness.cmd_box(8, 2, inp.box_trials, inp.seed)
    csv = harness.render_csv(verify) + harness.render_csv(box)
    exact = (all(r["holds"] for r in verify.rows if r["suite"] != "expectation")
             and all(r["swap_holds"] for r in box.rows))
    misses = (sum(not r["holds"] for r in verify.rows if r["suite"] == "expectation")
              + sum(not r["qz_within_3se"] for r in box.rows))
    return exact and misses <= STAT_MISS_BUDGET, csv


def verify_shape(inputs: list) -> tuple:
    return tuple((inp.verify_trials, inp.box_trials) for inp in inputs)


WORKLOADS = {w.name: w for w in (
    Workload("grover-dense", grover_inputs, grover_trial, grover_shape),
    Workload("compress-hellman", compress_inputs, compress_hellman_trial, compress_shape),
    Workload("codec-scale", codec_inputs, codec_trial, codec_shape),
    Workload("verify-suite", verify_inputs, verify_trial, verify_shape),
)}
