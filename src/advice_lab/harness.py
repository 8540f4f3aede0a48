"""Seeded experiment harness: runs the lab's experiments as row-oriented
tables with reproducible per-trial randomness.

Every command runs its trials through ``util.seeded_trials``, so trial t
draws from its own stream ``stream_rng(seed, *prefix, t)``: key (t) in grover,
box and the verify suites, (s, t) in hellman, (1, t) in compress and (0) for
compress's one permutation.  Every row carries the master seed and a hash of the
configuration, so any row can be replayed.  A table's ``ok`` flag is the
conjunction of its per-row invariant checks; the CLI maps it to the exit
status.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import advice as advice_mod
from . import compress as compress_mod
from .adapters import (
    HellmanInversion,
    LookupInversion,
    haar_scrambler,
    masked_box_grover,
    parity_box_algorithm,
)
from .hybrid import (
    SWAP_TOL,
    box_experiment,
    collision_in_window,
    expectation_check,
    perturbation_bound,
    verify_swapping,
    verify_tv,
)
from .qsim import (
    BasisLayout,
    BitStringOracle,
    PermutationOracle,
    PureState,
    euclidean_distance,
    grover_invert,
    grover_spec,
    default_grover_iterations,
    run,
)
from .util import ceil_log2, fan_out, read_index_set, seeded_trials, stream_rng

GROVER_MAX_N = 256


@dataclass
class ResultTable:
    config: dict
    columns: list
    rows: list
    ok: bool

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def pool_size() -> int:
    """Trials run one at a time; this name and ``fan_out`` stay here for the benchmark."""
    return 1


def _table(config: dict, columns: list, rows: list, ok: bool) -> ResultTable:
    """The one place a table is made: it rejects a negative trial count and
    stamps every row with the seed and config hash, which close the columns."""
    if config["trials"] < 0:
        raise ValueError(f"trial count must be nonnegative, got {config['trials']}")
    digest = config_hash(config)
    for row in rows:
        row["seed"] = config["seed"]
        row["config"] = digest
    return ResultTable(config, columns + ["seed", "config"], rows, ok)


# ---------------------------------------------------------------------------
# grover
# ---------------------------------------------------------------------------

def cmd_grover(n: int, trials: int, seed: int) -> ResultTable:
    if n < 2:
        raise ValueError(f"N must be at least 2, got {n}")
    if n > GROVER_MAX_N:
        raise ValueError(f"N capped at {GROVER_MAX_N} for the exact sweep")
    config = {"command": "grover", "n": n, "trials": trials, "seed": seed}
    iterations = default_grover_iterations(n)
    theta = math.asin(1.0 / math.sqrt(n))
    closed_form = math.sin((2 * iterations + 1) * theta) ** 2

    def trial(t: int, rng: np.random.Generator) -> dict:
        f = PermutationOracle(rng.permutation(n))
        y = int(rng.integers(n))
        candidate, prob, trace = grover_invert(f, y)
        expected = int(np.flatnonzero(f.table == y)[0])
        return {
            "trial": t,
            "n": n,
            "iterations": iterations,
            "queries": trace.num_queries,
            "success_probability": prob,
            "closed_form": closed_form,
            "abs_error": abs(prob - closed_form),
            "candidate": candidate,
            "preimage": expected,
            "candidate_correct": candidate == expected,
        }

    rows = seeded_trials(seed, trials, trial)
    return _table(config, [
        "trial", "n", "iterations", "queries", "success_probability", "closed_form",
        "abs_error", "candidate", "preimage", "candidate_correct"],
        rows, all(r["abs_error"] <= 1e-6 for r in rows))


# ---------------------------------------------------------------------------
# box
# ---------------------------------------------------------------------------

def cmd_box(n: int, m: int, trials: int, seed: int) -> ResultTable:
    config = {"command": "box", "n": n, "m": m, "trials": trials, "seed": seed}
    records = box_experiment(n, m, parity_box_algorithm, trials, seed)
    rows = [
        {
            "trial": rec.trial,
            "j": rec.j,
            "alpha": rec.alpha,
            "log2_class_size": rec.log2_class_size,
            "window": " ".join(str(i) for i in rec.window),
            "delta_size": len(rec.swap.delta_set),
            "num_queries": rec.swap.trace.num_queries,
            "swap_bound": rec.swap.bound,
            "swap_actual": rec.swap.actual,
            "swap_holds": rec.swap.holds,
            "averaged_bound": rec.eq_bound,
            "window_mass": rec.window_mass,
            "mean_qz": rec.expectation.mean,
            "expected_qz": rec.expectation.expected,
            # the exact check's verdict, under the column name the benchmark reads
            "qz_within_3se": rec.expectation.holds,
            "answer_ok": rec.answer_ok,
        }
        for rec in records
    ]
    return _table(config, [
        "trial", "j", "alpha", "log2_class_size", "window", "delta_size", "num_queries",
        "swap_bound", "swap_actual", "swap_holds", "averaged_bound", "window_mass",
        "mean_qz", "expected_qz", "qz_within_3se", "answer_ok"],
        rows, all(rec.swap.holds and rec.expectation.holds and rec.answer_ok
                  for rec in records))


# ---------------------------------------------------------------------------
# hellman
# ---------------------------------------------------------------------------

def cmd_hellman(n: int, s_values, trials: int, seed: int) -> ResultTable:
    if n < 2:
        raise ValueError(f"N must be at least 2, got {n}")
    if not s_values or len(set(s_values)) != len(s_values):
        raise ValueError(f"strides must be a non-empty list without repeats, got {list(s_values)}")
    config = {"command": "hellman", "n": n, "s": list(s_values), "trials": trials, "seed": seed}
    target = n * 2 * ceil_log2(n)

    def trial(s: int, t: int, rng: np.random.Generator) -> dict:
        point = advice_mod.measure_tradeoff(rng.permutation(n), s)
        ratio = point["bits_times_calls"] / target
        return {
            "s": s,
            "trial": t,
            "n": n,
            "entries": point["entries"],
            "advice_bits": point["advice_bits"],
            "header_bits": point["header_bits"],
            "worst_calls": point["worst_calls"],
            "bits_times_calls": point["bits_times_calls"],
            "target_bits": target,
            "ratio_to_target": ratio,
            "within_factor_8": bool(1 / 8 <= ratio <= 8),
            "calls_bounded": point["worst_calls"] <= 2 * s + 2,
        }

    rows = [row for s in s_values for row in seeded_trials(seed, trials, partial(trial, s), s)]
    return _table(config, [
        "s", "trial", "n", "entries", "advice_bits", "header_bits", "worst_calls",
        "bits_times_calls", "target_bits", "ratio_to_target", "within_factor_8",
        "calls_bounded"],
        rows, all(r["within_factor_8"] and r["calls_bounded"] for r in rows))


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------

def compress_trial(f: PermutationOracle, family, R, params) -> dict:
    """Encode/decode once and audit the run.  On a successful encode: every
    stored rank fits its component's bits (``length_identity_ok``), the
    length bound, the envelope round trip, and, for every good element, the
    distance between its run against f (from the encoder) and its run against
    the hybrid oracle (from decode, or from the DecodeFailure it raised).  A
    CorruptEncodingError leaves that audit empty.  Exact roundtrip when
    decoding succeeds.  R is read once; encode and decode take the read set."""
    n = f.num_positions
    R = read_index_set(R, n)
    record = {
        "r_size": len(R.members),
        "good_count": 0,
        "encode_failed": True,
        "decode_ok": False,
        "roundtrip_exact": False,
        "logical_bits": 0,
        "bound_bits": 0.0,
        "length_identity_ok": True,
        "length_bound_ok": True,
        "envelope_ok": True,
        "max_h_distance": 0.0,
        "h_ok": True,
    }
    enc = compress_mod.encode(f, family, R, params)
    if enc is None:
        return record
    record["encode_failed"] = False
    record["good_count"] = enc.good_count
    record["logical_bits"] = enc.logical_bits
    record["bound_bits"] = compress_mod.length_bound_bits(enc)
    bits = enc.component_bits()
    record["length_identity_ok"] = all(
        getattr(enc, f"{k}_rank") >> bits[k] == 0 for k in ("fR", "outer", "fG", "inner"))
    record["length_bound_ok"] = enc.logical_bits <= record["bound_bits"] + 1e-9
    record["envelope_ok"] = (
        compress_mod.encoding_from_json(compress_mod.encoding_to_json(enc), n) == enc)

    finals = {}
    try:
        decoded, finals = compress_mod.decode(enc, R, family)
        record["decode_ok"] = True
        record["roundtrip_exact"] = bool(np.array_equal(decoded, f.table))
    except compress_mod.DecodeFailure as exc:
        finals = exc.finals
    except compress_mod.CorruptEncodingError:
        pass

    # The encoder ran every good element against f and decode ran its image
    # against the hybrid oracle; the audit compares the two final states.
    runs_f = {int(f.table[x]): final for x, final in enc.runs.items()}
    max_dist = max((euclidean_distance(runs_f[y], final_h) for y, final_h in finals.items()),
                   default=0.0)
    record["max_h_distance"] = max_dist
    # A good element's stray mass is at most c/T, so over T queries the lemma
    # bounds the distance by 2 * sqrt(T * c/T) = perturbation_bound(1, c).
    record["h_ok"] = max_dist <= perturbation_bound(1, params.c) + SWAP_TOL
    return record


def cmd_compress(n: int, delta: float, c: float, trials: int, seed: int) -> ResultTable:
    config = {"command": "compress", "n": n, "delta": delta, "c": c,
              "trials": trials, "seed": seed}
    params = compress_mod.CompressionParams(delta=delta, c=c)
    family = LookupInversion()
    f = PermutationOracle(stream_rng(seed, 0).permutation(n))
    _, probe = compress_mod.prepare(f, family)

    def trial(t: int, rng: np.random.Generator) -> dict:
        R = compress_mod.sample_R(n, delta, probe.num_queries, rng)
        return {**compress_trial(f, family, R, params), "trial": t}

    rows = seeded_trials(seed, trials, trial, 1)
    successes = sum(1 for r in rows if r["roundtrip_exact"])
    audits = all(r["length_identity_ok"] and r["length_bound_ok"] and r["envelope_ok"]
                 and r["h_ok"] for r in rows)
    return _table(config, [
        "trial", "r_size", "good_count", "encode_failed", "decode_ok", "roundtrip_exact",
        "logical_bits", "bound_bits", "length_identity_ok", "length_bound_ok",
        "envelope_ok", "max_h_distance", "h_ok"],
        rows, successes >= math.ceil(0.8 * trials) and audits)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _swapped_permutations(rng: np.random.Generator, n: int):
    """A random permutation f, f with two images swapped, and the first
    swapped position a."""
    f = rng.permutation(n)
    a, b = rng.choice(n, size=2, replace=False)
    f2 = f.copy()
    f2[[a, b]] = f2[[b, a]]
    return f, f2, a


def _parity_algorithm(bits, m: int, j: int):
    return parity_box_algorithm(advice_mod.parity_preprocess(bits, m), j)


def _swap_instance(rng: np.random.Generator, n: int, kind: str):
    """One (algorithm, oracle pair, input) triple for the perturbation check."""
    if kind == "grover":
        f, f2, a = _swapped_permutations(rng, n)
        y = int(f[a]) if rng.random() < 0.7 else int(rng.integers(n))
        # A fixed three rounds; the lemma's 2 * sqrt(T * mass) holds at any count.
        alg = grover_spec(n, 3)
        return alg, PermutationOracle(f), PermutationOracle(f2), y
    if kind == "parity":
        m = int(rng.choice([2, 4])) if n >= 16 else 2
        bits = rng.integers(0, 2, size=n)
        flips = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        other = bits.copy()
        other[flips] ^= 1
        j = int(rng.integers(n))
        alg = _parity_algorithm(bits, m, j)
        return alg, BitStringOracle(bits, forbidden=j), BitStringOracle(other, forbidden=j), j
    if kind == "hellman":
        f, f2, _ = _swapped_permutations(rng, n)
        y = int(rng.integers(n))
        oracle = PermutationOracle(f)
        _, alg = compress_mod.prepare(oracle, HellmanInversion(s=2))
        return alg, oracle, PermutationOracle(f2), y
    raise ValueError(f"unknown swap instance kind {kind!r}")


def swapping_trials(trials: int, seed: int) -> list:
    kinds = ("grover", "parity", "hellman")

    def trial(t: int, rng: np.random.Generator) -> dict:
        n = int(rng.choice((8, 16)))
        kind = kinds[int(rng.integers(len(kinds)))]
        alg, ox, oy, run_input = _swap_instance(rng, n, kind)
        rep = verify_swapping(alg, ox, oy, run_input)
        return {
            "trial": t, "algorithm": alg.name, "n": n, "kind": kind,
            "delta_size": len(rep.delta_set), "num_queries": rep.trace.num_queries,
            "bound": rep.bound, "actual": rep.actual, "holds": rep.holds,
        }

    return seeded_trials(seed, trials, trial)


def _random_state(rng: np.random.Generator, layout: BasisLayout) -> PureState:
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(vec / np.linalg.norm(vec), layout)


def tv_trials(trials: int, seed: int) -> list:
    layout = BasisLayout(8, 2, 2)
    registers = ("position", "answer", "workspace")

    def trial(t: int, rng: np.random.Generator) -> dict:
        kind = ("gaussian", "near", "grover")[int(rng.integers(3))]
        if kind == "grover":
            n = 8
            alg = grover_spec(n, default_grover_iterations(n))
            f, f2, a = _swapped_permutations(rng, n)
            y = int(f[a])
            state_a, _ = run(alg, PermutationOracle(f), y)
            state_b, _ = run(alg, PermutationOracle(f2), y)
            register = "position"
        else:
            state_a = _random_state(rng, layout)
            if kind == "near":
                noise = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
                vec = state_a.amplitudes + 10 ** rng.uniform(-6, -1) * noise
                state_b = PureState(vec / np.linalg.norm(vec), layout)
            else:
                state_b = _random_state(rng, layout)
            register = registers[int(rng.integers(3))]
        rep = verify_tv(state_a, state_b, register)
        return {
            "trial": t, "kind": kind, "register": register,
            "tv": rep.tv, "euclidean": rep.euclidean, "bound": rep.bound,
            "holds": rep.holds,
        }

    return seeded_trials(seed, trials, trial)


def _pair_agrees_outside(members: np.ndarray, outside_mask: int) -> bool:
    """Whether two of the distinct members agree on every bit of the mask,
    found without the collision finder: sorted, equal keys are adjacent."""
    keys = np.sort(members & outside_mask)
    return bool((keys[1:] == keys[:-1]).any())


def collision_trials(trials: int, seed: int) -> list:
    def trial(t: int, rng: np.random.Generator) -> dict:
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, min(n - 1, 6) + 1))
        size = 2 ** (n - m) + int(rng.integers(0, 2 ** (n - m)))
        members = rng.choice(1 << n, size=min(size, 1 << n), replace=False)
        window = sorted(int(i) for i in rng.choice(n, size=m + 1, replace=False))
        x, y = collision_in_window(members, window, n)
        outside_mask = ((1 << n) - 1) ^ sum(1 << i for i in window)
        member_set = set(members.tolist())
        valid = (x != y and x in member_set and y in member_set
                 and (x ^ y) & outside_mask == 0)
        scan_found = _pair_agrees_outside(members, outside_mask)
        return {
            "trial": t, "n": n, "m": m, "class_size": len(members),
            "x": x, "y": y, "valid": valid, "brute_agrees": scan_found,
            "holds": valid and scan_found,
        }

    return seeded_trials(seed, trials, trial)


def eq2_trials(trials: int, seed: int) -> list:
    """Each run's total query magnitude, which its trace holds to the query
    count: a transcript's is T by construction, and a dense trace refuses more
    than T * MASS_RANGE[1].  The box runs (parity, box-grover) also pass
    ``expectation_check``: no mass on the forbidden j, so the mean off j is
    exactly T/(N-1)."""
    kinds = ("grover", "lookup", "hellman", "parity", "box-grover", "scrambler")

    def trial(t: int, rng: np.random.Generator) -> dict:
        kind = kinds[t % len(kinds)]
        mean, mean_holds = {}, True
        if kind == "grover":
            n = int(rng.choice([8, 16]))
            f = PermutationOracle(rng.permutation(n))
            alg = grover_spec(n, default_grover_iterations(n))
            _, trace = run(alg, f, int(rng.integers(n)))
        elif kind in ("lookup", "hellman"):
            n = 16
            f = PermutationOracle(rng.permutation(n))
            family = LookupInversion() if kind == "lookup" else HellmanInversion(s=2)
            _, alg = compress_mod.prepare(f, family)
            _, trace = run(alg, f, int(rng.integers(n)))
        elif kind in ("parity", "box-grover"):
            n = 16
            bits = rng.integers(0, 2, size=n)
            j = int(rng.integers(n))
            alg = _parity_algorithm(bits, 4, j) if kind == "parity" else masked_box_grover(n)
            _, trace = run(alg, BitStringOracle(bits, forbidden=j), j)
            rep = expectation_check(trace, j)
            mean, mean_holds = {"mean_qz": rep.mean, "expected_qz": rep.expected}, rep.holds
        else:
            alg = haar_scrambler(BasisLayout(8, 2, 2), 8, int(rng.integers(2 ** 31)))
            bits = rng.integers(0, 2, size=8)
            _, trace = run(alg, BitStringOracle(bits), 0)
        return {
            "trial": t, "algorithm": alg.name, "classical": kind in ("lookup", "hellman", "parity"),
            "num_queries": trace.num_queries, "total_mass": trace.total_mass,
            "holds": mean_holds, **mean,
        }

    return seeded_trials(seed, trials, trial)


_SUITES = {
    "swapping": swapping_trials,
    "tv": tv_trials,
    "collision": collision_trials,
    "eq2": eq2_trials,
}


def cmd_verify(suite: str, trials: int, seed: int) -> ResultTable:
    names = list(_SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)} or 'all'")
    config = {"command": "verify", "suite": suite, "trials": trials, "seed": seed}
    rows = []
    for name in names:
        for row in _SUITES[name](trials, seed):
            detail = {k: v for k, v in row.items() if k not in ("trial", "algorithm", "holds")}
            rows.append({
                "suite": name,
                "trial": row["trial"],
                "algorithm": row.get("algorithm", row.get("kind", "")),
                "detail": json.dumps(detail, sort_keys=True, default=str),
                "holds": row["holds"],
            })
    return _table(config, ["suite", "trial", "algorithm", "detail", "holds"],
                  rows, all(r["holds"] for r in rows))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_csv(table: ResultTable) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        cells = []
        for col in table.columns:
            text = _cell(row.get(col, ""))
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(table: ResultTable) -> str:
    doc = {
        "command": table.command,
        "config": table.config,
        "config_hash": table.config_hash,
        "ok": table.ok,
        "columns": table.columns,
        "rows": [{col: row.get(col, "") for col in table.columns} for row in table.rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_cell) + "\n"


def emit(table: ResultTable, out: str | None, fmt: str) -> None:
    text = render_csv(table) if fmt == "csv" else render_json(table)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
