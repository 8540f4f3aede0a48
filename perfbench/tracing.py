"""Span tracing for the benchmark's traced run.

The tracer wraps the library's public functions from outside: ``install``
replaces each target under every ``advice_lab`` module name that refers to
it (``harness.run`` as well as ``qsim.run``), and ``uninstall`` puts every
original object back.  No file of the library changes.

Each span is (id, name, start, end, parent id, trial id).  Spans stay in
memory and are written out when the run ends.  Counts are recorded at the
same boundaries, from the values the wrapped calls return.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span and count recorder.  One client drives the trials in a
    closed loop, so every span opened while trial t runs belongs to trial t,
    whichever pool thread opens it."""

    def __init__(self):
        self.spans = []  # (sid, name, t0, t1, parent, trial)
        self.counts = []  # (name, trial, value)
        self.trial = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self.stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.trial))

    def count(self, name: str, value) -> None:
        self.counts.append((name, self.trial, value))

    def in_thread_under(self, parent: int, name: str, fn, *args):
        """Run fn on a pool thread as a child of a span opened on another
        thread."""
        stack = self.stack()
        saved = stack[:]
        stack[:] = [parent]
        try:
            return self.span(name, fn, *args)
        finally:
            stack[:] = saved


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _timed_steps(tracer: Tracer, name: str, steps):
    """Wrap a spec's ``steps(run_input)`` factory so each step call is a span."""
    def timed_steps(run_input):
        return _timed(tracer, name, steps(run_input))
    return timed_steps


def _spec_with_timed_steps(tracer: Tracer, name: str, build):
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        spec = build(*args, **kwargs)
        return dataclasses.replace(spec, steps=_timed_steps(tracer, name, spec.steps))
    return wrapper


def _pointmass_timed(tracer: Tracer, build):
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        return _timed_steps(tracer, "adapters.step", build(*args, **kwargs))
    return wrapper


def _fan_out_traced(tracer: Tracer, fan_out):
    @functools.wraps(fan_out)
    def wrapper(worker, count):
        def call():
            parent = tracer.stack()[-1]

            def traced_worker(i):
                return tracer.in_thread_under(parent, "harness.worker", worker, i)

            return fan_out(traced_worker, count)

        return tracer.span("harness.fan_out", call)
    return wrapper


# Count hooks: (tracer, args, kwargs, result) -> None.

# Bytes one query moves, from array sizes: the gather reads and writes the
# 16-byte amplitudes, builds an N x A int64 XOR index, and the magnitude row
# before it writes N float64 values.  Steps and norm checks are not counted.
def _query_bytes(layout) -> int:
    return (2 * 16 * layout.dim
            + 8 * layout.num_positions * layout.answer_dim
            + 8 * layout.num_positions)


def _after_run(tracer, args, kwargs, result):
    alg = args[0] if args else kwargs["alg"]
    tracer.count("qsim.run.calls", 1)
    tracer.count("qsim.queries", alg.num_queries)
    tracer.count("qsim.state_dim.sum", alg.layout.dim)
    tracer.count("qsim.bytes", alg.num_queries * _query_bytes(alg.layout))


def _after_preprocess(tracer, args, kwargs, result):
    tracer.count("adapters.advice_bits", len(result))


def _after_hellman_invert(tracer, args, kwargs, result):
    tracer.count("advice.forward_evals", result[1])


def _after_encode(tracer, args, kwargs, result):
    if result is None:
        tracer.count("compress.encode_none", 1)
    else:
        tracer.count("compress.good", result.good_count)


# The layer boundaries the workloads reach: (module, attribute path, span
# name, count hook).  A path with a dot names a method; the class attribute
# is replaced.
TIMED = [
    ("qsim", "run", "qsim.run", _after_run),
    ("qsim", "apply_oracle", "qsim.apply_oracle", None),
    ("qsim", "query_magnitudes", "qsim.query_magnitudes", None),
    ("qsim", "PureState.__post_init__", "qsim.state_check", None),
    ("qsim", "measurement_distribution", "qsim.measure", None),
    ("qsim", "grover_invert", "qsim.grover_invert", None),
    ("adapters", "HellmanInversion.preprocess", "adapters.preprocess", _after_preprocess),
    ("adapters", "LookupInversion.preprocess", "adapters.preprocess", _after_preprocess),
    ("adapters", "HellmanInversion.spec", "adapters.spec", None),
    ("adapters", "LookupInversion.spec", "adapters.spec", None),
    ("adapters", "parity_box_algorithm", "adapters.spec", None),
    ("adapters", "HellmanInversion.parse_advice", "advice.serde", None),
    ("advice", "hellman_build", "advice.hellman_build", None),
    ("advice", "hellman_invert", "advice.hellman_invert", _after_hellman_invert),
    ("advice", "measure_tradeoff", "advice.measure_tradeoff", None),
    ("advice", "HellmanTable.to_json", "advice.serde", None),
    ("advice", "HellmanTable.from_json", "advice.serde", None),
    ("advice", "parity_preprocess", "advice.parity", None),
    ("advice", "parity_answer", "advice.parity", None),
    ("advice", "parity_answer_sweep", "advice.parity", None),
    ("compress", "encode", "compress.encode", _after_encode),
    ("compress", "decode", "compress.decode", None),
    # encode reaches the good set through the private helper, the audit
    # through the public function; both are the good-set layer.
    ("compress", "good_set", "compress.good_set", None),
    ("compress", "_good_elements", "compress.good_set", None),
    ("compress", "rank_set", "compress.rank", None),
    ("compress", "rank_perm", "compress.rank", None),
    ("compress", "unrank_set", "compress.unrank", None),
    ("compress", "unrank_perm", "compress.unrank", None),
    ("compress", "encoding_to_json", "compress.envelope", None),
    ("compress", "encoding_from_json", "compress.envelope", None),
    ("hybrid", "verify_swapping", "hybrid.verify_swapping", None),
    ("hybrid", "verify_tv", "hybrid.verify_tv", None),
    ("hybrid", "ParityAdviceScheme.partition", "hybrid.partition", None),
    ("hybrid", "collision_in_window", "hybrid.collision", None),
    ("hybrid", "expectation_check", "hybrid.expectation", None),
    ("hybrid", "box_experiment", "hybrid.box_experiment", None),
    ("harness", "compress_trial", "harness.compress_trial", None),
    ("harness", "cmd_verify", "harness.cmd_verify", None),
    ("harness", "cmd_box", "harness.cmd_box", None),
    ("harness", "render_csv", "harness.render", None),
]

# Spec builders whose step functions are timed as quantum steps.
QUANTUM_SPECS = [
    ("qsim", "grover_spec"),
    ("adapters", "masked_box_grover"),
    ("adapters", "haar_scrambler"),
]


class Installation:
    """Wrappers installed on the library; ``uninstall`` restores every
    replaced attribute."""

    def __init__(self, tracer: Tracer, package: str = "advice_lab"):
        self.tracer = tracer
        self.package = package
        self._saved = []  # (owner, attribute, original)

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def _replace_function(self, fn, wrapper):
        """Rebind fn under every module-level name that refers to it."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self) -> "Installation":
        tr = self.tracer
        for mod_name, path, span, after in TIMED:
            mod = importlib.import_module(f"{self.package}.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                self._replace_method(getattr(mod, cls_name), attr,
                                     lambda f, span=span, after=after: _timed(tr, span, f, after))
            else:
                fn = getattr(mod, path)
                self._replace_function(fn, _timed(tr, span, fn, after))
        for mod_name, name in QUANTUM_SPECS:
            fn = getattr(importlib.import_module(f"{self.package}.{mod_name}"), name)
            self._replace_function(fn, _spec_with_timed_steps(tr, "qsim.step", fn))
        adapters = importlib.import_module(f"{self.package}.adapters")
        self._replace_function(adapters.pointmass_steps,
                               _pointmass_timed(tr, adapters.pointmass_steps))
        harness = importlib.import_module(f"{self.package}.harness")
        self._replace_function(harness.fan_out, _fan_out_traced(tr, harness.fan_out))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.
    Children on pool threads overlap, so their intervals are merged first."""
    children = defaultdict(list)
    for sid, _name, t0, t1, parent, _trial in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _trial in spans:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - _union_length(clipped)
    return out


TRIAL_SPAN = "bench.trial"

SELF_TIME_METRICS = {
    "qsim.run.self_s": "qsim.run",
    "qsim.apply_oracle.s": "qsim.apply_oracle",
    "qsim.query_magnitudes.s": "qsim.query_magnitudes",
    "qsim.state_check.s": "qsim.state_check",
    "qsim.step.s": "qsim.step",
    "qsim.measure.s": "qsim.measure",
    "adapters.step.s": "adapters.step",
    "adapters.preprocess.s": "adapters.preprocess",
    "adapters.spec.s": "adapters.spec",
    "advice.hellman_build.s": "advice.hellman_build",
    "advice.hellman_invert.s": "advice.hellman_invert",
    "advice.serde.s": "advice.serde",
    "advice.parity.s": "advice.parity",
    "compress.encode.s": "compress.encode",
    "compress.decode.s": "compress.decode",
    "compress.good_set.s": "compress.good_set",
    "compress.rank.s": "compress.rank",
    "compress.unrank.s": "compress.unrank",
    "compress.envelope.s": "compress.envelope",
    "hybrid.verify_swapping.s": "hybrid.verify_swapping",
    "hybrid.verify_tv.s": "hybrid.verify_tv",
    "hybrid.partition.s": "hybrid.partition",
    "hybrid.collision.s": "hybrid.collision",
    "hybrid.expectation.s": "hybrid.expectation",
    "harness.fan_out.s": "harness.fan_out",
    "harness.render.s": "harness.render",
}

# Metric name -> unit, in report order.
LAYER_UNITS = {
    "qsim.run.calls": "1/trial",
    "qsim.run.self_s": "s/trial",
    "qsim.apply_oracle.s": "s/trial",
    "qsim.query_magnitudes.s": "s/trial",
    "qsim.state_check.s": "s/trial",
    "qsim.step.s": "s/trial",
    "qsim.measure.s": "s/trial",
    "qsim.queries": "1/trial",
    "qsim.state_dim": "amps/run",
    "qsim.bytes_per_query": "B/query.calc",
    "adapters.step.s": "s/trial",
    "adapters.preprocess.s": "s/trial",
    "adapters.spec.s": "s/trial",
    "adapters.advice_bits": "bit/trial",
    "advice.hellman_build.s": "s/trial",
    "advice.hellman_invert.s": "s/trial",
    "advice.forward_evals": "1/trial",
    "advice.serde.s": "s/trial",
    "advice.parity.s": "s/trial",
    "compress.encode.s": "s/trial",
    "compress.decode.s": "s/trial",
    "compress.good_set.s": "s/trial",
    "compress.rank.s": "s/trial",
    "compress.unrank.s": "s/trial",
    "compress.envelope.s": "s/trial",
    "compress.encode_runs": "1/trial",
    "compress.decode_runs": "1/trial",
    "compress.audit_runs": "1/trial",
    "compress.good_per_run": "ratio",
    "compress.encode_none": "1/trial",
    "hybrid.verify_swapping.s": "s/trial",
    "hybrid.verify_tv.s": "s/trial",
    "hybrid.partition.s": "s/trial",
    "hybrid.collision.s": "s/trial",
    "hybrid.expectation.s": "s/trial",
    "harness.fan_out.s": "s/trial",
    "harness.worker_busy.s": "s/trial",
    "harness.pool_busy_frac": "frac",
    "harness.render.s": "s/trial",
    "trace.coverage": "frac",
    "trace.overhead": "ratio",
}

# Counts fixed by the program's outputs; they repeat exactly for one seed.
EXACT_COUNTS = (
    "qsim.run.calls", "qsim.queries", "qsim.state_dim", "qsim.bytes_per_query",
    "adapters.advice_bits", "advice.forward_evals", "compress.encode_runs",
    "compress.decode_runs", "compress.audit_runs", "compress.good_per_run",
    "compress.encode_none",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int, count_trials: int, pool_size: int) -> dict:
    """Per-layer metrics of a traced run.  Times are self times per trial over
    all ``trials``; counts are per trial over the first ``count_trials``
    (one pass over the input pool), so they repeat exactly for one seed."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}

    self_total = defaultdict(float)
    for sid, name, *_ in spans:
        self_total[name] += selfs[sid]

    counts = defaultdict(float)
    for name, trial, value in tracer.counts:
        if 0 <= trial < count_trials:
            counts[name] += value

    def under(sid, names):
        parent = by_id[sid][4]
        while parent is not None:
            if by_id[parent][1] in names:
                return by_id[parent][1]
            parent = by_id[parent][4]
        return None

    runs = defaultdict(int)
    for sid, name, _t0, _t1, _parent, trial in spans:
        if name == "qsim.run" and 0 <= trial < count_trials:
            owner = under(sid, ("compress.encode", "compress.decode", "harness.compress_trial"))
            if owner is not None:
                runs[owner] += 1

    fan_wall = sum(t1 - t0 for _s, n, t0, t1, _p, _t in spans if n == "harness.fan_out")
    busy = sum(t1 - t0 for _s, n, t0, t1, _p, _t in spans if n == "harness.worker")

    trial_ids = {s[0] for s in spans if s[1] == TRIAL_SPAN}
    trial_wall = sum(s[3] - s[2] for s in spans if s[1] == TRIAL_SPAN)
    top = defaultdict(list)
    for sid, _name, t0, t1, parent, _trial in spans:
        if parent in trial_ids:
            top[parent].append((t0, t1))
    covered = sum(_union_length(v) for v in top.values())

    out = {metric: self_total[span] / trials for metric, span in SELF_TIME_METRICS.items()}
    n = count_trials
    out.update({
        "qsim.run.calls": counts["qsim.run.calls"] / n,
        "qsim.queries": counts["qsim.queries"] / n,
        "qsim.state_dim": _ratio(counts["qsim.state_dim.sum"], counts["qsim.run.calls"]),
        "qsim.bytes_per_query": _ratio(counts["qsim.bytes"], counts["qsim.queries"]),
        "adapters.advice_bits": counts["adapters.advice_bits"] / n,
        "advice.forward_evals": counts["advice.forward_evals"] / n,
        "compress.encode_runs": runs["compress.encode"] / n,
        "compress.decode_runs": runs["compress.decode"] / n,
        "compress.audit_runs": runs["harness.compress_trial"] / n,
        "compress.good_per_run": _ratio(counts["compress.good"], runs["compress.encode"]),
        "compress.encode_none": counts["compress.encode_none"] / n,
        "harness.worker_busy.s": busy / trials,
        "harness.pool_busy_frac": _ratio(busy, fan_wall * pool_size),
        "trace.coverage": _ratio(covered, trial_wall),
    })
    return out
