"""Closed-loop benchmark of advice-lab's public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues trials back to back from this process, in whole passes over
a pool of seeded inputs, until the time is up; the library's worker pool keeps
its default size.  The benchmark times the calls from
outside and changes no file of the library.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up time is
the median of several fresh processes, each timed from its start until it has
imported the library, built the seeded inputs and run one warm-up trial.

--trace 1 alternates untraced and traced passes over the input pool and
reports the per-layer metrics, coverage and tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full report,
with the machine's details, and the spans of a traced run are written under
.perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import LAYER_UNITS, TRIAL_SPAN, Installation, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
MAX_PRINTED_ERRORS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mib": "MiB",
}


def load_library():
    """Import advice_lab from this checkout's src/, never from elsewhere."""
    package = SRC / "advice_lab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import advice_lab
    if Path(advice_lab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported advice_lab from {advice_lab.__file__}, not {package}")
    return advice_lab


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------

def probe_command(workload: str, seed: int, small: bool) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"]
    return cmd + (["--small"] if small else [])


def time_setup(workload: str, seed: int, small: bool) -> float:
    """Seconds from starting a fresh process until it reports its first trial
    could be timed."""
    t0 = perf_counter()
    proc = subprocess.Popen(probe_command(workload, seed, small), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.wait(timeout=120)
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """Trials of one kind, traced or not, run in whole passes over the pool."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0
    rows: list = field(default_factory=list)  # canonical rows of the first pass

    @property
    def trials_per_s(self) -> float:
        return len(self.latencies) / self.wall

    def run_pass(self, workload, inputs: list, errors: list, tracer=None) -> None:
        """One pass over the pool, each trial issued when the previous returns."""
        start = perf_counter()
        for inp in inputs:
            if tracer is not None:
                tracer.trial = len(self.latencies)
            t0 = perf_counter()
            ok, row = call_trial(workload, inp, errors, tracer)
            self.latencies.append(perf_counter() - t0)
            self.failed += not ok
            if len(self.rows) < len(inputs):
                self.rows.append(row)
        self.wall += perf_counter() - start


def call_trial(workload, inp, errors: list, tracer=None) -> tuple:
    """One trial; an exception is a failed trial, never a crash of the run."""
    try:
        if tracer is None:
            return workload.trial(inp)
        return tracer.span(TRIAL_SPAN, workload.trial, inp)
    except Exception:  # the loop must keep running and count the failure
        if len(errors) < MAX_PRINTED_ERRORS:
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
        return False, "error"


def digest(rows: list) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


# ---------------------------------------------------------------------------
# Machine and configuration
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def machine(harness, np, workload: str, seed: int, seconds: float, trace: int, small: bool) -> dict:
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ADVICE_LAB_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pool_size": harness.pool_size(),
        "blas": blas_info(np),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup(workload_name: str, seed: int, small: bool):
    """Import, build the seeded inputs and run one warm-up trial."""
    load_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed, small)
    workload.trial(inputs[0])
    return workload, inputs


def end_to_end(workload_name: str, seed: int, seconds: float, small: bool) -> dict:
    setup_samples = [time_setup(workload_name, seed, small) for _ in range(SETUP_PROBES)]
    workload, inputs = setup(workload_name, seed, small)
    errors = []
    loop = Loop()
    start = perf_counter()
    while perf_counter() - start < seconds or len(loop.latencies) <= TAIL_BEYOND:
        loop.run_pass(workload, inputs, errors)
    tail_value, tail_pct, samples = tail(loop.latencies)
    attempted = len(loop.latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "trials_per_s": loop.trials_per_s,
        "trial_p50_ms": 1000.0 * statistics.median(loop.latencies),
        "trial_tail_ms": 1000.0 * tail_value,
        "ok_frac": (attempted - loop.failed) / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
        "detail": {
            "trials": samples,
            "fail_frac": loop.failed / attempted,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": TAIL_BEYOND,
            "setup_samples_s": setup_samples,
            "wall_s": loop.wall,
            "latencies_ms": [1000.0 * t for t in loop.latencies],
            "pool": len(inputs),
            "digest": digest(loop.rows),
            "errors": errors,
        },
    }


def traced(workload_name: str, seed: int, seconds: float, small: bool, spans_path=None) -> dict:
    workload, inputs = setup(workload_name, seed, small)
    from advice_lab import harness
    errors = []
    plain, loop, tracer = Loop(), Loop(), Tracer()
    installation = Installation(tracer)
    start = perf_counter()
    # Untraced and traced passes alternate, so that both see the same spells
    # of machine speed.
    while not loop.latencies or perf_counter() - start < seconds:
        plain.run_pass(workload, inputs, errors)
        with installation:
            loop.run_pass(workload, inputs, errors, tracer)
    values = layer_metrics(tracer, len(loop.latencies), len(inputs), harness.pool_size())
    values["trace.overhead"] = plain.trials_per_s / loop.trials_per_s
    if spans_path is not None:
        write_spans(tracer, spans_path)
    attempted = len(plain.latencies) + len(loop.latencies)
    failed = plain.failed + loop.failed
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()},
        "detail": {
            "untraced_trials": len(plain.latencies),
            "traced_trials": len(loop.latencies),
            "untraced_trials_per_s": plain.trials_per_s,
            "traced_trials_per_s": loop.trials_per_s,
            "count_trials": len(inputs),
            "spans": len(tracer.spans),
            "digest": digest(loop.rows),
            "untraced_digest": digest(plain.rows),
            "errors": errors,
        },
    }


def write_spans(tracer, path: Path) -> None:
    """One tab-separated line per span; times in microseconds from the first."""
    origin = min((s[2] for s in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id\tname\tstart_us\tend_us\tparent\ttrial\n")
        for sid, name, t0, t1, parent, trial in tracer.spans:
            fh.write(f"{sid}\t{name}\t{(t0 - origin) * 1e6:.1f}\t{(t1 - origin) * 1e6:.1f}\t"
                     f"{'' if parent is None else parent}\t{trial}\n")


def print_human(report: dict) -> None:
    cfg, detail = report["machine"], report["detail"]
    print(f"workload {cfg['workload']} seed {cfg['seed']} trace {cfg['trace']}: "
          f"{report['attempted']} trials attempted, {report['failed']} failed "
          f"(fail_frac {report['failed'] / report['attempted']:.4g} of attempted)")
    if cfg["trace"]:
        print(f"  untraced {detail['untraced_trials']} trials, traced {detail['traced_trials']}; "
              f"counts over the first {detail['count_trials']} traced trials")
    else:
        print(f"  samples: {detail['trials']} trials; tail = p{detail['tail_percentile']:.1f} "
              f"({detail['tail_samples_beyond']} samples beyond); "
              f"setup = median of {len(detail['setup_samples_s'])} processes")
    for name, m in report["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  digest {detail['digest']}")
    print(f"  machine nproc={cfg['nproc']} pool={cfg['pool_size']} cpu={cfg['cpu_model']!r} "
          f"python={cfg['python']} numpy={cfg['numpy']} blas={cfg['blas'].get('name')} "
          f"commit={cfg['git_commit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="shrunken sizes, for the benchmark's tests")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.probe:
        setup(args.workload, args.seed, args.small)
        print("ready", flush=True)
        return 0

    load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report = traced(args.workload, args.seed, args.seconds, args.small, stem.with_suffix(".spans.tsv"))
    else:
        report = end_to_end(args.workload, args.seed, args.seconds, args.small)

    import numpy as np
    from advice_lab import harness
    report["machine"] = machine(harness, np, args.workload, args.seed, args.seconds,
                                args.trace, args.small)
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_human(report)
    print(f"  report {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
