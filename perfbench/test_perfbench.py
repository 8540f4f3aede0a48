"""Tests of the benchmark itself, at shrunken sizes:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
UNSTEADY = ("grover-dense", "codec-scale")


def test_benchmark_file_matches_the_workloads_and_metrics():
    # grover-dense and codec-scale stay runnable but are left out of
    # BENCHMARK.json as unsteady.
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name in WORKLOADS if name not in UNSTEADY]
    assert END_TO_END == set(run.END_TO_END_UNITS)
    assert PER_LAYER == set(tracing.LAYER_UNITS)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert units == {**run.END_TO_END_UNITS, **tracing.LAYER_UNITS}


def _cli(root: Path, name: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name):
    out = _cli(HERE.parent, name, 3, 0)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] > run.TAIL_BEYOND
    assert set(last["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly_for_one_seed(name):
    first = run.traced(name, 5, 0, small=True)
    second = run.traced(name, 5, 0, small=True)
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == PER_LAYER
    for metric in tracing.EXACT_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["detail"]["digest"] == second["detail"]["digest"]
    assert 0 < first["metrics"]["trace.coverage"]["value"] <= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_new_seed_changes_inputs_not_work_shape(name):
    workload = WORKLOADS[name]
    a, b = workload.make_inputs(1, True), workload.make_inputs(2, True)
    assert workload.shape(a) == workload.shape(b)
    rows_a = [workload.trial(inp)[1] for inp in a]
    rows_b = [workload.trial(inp)[1] for inp in b]
    assert run.digest(rows_a) != run.digest(rows_b)
    assert workload.shape(a) == workload.shape(workload.make_inputs(1, True))


def _library_namespaces():
    """Every attribute of every advice_lab module and class, by identity."""
    out = {}
    for mod_name in ("qsim", "adapters", "advice", "compress", "hybrid", "harness", "util"):
        mod = importlib.import_module(f"advice_lab.{mod_name}")
        out[mod_name] = dict(vars(mod))
        for cls_name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                out[f"{mod_name}.{cls_name}"] = dict(vars(cls))
    out["advice_lab"] = dict(vars(importlib.import_module("advice_lab")))
    return out


def test_wrappers_cover_every_import_name_and_are_removed():
    from advice_lab import compress, harness, hybrid, qsim
    before = _library_namespaces()
    original_run = qsim.run
    with tracing.Installation(tracing.Tracer()):
        assert qsim.run is not original_run
        assert harness.run is qsim.run is compress.run is hybrid.run
    after = _library_namespaces()
    assert before.keys() == after.keys()
    for key, names in before.items():
        for attr, value in names.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, "parent", 0.0, 10.0, None, 0),
        (1, "child", 1.0, 3.0, 0, 0),  # two pool threads overlap on [2, 3]
        (2, "child", 2.0, 5.0, 0, 0),
        (3, "grandchild", 2.5, 4.0, 2, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(1.5)


def test_exits_nonzero_without_the_library():
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = _cli(bare, "grover-dense", 1, 0)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare)
