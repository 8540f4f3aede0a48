"""Guards: every library name the benchmark tracer wraps still exists, and
every benchmark workload still runs against the library.

``perfbench/tracing.py`` replaces functions and methods of ``advice_lab`` by
name.  Installing and removing its wrappers here makes the tier-1 suite fail
when a library change removes or renames one of them, without running the
benchmark's own tests (``python3 -m pytest -q perfbench``).  The workloads in
``perfbench/workloads.py`` call the library directly; one in-process pass over
each one's small pool makes the suite fail when a library change breaks one of
those calls or its checks.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _library_namespaces():
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.startswith("advice_lab")]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for mod_name, _path, _span, _after in tracing.TIMED:
        importlib.import_module(f"advice_lab.{mod_name}")
    before = _library_namespaces()

    installation = tracing.Installation(tracing.Tracer())
    try:
        installation.install()
    finally:
        installation.uninstall()

    after = _library_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert all(after[name].get(attr) is value for attr, value in namespace.items()), name


def test_workloads_small_pools_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        for index, inp in enumerate(workload.make_inputs(1, True)):
            ok, _row = workload.trial(inp)
            assert ok, f"{name} input {index}"
