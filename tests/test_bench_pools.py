"""The benchmark's input pools as tier-1 checks: the rows of one pass are
pinned by their sha256, and a compress trial reads its sample R once.

``perfbench/workloads.py`` is imported as ``tests/test_bench_names.py`` does.
A pass over a pool is one call of the workload's trial per input, built with
``make_inputs(seed, False)``; its digest is the sha256 of the rows joined by
newlines, the digest ``perfbench/run.py`` prints.  A change that moves any
row on purpose updates the pin here and says why.
"""

import hashlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import advice_lab
from advice_lab import util

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (workload, seed) -> sha256 of one pass's rows.  verify-suite costs about
# 0.7 s a seed, so only its seed 1 is pinned; compress-hellman's seeds 1-3
# take about 0.02 s each.
ROW_DIGESTS = {
    ("compress-hellman", 1): "f6032e99c73a26e094290491fd6d282f2a09b805753a2e76a36e0753e183a00d",
    ("compress-hellman", 2): "b81167d448bf67389da29d189b7c1a8e17911abc42b029e347352b65aa9b87f8",
    ("compress-hellman", 3): "871091e674fa43203a4c04bc5ff8d0e34f04c241e3024d9410cd088d2d9cd1c3",
    ("verify-suite", 1): "d5e591f5f425255bdc29c61f0ff006dc4e2351d72e15e4a83ee4a3d732317cbc",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _one_pass(workload, seed):
    return [workload.trial(inp) for inp in workload.make_inputs(seed, False)]


@pytest.mark.parametrize("name, seed", sorted(ROW_DIGESTS))
def test_row_digest(workloads, name, seed):
    results = _one_pass(workloads.WORKLOADS[name], seed)
    assert all(ok for ok, _row in results), f"{name} seed {seed}: a trial's checks failed"
    got = hashlib.sha256("\n".join(row for _ok, row in results).encode()).hexdigest()
    pinned = ROW_DIGESTS[name, seed]
    assert got == pinned, f"{name} seed {seed} rows moved: sha256 {got}, pinned {pinned}"


def test_compress_trial_reads_R_once(workloads, monkeypatch):
    """Every module's binding of ``read_index_set`` is counted; a call whose
    argument is not an ``IndexSet`` yet is a fresh read.  Encode, decode,
    ``build_h`` and the query records take the trial's read set back
    unchanged."""
    fresh = []
    read = util.read_index_set

    def counting(values, n):
        if not isinstance(values, util.IndexSet):
            fresh.append(n)
        return read(values, n)

    for info in pkgutil.iter_modules(advice_lab.__path__):
        module = importlib.import_module(f"advice_lab.{info.name}")
        if getattr(module, "read_index_set", None) is read:
            monkeypatch.setattr(module, "read_index_set", counting)

    pool = workloads.WORKLOADS["compress-hellman"].make_inputs(1, False)
    for inp in pool:
        fresh.clear()
        ok, _row = workloads.compress_hellman_trial(inp)
        assert ok and len(fresh) <= 2, (len(inp.R), fresh)
