"""Every narrative demo and the README quick start run to completion; each
demo's stdout is pinned by its sha256, so a change that moves any printed
number shows here."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_grover_exact_curve": "580d184baa8b22174164054e0c8b5b4182abe8ad89cdaf9c44733a3846a164f4",
    "02_query_mass_and_swapping": "384e89ca573b4b08c1d151db9c8d691c29439535a7f15fdb5ddbaa152492943d",
    "03_box_problem": "73679301709a5fbd25f5e8d921f1f48a7914706f8fb408a06d3feec22b5ed87b",
    "04_hellman_tradeoff": "94c54ce14e42d9c5bb16c4a6afbf57209af73be18c1e8b530ca94fc5c6721462",
    "05_permutation_compression": "97d9c2385a50e39d5aad4dac2aa5aff2eb386a842792c9ecd57e7932ce0b9886",
}


def test_demos_found():
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
