"""Every example script must run cleanly (guards against API rot)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

#: script -> (argv, snippet that must appear in stdout)
CASES = {
    "quickstart.py": ([], "element restored:             True"),
    "performance_table.py": ([], "operation counts agree exactly"),
    "error_map_analysis.py": ([], "exceeds the 3-sigma map: 0/"),
    "iterative_solver.py": ([], "despite the strike"),
    "bound_quality_study.py": (["128"], "orders of magnitude closer"),
    "fault_injection_campaign.py": (["128", "45"], "critical detected"),
    "gpu_trace_tour.py": (["ignored.trace.json"], "Chrome trace written"),
}


def test_cases_name_every_example():
    scripts = {path.name for path in EXAMPLES.glob("*.py")}
    assert set(CASES) == scripts


@pytest.mark.parametrize("script", sorted(CASES), ids=lambda s: s.split(".")[0])
def test_example_runs(script, tmp_path):
    argv, snippet = CASES[script]
    if script == "gpu_trace_tour.py":
        argv = [str(tmp_path / "tour.trace.json")]
    # The scripts import repro; make sure the subprocess finds src/ no
    # matter how the test session itself was launched.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *argv],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert snippet in result.stdout, result.stdout[-2000:]
