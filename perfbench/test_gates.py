"""The benchmark's correctness gates can fail, and it refuses to run without the sources.

    python3 -m pytest perfbench/test_gates.py -q

Each workload runs one round with every reference value shifted
(PERFBENCH_PERTURB=1); the run must then report exactly the operations whose
reference moved as failed, and no metrics.  About a minute in all.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(cwd: Path, workload: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, env=dict(os.environ, **env), timeout=180,
    )


def shifted_operations(workload: str, stdout: str, attempted: int) -> int:
    """The operations of one round that a shifted reference must fail.

    Every uni-sweep and bi-exact output is exact and compared with a shifted
    value; float-plane's check results keep their 1e-10 tolerance, so only
    its three numpy properties fail; the battery fails its exact checks.
    """
    if workload in ("uni-sweep", "bi-exact"):
        return attempted
    if workload == "float-plane":
        return 3
    return int(re.search(r"^# battery: .* (\d+) exact$", stdout, re.M).group(1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_reference_fails_the_gate(workload):
    proc = bench(ROOT, workload, PERFBENCH_PERTURB="1")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == shifted_operations(workload, proc.stdout, result["attempted"]) > 0
    assert result["metrics"] == {}


def copy_benchmark(to: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", to)
    shutil.copytree(HERE, to / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_without_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench(tmp_path, "uni-sweep")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_program_error_is_a_failed_operation(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "hahnkit" / "hahn_uni.py"
    module.write_text(module.read_text() + "\n\ndef verify_uni(*args):\n    raise ArithmeticError('planted')\n")
    proc = bench(tmp_path, "uni-sweep")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1  # one failed operation per round
    assert result["metrics"] == {}
    assert "ArithmeticError: planted" in proc.stdout
