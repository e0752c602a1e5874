"""Checks of the benchmark itself: two traced runs with one seed give exactly
the same counts on every workload, without the program's sources a run fails
without printing a result, and host-speed scaling turns work worth k reference
tasks into about k × REFERENCE_S.

    python3 -m pytest perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from calibrate import REFERENCE_S, Speed, reference_task  # noqa: E402
COUNTS = ("cc.derivation_nodes", "defun.labels", "sigma.states", "sigma.subst_nodes",
          "surface.emit_bytes", "syntax.input_nodes")
WORKLOADS = ("corpus-verify", "enum-small", "diagram-scaling", "translate-emit")


def traced_counts(workload: str, seed: int = 7) -> dict[str, float]:
    # --seconds 1: one untraced and one traced pass
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    return {name: result["metrics"][name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert first["syntax.input_nodes"] > 0
    assert traced_counts(workload) == first


def test_without_sources_fails_without_result(tmp_path):
    """In a directory holding only the benchmark, the run must fail and print
    no result line."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_scaling_counts_reference_work():
    """Forty reference tasks, run while the sampler is on, read about forty
    times REFERENCE_S, and the sampler ran inside them."""
    speed = Speed()
    with speed:
        start = speed.mark()
        for _ in range(40):
            reference_task()
        end = speed.mark()
        for _ in range(10):  # samples after the call, for the speed window
            reference_task()
    assert end[2] > start[2]
    assert 0.75 < speed.scaled(start, end) / (40 * REFERENCE_S) < 1.33
