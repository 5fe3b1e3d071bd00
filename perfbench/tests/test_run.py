"""The entry point outside a full checkout, and the set-up probe pairing."""

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mmf2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "no joinlab sources" in proc.stderr


def test_setup_pair_times_a_baseline_and_a_setup_process():
    base, setup = run._setup_pair("mmf2", 1)
    assert 0 < base < 30
    assert 0 < setup < 30
