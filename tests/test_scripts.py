"""The A/B scripts under scripts/ and the benchmark under perfbench/ run
against this tree's own src/.

Each later change is checked against its parent with these scripts and
the benchmark, and the stage script reads a private name
(turtle_io._tokens), so a rename that breaks it fails here rather than
at that check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_scripts_run_against_this_tree():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["stage_times_against.py", "src", "1", "1"],
                 ["fuzz_turtle_against.py", "src", "300", "1"],
                 ["cli_times_against.py", "src", "1"]):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                              cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_runs_against_this_tree():
    # guards what perfbench calls: Graph(...).freeze(), union, close,
    # blank_labels and `t in closure`, and the cli workload's check of
    # `icon cq run-all` against the goldens
    work_dirs = set((ROOT / "perfbench").glob(".work-*"))
    for workload in ("ingest", "query", "author", "cli"):
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", workload, "--seed", "1", "--seconds", "0.3"],
                              cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, result
    assert set((ROOT / "perfbench").glob(".work-*")) == work_dirs
