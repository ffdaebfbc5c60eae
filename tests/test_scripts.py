"""The A/B scripts under scripts/ run against this tree's own src/.

Each later change is checked against its parent with these scripts, and
the stage script reads private names (turtle_io._tokens,
graph.triple_key), so a rename that breaks them fails here rather than
at that check.
"""

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
