#!/usr/bin/env python3
"""Time `icon` invocations of this checkout against another checkout's.

Runs a fixed list of `python -m iconmodel.cli` invocations as subprocesses
with this checkout's src/ on PYTHONPATH and with OLD_SRC's (for example an
older commit unpacked with `git archive`), alternating which tree goes
first in each run. The list covers the four commands of perfbench's `cli`
workload, `parse` (from a file and from stdin), `cq list` and `cq run`,
`cases list` and `cases export`, and inputs that must be refused: a
malformed document, a malformed pattern, a missing file and extra
arguments. Every invocation runs in one scratch directory on the same
inputs, with ICON_NO_COLOR set, so both trees should print the same bytes.

One untimed round first lets both trees cache their bytecode. Prints the
median wall-clock milliseconds of each invocation per tree, then every
invocation whose stdout, stderr or exit code differed between the trees
in any run, and exits 1 if there was one.

    python3 scripts/cli_times_against.py OLD_SRC [RUNS]

RUNS defaults to 10.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# placeholders: DOC a case fixture, PATTERN the cli workload's JSON pattern,
# BAD a malformed document (and pattern), MISSING a path that does not exist;
# "< DOC" feeds the fixture on stdin
COMMANDS = [
    "validate DOC --json",
    "infer DOC",
    "query DOC PATTERN --infer",
    "cq run-all",
    "parse DOC",
    "parse - < DOC",
    "validate DOC",
    "cq list",
    "cq run CQ3",
    "cases list",
    "cases export laocoon",
    "parse BAD",
    "validate BAD",
    "query DOC BAD",
    "infer MISSING",
    "cq run-all CQ1a",
    "query - - < DOC",
]
PATTERN = {"select": ["?entity", "?meaning"],
           "where": [["?entity", {"seq": [{"inv": "icon:assignsTo"}, "icon:assigned"]},
                      "?meaning"]]}


def make_inputs(work: Path) -> dict:
    doc = work / "vermeer-balance.ttl"
    doc.write_text((ROOT / "src" / "iconmodel" / "fixtures" / "vermeer-balance.ttl")
                   .read_text("utf-8"), "utf-8")
    (work / "pattern.json").write_text(json.dumps(PATTERN), "utf-8")
    (work / "bad.ttl").write_text("@prefix ex: <http://example.org/> .\nex:s ex:p (1 .\n",
                                  "utf-8")
    return {"DOC": str(doc), "PATTERN": "pattern.json", "BAD": "bad.ttl",
            "MISSING": "missing.ttl"}


def run_once(src: Path, command: str, inputs: dict, work: Path):
    """Milliseconds, exit code, stdout and stderr of one invocation."""
    argv, _, stdin_from = command.partition(" < ")
    stdin = Path(inputs[stdin_from]).read_bytes() if stdin_from else b""
    env = dict(os.environ, PYTHONPATH=str(src), ICON_NO_COLOR="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "iconmodel.cli",
                           *(inputs.get(a, a) for a in argv.split())],
                          input=stdin, capture_output=True, env=env, cwd=work,
                          timeout=120)
    ms = (time.perf_counter() - start) * 1000
    return ms, (proc.returncode, proc.stdout, proc.stderr)


def main(old_src: str, runs: int = 10) -> int:
    trees = {"old": Path(old_src).resolve(), "new": ROOT / "src"}
    times = {name: {c: [] for c in COMMANDS} for name in trees}
    differ: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory(prefix="cli-times-") as tmp:
        work = Path(tmp)
        inputs = make_inputs(work)
        for i in range(runs + 1):  # run 0 caches bytecode and is not timed
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            for command in COMMANDS:
                results = {}
                for name in order:
                    ms, results[name] = run_once(trees[name], command, inputs, work)
                    if i:
                        times[name][command].append(ms)
                fields = ("exit code", "stdout", "stderr")
                for field, old, new in zip(fields, results["old"], results["new"]):
                    if old != new:
                        differ.setdefault(command, set()).add(field)
    print(f"{runs} runs each; median ms (old -> new)")
    for command in COMMANDS:
        old, new = (statistics.median(times[name][command]) for name in ("old", "new"))
        print(f"  {command:<28} {old:7.1f} -> {new:7.1f}  ({new / old - 1:+4.0%})")
    if not differ:
        print("every invocation gave the same exit code, stdout and stderr")
        return 0
    print("invocations whose output differed:")
    for command in COMMANDS:
        if command in differ:
            print(f"  {command}: {', '.join(sorted(differ[command]))}")
    return 1


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], *(int(a) for a in sys.argv[2:])))
