#!/usr/bin/env python3
"""Benchmark of the iconmodel pipeline over a scaled casebook.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ingest, query,
author, cli. The library is imported from the checkout's `src/`; nothing
is installed. Every operation's answer is checked, and the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With --trace 1 the metrics are the per-layer ones and the
spans are written to perfbench/traces/.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "author", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iconmodel" / "__init__.py").is_file():
        print(f"perfbench: no iconmodel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import main as run_workload
    from scaled import BenchError
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
