"""Measure one workload and report its metrics.

An untraced run (--trace 0) sets up several times, times the closed loop
for the given seconds and reports the end-to-end metrics. A traced run
(--trace 1) sets up once under spans, then alternates blocks of untraced
and traced operations: the traced ones give the per-layer metrics, and the
ratio of the two blocks' median latency is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from tracing import SETUP, Tracer, layer_metrics, span_durations_ms
from scaled import RULE_IDS, BenchError
from workloads import BENCH_DIR, WORKLOADS, Workload

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_MS = ("turtle_io.parse_turtle", "turtle_io.serialize_turtle",
             "reasoner.close", "reasoner.ClosureGraph.graph",
             "reasoner.expand_shortcut", "graph.union", "graph.isomorphic",
             "shapes.validate", "query.evaluate.cq", "query.evaluate.path",
             "casebook.level_of", "vocab.build_registry", "cli.validate",
             "cli.infer", "cli.query", "cli.cq-run-all")
_LAYER_COUNTS = (("turtle_io.parse_turtle.triples",)
                 + tuple(f"reasoner.close.inferred.{r}" for r in RULE_IDS)
                 + ("graph.union.calls", "shapes.validate.entries",
                    "query.evaluate.cq.solutions",
                    "query.evaluate.path.solutions"))
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in _LAYER_MS},
    **{name: "count" for name in _LAYER_COUNTS},
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead": "ratio",
}


@dataclass
class Sample:
    kind: str
    seconds: float
    traced: bool


@dataclass
class Run:
    workload: Workload
    seed: int
    trace: bool
    setup_s: list[float] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer = field(default_factory=Tracer)
    peak_rss_mb: float = 0.0
    triples: dict = field(default_factory=dict)


def machine() -> dict[str, str]:
    return {"nproc": str(len(os.sched_getaffinity(0))),
            "python": (f"{platform.python_implementation()} "
                       f"{platform.python_version()}"),
            "platform": platform.platform()}


def _peak_rss_mb(workload: Workload) -> float:
    # The cli workload's work happens in its children.
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Run:
    """Set up and run operations for `seconds` in all.

    An untraced run sets up SETUP_REPEATS times, each set-up followed by an
    equal share of the operations, so that the set-ups fall at different
    moments of the run rather than in one burst of machine noise. A traced
    run sets up once, under spans.
    """
    run = Run(workload, seed, trace)
    segments = 1 if trace else SETUP_REPEATS
    looped = 0.0
    for segment in range(1, segments + 1):
        _set_up(run)
        looped += _loop(run, segment * seconds / segments - looped)
    run.peak_rss_mb = _peak_rss_mb(workload)
    return run


def _set_up(run: Run) -> None:
    workload, tr = run.workload, run.tracer
    workload.reset()
    gc.collect()
    tr.enabled = run.trace
    start = time.perf_counter()
    try:
        if run.trace:
            with tr.span(SETUP):
                workload.setup(run.seed, tr)
        else:
            workload.setup(run.seed, tr)
    finally:
        tr.enabled = False
    run.setup_s.append(time.perf_counter() - start)
    run.triples = workload.triple_counts()
    gc.collect()


def _loop(run: Run, seconds: float) -> float:
    """Run checked operations for `seconds`; return the time it took."""
    workload, tr = run.workload, run.tracer
    block = len(workload.kinds)
    began = time.perf_counter()
    while time.perf_counter() < began + seconds:
        op = workload.next_op()
        # Traced and untraced blocks alternate, each covering every kind.
        traced = run.trace and (run.attempted // block) % 2 == 1
        run.attempted += 1
        try:
            tr.enabled = traced
            start = time.perf_counter()
            if traced:
                with tr.span(op.kind):
                    result = workload.run(op, tr)
            else:
                result = workload.run(op, tr)
            elapsed = time.perf_counter() - start
        except Exception:
            run.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            tr.enabled = False
        try:
            ok = workload.check(op, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if ok:
            run.samples.append(Sample(op.kind, elapsed, traced))
        else:
            run.failed += 1
            print(f"wrong answer: {op.kind} operation {run.attempted}",
                  file=sys.stderr)
    return time.perf_counter() - began


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples beyond it, by
    nearest rank; the maximum (p100) when not even the median has 10."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def _median_ms(samples: list[Sample]) -> float:
    return statistics.median(s.seconds for s in samples) * 1000 \
        if samples else 0.0


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics and the lines that explain them."""
    ms = [s.seconds * 1000 for s in run.samples if not s.traced] or [0.0]
    tail_ms, tail_p = tail(ms)
    done = run.attempted - run.failed
    values = {
        "setup_s": statistics.median(run.setup_s),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": done / (sum(ms) / 1000) if sum(ms) else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "op_p50_ms": f"n={len(ms)}",
        "op_tail_ms": f"p{tail_p}, n={len(ms)}",
        "ops_per_s": "completed operations per second of timed operation",
        "peak_rss_mb": ("largest child process" if run.workload.name == "cli"
                        else "benchmark process"),
    }
    lines = [f"{name}: {values[name]:.6g} {END_TO_END[name]} ({notes[name]})"
             for name in END_TO_END]
    lines.append(f"error_rate: {run.failed / run.attempted:.6g} "
                 f"({run.failed} of {run.attempted} operations failed)")
    if len(run.workload.kinds) > 1:
        for kind in run.workload.kinds:
            of_kind = [s for s in run.samples if s.kind == kind]
            lines.append(f"{kind}_p50_ms: {_median_ms(of_kind):.6g} ms "
                         f"(n={len(of_kind)})")
    return values, lines


def per_layer(run: Run) -> dict[str, float]:
    spans = run.tracer.spans
    values = layer_metrics(spans)
    interpreter = statistics.median(span_durations_ms(spans, "cli.interpreter"))
    values["cli.interpreter_ms"] = interpreter
    values["cli.import_ms"] = (
        statistics.median(span_durations_ms(spans, "cli.import")) - interpreter)
    plain = _median_ms([s for s in run.samples if not s.traced])
    traced = _median_ms([s for s in run.samples if s.traced])
    values["trace.overhead"] = traced / plain if plain else 0.0
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise BenchError(f"no spans recorded for {', '.join(missing)}")
    return {name: float(values[name]) for name in PER_LAYER}


def write_trace(run: Run, values: dict[str, float], path) -> None:
    path.parent.mkdir(exist_ok=True)
    doc = {"workload": run.workload.name, "seed": run.seed,
           "scale": run.workload.scale, "machine": machine(),
           "per_layer": values, "spans": run.tracer.to_json()}
    path.write_text(json.dumps(doc), "utf-8")


def report(run: Run) -> dict:
    """Print what the run measured; return the result object."""
    w = run.workload
    info = machine()
    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"platform={info['platform']}")
    print(f"workload: {w.name} (x{w.scale}, closed loop, one client) "
          f"seed={run.seed} trace={int(run.trace)}")
    print(f"why: {w.why}")
    print("triples: " + ", ".join(f"{k}={v}" for k, v in run.triples.items()))
    if run.trace:
        values = per_layer(run)
        units = PER_LAYER
        path = BENCH_DIR / "traces" / f"{w.name}-seed{run.seed}.json"
        write_trace(run, values, path)
        for name, unit in PER_LAYER.items():
            print(f"{name}: {values[name]:.6g} {unit}")
        print(f"spans: {len(run.tracer.spans)} written to "
              f"{path.relative_to(BENCH_DIR.parent)}")
    else:
        values, lines = end_to_end(run)
        units = END_TO_END
        for line in lines:
            print(line)
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]()
    try:
        run = measure(workload, seed, seconds, trace)
        result = report(run)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0
