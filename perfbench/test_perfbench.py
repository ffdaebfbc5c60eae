"""Self-tests of the benchmark: run with `python -m pytest perfbench`."""

import json
import subprocess
import sys
from collections import Counter

import pytest

from iconmodel.casebook import case_document, load_case
from iconmodel.graph import Iri
from iconmodel.query import cq_catalog, load_golden, run_cq
from iconmodel.reasoner import close
from iconmodel.turtle_io import parse_turtle
from iconmodel.vocab import build_registry

from harness import END_TO_END, PER_LAYER, measure, report
from scaled import (CASES, DATA, X1_INFERRED, BenchError, Reference,
                    check_disjoint, check_inferred, has_data_constant,
                    namespace, rename_solutions, scaled_document)
from tracing import Tracer
from workloads import BENCH_DIR, ROOT, WORKLOADS, Query


@pytest.fixture(scope="module")
def reference():
    return Reference(build_registry(), Tracer().call)


def test_document_is_deterministic_in_scale_and_seed():
    assert scaled_document(3, 7) == scaled_document(3, 7)
    assert scaled_document(3, 7) != scaled_document(3, 8)
    assert sorted(scaled_document(3, 7).splitlines()) == \
        sorted(scaled_document(3, 8).splitlines())
    assert len(parse_turtle(scaled_document(3, 7)).graph) == \
        3 * len(parse_turtle(scaled_document(1)).graph)


def test_overlapping_copies_are_refused():
    case_id = CASES[0]
    text = case_document(case_id)
    own = (case_id, 0, text)
    with pytest.raises(BenchError):
        check_disjoint([own, own])
    foreign = text + f"\n<{namespace(case_id, 2)}x> a <{namespace(case_id, 2)}y> ."
    with pytest.raises(BenchError):
        check_disjoint([(case_id, 0, foreign)])
    check_disjoint([own])


def test_wrong_inferred_count_is_refused():
    check_inferred(Counter({r: 2 * c for r, c in X1_INFERRED.items()}), 2)
    with pytest.raises(BenchError):
        check_inferred(Counter(X1_INFERRED), 2)


def test_x1_renamed_goldens_equal_shipped_goldens(reference):
    reg = build_registry()
    for case_id in CASES:
        closure = close(load_case(case_id)[0], reg)
        for cq_id, golden in load_golden(case_id).items():
            assert rename_solutions(golden, 0) == golden
            assert run_cq(closure, cq_id).solutions == golden
    for cq in cq_catalog():
        golden = load_golden(cq.case_id)[cq.id]
        if has_data_constant(cq.pattern):
            assert reference.cq_expected(cq, 0, 1) == golden
        else:
            assert reference.cq_expected(cq, 0, 1) >= golden
        moved = reference.cq_expected(cq, 3, 4)
        data = [v.value for s in moved for _, v in s.bindings
                if isinstance(v, Iri) and v.value.startswith(DATA)]
        if has_data_constant(cq.pattern):
            assert len(moved) == len(golden)
            assert all(v.startswith(namespace(cq.case_id, 3)) for v in data)


def test_gate_counts_a_dropped_solution_as_a_failed_operation():
    workload = Query(scale=2)
    answered = workload.run
    dropped = []

    def drop_one(op, tr):
        result = answered(op, tr)
        if op.kind == "cq" and result:
            dropped.append(op)
            result = set(list(result)[1:])
        return result

    workload.run = drop_one
    run = measure(workload, seed=1, seconds=1.0, trace=False)
    assert dropped
    assert run.failed == len(dropped)
    assert report(run)["correct"] is False

    clean = measure(Query(scale=2), seed=1, seconds=0.5, trace=False)
    assert clean.attempted > 0 and clean.failed == 0


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]},
            [w["name"] for w in doc["workloads"]])


def test_benchmark_json_declares_what_the_harness_reports():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == END_TO_END
    assert per_layer == PER_LAYER
    assert sorted(workloads) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    # long enough for one untraced and one traced block of every kind
    scale, seconds = (None, 2.0) if name == "cli" else (2, 0.5)
    run = measure(WORKLOADS[name](scale), seed=3, seconds=seconds, trace=trace)
    result = report(run)
    expected = PER_LAYER if trace else END_TO_END
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for k, v in result["metrics"].items()
               if v["unit"] != "count")


def test_last_line_of_the_command_is_the_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "cli",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
