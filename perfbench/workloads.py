"""The four workloads.

Each is a closed loop with one client, because CLI users and library
callers wait for each reply: the next operation starts only after the
previous one has returned and its answer has been checked. A workload
builds its inputs from the seed in `setup`, hands out seeded operations
from `next_op`, runs one in `run` (the timed part, calling the library
only through `Tracer.call`) and checks the answer in `check`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from iconmodel.casebook import case_document, level_of
from iconmodel.graph import Graph, Triple, isomorphic, union
from iconmodel.query import evaluate, pattern_from_json, solutions_to_json
from iconmodel.reasoner import RuleSet, close, expand_shortcut
from iconmodel.shapes import validate
from iconmodel.turtle_io import parse_turtle, serialize_turtle
from iconmodel.vocab import NAMESPACES, build_registry

from scaled import (CASES, SHORTCUTS, X1_INFERRED_TOTAL, BenchError,
                    Reference, check_inferred, entry_counter, expected_rules,
                    ground, has_data_constant, rename, rename_pattern,
                    rule_counts, scaled_document)
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Op:
    kind: str
    arg: object = None


class Workload:
    name = ""
    why = ""
    kinds: tuple[str, ...] = ()
    scale = 1

    def __init__(self, scale: Optional[int] = None):
        if scale is not None:
            self.scale = scale
        self.reset()

    def reset(self) -> None:
        """Drop everything set-up built, so the next set-up starts afresh."""
        self.reg = self.ref = self.rng = None

    def setup(self, seed: int, tr: Tracer) -> None:
        self.rng = random.Random(seed)
        self.reg = tr.call("vocab.build_registry", build_registry)
        self.ref = Reference(self.reg, tr.call)
        if tr.enabled:
            # A traced run also measures the CLI layers on every workload.
            with CliRunner(self.ref, random.Random(seed)) as cli:
                cli.probe(tr)

    def next_op(self) -> Op:
        raise NotImplementedError

    def run(self, op: Op, tr: Tracer):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def triple_counts(self) -> dict[str, int]:
        n = self.scale
        return {"asserted": n * self.ref.asserted_x1,
                "inferred": n * X1_INFERRED_TOTAL}

    def close(self) -> None:
        pass

    def _scaled_store(self, tr: Tracer):
        """Parse and close the seeded x scale document; refuse a closure
        whose inferred counts are not scale times x1."""
        text = scaled_document(self.scale, self.rng.randrange(2**32))
        parsed = tr.call("turtle_io.parse_turtle", parse_turtle, text)
        closure = tr.call("reasoner.close", close, parsed.graph, self.reg)
        check_inferred(rule_counts(closure), self.scale)
        return parsed, closure


class Ingest(Workload):
    name = "ingest"
    why = ("x50 casebook per op (9,900 asserted, 2,700 inferred triples): "
           "parse, close, validate, serialize as behind icon infer/validate; "
           "lexer and reasoner scans dominate")
    kinds = ("ingest",)
    scale = 50

    def setup(self, seed, tr):
        super().setup(seed, tr)
        self.expected_entries = self.ref.entries_expected(self.scale)
        # Serialized text -> triple count read back. The closure and the
        # prefixes are the same whatever the copy order, so after the first
        # operation the output is a text already shown to read back.
        self.read_back: dict[str, int] = {}

    def next_op(self):
        return Op("ingest", scaled_document(self.scale,
                                            self.rng.randrange(2**32)))

    def run(self, op, tr):
        parsed = tr.call("turtle_io.parse_turtle", parse_turtle, op.arg)
        closure = tr.call("reasoner.close", close, parsed.graph, self.reg)
        full = tr.call("reasoner.ClosureGraph.graph", closure.graph)
        report = tr.call("shapes.validate", validate, full, self.ref.shapes,
                         self.reg)
        text = tr.call("turtle_io.serialize_turtle", serialize_turtle, full,
                       NAMESPACES)
        return parsed.graph, closure, full, report, text

    def check(self, op, result):
        asserted, closure, full, report, text = result
        n = self.scale
        return (len(asserted) == n * self.ref.asserted_x1
                and dict(rule_counts(closure)) == expected_rules(n)
                and len(closure.inferred) == n * X1_INFERRED_TOTAL
                and entry_counter(report) == self.expected_entries
                and self._read_back(text) == len(full))

    def _read_back(self, text: str) -> int:
        if text not in self.read_back:
            self.read_back[text] = len(parse_turtle(text).graph)
        return self.read_back[text]


class Query(Workload):
    name = "query"
    why = ("x20 store (3,960 asserted, 1,080 inferred) closed in set-up; equal "
           "seeded mix of catalog questions, path patterns and level_of")
    kinds = ("cq", "path", "classify")
    scale = 20

    def reset(self):
        super().reset()
        self.closure = None

    def setup(self, seed, tr):
        super().setup(seed, tr)
        _, self.closure = self._scaled_store(tr)
        n = self.scale
        self.cq_expected = {
            (cq.id, k): self.ref.cq_expected(cq, k, n)
            for cq in self.ref.catalog
            for k in (range(n) if has_data_constant(cq.pattern) else (0,))}
        self.path_expected = {name: self.ref.path_expected(name, n)
                              for name in self.ref.paths}
        self.deck: list[str] = []
        self.cq_cycle: list = []
        self.path_cycle: list[str] = []

    def next_op(self):
        # Shuffled rounds keep the three kinds, the eight questions and the
        # four path patterns in equal shares whatever the seed.
        if not self.deck:
            self.deck = list(self.kinds)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "cq":
            if not self.cq_cycle:
                self.cq_cycle = list(self.ref.catalog)
                self.rng.shuffle(self.cq_cycle)
            cq = self.cq_cycle.pop()
            # a question without data constants is the same in every copy
            k = (self.rng.randrange(self.scale)
                 if has_data_constant(cq.pattern) else 0)
            return Op(kind, (cq, k, rename_pattern(cq.pattern, k)))
        if kind == "path":
            if not self.path_cycle:
                self.path_cycle = sorted(self.ref.paths)
                self.rng.shuffle(self.path_cycle)
            return Op(kind, self.path_cycle.pop())
        node = self.rng.choice(self.ref.nodes_x1)
        return Op(kind, (node, rename(node, self.rng.randrange(self.scale))))

    def run(self, op, tr):
        if op.kind == "classify":
            return tr.call("casebook.level_of", level_of, self.closure,
                           op.arg[1])
        if op.kind == "cq":
            cq, _k, pattern = op.arg
            projection = cq.projection
        else:
            pattern, projection = self.ref.paths[op.arg]
        full = tr.call("reasoner.ClosureGraph.graph", self.closure.graph)
        return tr.call(f"query.evaluate.{op.kind}", evaluate, full, pattern,
                       projection)

    def check(self, op, result):
        if op.kind == "classify":
            return result == self.ref.levels_x1[op.arg[0]]
        if op.kind == "cq":
            cq, k, _pattern = op.arg
            return result == self.cq_expected[cq.id, k]
        return result == self.path_expected[op.arg]


class Author(Workload):
    name = "author"
    why = ("x10 base (1,980 asserted, 540 inferred); a session expands 20 "
           "shortcuts, re-closes, round-trips Turtle, checks isomorphic: the "
           "only workload with blank nodes")
    kinds = ("author",)
    scale = 10
    expansions = 20

    def reset(self):
        super().reset()
        self.closure = None

    def setup(self, seed, tr):
        super().setup(seed, tr)
        parsed, self.closure = self._scaled_store(tr)
        self.base = parsed.graph
        self.prefixes = dict(NAMESPACES)
        self.prefixes.update(parsed.prefixes)
        self.shortcuts = sorted((t for t in self.closure.inferred
                                 if t.predicate in SHORTCUTS), key=repr)
        self.ground_triples = set(self.base) | set(self.closure.inferred)

    def next_op(self):
        return Op("author", self.rng.sample(self.shortcuts, self.expansions))

    def run(self, op, tr):
        g = tr.call("reasoner.ClosureGraph.graph", self.closure.graph)
        deltas = []
        for t in op.arg:
            delta = tr.call("reasoner.expand_shortcut", expand_shortcut, g, t,
                            self.reg)
            g = tr.call("graph.union", union, g, delta)
            deltas.append(delta)
        merged = Graph(u for d in deltas for u in d).freeze()
        asserted = tr.call("graph.union", union, self.base, merged)
        closure = tr.call("reasoner.close", close, asserted, self.reg)
        full = tr.call("reasoner.ClosureGraph.graph", closure.graph)
        text = tr.call("turtle_io.serialize_turtle", serialize_turtle, full,
                       self.prefixes)
        back = tr.call("turtle_io.parse_turtle", parse_turtle, text).graph
        same = tr.call("graph.isomorphic", isomorphic, back, full)
        other = tr.call("graph.isomorphic", isomorphic, back,
                        self._one_edge_changed(full, deltas[0]))
        return deltas, closure, full, back, same, other

    def _one_edge_changed(self, g: Graph, delta: Graph) -> Graph:
        """g with the first recognition's icon:assignsTo edge moved to
        another entity: same size, same ground triples, not isomorphic."""
        assigns_to = self.reg.iri("icon:assignsTo")
        edge = next(t for t in delta if t.predicate == assigns_to)
        target = next(t.subject for t in self.shortcuts
                      if t.subject != edge.object)
        moved = Triple(edge.subject, assigns_to, target)
        return Graph([t for t in g if t != edge] + [moved]).freeze()

    def check(self, op, result):
        deltas, closure, full, back, same, other = result
        labels = set()
        for delta in deltas:
            labels |= delta.blank_labels()
        blank = [t for t in full if not ground(t)]
        return (len(labels) == self.expansions
                and all(t in closure for t in op.arg)
                and {t for t in full if ground(t)} == self.ground_triples
                and len(blank) == self.expansions * self.ref.blank_per_expansion
                and len(back) == len(full)
                and same is True and other is False)

    def triple_counts(self):
        counts = super().triple_counts()
        counts["per_session_added"] = (self.expansions
                                       * self.ref.blank_per_expansion)
        return counts


class Cli(Workload):
    name = "cli"
    why = ("icon subcommands as subprocesses on one seeded x1 case fixture "
           "(43-65 asserted triples); the user waits mostly for interpreter, imports "
           "and registry")
    kinds = ("validate", "infer", "query", "cq-run-all")

    def reset(self):
        super().reset()
        if getattr(self, "runner", None) is not None:
            self.runner.close()
        self.runner = None

    def setup(self, seed, tr):
        super().setup(seed, tr)
        self.runner = CliRunner(self.ref, self.rng)
        self.runner.warm()
        self.turn = self.rng.randrange(len(self.kinds))

    def next_op(self):
        self.turn += 1
        return Op(self.kinds[self.turn % len(self.kinds)])

    def run(self, op, tr):
        return self.runner.run(op.kind, tr)

    def check(self, op, result):
        return self.runner.check(op.kind, result)

    def triple_counts(self):
        return {"asserted": self.runner.asserted,
                "inferred": self.runner.inferred}

    def close(self):
        self.reset()


class CliRunner:
    """Runs `python -m iconmodel.cli` on one x1 case fixture written to a
    work directory inside the benchmark's own directory, and knows the
    expected output of each subcommand."""

    def __init__(self, ref: Reference, rng: random.Random):
        self.case_id = rng.choice(CASES)
        self.work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        self.doc = self.work / f"{self.case_id}.ttl"
        text = case_document(self.case_id)
        self.doc.write_text(text, "utf-8")
        pattern_doc = {"select": ["?entity", "?meaning"],
                       "where": [["?entity", {"seq": [{"inv": "icon:assignsTo"},
                                                      "icon:assigned"]},
                                  "?meaning"]]}
        self.pattern = self.work / "pattern.json"
        self.pattern.write_text(json.dumps(pattern_doc), "utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        ICON_NO_COLOR="1")

        reg = ref.reg
        g = parse_turtle(text).graph
        hierarchy = RuleSet(hierarchy=True, shortcut_contraction=False)
        report = validate(close(g, reg, hierarchy).graph(), ref.shapes, reg)
        self.validate_json = json.loads(report.to_json())
        self.validate_exit = 0 if report.conforms else 1
        full = close(g, reg).graph()
        self.closure_triples = set(full)
        pattern, projection = pattern_from_json(pattern_doc)
        self.query_rows = solutions_to_json(evaluate(full, pattern, projection))
        self.cq_ids = sorted(cq.id for cq in ref.catalog)
        self.asserted = len(g)
        self.inferred = len(full) - len(g)

    def argv(self, kind: str) -> list[str]:
        cli = [sys.executable, "-m", "iconmodel.cli"]
        return {
            "validate": cli + ["validate", str(self.doc), "--json"],
            "infer": cli + ["infer", str(self.doc)],
            "query": cli + ["query", str(self.doc), str(self.pattern),
                            "--infer"],
            "cq-run-all": cli + ["cq", "run-all"],
        }[kind]

    def _python(self, argv: list[str]):
        return subprocess.run(argv, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=120)

    def run(self, kind: str, tr: Tracer):
        return tr.call(f"cli.{kind}", self._python, self.argv(kind))

    def check(self, kind: str, proc) -> bool:
        out = proc.stdout
        if kind == "validate":
            return (proc.returncode == self.validate_exit
                    and json.loads(out) == self.validate_json)
        if proc.returncode != 0:
            return False
        if kind == "infer":
            return set(parse_turtle(out).graph) == self.closure_triples
        if kind == "query":
            return json.loads(out) == self.query_rows
        lines = out.splitlines()
        headers = sorted(line.split(" ", 1)[0] for line in lines
                         if line.startswith("CQ"))
        return (headers == self.cq_ids
                and sum(line.strip() == "GOLDEN MATCH" for line in lines)
                == len(self.cq_ids)
                and "MISMATCH" not in out)

    def warm(self) -> None:
        """Import the package once in a child so its bytecode is cached
        before anything is timed."""
        proc = self._python([sys.executable, "-c", "import iconmodel.cli"])
        if proc.returncode != 0:
            raise BenchError(f"cannot import iconmodel.cli: {proc.stderr}")

    def probe(self, tr: Tracer) -> None:
        """Time a bare interpreter and the CLI import three times each, and
        run each subcommand once, as spans of the current root."""
        self.warm()
        for _ in range(3):
            tr.call("cli.interpreter", self._python,
                    [sys.executable, "-c", "pass"])
            tr.call("cli.import", self._python,
                    [sys.executable, "-c", "import iconmodel.cli"])
        for kind in Cli.kinds:
            if not self.check(kind, self.run(kind, tr)):
                raise BenchError(f"icon {kind} gave a wrong answer in set-up")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


WORKLOADS = {w.name: w for w in (Ingest, Query, Author, Cli)}
