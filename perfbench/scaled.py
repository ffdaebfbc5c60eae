"""The scaled casebook and the expected values that gate every operation.

The casebook x n is the four shipped case fixtures concatenated n times.
Copy 0 keeps each case's data namespace https://w3id.org/icon/data/<case>/
and copy k >= 1 renames it to .../<case>-<k>/. The fixtures have no blank
nodes, so the copies share no data IRI and each adds exactly the x1
closure: 54 inferred triples (23 R2-axiom, 16 R4-axiom, 11 R6-symbolizes,
4 R6-document). Renaming copy 0 into copy k therefore turns the shipped
goldens, and the x1 levels and answers, into expected values at any scale.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import Optional

from iconmodel.casebook import case_document, level_of, list_cases
from iconmodel.graph import BlankNode, Iri, isomorphic, union
from iconmodel.query import (Alt, Inv, Pattern, Plus, Seq, Solution, Var,
                             cq_catalog, evaluate, load_golden)
from iconmodel.reasoner import close, expand_shortcut
from iconmodel.shapes import default_shapes, validate
from iconmodel.turtle_io import parse_turtle, serialize_turtle
from iconmodel.vocab import NAMESPACES, curie_to_iri

DATA = "https://w3id.org/icon/data/"
CASES = tuple(c.id for c in list_cases())

# Every rule id the reasoner can record; only the first four fire on the casebook.
RULE_IDS = ("R2-axiom", "R4-axiom", "R6-symbolizes", "R6-document",
            "R1", "R2", "R3", "R4", "R5-domain", "R5-range")
X1_INFERRED = {"R2-axiom": 23, "R4-axiom": 16, "R6-symbolizes": 11,
               "R6-document": 4}
X1_INFERRED_TOTAL = sum(X1_INFERRED.values())

SHORTCUTS = (curie_to_iri("icon:symbolizes"), curie_to_iri("icon:isDocumentOf"))

_NAMESPACE_RE = re.compile(re.escape(DATA) + r"([^/>\s]+)/")


class BenchError(Exception):
    """The generated input or the program's x1 behaviour is not what the
    benchmark is built on, so no run can be checked."""


def namespace(case_id: str, k: int) -> str:
    return f"{DATA}{case_id}/" if k == 0 else f"{DATA}{case_id}-{k}/"


def _rename_value(value: str, k: int) -> str:
    for case_id in CASES:
        ns = namespace(case_id, 0)
        if value.startswith(ns):
            return namespace(case_id, k) + value[len(ns):]
    return value


def rename(term, k: int):
    """The copy-k counterpart of a copy-0 term; other terms are unchanged."""
    if isinstance(term, Iri) and k:
        return Iri(_rename_value(term.value, k))
    return term


def rename_solutions(solutions, k: int) -> set[Solution]:
    return {Solution.of({name: rename(v, k) for name, v in s.bindings})
            for s in solutions}


def rename_pattern(pattern: Pattern, k: int) -> Pattern:
    return Pattern(tuple((rename(s, k), p, rename(o, k))
                         for s, p, o in pattern.triples))


def has_data_constant(pattern: Pattern) -> bool:
    return any(isinstance(x, Iri) and x.value.startswith(DATA)
               for s, _p, o in pattern.triples for x in (s, o))


def check_disjoint(blocks: list[tuple[str, int, str]]) -> None:
    """Refuse copies that could share a data IRI.

    Each block (case, k, text) must mention only its own data namespace,
    and no two blocks may have the same one.
    """
    seen: set[str] = set()
    for case_id, k, text in blocks:
        own = namespace(case_id, k)
        mentioned = {f"{DATA}{m}/" for m in _NAMESPACE_RE.findall(text)}
        if mentioned != {own} or own in seen:
            raise BenchError(f"copy {k} of {case_id} overlaps another copy")
        if "_:" in text or "[" in text:
            raise BenchError(f"fixture {case_id} has blank nodes; "
                             "copies would not be disjoint")
        seen.add(own)


def expected_rules(n: int) -> dict[str, int]:
    return {rule: n * c for rule, c in X1_INFERRED.items()}


def check_inferred(counts: Counter, n: int) -> None:
    """Refuse a x n closure whose per-rule counts are not n times x1."""
    expected = expected_rules(n)
    if dict(counts) != expected:
        raise BenchError(f"x{n} closure inferred {dict(counts)}, "
                         f"expected {expected} ({X1_INFERRED_TOTAL}*{n})")


def rule_counts(closure) -> Counter:
    return Counter(d.rule for d in closure.provenance.values())


def scaled_document(n: int, seed: Optional[int] = None) -> str:
    """The casebook x n as one Turtle document.

    The seed shuffles the order of the copies; the same (n, seed) gives the
    same text. Without a seed the copies are in case order.
    """
    if n < 1:
        raise BenchError(f"scale must be at least 1, got {n}")
    texts = {case_id: case_document(case_id) for case_id in CASES}
    blocks = []
    for k in range(n):
        for case_id in CASES:
            text = texts[case_id].replace(namespace(case_id, 0),
                                          namespace(case_id, k))
            blocks.append((case_id, k, text))
    check_disjoint(blocks)
    if seed is not None:
        random.Random(seed).shuffle(blocks)
    return "\n".join(text for _, _, text in blocks)


# Constant-free patterns over the whole store, answered by the union of the
# renamed x1 answers. They exercise each path operator of the query layer.
def path_patterns() -> dict[str, tuple[Pattern, tuple[Var, ...]]]:
    i = curie_to_iri
    return {
        "alt-attribute": (
            Pattern(((Var("subject"),
                      Alt(i("icon:hasIdentifyingAttribute"),
                          i("cito:citesAsEvidence")),
                      Var("attribute")),)),
            (Var("subject"), Var("attribute"))),
        "alt-evidence": (
            Pattern(((Var("recognition"), i("icon:assignsTo"), Var("artwork")),
                     (Var("recognition"),
                      Alt(i("cito:citesAsEvidence"),
                          i("cito:obtainsBackgroundFrom")),
                      Var("evidence")))),
            (Var("artwork"), Var("evidence"))),
        "plus-prototype": (
            Pattern(((Var("work"), Plus(i("vir:K4_has_visual_prototype")),
                      Var("prototype")),)),
            (Var("work"), Var("prototype"))),
        "inv-seq-assignment": (
            Pattern(((Var("entity"),
                      Seq(Inv(i("icon:assignsTo")), i("icon:assigned")),
                      Var("meaning")),)),
            (Var("entity"), Var("meaning"))),
    }


def _in_case(solution: Solution, case_id: str) -> bool:
    own = namespace(case_id, 0)
    return all(not (isinstance(v, Iri) and v.value.startswith(DATA))
               or v.value.startswith(own) for _, v in solution.bindings)


class Reference:
    """Expected values computed once from the x1 casebook.

    Building it runs every library layer at x1 and refuses to go on when
    the x1 results disagree with the shipped goldens or with the constants
    above, so a run never measures a program that is already wrong.
    """

    def __init__(self, reg, call):
        """`call(name, fn, *args)` invokes the library; a tracer passes one
        that records spans."""
        self.reg = reg
        self.shapes = default_shapes(reg)
        g1 = call("turtle_io.parse_turtle", parse_turtle,
                  scaled_document(1)).graph
        c1 = call("reasoner.close", close, g1, reg)
        check_inferred(rule_counts(c1), 1)
        full1 = call("reasoner.ClosureGraph.graph", c1.graph)
        self.asserted_x1 = len(g1)

        report = call("shapes.validate", validate, full1, self.shapes, reg)
        self.entries_x1 = [(e.focus, e.shape_id, e.severity)
                           for e in report.entries]

        self.catalog = cq_catalog()
        self.goldens = {case_id: load_golden(case_id) for case_id in CASES}
        self.cq_x1: dict[str, set[Solution]] = {}
        for cq in self.catalog:
            answer = call("query.evaluate.cq", evaluate, full1, cq.pattern,
                          cq.projection)
            golden = self.goldens[cq.case_id].get(cq.id, set())
            if {s for s in answer if _in_case(s, cq.case_id)} != golden:
                raise BenchError(f"{cq.id} at x1 does not match its golden")
            self.cq_x1[cq.id] = answer

        self.paths = path_patterns()
        self.path_x1 = {name: call("query.evaluate.path", evaluate, full1,
                                   pattern, projection)
                        for name, (pattern, projection) in self.paths.items()}

        self.nodes_x1 = sorted(
            (t for t in g1.terms()
             if isinstance(t, Iri) and t.value.startswith(DATA)),
            key=lambda t: t.value)
        self.levels_x1 = {node: call("casebook.level_of", level_of, c1, node)
                          for node in self.nodes_x1}

        text = call("turtle_io.serialize_turtle", serialize_turtle, full1,
                    NAMESPACES)
        back = call("turtle_io.parse_turtle", parse_turtle, text).graph
        if not call("graph.isomorphic", isomorphic, back, full1):
            raise BenchError("x1 closure does not survive a Turtle round trip")

        # Expanding one shortcut adds a fixed number of triples that mention
        # the new recognition node; the author gate counts on it.
        per_expansion = set()
        for t in sorted((t for t in c1.inferred if t.predicate in SHORTCUTS),
                        key=repr):
            delta = call("reasoner.expand_shortcut", expand_shortcut, full1,
                         t, reg)
            c2 = call("reasoner.close", close,
                      call("graph.union", union, g1, delta), reg)
            if t not in c2:
                raise BenchError(f"expanding {t!r} does not re-derive it")
            per_expansion.add(sum(1 for u in c2.graph() if not ground(u)))
        if len(per_expansion) != 1:
            raise BenchError(f"expansions add differing triple counts "
                             f"{sorted(per_expansion)}")
        self.blank_per_expansion = per_expansion.pop()

    def cq_expected(self, cq, k: int, n: int) -> set[Solution]:
        """Answer of catalog question `cq`, constants moved to copy k, over
        the x n store. A question with data constants is answered inside
        its copy by the renamed golden; one without is answered in every
        copy."""
        if has_data_constant(cq.pattern):
            return rename_solutions(self.goldens[cq.case_id][cq.id], k)
        return self._every_copy(self.cq_x1[cq.id], n)

    def path_expected(self, name: str, n: int) -> set[Solution]:
        return self._every_copy(self.path_x1[name], n)

    @staticmethod
    def _every_copy(solutions: set[Solution], n: int) -> set[Solution]:
        out: set[Solution] = set()
        for k in range(n):
            out |= rename_solutions(solutions, k)
        return out

    def entries_expected(self, n: int) -> Counter:
        """Validation entries over the x n closure: one per copy for a data
        focus node, one in all for a shared vocabulary IRI."""
        out: Counter = Counter()
        for focus, shape_id, severity in self.entries_x1:
            copies = range(n) if (isinstance(focus, Iri)
                                  and focus.value.startswith(DATA)) else (0,)
            for k in copies:
                out[(rename(focus, k), shape_id, severity)] += 1
        return out


def ground(t) -> bool:
    return not (isinstance(t.subject, BlankNode)
                or isinstance(t.object, BlankNode))


def entry_counter(report) -> Counter:
    return Counter((e.focus, e.shape_id, e.severity) for e in report.entries)
