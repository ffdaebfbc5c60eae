"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its measured numbers. Run with -s to see them."""

import random
import time

from iconmodel import (NAMESPACES, build_registry, close, cq_catalog,
                       expand_shortcut, isomorphic, parse_turtle, run_cq,
                       serialize_turtle, union)
from iconmodel.casebook import InterpretationLevel, level_of, list_cases
from iconmodel.graph import Graph, Iri, Triple
from iconmodel.query import Pattern, Var, evaluate
from iconmodel.reasoner import RuleSet
from iconmodel.shapes import Severity, default_shapes, validate
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import AxiomKind, DATA_NAMESPACE, curie_to_iri

from conftest import (CASE_IDS, MUTATIONS_DIR, plain_random_graph,
                      registry_random_graph, turtle_random_graph)
from oracles import brute_evaluate, naive_close
from test_query import as_tuples, random_pattern


def report(n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: criterion {n} - {detail}")
    assert ok, detail


def test_criterion_1_golden_cq_suite(case_closures):
    started = time.perf_counter()
    matched = 0
    for cq in cq_catalog():
        result = run_cq(case_closures[cq.case_id], cq.id)
        matched += result.matches_golden
    elapsed = time.perf_counter() - started
    ok = matched == 8 and elapsed < 1.0
    report(1, ok, f"golden CQ suite {matched}/8 exact matches in {elapsed:.3f}s "
                  "(budget 1s)")


def test_criterion_2_alignment_fidelity(reg):
    def i(curie):
        return curie_to_iri(curie)

    expected_sub = {
        (AxiomKind.SUB_CLASS_OF, i("icon:IconologicalRecognition"),
         i("crm:E13_Attribute_Assignment")),
        (AxiomKind.SUB_CLASS_OF, i("icon:IconologicalRecognition"),
         i("hico:InterpretationAct")),
        (AxiomKind.SUB_CLASS_OF, i("icon:CulturalPhenomenon"), i("crm:E4_Period")),
        (AxiomKind.SUB_PROPERTY_OF, i("icon:hasIdentifyingAttribute"),
         i("vir:K17_has_attribute")),
        (AxiomKind.SUB_PROPERTY_OF, i("icon:symbolicallyRefersTo"),
         i("crm:P9_consists_of")),
        (AxiomKind.SUB_PROPERTY_OF, i("icon:showsMotifsOf"),
         i("crm:P130_shows_features_of")),
        (AxiomKind.SUB_PROPERTY_OF, i("icon:isDocumentOf"), i("crm:P62_depicts")),
    }
    actual_sub = {(a.kind, a.subject, a.object) for a in reg.axioms
                  if a.kind in (AxiomKind.SUB_CLASS_OF, AxiomKind.SUB_PROPERTY_OF)}
    shortcuts = dict(reg.shortcuts())
    present = expected_sub <= actual_sub and len(actual_sub) == 7 \
        and set(shortcuts) == {i("icon:symbolizes"), i("icon:isDocumentOf")}
    forbidden = (AxiomKind.SUB_PROPERTY_OF, i("icon:symbolizes"),
                 i("vir:K14_symbolize"))
    absent = forbidden not in actual_sub
    report(2, present and absent,
           "7 hierarchy axioms + 2 shortcut definitions present; "
           "no icon:symbolizes under vir:K14")


def test_criterion_3_closure_correctness(reg, case_graphs):
    started = time.perf_counter()
    checked = 0
    for g in case_graphs.values():
        assert set(close(g, reg).graph()) == naive_close(g, reg, RuleSet())
        checked += 1
    rng = random.Random(3301)
    graphs = [registry_random_graph(rng, reg, max_triples=60) for _ in range(200)]
    for g in graphs:
        closure = set(close(g, reg).graph())
        assert closure == naive_close(g, reg, RuleSet())
        checked += 1
    # idempotence and monotonicity over the same corpus
    for g in graphs[:40]:
        once = close(g, reg).graph()
        assert set(close(once, reg).graph()) == set(once)
    for a, b in zip(graphs[:40], graphs[40:80]):
        assert set(close(a, reg).graph()) <= set(close(union(a, b), reg).graph())
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    report(3, ok, f"semi-naive closure equals naive oracle on {checked} graphs, "
                  f"idempotent and monotone, in {elapsed:.2f}s (budget 10s)")


def test_criterion_4_shortcut_round_trip(reg, case_closures):
    sym, doc = reg.iri("icon:symbolizes"), reg.iri("icon:isDocumentOf")
    fixture_hits = 0
    for closure in case_closures.values():
        whole = closure.graph()
        for t in closure.inferred:
            if t.predicate in (sym, doc):
                delta = expand_shortcut(whole, t, reg)
                assert t in close(delta, reg), t
                fixture_hits += 1
    rng = random.Random(404)
    for n in range(100):
        x = Iri(f"{DATA_NAMESPACE}random/x{n}")
        m = Iri(f"{DATA_NAMESPACE}random/m{n}")
        pred = sym if rng.random() < 0.5 else doc
        triples = [Triple(x, pred, m)]
        if pred == doc:
            triples.append(Triple(m, RDF_TYPE, reg.iri("icon:CulturalPhenomenon")))
        g = Graph(triples + list(registry_random_graph(rng, reg, max_triples=10)))
        target = Triple(x, pred, m)
        delta = expand_shortcut(g, target, reg)
        assert target in close(union(g, delta), reg), target
    ok = fixture_hits > 0
    report(4, ok, f"{fixture_hits} fixture shortcut triples and 100 synthetic "
                  "ones expand and re-contract")


def test_criterion_5_turtle_round_trip(case_graphs):
    for case_id, g in case_graphs.items():
        text = serialize_turtle(g, NAMESPACES)
        assert isomorphic(g, parse_turtle(text).graph), case_id
    rng = random.Random(505)
    for _ in range(100):
        g = turtle_random_graph(rng)
        text = serialize_turtle(g, {"ex": "http://example.org/",
                                    "rdf": NAMESPACES["rdf"]})
        assert isomorphic(g, parse_turtle(text).graph)
    report(5, True, "parse(serialize(G)) isomorphic to G on 4 fixtures "
                    "and 100 random graphs")


def test_criterion_6_validation_gate(reg, case_graphs):
    shapes = default_shapes(reg)
    rules = RuleSet(hierarchy=True, shortcut_contraction=False)
    for case_id, g in case_graphs.items():
        closed = close(g, reg, rules).graph()
        assert validate(closed, shapes, reg).conforms, case_id
    mutations = {"s1-missing-assigned.ttl": "S1", "s3-untyped-event.ttl": "S3",
                 "s4-untyped-motif.ttl": "S4", "s5-bad-document.ttl": "S5",
                 "s6-bad-attribute.ttl": "S6", "s7-bad-symbolizer.ttl": "S7"}
    for filename, shape_id in mutations.items():
        g = parse_turtle((MUTATIONS_DIR / filename).read_text("utf-8")).graph
        closed = close(g, reg, rules).graph()
        violated = {e.shape_id for e in validate(closed, shapes, reg).entries
                    if e.severity is Severity.VIOLATION}
        assert violated == {shape_id}, (filename, violated)
    report(6, True, "4 fixtures conform; 6 mutation fixtures each trigger "
                    "exactly their Violation shape")


def test_criterion_7_level_classifier(case_closures):
    checks = [
        ("vermeer-balance", "divine-justice-personification",
         InterpretationLevel.LEV2),
        ("vermeer-balance", "woman-holding-balance", InterpretationLevel.LEV2),
        ("vermeer-balance", "catholic-prohibition-phenomenon",
         InterpretationLevel.LEV4),
        ("vermeer-balance", "woman-atom", InterpretationLevel.LEV1),
        ("neptune", "ruler-who-quells-the-rioting", InterpretationLevel.LEV3),
        ("laocoon", "classical-restyling-phenomenon", InterpretationLevel.LEV4),
        ("hercules-salvation", "classical-motifs-reuse-phenomenon",
         InterpretationLevel.LEV4),
        ("hercules-salvation", "soul-symbol", InterpretationLevel.LEV3),
    ]
    for case_id, slug, want in checks:
        node = Iri(f"{DATA_NAMESPACE}{case_id}/{slug}")
        got = level_of(case_closures[case_id], node)
        assert got is want, (slug, got, want)
    report(7, len(checks) >= 6,
           f"{len(checks)} level annotations reproduced exactly")


def test_criterion_8_query_oracle():
    started = time.perf_counter()
    rng = random.Random(808)
    trials = 0
    for n in range(500):
        size = rng.randint(0, 200) if n % 10 == 0 else rng.randint(0, 60)
        g = plain_random_graph(rng, size)
        pattern, projection = random_pattern(rng, g)
        assert len(pattern.triples) <= 3
        got = as_tuples(evaluate(g, pattern, projection))
        want = brute_evaluate(g, pattern, projection)
        assert got == want, (pattern, projection)
        trials += 1
    elapsed = time.perf_counter() - started
    ok = trials >= 500 and elapsed < 30.0
    report(8, ok, f"evaluation equals brute-force enumeration on {trials} "
                  f"random patterns in {elapsed:.2f}s (budget 30s)")
