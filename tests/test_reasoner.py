import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iconmodel
from iconmodel.graph import BlankNode, Graph, Iri, Literal, Triple, union
from iconmodel.reasoner import (Derivation, ReasonerError, RuleSet,
                                WrongPredicateError, close, expand_shortcut)
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import (Axiom, AxiomKind, Direction, PathSpec, TermKind,
                             TermRegistry, VocabTerm, curie_to_iri)

from conftest import registry_random_graph
from oracles import check_derivations, naive_close

D = "https://w3id.org/icon/data/test/"


def d(name):
    return Iri(D + name)


def recognition_graph(reg, meaning_is_phenomenon=False):
    g = Graph()
    g.insert(Triple(d("r"), RDF_TYPE, reg.iri("icon:IconologicalRecognition")))
    g.insert(Triple(d("r"), reg.iri("icon:assignsTo"), d("artwork")))
    g.insert(Triple(d("r"), reg.iri("icon:assigned"), d("meaning")))
    if meaning_is_phenomenon:
        g.insert(Triple(d("meaning"), RDF_TYPE, reg.iri("icon:CulturalPhenomenon")))
    return g.freeze()


class TestHierarchyRules:
    def test_axiom_class_propagation(self, reg):
        g = Graph([Triple(d("r"), RDF_TYPE,
                          reg.iri("icon:IconologicalRecognition"))]).freeze()
        c = close(g, reg)
        assert Triple(d("r"), RDF_TYPE, reg.iri("crm:E13_Attribute_Assignment")) in c
        assert Triple(d("r"), RDF_TYPE, reg.iri("hico:InterpretationAct")) in c

    def test_axiom_property_propagation(self, reg):
        g = Graph([Triple(d("x"), reg.iri("icon:hasIdentifyingAttribute"),
                          d("y"))]).freeze()
        c = close(g, reg)
        assert Triple(d("x"), reg.iri("vir:K17_has_attribute"), d("y")) in c

    def test_asserted_subclass_transitivity(self, reg):
        sub = reg.iri("rdfs:subClassOf")
        a, b, cc = d("A"), d("B"), d("C")
        g = Graph([Triple(a, sub, b), Triple(b, sub, cc),
                   Triple(d("x"), RDF_TYPE, a)]).freeze()
        c = close(g, reg)
        assert Triple(a, sub, cc) in c
        assert Triple(d("x"), RDF_TYPE, cc) in c

    def test_asserted_subproperty_transitivity(self, reg):
        sub = reg.iri("rdfs:subPropertyOf")
        p, q, r = d("p"), d("q"), d("r")
        g = Graph([Triple(p, sub, q), Triple(q, sub, r),
                   Triple(d("x"), p, d("y"))]).freeze()
        c = close(g, reg)
        assert Triple(p, sub, r) in c
        assert Triple(d("x"), r, d("y")) in c

    def test_edge_arriving_after_instance(self, reg):
        # order independence: the subclass edge sorts after the typing
        sub = reg.iri("rdfs:subClassOf")
        g = Graph([Triple(d("x"), RDF_TYPE, d("A")),
                   Triple(d("A"), sub, d("zzz"))]).freeze()
        assert Triple(d("x"), RDF_TYPE, d("zzz")) in close(g, reg)

    def test_non_iri_hierarchy_edges_are_ignored(self, reg):
        sub = reg.iri("rdfs:subClassOf")
        g = Graph([Triple(d("A"), sub, Literal("lit")),
                   Triple(d("A"), sub, BlankNode("b")),
                   Triple(BlankNode("c"), sub, d("A")),
                   Triple(d("A"), sub, d("A")),
                   Triple(d("x"), RDF_TYPE, d("A"))]).freeze()
        c = close(g, reg)
        assert set(c.graph()) == naive_close(g, reg, RuleSet()) == set(g)


class TestShortcutContraction:
    def test_symbolizes_derived(self, reg):
        c = close(recognition_graph(reg), reg)
        assert Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning")) in c
        assert Triple(d("artwork"), reg.iri("icon:isDocumentOf"),
                      d("meaning")) not in c

    def test_document_needs_phenomenon_typing(self, reg):
        c = close(recognition_graph(reg, meaning_is_phenomenon=True), reg)
        doc = Triple(d("artwork"), reg.iri("icon:isDocumentOf"), d("meaning"))
        assert doc in c
        # and the hierarchy lifts it to the generic depiction property
        assert Triple(d("artwork"), reg.iri("crm:P62_depicts"), d("meaning")) in c

    def test_derivations_name_rule_and_premises(self, reg):
        # "z-meaning" sorts last, so its phenomenon typing arrives after
        # the recognition's edges and must re-trigger contraction
        rec, ph = reg.iri("icon:IconologicalRecognition"), reg.iri("icon:CulturalPhenomenon")
        rec_t = Triple(d("r"), RDF_TYPE, rec)
        a_t = Triple(d("r"), reg.iri("icon:assignsTo"), d("artwork"))
        b_t = Triple(d("r"), reg.iri("icon:assigned"), d("z-meaning"))
        ph_t = Triple(d("z-meaning"), RDF_TYPE, ph)
        c = close(Graph([rec_t, a_t, b_t, ph_t]).freeze(), reg)
        sym = Triple(d("artwork"), reg.iri("icon:symbolizes"), d("z-meaning"))
        doc = Triple(d("artwork"), reg.iri("icon:isDocumentOf"), d("z-meaning"))
        assert c.provenance[sym] == Derivation("R6-symbolizes", (rec_t, a_t, b_t))
        assert c.provenance[doc] == Derivation("R6-document", (rec_t, a_t, b_t, ph_t))

    def test_untyped_node_is_no_recognition(self, reg):
        g = Graph([Triple(d("r"), reg.iri("icon:assignsTo"), d("a")),
                   Triple(d("r"), reg.iri("icon:assigned"), d("m"))]).freeze()
        assert len(close(g, reg).inferred) == 0

    def test_rules_off_means_no_shortcuts(self, reg):
        c = close(recognition_graph(reg), reg,
                  RuleSet(hierarchy=True, shortcut_contraction=False))
        assert Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning")) not in c


class TestDomainRange:
    def test_off_by_default(self, reg):
        g = Graph([Triple(d("a"), reg.iri("icon:symbolicallyRefersTo"),
                          d("b"))]).freeze()
        c = close(g, reg)
        assert Triple(d("a"), RDF_TYPE, reg.iri("crm:E5_Event")) not in c

    def test_types_both_ends_when_enabled(self, reg):
        g = Graph([Triple(d("a"), reg.iri("icon:symbolicallyRefersTo"),
                          d("b"))]).freeze()
        c = close(g, reg, RuleSet(domain_range_typing=True))
        assert Triple(d("a"), RDF_TYPE, reg.iri("crm:E5_Event")) in c
        assert Triple(d("b"), RDF_TYPE, reg.iri("crm:E5_Event")) in c


class TestClosureShape:
    def test_requires_frozen_graph(self, reg):
        with pytest.raises(ReasonerError):
            close(Graph(), reg)

    def test_base_and_inferred_are_disjoint(self, reg, case_graphs, case_closures):
        for case_id, c in case_closures.items():
            assert not (set(c.base) & set(c.inferred))
            assert set(c.graph()) == set(c.base) | set(c.inferred)
            assert c.graph() is c.graph() and c.graph().frozen

    def test_store_is_the_union_on_random_graphs(self, reg):
        rng = random.Random(1105)
        for _ in range(40):
            c = close(registry_random_graph(rng, reg), reg)
            assert c.graph() is c.graph()
            assert set(c.graph()) == set(c.base) | set(c.inferred)
            assert len(c.graph()) == len(set(c.base) | set(c.inferred))

    def test_closure_makes_no_union_copy(self, reg, monkeypatch):
        import sys
        from iconmodel.casebook import level_of
        from iconmodel.query import run_cq
        copies = []

        def counting_union(a, b):
            copies.append((a, b))
            return union(a, b)

        for name, module in list(sys.modules.items()):
            if name.startswith("iconmodel") and getattr(module, "union", None) is union:
                monkeypatch.setattr(module, "union", counting_union)
        c = close(recognition_graph(reg), reg)
        for _ in range(3):
            c.graph()
            level_of(c, d("artwork"))
            run_cq(c, "CQ1b")
        assert len(copies) == 0

    def test_closure_shares_the_base_and_builds_one_store(self, reg, monkeypatch):
        g = recognition_graph(reg)
        made = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        c = close(g, reg)
        assert c.base is g and made == [c.graph()]
        sym = Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning"))
        # inferred is a read-only view of provenance's keys
        assert len(c.inferred) == len(c.provenance) > 0
        assert sym in c.inferred and sym not in c.base
        assert set(c.inferred) == set(c.provenance)
        assert not c.inferred & set(g)
        assert c.inferred | set(g) == set(c.graph())
        assert not hasattr(c.inferred, "add")

    def test_provenance_covers_inferred_only(self, reg, case_closures):
        for c in case_closures.values():
            assert set(c.provenance) == set(c.inferred)
            for t, deriv in c.provenance.items():
                assert deriv.rule
                for premise in deriv.premises:
                    assert premise in c

    def test_entails(self, reg):
        g = recognition_graph(reg)
        c = close(g, reg, RuleSet())
        assert Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning")) in c
        assert Triple(d("artwork"), reg.iri("icon:symbolizes"), d("other")) not in c


class TestAgainstNaiveOracle:
    def test_fixture_closures(self, reg, case_graphs, case_closures):
        for case_id, g in case_graphs.items():
            assert set(case_closures[case_id].graph()) == \
                naive_close(g, reg, RuleSet())

    def test_random_graphs(self, reg):
        rng = random.Random(1105)
        for _ in range(40):
            g = registry_random_graph(rng, reg)
            rules = RuleSet(domain_range_typing=rng.random() < 0.3)
            assert set(close(g, reg, rules).graph()) == naive_close(g, reg, rules)

    def test_idempotence(self, reg):
        rng = random.Random(7)
        for _ in range(15):
            g = registry_random_graph(rng, reg)
            once = close(g, reg).graph()
            assert set(close(once, reg).graph()) == set(once)

    def test_monotonicity(self, reg):
        rng = random.Random(8)
        for _ in range(15):
            g1 = registry_random_graph(rng, reg, max_triples=30)
            g2 = registry_random_graph(rng, reg, max_triples=30)
            merged = union(g1, g2)
            assert set(close(g1, reg).graph()) <= set(close(merged, reg).graph())


RULE_SETS = [RuleSet(), RuleSet(domain_range_typing=True),
             RuleSet(hierarchy=True, shortcut_contraction=False),
             RuleSet(hierarchy=False, shortcut_contraction=True),
             RuleSet(hierarchy=False, shortcut_contraction=False,
                     domain_range_typing=True)]


@pytest.mark.parametrize("rules", RULE_SETS, ids=repr)
class TestDerivationOracle:
    def test_case_closures(self, reg, case_graphs, rules):
        for g in case_graphs.values():
            c = close(g, reg, rules)
            assert check_derivations(g, c.provenance, reg, rules) == []

    def test_random_graphs(self, reg, rules):
        rng = random.Random(1106)
        randoms = (registry_random_graph(rng, reg) for _ in range(40))
        for g in [*late_hierarchy_edges(reg), *randoms]:
            c = close(g, reg, rules)
            assert check_derivations(g, c.provenance, reg, rules) == []
            assert set(c.graph()) == naive_close(g, reg, rules)

    @pytest.mark.parametrize("shortcut", ["through-is-object-class", "hierarchy-steps",
                                          "repeated-step", "turnaround",
                                          "same-steps-other-through"])
    def test_unusual_registries(self, reg, rules, shortcut):
        ext, prop = extended_registry(reg, *UNUSUAL_SHORTCUTS[shortcut])
        rng = random.Random(1107)
        fired = 0
        for _ in range(40):
            g = with_shortcut_paths(rng, ext, prop, registry_random_graph(rng, ext))
            c = close(g, ext, rules)
            assert check_derivations(g, c.provenance, ext, rules) == []
            assert set(c.graph()) == naive_close(g, ext, rules)
            fired += sum(t.predicate == prop for t in c.inferred)
        assert fired > 0 or not rules.shortcut_contraction


def late_hierarchy_edges(reg) -> list[Graph]:
    """Graphs whose first rdfs:subClassOf or rdfs:subPropertyOf edge comes
    after the triples it joins with: derived, joined with itself, or
    dequeued after the instances it types."""
    sub_class_of, sub_property_of = reg.iri("rdfs:subClassOf"), reg.iri("rdfs:subPropertyOf")
    a, b, p, q = d("A"), d("B"), d("p"), d("q")
    xs = [d(f"x{i}") for i in range(3)]
    # the engine dequeues in hash order, which the hash seed sets
    c = next(c for c in (d(f"C{i}") for i in range(1000))
             if all(hash(Triple(x, RDF_TYPE, c)) < hash(Triple(c, sub_class_of, b))
                    for x in xs))
    return [Graph(ts).freeze() for ts in (
        # the only rdfs:subClassOf edge is derived, by R4 along p
        [Triple(p, sub_property_of, sub_class_of), Triple(a, p, b),
         *(Triple(x, RDF_TYPE, a) for x in xs)],
        # the first rdfs:subPropertyOf edge joins with itself
        [Triple(sub_property_of, sub_property_of, q), Triple(d("y"), q, b)],
        [*(Triple(x, RDF_TYPE, c) for x in xs), Triple(c, sub_class_of, b)],
    )]


# Shortcut declarations the shipped vocabulary does not make: local name,
# steps, through class, object class.
UNUSUAL_SHORTCUTS = {
    # the far endpoint of a path must be a through node itself
    "through-is-object-class": (
        "chainsTo", (("icon:assignsTo", Direction.INVERSE), ("icon:assigned", Direction.FORWARD)),
        "icon:IconologicalRecognition", "icon:IconologicalRecognition"),
    # a step along an asserted rdfs:subClassOf edge, then along a property
    # that has a registry superproperty
    "hierarchy-steps": (
        "narrowsTo", (("rdfs:subClassOf", Direction.FORWARD),
                      ("icon:hasIdentifyingAttribute", Direction.FORWARD)),
        "rdfs:Class", None),
    # both steps along one predicate: a step triple is the first step at
    # its object and the second at its subject
    "repeated-step": (
        "assignsOnwardTo", (("icon:assigned", Direction.FORWARD),
                            ("icon:assigned", Direction.FORWARD)),
        "icon:IconologicalRecognition", None),
    # both steps along one predicate, each with the through node as subject
    "turnaround": (
        "coAssigned", (("icon:assigned", Direction.INVERSE),
                       ("icon:assigned", Direction.FORWARD)),
        "icon:IconologicalRecognition", None),
    # the shipped steps through a superclass of the shipped through class,
    # so two groups of specs walk the same step predicates
    "same-steps-other-through": (
        "attributionAssigned", (("icon:assignsTo", Direction.INVERSE),
                                ("icon:assigned", Direction.FORWARD)),
        "crm:E13_Attribute_Assignment", None),
}


def extended_registry(reg, local, steps, through, object_class):
    """reg plus one shortcut property icon:<local>, and that property."""
    prop = curie_to_iri(f"icon:{local}")
    term = VocabTerm(prop, f"icon:{local}", TermKind.PROPERTY, local)
    spec = PathSpec(tuple((reg.iri(p), dr) for p, dr in steps), reg.iri(through),
                    object_class=object_class and reg.iri(object_class))
    return TermRegistry(list(reg.terms) + [term],
                        list(reg.axioms) + [Axiom(AxiomKind.SHORTCUT_OF, prop, spec)]), prop


def with_shortcut_paths(rng, reg, prop, g):
    """g plus up to 8 paths of prop's declaration over five of
    registry_random_graph's nodes, so that paths share nodes, plus nodes
    typed with one another."""
    spec = dict(reg.shortcuts())[prop]
    (p1, d1), (p2, d2) = spec.steps
    nodes = [Iri(f"https://w3id.org/icon/data/random/n{i}") for i in range(5)]
    extra = []
    for _ in range(rng.randrange(9)):
        x, r, m = (rng.choice(nodes) for _ in range(3))
        extra.append(Triple(r, RDF_TYPE, spec.through_class))
        extra.append(Triple(x, p1, r) if d1 is Direction.FORWARD else Triple(r, p1, x))
        extra.append(Triple(r, p2, m) if d2 is Direction.FORWARD else Triple(m, p2, r))
        if spec.object_class is not None and rng.random() < 0.7:
            extra.append(Triple(m, RDF_TYPE, spec.object_class))
        if rng.random() < 0.5:
            extra.append(Triple(rng.choice(nodes), RDF_TYPE, rng.choice(nodes)))
    return union(g, Graph(extra).freeze())


def test_derivation_oracle_reports_faults(reg):
    g = recognition_graph(reg, meaning_is_phenomenon=True)
    good = close(g, reg).provenance
    assert check_derivations(g, good, reg, RuleSet()) == []
    sym = Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning"))
    doc = Triple(d("artwork"), reg.iri("icon:isDocumentOf"), d("meaning"))
    # a conclusion drawn from a derived premise, moved ahead of that premise
    later = next(t for t, dv in good.items() if any(x in good for x in dv.premises))
    asserted = good[sym].premises[0]
    broken = [
        {**good, sym: Derivation("R6-document", good[sym].premises)},
        {**good, doc: Derivation("R6-document", good[doc].premises[:3])},
        {**good, sym: Derivation("R9", good[sym].premises)},
        {**good, sym: Derivation("R6-symbolizes", good[sym].premises[::-1])},
        {later: good[later], **good},
        {**good, asserted: Derivation("R2-axiom", (asserted,))},
    ]
    for provenance in broken:
        assert check_derivations(g, provenance, reg, RuleSet()), provenance
    assert check_derivations(g, good, reg, RuleSet(shortcut_contraction=False))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closure_equals_oracle_property(reg, seed):
    g = registry_random_graph(random.Random(seed), reg, max_triples=40)
    assert set(close(g, reg).graph()) == naive_close(g, reg, RuleSet())


# Every case of the casebook closed: its serialized closure and its count
# of inferred triples per rule.
CLOSE_CASEBOOK = """
import collections, json
from iconmodel import NAMESPACES, build_registry, close, list_cases, load_case, serialize_turtle
reg = build_registry()
out = {}
for case in list_cases():
    c = close(load_case(case.id)[0], reg)
    out[case.id] = [serialize_turtle(c.graph(), NAMESPACES),
                    collections.Counter(d.rule for d in c.provenance.values())]
print(json.dumps(out, sort_keys=True))
"""


def test_closure_is_the_same_under_every_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(iconmodel.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, "-c", CLOSE_CASEBOOK],
                           env={**env, "PYTHONHASHSEED": str(seed)},
                           capture_output=True, check=True, timeout=120).stdout
            for seed in (0, 1, 2)]
    assert runs[0] == runs[1] == runs[2]
    closed = json.loads(runs[0])
    assert closed and all(counts for _, counts in closed.values())


class TestExpandShortcut:
    def test_round_trip_symbolizes(self, reg):
        base = close(recognition_graph(reg), reg).graph()
        t = Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning"))
        delta = expand_shortcut(base, t, reg)
        assert t in close(delta, reg)

    def test_round_trip_document(self, reg):
        base = close(recognition_graph(reg, True), reg).graph()
        t = Triple(d("artwork"), reg.iri("icon:isDocumentOf"), d("meaning"))
        delta = expand_shortcut(base, t, reg)
        assert t in close(delta, reg)
        # the delta re-asserts the phenomenon typing it depends on
        assert Triple(d("meaning"), RDF_TYPE,
                      reg.iri("icon:CulturalPhenomenon")) in delta

    def test_actor_attribution(self, reg):
        base = close(recognition_graph(reg), reg).graph()
        t = Triple(d("artwork"), reg.iri("icon:symbolizes"), d("meaning"))
        delta = expand_shortcut(base, t, reg, actor=d("scholar"))
        assert any(x.predicate == reg.iri("crm:P14_carried_out_by")
                   and x.object == d("scholar") for x in delta)

    def test_fresh_blank_node(self, reg):
        g = Graph([Triple(BlankNode("r1"), reg.iri("icon:assignsTo"), d("a")),
                   Triple(d("x"), reg.iri("icon:symbolizes"), d("m"))]).freeze()
        delta = expand_shortcut(g, Triple(d("x"), reg.iri("icon:symbolizes"),
                                          d("m")), reg)
        assert delta.blank_labels() == {"r2"}

    def test_fresh_label_skips_subjects_and_objects(self, reg):
        x, m = d("x"), d("m")
        g = Graph([Triple(d("a"), reg.iri("icon:assignsTo"), BlankNode("r1")),
                   Triple(BlankNode("r2"), reg.iri("icon:assignsTo"), d("a")),
                   Triple(x, reg.iri("icon:symbolizes"), m)]).freeze()
        delta = expand_shortcut(g, Triple(x, reg.iri("icon:symbolizes"), m), reg)
        assert delta.blank_labels() == {"r3"}

    def test_wrong_predicate_rejected(self, reg):
        g = Graph([Triple(d("x"), reg.iri("crm:P62_depicts"), d("m"))]).freeze()
        with pytest.raises(WrongPredicateError):
            expand_shortcut(g, Triple(d("x"), reg.iri("crm:P62_depicts"), d("m")), reg)

    def test_absent_triple_rejected(self, reg):
        g = Graph().freeze()
        with pytest.raises(ReasonerError):
            expand_shortcut(g, Triple(d("x"), reg.iri("icon:symbolizes"), d("m")), reg)

    def test_literal_that_would_be_a_subject_rejected(self, reg):
        # the object class would type the literal; the second step would
        # run from the literal to the through node
        ext, inverse_end = extended_registry(
            reg, "assignedFrom", (("icon:assignsTo", Direction.INVERSE),
                                  ("icon:assigned", Direction.INVERSE)),
            "icon:IconologicalRecognition", None)
        for prop in (reg.iri("icon:isDocumentOf"), inverse_end):
            t = Triple(d("a"), prop, Literal("x"))
            with pytest.raises(ReasonerError, match="literal object"):
                expand_shortcut(Graph([t]).freeze(), t, ext)

    def test_literal_that_stays_an_object_expands(self, reg):
        t = Triple(d("a"), reg.iri("icon:symbolizes"), Literal("x"))
        delta = expand_shortcut(Graph([t]).freeze(), t, reg)
        assert t in close(delta, reg)

    def test_every_fixture_shortcut_round_trips(self, reg, case_closures):
        sym, doc = reg.iri("icon:symbolizes"), reg.iri("icon:isDocumentOf")
        seen = 0
        for c in case_closures.values():
            whole = c.graph()
            for t in c.inferred:
                if t.predicate in (sym, doc):
                    delta = expand_shortcut(whole, t, reg)
                    assert t in close(delta, reg)
                    seen += 1
        assert seen > 0

    def test_closure_over_unions_equals_closure_over_a_fresh_graph(
            self, reg, case_closures):
        sym, doc = reg.iri("icon:symbolizes"), reg.iri("icon:isDocumentOf")
        for case_id, c in case_closures.items():
            grown, asserted = c.graph(), c.base
            for t in sorted(c.inferred, key=repr):
                if t.predicate in (sym, doc):
                    delta = expand_shortcut(grown, t, reg)
                    grown = union(grown, delta)
                    asserted = union(asserted, delta)
            assert len(asserted) > len(c.base), case_id
            merged = close(asserted, reg)
            fresh = close(Graph(asserted).freeze(), reg)
            assert set(merged.graph()) == set(fresh.graph()), case_id
            assert merged.provenance == fresh.provenance, case_id


class TestDeclaredShortcut:
    """A shortcut term added to the registry works with no library change."""

    @pytest.mark.parametrize("local,steps,subject,obj", [
        ("evokes", (("icon:assignsTo", Direction.INVERSE),
                    ("icon:assigned", Direction.FORWARD)), "artwork", "meaning"),
        ("evokedBy", (("icon:assigned", Direction.INVERSE),
                      ("icon:assignsTo", Direction.FORWARD)), "meaning", "artwork"),
    ])
    def test_close_and_expand_read_the_declaration(self, reg, local, steps,
                                                   subject, obj):
        prop = curie_to_iri(f"icon:{local}")
        term = VocabTerm(prop, f"icon:{local}", TermKind.PROPERTY, local)
        e28 = reg.iri("crm:E28_Conceptual_Object")
        spec = PathSpec(tuple((reg.iri(p), dr) for p, dr in steps),
                        reg.iri("icon:IconologicalRecognition"), object_class=e28)
        extended = TermRegistry(list(reg.terms) + [term],
                                list(reg.axioms) + [Axiom(AxiomKind.SHORTCUT_OF, prop, spec)])
        t = Triple(d(subject), prop, d(obj))
        plain = recognition_graph(reg)
        assert t not in close(plain, extended)  # the object class is required
        g = union(plain, Graph([Triple(d(obj), RDF_TYPE, e28)]).freeze())
        c = close(g, extended)
        assert t in c and c.provenance[t].rule == f"R6-{local}"
        assert t not in close(g, reg)
        delta = expand_shortcut(c.graph(), t, extended)
        assert Triple(d(obj), RDF_TYPE, e28) in delta
        assert t in close(delta, extended)
