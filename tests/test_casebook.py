import random

import pytest

from iconmodel.casebook import (InterpretationLevel, NodeAbsentError,
                                UnknownCaseError, case_document, case_meta,
                                level_of, list_cases, load_case)
from iconmodel.graph import BlankNode, Graph, Iri, Triple
from iconmodel.query import cq_catalog, run_cq
from iconmodel.reasoner import RuleSet, close
from iconmodel.shapes import default_shapes, validate
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import (DATA_NAMESPACE, Direction, TermKind, TermRegistry,
                             VocabTerm, curie_to_iri)

from conftest import CASE_IDS, extended_registry, registry_random_graph
from oracles import oracle_level_of


def d(case_id, slug):
    return Iri(f"{DATA_NAMESPACE}{case_id}/{slug}")


class TestCatalog:
    def test_four_cases_sorted_by_id(self):
        cases = list_cases()
        assert [c.id for c in cases] == sorted(c.id for c in cases)
        assert len(cases) == 4

    def test_typologies(self):
        typologies = {c.id: c.typology for c in list_cases()}
        assert typologies == {"vermeer-balance": 1, "laocoon": 2,
                              "neptune": 3, "hercules-salvation": 4}

    def test_unknown_case(self):
        with pytest.raises(UnknownCaseError):
            load_case("nope")
        with pytest.raises(UnknownCaseError):
            case_meta("nope")

    def test_cited_works_occur_in_their_graphs(self, case_graphs):
        for case in list_cases():
            for work in case.cited_works:
                assert work in case_graphs[case.id].terms(), (case.id, work)


class TestLoadCase:
    def test_graphs_parse_nonempty(self, case_graphs):
        for case_id, g in case_graphs.items():
            assert len(g) > 0

    def test_hercules_iconclass_identifier(self, case_graphs):
        g = case_graphs["hercules-salvation"]
        assert g.match(s=d("hercules-salvation", "hercules-scene"),
                       o=Iri("http://iconclass.org/94L3241"))

    def test_hercules_both_artworks_at_st_marks(self, reg, case_graphs):
        g = case_graphs["hercules-salvation"]
        located = {t.subject for t in
                   g.match(p=reg.iri("crm:P53_has_current_location"),
                           o=d("hercules-salvation", "st-marks-basilica"))}
        assert located == {d("hercules-salvation", "hercules-relief"),
                           d("hercules-salvation", "salvation-relief")}

    def test_document_is_raw_turtle(self):
        assert case_document("vermeer-balance").startswith("#")

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_triple_count_matches_text_oracle(self, case_id, case_graphs):
        from oracles import count_fixture_statements
        assert len(case_graphs[case_id]) == \
            count_fixture_statements(case_document(case_id))

    def test_vermeer_has_three_representations(self, reg, case_graphs):
        subjects = {t.subject for t in case_graphs["vermeer-balance"].match(
            p=RDF_TYPE, o=reg.iri("vir:IC9_Representation"))}
        assert subjects == {d("vermeer-balance", "woman-holding-balance"),
                            d("vermeer-balance", "divine-justice-personification"),
                            d("vermeer-balance", "last-judgement-painting")}


class TestPipeline:
    """parse -> validate -> close -> golden answers, per case."""

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_full_pipeline(self, case_id, reg, case_graphs, case_closures):
        g = case_graphs[case_id]
        hier = close(g, reg, RuleSet(hierarchy=True, shortcut_contraction=False))
        assert validate(hier.graph(), default_shapes(reg), reg).conforms
        closure = case_closures[case_id]
        assert len(closure.graph()) > len(g)
        for cq in cq_catalog():
            if cq.case_id == case_id:
                assert run_cq(closure, cq.id).matches_golden, cq.id


LEVEL_CHECKS = [
    ("vermeer-balance", "woman-atom", InterpretationLevel.LEV1),
    ("vermeer-balance", "woman-holding-balance", InterpretationLevel.LEV2),
    ("vermeer-balance", "divine-justice-personification", InterpretationLevel.LEV2),
    ("vermeer-balance", "divine-justice-recognition", InterpretationLevel.LEV2),
    ("vermeer-balance", "introspection-concept", InterpretationLevel.LEV3),
    ("vermeer-balance", "mirror-recognition", InterpretationLevel.LEV3),
    ("vermeer-balance", "catholic-prohibition-phenomenon", InterpretationLevel.LEV4),
    ("vermeer-balance", "balance-recognition", InterpretationLevel.LEV4),
    ("laocoon", "illumination-atom", InterpretationLevel.LEV1),
    ("laocoon", "illumination-laocoon-character", InterpretationLevel.LEV2),
    ("laocoon", "classical-restyling-phenomenon", InterpretationLevel.LEV4),
    ("neptune", "neptune-character", InterpretationLevel.LEV2),
    ("neptune", "ruler-who-quells-the-rioting", InterpretationLevel.LEV3),
    ("hercules-salvation", "soul-symbol", InterpretationLevel.LEV3),
    ("hercules-salvation", "classical-motifs-reuse-phenomenon",
     InterpretationLevel.LEV4),
    ("vermeer-balance", "van-straten", InterpretationLevel.UNCLASSIFIED),
]


class TestLevels:
    @pytest.mark.parametrize("case_id,slug,want", LEVEL_CHECKS)
    def test_spot_check(self, case_id, slug, want, case_closures):
        assert level_of(case_closures[case_id], d(case_id, slug)) is want

    def test_absent_node_raises(self, case_closures):
        with pytest.raises(NodeAbsentError):
            level_of(case_closures["laocoon"], Iri("http://example.org/ghost"))

    def test_datatype_iri_is_absent_and_predicate_is_present(self, reg):
        from iconmodel.graph import Graph, Literal, Triple
        dt = Iri(DATA_NAMESPACE + "test/datatype")
        p = Iri(DATA_NAMESPACE + "test/p")
        n = Iri(DATA_NAMESPACE + "test/n")
        closure = close(Graph([Triple(n, p, Literal("1", datatype=dt))]).freeze(),
                        reg)
        with pytest.raises(NodeAbsentError):
            level_of(closure, dt)
        assert level_of(closure, p) is InterpretationLevel.UNCLASSIFIED

    def test_total_over_iri_nodes(self, case_closures):
        for closure in case_closures.values():
            g = closure.graph()
            for node in {t.subject for t in g} | {t.object for t in g}:
                if isinstance(node, (Iri, BlankNode)):
                    assert isinstance(level_of(closure, node), InterpretationLevel)

    def test_each_case_spans_the_level_stack(self, case_closures):
        for case_id, closure in case_closures.items():
            g = closure.graph()
            levels = {level_of(closure, n) for n in {t.subject for t in g}
                      if isinstance(n, (Iri, BlankNode))}
            assert InterpretationLevel.LEV1 in levels, case_id
            assert InterpretationLevel.LEV2 in levels, case_id
            assert levels & {InterpretationLevel.LEV3,
                             InterpretationLevel.LEV4}, case_id

    def test_matches_oracle_on_every_fixture_term(self, case_closures):
        for closure in case_closures.values():
            g = closure.graph()
            triples = set(g)
            for node in g.terms():
                assert level_of(closure, node) is oracle_level_of(triples, node), node

    def test_matches_oracle_on_random_graphs(self, reg):
        # the same draws as the reasoner's naive-oracle test
        rng = random.Random(1105)
        for _ in range(40):
            g = registry_random_graph(rng, reg)
            closure = close(g, reg, RuleSet(domain_range_typing=rng.random() < 0.3))
            triples = set(closure.graph())
            for node in closure.graph().terms():
                assert level_of(closure, node) is oracle_level_of(triples, node), node

    def test_phenomenon_beats_concept_tiebreak(self, reg):
        # a node typed both E28 and CulturalPhenomenon lands on Lev4
        from iconmodel.graph import Graph, Triple
        n = Iri(DATA_NAMESPACE + "test/both")
        r = Iri(DATA_NAMESPACE + "test/r")
        g = Graph([Triple(n, RDF_TYPE, reg.iri("crm:E28_Conceptual_Object")),
                   Triple(n, RDF_TYPE, reg.iri("icon:CulturalPhenomenon")),
                   Triple(r, RDF_TYPE, reg.iri("icon:IconologicalRecognition")),
                   Triple(r, reg.iri("icon:assignsTo"), Iri(DATA_NAMESPACE + "test/a")),
                   Triple(r, reg.iri("icon:assigned"), n)]).freeze()
        closure = close(g, reg)
        assert level_of(closure, n) is InterpretationLevel.LEV4
        assert level_of(closure, r) is InterpretationLevel.LEV4

    def test_closure_classifies_by_the_registry_it_was_closed_under(self, reg):
        # a shortcut whose last step (crm:P165_incorporates) the shipped
        # registry does not declare, so only its closure sees the meaning
        ext, evokes = extended_registry(
            reg, "evokes", (("icon:assignsTo", Direction.INVERSE),
                            ("crm:P165_incorporates", Direction.FORWARD)),
            "icon:IconologicalRecognition", None)
        x, r, m = (Iri(DATA_NAMESPACE + f"test/{n}") for n in ("x", "r", "m"))
        g = Graph([Triple(r, RDF_TYPE, reg.iri("icon:IconologicalRecognition")),
                   Triple(r, reg.iri("icon:assignsTo"), x),
                   Triple(r, reg.iri("crm:P165_incorporates"), m),
                   Triple(m, RDF_TYPE, reg.iri("crm:E28_Conceptual_Object"))]).freeze()
        closure = close(g, ext)
        assert Triple(x, evokes, m) in closure
        assert level_of(closure, r) is InterpretationLevel.LEV3
        assert level_of(closure, m) is InterpretationLevel.LEV3
        assert level_of(close(g, reg), r) is InterpretationLevel.UNCLASSIFIED
        assert level_of(close(g, reg), m) is InterpretationLevel.UNCLASSIFIED


class TestDeclaredLevelClass:
    """A Lev2 class added to the registry's level declaration works with
    no library change."""

    def test_level_of_and_s7_read_the_declaration(self, reg):
        emblem = curie_to_iri("icon:Emblem")
        extended = TermRegistry(
            list(reg.terms) + [VocabTerm(emblem, "icon:Emblem", TermKind.CLASS, "Emblem")],
            list(reg.axioms),
            reg.levels._replace(subjects=reg.levels.subjects + (emblem,)))
        n, m = Iri(DATA_NAMESPACE + "test/emblem"), Iri(DATA_NAMESPACE + "test/m")
        g = Graph([Triple(n, RDF_TYPE, emblem),
                   Triple(n, reg.iri("icon:symbolizes"), m)]).freeze()

        def classify(registry):
            closure = close(g, registry)
            report = validate(closure.graph(), default_shapes(registry), registry)
            return level_of(closure, n), [e.focus for e in report.entries
                                          if e.shape_id == "S7"]

        assert classify(extended) == (InterpretationLevel.LEV2, [])
        assert classify(reg) == (InterpretationLevel.UNCLASSIFIED, [n])
