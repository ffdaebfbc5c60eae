import pytest

from iconmodel.graph import Iri
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import (Axiom, AxiomKind, BadCurieError, Direction,
                             NAMESPACES, TermKind, TermRegistry,
                             UnknownTermError, VocabError, VocabTerm,
                             axioms_graph, curie_to_iri, expand_curie)


def i(curie):
    return curie_to_iri(curie)


class TestCurie:
    def test_resolves_against_namespace_table(self):
        assert curie_to_iri("icon:symbolizes") == \
            Iri("https://w3id.org/icon/ontology/symbolizes")

    def test_rejects_non_curie(self):
        with pytest.raises(BadCurieError):
            curie_to_iri("nocolon")

    def test_rejects_unknown_prefix(self):
        with pytest.raises(UnknownTermError, match="'nope:thing'"):
            curie_to_iri("nope:thing")

    @pytest.mark.parametrize("ns", ["foo", "", "rel/"])
    def test_relative_namespace_is_a_bad_curie(self, ns):
        # a Turtle document may declare @prefix x: <foo> .
        with pytest.raises(BadCurieError, match="'x:b'"):
            expand_curie("x:b", {"x": ns})


class TestRegistryLookups:
    def test_lookup_round_trips(self, reg):
        iri = reg.iri("icon:IconologicalRecognition")
        assert iri == i("icon:IconologicalRecognition")
        [term] = [t for t in reg.terms if t.iri == iri]
        assert term.curie == "icon:IconologicalRecognition"
        assert term.kind is TermKind.CLASS
        assert reg.is_registered(iri)

    def test_unregistered_term_raises(self, reg):
        with pytest.raises(UnknownTermError, match="unregistered term 'icon:notAThing'"):
            reg.iri("icon:notAThing")
        with pytest.raises(UnknownTermError, match="unknown prefix 'ex' in 'ex:x'"):
            reg.iri("ex:x")

    def test_non_curie_raises(self, reg):
        with pytest.raises(BadCurieError):
            reg.iri("notACurie")

    def test_unregistered_iri_is_not_registered(self, reg):
        assert not reg.is_registered(Iri("http://example.org/x"))

    def test_superclasses_are_transitive_strict(self, reg):
        sup = reg.superclasses(i("icon:IconologicalRecognition"))
        assert i("crm:E13_Attribute_Assignment") in sup
        assert i("hico:InterpretationAct") in sup
        assert i("icon:IconologicalRecognition") not in sup


class TestAlignmentAxioms:
    """The seven hierarchy axioms and the two shortcut definitions."""

    def test_subclass_axioms_present(self, reg):
        pairs = {(a.subject, a.object) for a in reg.axioms
                 if a.kind is AxiomKind.SUB_CLASS_OF}
        assert pairs == {
            (i("icon:IconologicalRecognition"), i("crm:E13_Attribute_Assignment")),
            (i("icon:IconologicalRecognition"), i("hico:InterpretationAct")),
            (i("icon:CulturalPhenomenon"), i("crm:E4_Period")),
        }

    def test_subproperty_axioms_present(self, reg):
        pairs = {(a.subject, a.object) for a in reg.axioms
                 if a.kind is AxiomKind.SUB_PROPERTY_OF}
        assert pairs == {
            (i("icon:hasIdentifyingAttribute"), i("vir:K17_has_attribute")),
            (i("icon:symbolicallyRefersTo"), i("crm:P9_consists_of")),
            (i("icon:showsMotifsOf"), i("crm:P130_shows_features_of")),
            (i("icon:isDocumentOf"), i("crm:P62_depicts")),
        }

    def test_both_shortcuts_defined(self, reg):
        shortcuts = dict(reg.shortcuts())
        assert set(shortcuts) == {i("icon:symbolizes"), i("icon:isDocumentOf")}
        sym = shortcuts[i("icon:symbolizes")]
        assert sym.through_class == i("icon:IconologicalRecognition")
        assert sym.steps == ((i("icon:assignsTo"), Direction.INVERSE),
                             (i("icon:assigned"), Direction.FORWARD))
        assert sym.object_class is None
        doc = shortcuts[i("icon:isDocumentOf")]
        assert doc.object_class == i("icon:CulturalPhenomenon")

    def test_no_symbolizes_under_k14(self, reg):
        assert not any(
            a.kind is AxiomKind.SUB_PROPERTY_OF
            and a.subject == i("icon:symbolizes")
            and a.object == i("vir:K14_symbolize")
            for a in reg.axioms)

    def test_domain_range_for_symbolic_reference(self, reg):
        assert (i("icon:symbolicallyRefersTo"), i("crm:E5_Event")) in reg.domain_axioms()
        assert (i("icon:symbolicallyRefersTo"), i("crm:E5_Event")) in reg.range_axioms()


class TestRegistryInvariants:
    def mk(self, axioms):
        terms = [VocabTerm(i(c), c, k, c)
                 for c, k in [("icon:CulturalPhenomenon", TermKind.CLASS),
                              ("crm:E4_Period", TermKind.CLASS),
                              ("icon:symbolizes", TermKind.PROPERTY),
                              ("vir:K14_symbolize", TermKind.PROPERTY)]]
        return TermRegistry(terms, axioms)

    def test_symbolizes_under_k14_rejected(self):
        bad = Axiom(AxiomKind.SUB_PROPERTY_OF, i("icon:symbolizes"),
                    i("vir:K14_symbolize"))
        with pytest.raises(VocabError):
            self.mk([bad])

    def test_cycle_rejected(self):
        cyc = [Axiom(AxiomKind.SUB_CLASS_OF, i("icon:CulturalPhenomenon"),
                     i("crm:E4_Period")),
               Axiom(AxiomKind.SUB_CLASS_OF, i("crm:E4_Period"),
                     i("icon:CulturalPhenomenon"))]
        with pytest.raises(VocabError):
            self.mk(cyc)

    @staticmethod
    def chain(n, closed):
        curies = [f"icon:C{k}" for k in range(n)]
        terms = [VocabTerm(i(c), c, TermKind.CLASS, c) for c in curies]
        links = list(zip(curies, curies[1:] + curies[:1] if closed else curies[1:]))
        axioms = [Axiom(AxiomKind.SUB_CLASS_OF, i(a), i(b)) for a, b in links]
        return terms, axioms

    def test_long_chain_is_walked_without_recursion(self):
        terms, axioms = self.chain(2000, closed=False)
        reg = TermRegistry(terms, axioms)
        assert len(reg.superclasses(i("icon:C0"))) == 1999
        assert reg.superclasses(i("icon:C1998")) == {i("icon:C1999")}
        assert reg.superclasses(i("icon:C1999")) == frozenset()

    def test_second_path_to_an_ancestor_is_not_a_cycle(self):
        terms, axioms = self.chain(4, closed=False)
        axioms.append(Axiom(AxiomKind.SUB_CLASS_OF, i("icon:C0"), i("icon:C2")))
        reg = TermRegistry(terms, axioms)
        assert reg.superclasses(i("icon:C0")) == {i("icon:C1"), i("icon:C2"),
                                                 i("icon:C3")}

    def test_long_cycle_rejected(self):
        terms, axioms = self.chain(2000, closed=True)
        with pytest.raises(VocabError, match="cycle in SubClassOf axioms"):
            TermRegistry(terms, axioms)

    def test_unregistered_axiom_operand_rejected(self):
        bad = Axiom(AxiomKind.SUB_CLASS_OF, i("icon:CulturalPhenomenon"),
                    i("crm:E5_Event"))
        with pytest.raises(VocabError):
            self.mk([bad])

    @pytest.mark.parametrize("curie, iri", [
        ("ex:x", "http://ex.org/x"),  # a prefix outside NAMESPACES
        ("icon:x", "http://ex.org/x"),  # an IRI outside the prefix's namespace
        # in the namespace, but not the CURIE's local name
        ("icon:x", "https://w3id.org/icon/ontology/y"),
    ])
    def test_term_outside_its_namespace_rejected(self, reg, curie, iri):
        term = VocabTerm(Iri(iri), curie, TermKind.CLASS, "x")
        with pytest.raises(VocabError, match=curie):
            TermRegistry(list(reg.terms) + [term], list(reg.axioms))

    def test_class_property_kind_mismatch_rejected(self):
        bad = Axiom(AxiomKind.SUB_CLASS_OF, i("icon:symbolizes"),
                    i("crm:E4_Period"))
        with pytest.raises(VocabError):
            self.mk([bad])


class TestAxiomsGraph:
    def test_one_marker_per_term(self, reg):
        g = axioms_graph(reg)
        markers = g.match(p=RDF_TYPE)
        assert len(markers) == len(reg.terms)

    def test_axiom_triples_present_but_not_shortcuts(self, reg):
        g = axioms_graph(reg)
        assert g.match(p=i("rdfs:subClassOf"))
        sym = i("icon:symbolizes")
        assert not g.match(s=sym, p=i("rdfs:subPropertyOf"))
        non_shortcut = [a for a in reg.axioms if a.kind is not AxiomKind.SHORTCUT_OF]
        assert len(g) == len(reg.terms) + len(non_shortcut)

    def test_matches_shipped_fixture(self, reg):
        from importlib import resources
        from iconmodel.turtle_io import parse_turtle, serialize_turtle
        shipped = (resources.files("iconmodel") / "fixtures"
                   / "icon-axioms.ttl").read_text("utf-8")
        assert serialize_turtle(axioms_graph(reg), NAMESPACES) == shipped
