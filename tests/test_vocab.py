import pytest
from hypothesis import given, settings, strategies as st

from iconmodel.graph import Iri
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import (Axiom, AxiomKind, BadCurieError, Direction,
                             Levels, NAMESPACES, PathSpec, TermKind, TermRegistry,
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
    def mk(self, axioms, levels=Levels()):
        terms = [VocabTerm(i(c), c, k, c)
                 for c, k in [("icon:CulturalPhenomenon", TermKind.CLASS),
                              ("crm:E4_Period", TermKind.CLASS),
                              ("icon:symbolizes", TermKind.PROPERTY),
                              ("vir:K14_symbolize", TermKind.PROPERTY)]]
        return TermRegistry(terms, axioms, levels)

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
        reg = TermRegistry(terms, axioms, Levels())
        assert len(reg.superclasses(i("icon:C0"))) == 1999
        assert reg.superclasses(i("icon:C1998")) == {i("icon:C1999")}
        assert reg.superclasses(i("icon:C1999")) == frozenset()

    def test_second_path_to_an_ancestor_is_not_a_cycle(self):
        terms, axioms = self.chain(4, closed=False)
        axioms.append(Axiom(AxiomKind.SUB_CLASS_OF, i("icon:C0"), i("icon:C2")))
        reg = TermRegistry(terms, axioms, Levels())
        assert reg.superclasses(i("icon:C0")) == {i("icon:C1"), i("icon:C2"),
                                                 i("icon:C3")}

    def test_long_cycle_rejected(self):
        terms, axioms = self.chain(2000, closed=True)
        with pytest.raises(VocabError, match="cycle in SubClassOf axioms"):
            TermRegistry(terms, axioms, Levels())

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
            TermRegistry(list(reg.terms) + [term], list(reg.axioms), reg.levels)

    @pytest.mark.parametrize("kind, subject, obj, message", [
        (AxiomKind.SUB_CLASS_OF, "icon:symbolizes", "crm:E4_Period",
         "SubClassOf operand is not a class"),
        (AxiomKind.DOMAIN, "crm:E4_Period", "icon:CulturalPhenomenon",
         "axiom subject is not a property"),
        (AxiomKind.SUB_PROPERTY_OF, "icon:symbolizes", "crm:E4_Period",
         "SubPropertyOf object is not a property"),
    ], ids=["subclass-of-a-property", "domain-of-a-class", "subproperty-of-a-class"])
    def test_class_property_kind_mismatch_rejected(self, kind, subject, obj, message):
        with pytest.raises(VocabError, match=message):
            self.mk([Axiom(kind, i(subject), i(obj))])

    @pytest.mark.parametrize("curie", ["crm:E5_Event", "icon:symbolizes"],
                             ids=["unregistered", "a-property"])
    def test_level_class_that_is_no_registered_class_rejected(self, curie):
        self.mk([], Levels(phenomena=(i("icon:CulturalPhenomenon"),)))
        with pytest.raises(VocabError, match="level class is not a registered class"):
            self.mk([], Levels(subjects=(i(curie),)))

    def test_one_step_shortcut_rejected(self):
        path = PathSpec(((i("vir:K14_symbolize"), Direction.FORWARD),),
                        i("icon:CulturalPhenomenon"))
        with pytest.raises(VocabError, match="shortcut path must have two steps"):
            self.mk([Axiom(AxiomKind.SHORTCUT_OF, i("icon:symbolizes"), path)])


CLASSES = [f"icon:C{k}" for k in range(12)]
links = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=24)


class TestHierarchy:
    @staticmethod
    def registry(pairs):
        terms = [VocabTerm(i(c), c, TermKind.CLASS, c) for c in CLASSES]
        return TermRegistry(terms, [Axiom(AxiomKind.SUB_CLASS_OF, i(CLASSES[a]),
                                          i(CLASSES[b])) for a, b in pairs], Levels())

    @pytest.mark.parametrize("pairs, named", [
        ([(0, 1), (1, 0)], 0),  # a 2-cycle
        ([(0, 0)], 0),  # a self-loop
        ([(0, 1), (1, 2), (2, 1)], 1),  # a cycle below a chain
    ])
    def test_cycle_names_where_it_closes(self, pairs, named):
        with pytest.raises(VocabError) as info:
            self.registry(pairs)
        assert str(info.value) == f"cycle in SubClassOf axioms at {i(CLASSES[named])!r}"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(links, links.map(lambda ps: [(a, b) if a < b else (b, a)
                                                  for a, b in ps if a != b])))
    def test_superclasses_are_reachability_or_a_cycle_is_named(self, pairs):
        def reach(k):  # the classes k reaches in one or more steps
            seen, todo = set(), [k]
            while todo:
                for a, b in pairs:
                    if a == todo[-1] and b not in seen:
                        seen.add(b)
                        todo.append(b)
                        break
                else:
                    todo.pop()
            return seen
        on_cycle = [k for k in range(12) if k in reach(k)]
        if on_cycle:
            with pytest.raises(VocabError) as info:
                self.registry(pairs)
            assert str(info.value) in {f"cycle in SubClassOf axioms at {i(CLASSES[k])!r}"
                                       for k in on_cycle}
        else:
            reg = self.registry(pairs)
            for k, c in enumerate(CLASSES):
                assert reg.superclasses(i(c)) == {i(CLASSES[m]) for m in reach(k)}


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
