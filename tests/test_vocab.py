from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from iconmodel.graph import BlankNode, Graph, Iri, Literal, Triple
from iconmodel.turtle_io import RDF_TYPE, parse_turtle, serialize_turtle
from iconmodel.vocab import (Axiom, AxiomKind, BadCurieError, Direction,
                             Levels, NAMESPACES, PathSpec, TermKind, TermRegistry,
                             UnknownTermError, VocabError, VocabTerm,
                             _read_vocabulary, curie_to_iri, expand_curie)

from test_turtle import TURTLE_ALPHABET


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

    @pytest.mark.parametrize("field, value", [
        ("curie", 5), ("curie", ""), ("curie", None),
        ("label", None), ("label", ""), ("label", b"x"),
        ("kind", "Class"), ("kind", None),
    ])
    def test_malformed_term_field_rejected(self, reg, field, value):
        term = VocabTerm(i("icon:x"), "icon:x", TermKind.CLASS, "x")._replace(**{field: value})
        with pytest.raises(VocabError, match=r"term needs .*icon/ontology/x"):
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


def shipped_document() -> str:
    return (resources.files("iconmodel") / "fixtures" / "icon-axioms.ttl").read_text("utf-8")


class TestVocabularyDocument:
    """fixtures/icon-axioms.ttl, the one declaration of the terms and their
    RDFS axioms."""

    def test_is_in_canonical_form(self):
        text = shipped_document()
        assert serialize_turtle(parse_turtle(text).graph, NAMESPACES) == text

    def test_every_term_has_one_kind_and_one_label(self, reg):
        g = parse_turtle(shipped_document()).graph
        for t in reg.terms:
            [kind] = g.match(s=t.iri, p=RDF_TYPE)
            [label] = g.match(s=t.iri, p=i("rdfs:label"))
            assert kind.object == i("rdfs:Class" if t.kind is TermKind.CLASS
                                    else "rdf:Property")
            assert label.object == Literal(t.label)
        rdfs = [a for a in reg.axioms if a.kind is not AxiomKind.SHORTCUT_OF]
        assert (len(reg.terms), len(rdfs), len(g)) == (57, 11, 2 * 57 + 11)

    def test_registry_reads_terms_in_iri_order(self, reg):
        assert [t.iri for t in reg.terms] == sorted(t.iri for t in reg.terms)
        assert VocabTerm(i("vir:K4.1_prototypical_mode"), "vir:K4.1_prototypical_mode",
                         TermKind.PROPERTY, "prototypical mode") in reg.terms

    @pytest.mark.parametrize("curie, label, axioms", [
        ("icon:symbolizes", "symbolizes", []),
        ("icon:isDocumentOf", "is document of", [("rdfs:subPropertyOf", "crm:P62_depicts")]),
    ])
    def test_shortcuts_are_stated_by_no_triple(self, curie, label, axioms):
        # a shortcut's path is declared in build_registry; the document holds
        # only the property's kind, its label and its RDFS axioms
        g = parse_turtle(shipped_document()).graph
        assert set(g.match(s=i(curie))) == {
            Triple(i(curie), RDF_TYPE, i("rdf:Property")),
            Triple(i(curie), i("rdfs:label"), Literal(label)),
            *(Triple(i(curie), i(p), i(o)) for p, o in axioms)}


HEADER = "".join(f"@prefix {p}: <{ns}> .\n" for p, ns in NAMESPACES.items())


class TestReader:
    def test_reads_terms_and_axioms(self):
        terms, axioms = _read_vocabulary(HEADER + """
            icon:b a rdf:Property ; rdfs:label "b" ; rdfs:domain icon:a .
            icon:a a rdfs:Class ; rdfs:label "a" ; rdfs:subClassOf crm:E5_Event .""")
        assert terms == [VocabTerm(i("icon:a"), "icon:a", TermKind.CLASS, "a"),
                         VocabTerm(i("icon:b"), "icon:b", TermKind.PROPERTY, "b")]
        assert axioms == [Axiom(AxiomKind.SUB_CLASS_OF, i("icon:a"), i("crm:E5_Event")),
                          Axiom(AxiomKind.DOMAIN, i("icon:b"), i("icon:a"))]

    @pytest.mark.parametrize("body, statement", [
        ('icon:a a rdfs:Class ; rdfs:comment "c" .',
         Triple(i("icon:a"), i("rdfs:comment"), Literal("c"))),
        ("icon:a a crm:E5_Event .", Triple(i("icon:a"), RDF_TYPE, i("crm:E5_Event"))),
        ("icon:a a rdfs:Class, rdf:Property .",
         Triple(i("icon:a"), RDF_TYPE, i("rdfs:Class"))),
        ('icon:a rdfs:label "a", "b" .', Triple(i("icon:a"), i("rdfs:label"), Literal("b"))),
        ('icon:a rdfs:label "a"@en .', Triple(i("icon:a"), i("rdfs:label"),
                                               Literal("a", lang="en"))),
        ("icon:a rdfs:label icon:b .", Triple(i("icon:a"), i("rdfs:label"), i("icon:b"))),
        ("<http://ex.org/a> a rdfs:Class .", Triple(Iri("http://ex.org/a"), RDF_TYPE,
                                                   i("rdfs:Class"))),
        ("icon:a rdfs:range <http://ex.org/b> .", Triple(i("icon:a"), i("rdfs:range"),
                                                         Iri("http://ex.org/b"))),
        ("_:a a rdfs:Class .", Triple(BlankNode("a"), RDF_TYPE, i("rdfs:Class"))),
    ], ids=["another-predicate", "another-type", "two-kinds", "two-labels",
            "language-label", "iri-label", "foreign-subject", "foreign-object", "blank-node"])
    def test_refusal_names_the_statement(self, body, statement):
        with pytest.raises(VocabError) as info:
            _read_vocabulary(HEADER + body)
        assert repr(statement) in str(info.value)

    def test_refused_document_names_line_and_column(self):
        with pytest.raises(VocabError, match=r"line 9, col \d+: "):
            _read_vocabulary(HEADER + "icon:a a .")

    @pytest.mark.parametrize("body", ['icon:a rdfs:label "a" .', "icon:a a rdfs:Class ."],
                             ids=["no-kind", "no-label"])
    def test_registry_refuses_a_term_missing_a_field(self, body):
        terms, axioms = _read_vocabulary(HEADER + body)
        with pytest.raises(VocabError, match="icon/ontology/a"):
            TermRegistry(terms, axioms, Levels())


def edited(triples: list, data) -> Graph:
    """The shipped document's triples after one drawn edit: a statement
    dropped, a second label added, or an object swapped for another
    registered term."""
    k = data.draw(st.integers(0, len(triples) - 1))
    s, p, o = triples[k]
    edit = data.draw(st.sampled_from(["drop", "label", "swap"]))
    if edit == "drop":
        return Graph(triples[:k] + triples[k + 1:])
    if edit == "label":
        return Graph(triples + [Triple(s, i("rdfs:label"), Literal("second"))])
    terms = sorted({t.subject for t in triples})
    return Graph(triples[:k] + [Triple(s, p, data.draw(st.sampled_from(terms)))]
                 + triples[k + 1:])


class TestReaderErrorContract:
    """Any text gives the reader's terms and axioms, which TermRegistry
    accepts or refuses, or VocabError, and nothing else."""

    @staticmethod
    def read(text):
        try:
            terms, axioms = _read_vocabulary(text)
            TermRegistry(terms, axioms, Levels())
        except VocabError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TURTLE_ALPHABET), max_size=40).map("".join))
    def test_any_text(self, text):
        for doc in (text, HEADER + text, HEADER + "icon:a " + text):
            self.read(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shipped_document_after_one_edit(self, data):
        triples = sorted(parse_turtle(shipped_document()).graph,
                         key=lambda t: (t.subject, t.predicate, repr(t.object)))
        g = edited(triples, data)
        self.read(serialize_turtle(g, NAMESPACES))
        if len(g) > len(triples):  # a second label
            with pytest.raises(VocabError, match="no term's one type or plain label"):
                _read_vocabulary(serialize_turtle(g, NAMESPACES))
