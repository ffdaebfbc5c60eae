"""Vocabulary registry: icon terms, stubs of the reused external terms,
and the alignment axioms, available both as a lookup API and as triples.

Naming note: the interpretation-act property pair is normalized to
icon:assignsTo (recognition -> interpreted entity) and icon:assigned
(recognition -> claim / meaning / phenomenon assigned).
"""

from __future__ import annotations

import enum
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Optional, Union

from .graph import RDF_TYPE, Graph, Iri, PrefixMap, Triple

NAMESPACES: PrefixMap = {
    "icon": "https://w3id.org/icon/ontology/",
    "crm": "http://www.cidoc-crm.org/cidoc-crm/",
    "vir": "http://w3id.org/vir#",
    "hico": "http://purl.org/emmedi/hico/",
    "cito": "http://purl.org/spar/cito/",
    "pro": "http://purl.org/spar/pro/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
}

DATA_NAMESPACE = "https://w3id.org/icon/data/"


def data_iri(case_id: str, slug: str) -> Iri:
    """A node of a shipped case fixture."""
    return Iri(f"{DATA_NAMESPACE}{case_id}/{slug}")


class VocabError(Exception):
    pass


class UnknownTermError(VocabError):
    pass


class BadCurieError(VocabError):
    pass


class TermKind(enum.Enum):
    CLASS = "Class"
    PROPERTY = "Property"


class AxiomKind(enum.Enum):
    SUB_CLASS_OF = "SubClassOf"
    SUB_PROPERTY_OF = "SubPropertyOf"
    DOMAIN = "Domain"
    RANGE = "Range"
    SHORTCUT_OF = "ShortcutOf"


class Direction(enum.Enum):
    FORWARD = "Forward"
    INVERSE = "Inverse"


class VocabTerm(NamedTuple):
    iri: Iri
    curie: str
    kind: TermKind
    label: str


class PathSpec(NamedTuple):
    """Two-step path through a recognition node that a shortcut property
    stands for; object_class, when set, restricts the far endpoint."""
    steps: tuple[tuple[Iri, Direction], ...]
    through_class: Iri
    object_class: Optional[Iri] = None


class Levels(NamedTuple):
    """The classes of each stratum of reading a visual work, from which
    casebook.level_of derives a node's level over a closure (no level is
    asserted). Lev1: a node of an `atoms` class; Lev2: of a `subjects`
    class (as S7 requires of an icon:symbolizes subject) or a `recognitions`
    class; Lev3: of a `concepts` class, reached by a shortcut path's last
    step; Lev4: of a `phenomena` class. A node of a path's through class
    takes the highest Lev3/Lev4 level of the meanings that step reaches.
    The highest level matching wins: the upper strata shade into each other."""
    atoms: tuple[Iri, ...] = ()
    subjects: tuple[Iri, ...] = ()
    recognitions: tuple[Iri, ...] = ()
    concepts: tuple[Iri, ...] = ()
    phenomena: tuple[Iri, ...] = ()


class Axiom(NamedTuple):
    kind: AxiomKind
    subject: Iri
    object: Union[Iri, PathSpec]


def expand_curie(curie: str, prefixes: PrefixMap) -> Iri:
    """The IRI that curie names under prefixes. Raises BadCurieError when
    curie has no colon or expands to no absolute IRI, and UnknownTermError
    when prefixes does not declare its prefix."""
    if ":" not in curie:
        raise BadCurieError(f"not a CURIE: {curie!r}")
    prefix, local = curie.split(":", 1)
    ns = prefixes.get(prefix)
    if ns is None:
        raise UnknownTermError(f"unknown prefix {prefix!r} in {curie!r}")
    try:
        return Iri(ns + local)
    except ValueError:  # a relative namespace, such as @prefix x: <foo> .
        raise BadCurieError(f"{curie!r} expands to no absolute IRI: {ns + local!r}")


def curie_to_iri(curie: str) -> Iri:
    return expand_curie(curie, NAMESPACES)


_C = TermKind.CLASS
_P = TermKind.PROPERTY

# (curie, kind, label)
_TERMS = [
    ("icon:IconologicalRecognition", _C, "Iconological recognition"),
    ("icon:CulturalPhenomenon", _C, "Cultural phenomenon"),
    ("icon:assignsTo", _P, "assigns to"),
    ("icon:assigned", _P, "assigned"),
    ("icon:symbolizes", _P, "symbolizes"),
    ("icon:symbolicallyRefersTo", _P, "symbolically refers to"),
    ("icon:hasIdentifyingAttribute", _P, "has identifying attribute"),
    ("icon:showsMotifsOf", _P, "shows motifs of"),
    ("icon:isDocumentOf", _P, "is document of"),
    ("vir:IC1_Iconographical_Atom", _C, "Iconographical atom"),
    ("vir:IC9_Representation", _C, "Representation"),
    ("vir:IC10_Attribute", _C, "Attribute"),
    ("vir:IC11_Personification", _C, "Personification"),
    ("vir:IC12_Visual_Recognition", _C, "Visual recognition"),
    ("vir:IC16_Character", _C, "Character"),
    ("vir:K4_has_visual_prototype", _P, "has visual prototype"),
    ("vir:K4_is_visual_prototype_of", _P, "is visual prototype of"),
    ("vir:K4.1_prototypical_mode", _P, "prototypical mode"),
    ("vir:K10_on_the_base_of", _P, "on the base of"),
    ("vir:K14_symbolize", _P, "symbolize"),
    ("vir:K17_has_attribute", _P, "has attribute"),
    ("vir:K23", _P, "related representation"),
    ("crm:E4_Period", _C, "Period"),
    ("crm:E5_Event", _C, "Event"),
    ("crm:E12_Production", _C, "Production"),
    ("crm:E13_Attribute_Assignment", _C, "Attribute assignment"),
    ("crm:E28_Conceptual_Object", _C, "Conceptual object"),
    ("crm:E39_Actor", _C, "Actor"),
    ("crm:E89_Propositional_Object", _C, "Propositional object"),
    ("crm:E90_Symbolic_Object", _C, "Symbolic object"),
    ("crm:P9_consists_of", _P, "consists of"),
    ("crm:P14_carried_out_by", _P, "carried out by"),
    ("crm:P15_was_influenced_by", _P, "was influenced by"),
    ("crm:P53_has_current_location", _P, "has current location"),
    ("crm:P62_depicts", _P, "depicts"),
    ("crm:P130_shows_features_of", _P, "shows features of"),
    ("crm:P165_incorporates", _P, "incorporates"),
    ("hico:InterpretationAct", _C, "Interpretation act"),
    ("cito:citesAsEvidence", _P, "cites as evidence"),
    ("cito:citesForInformation", _P, "cites for information"),
    ("cito:obtainsBackgroundFrom", _P, "obtains background from"),
    ("cito:agreesWith", _P, "agrees with"),
    ("cito:disagreesWith", _P, "disagrees with"),
    ("pro:Role", _C, "Role"),
    ("pro:RoleInTime", _C, "Role in time"),
    ("rdf:type", _P, "type"),
    ("rdf:Property", _C, "Property"),
    ("rdf:Statement", _C, "Statement"),
    ("rdf:subject", _P, "subject"),
    ("rdf:predicate", _P, "predicate"),
    ("rdf:object", _P, "object"),
    ("rdfs:Class", _C, "Class"),
    ("rdfs:subClassOf", _P, "subclass of"),
    ("rdfs:subPropertyOf", _P, "subproperty of"),
    ("rdfs:domain", _P, "domain"),
    ("rdfs:range", _P, "range"),
    ("rdfs:label", _P, "label"),
]


class TermRegistry:
    def __init__(self, terms: list[VocabTerm], axioms: list[Axiom], levels: Levels):
        self.terms = tuple(terms)
        self.axioms = tuple(axioms)
        self.levels = levels
        self._iris = frozenset(t.iri for t in terms)
        self._check()
        self._sup_c = self._supersets(AxiomKind.SUB_CLASS_OF)
        self._sup_p = self._supersets(AxiomKind.SUB_PROPERTY_OF)
        # (through class, predicate, direction) of each path's last step, to a meaning
        self.meaning_steps = frozenset((spec.through_class,) + spec.steps[-1]
                                       for _, spec in self.shortcuts())

    # -- lookups ----------------------------------------------------------

    def iri(self, curie: str) -> Iri:
        iri = expand_curie(curie, NAMESPACES)
        if iri not in self._iris:
            raise UnknownTermError(f"unregistered term {curie!r}")
        return iri

    def is_registered(self, iri: Iri) -> bool:
        return iri in self._iris

    def superclasses(self, iri: Iri) -> frozenset[Iri]:
        """Strict superclasses under the axiom set, transitively."""
        return self._sup_c.get(iri, frozenset())

    def superproperties(self, iri: Iri) -> frozenset[Iri]:
        return self._sup_p.get(iri, frozenset())

    def domain_axioms(self) -> list[tuple[Iri, Iri]]:
        return [(a.subject, a.object) for a in self.axioms if a.kind == AxiomKind.DOMAIN]

    def range_axioms(self) -> list[tuple[Iri, Iri]]:
        return [(a.subject, a.object) for a in self.axioms if a.kind == AxiomKind.RANGE]

    def shortcuts(self) -> list[tuple[Iri, PathSpec]]:
        return [(a.subject, a.object) for a in self.axioms
                if a.kind == AxiomKind.SHORTCUT_OF]

    # -- invariants -------------------------------------------------------

    def _check(self):
        classes = {t.iri for t in self.terms if t.kind is TermKind.CLASS}
        props = {t.iri for t in self.terms if t.kind is TermKind.PROPERTY}
        for t in self.terms:  # a CURIE outside NAMESPACES raises there
            if curie_to_iri(t.curie) != t.iri:
                raise VocabError(f"curie/namespace mismatch for {t.curie}")
        for a in self.axioms:
            operands = [a.subject]
            if isinstance(a.object, Iri):
                operands.append(a.object)
            else:
                if len(a.object.steps) != 2:
                    raise VocabError(f"shortcut path must have two steps: {a}")
                operands.extend(p for p, _ in a.object.steps)
                operands.append(a.object.through_class)
                if a.object.object_class:
                    operands.append(a.object.object_class)
            for iri in operands:
                if iri not in self._iris:
                    raise VocabError(f"axiom references unregistered term {iri!r}")
            if a.kind is AxiomKind.SUB_CLASS_OF:
                if a.subject not in classes or a.object not in classes:
                    raise VocabError(f"SubClassOf operand is not a class: {a}")
            elif a.kind in (AxiomKind.SUB_PROPERTY_OF, AxiomKind.DOMAIN,
                            AxiomKind.RANGE, AxiomKind.SHORTCUT_OF):
                if a.subject not in props:
                    raise VocabError(f"axiom subject is not a property: {a}")
                if a.kind is AxiomKind.SUB_PROPERTY_OF and a.object not in props:
                    raise VocabError(f"SubPropertyOf object is not a property: {a}")
        if bad := [c for level in self.levels for c in level if c not in classes]:
            raise VocabError(f"level class is not a registered class: {bad[0]!r}")
        # the K14 domain restriction forbids a hierarchical alignment of
        # icon:symbolizes; asserting one is an invariant violation
        k14 = curie_to_iri("vir:K14_symbolize")
        symbolizes = curie_to_iri("icon:symbolizes")
        for a in self.axioms:
            if (a.kind is AxiomKind.SUB_PROPERTY_OF
                    and a.subject == symbolizes and a.object == k14):
                raise VocabError("icon:symbolizes must not be aligned under vir:K14")

    def _supersets(self, kind: AxiomKind) -> dict[Iri, frozenset[Iri]]:
        """Strict supersets of every term in one kind of hierarchy axiom: its
        parents and their supersets, computed parents first."""
        edges: dict[Iri, list[Iri]] = {}
        for a in self.axioms:
            if a.kind is kind:
                edges.setdefault(a.subject, []).append(a.object)
        out: dict[Iri, frozenset[Iri]] = {}
        try:
            for n in TopologicalSorter(edges).static_order():
                parents = edges.get(n, ())
                out[n] = frozenset(parents).union(*(out[m] for m in parents))
        except CycleError as exc:
            raise VocabError(f"cycle in {kind.value} axioms at {exc.args[1][0]!r}")
        return out


def build_registry() -> TermRegistry:
    i = curie_to_iri
    terms = [VocabTerm(i(c), c, k, lbl) for c, k, lbl in _TERMS]
    assignment_path = PathSpec(
        steps=((i("icon:assignsTo"), Direction.INVERSE),
               (i("icon:assigned"), Direction.FORWARD)),
        through_class=i("icon:IconologicalRecognition"),
    )
    axioms = [
        Axiom(AxiomKind.SUB_CLASS_OF, i("icon:IconologicalRecognition"),
              i("crm:E13_Attribute_Assignment")),
        Axiom(AxiomKind.SUB_CLASS_OF, i("icon:IconologicalRecognition"),
              i("hico:InterpretationAct")),
        Axiom(AxiomKind.SUB_CLASS_OF, i("icon:CulturalPhenomenon"), i("crm:E4_Period")),
        Axiom(AxiomKind.SUB_PROPERTY_OF, i("icon:hasIdentifyingAttribute"),
              i("vir:K17_has_attribute")),
        Axiom(AxiomKind.SUB_PROPERTY_OF, i("icon:symbolicallyRefersTo"),
              i("crm:P9_consists_of")),
        Axiom(AxiomKind.DOMAIN, i("icon:symbolicallyRefersTo"), i("crm:E5_Event")),
        Axiom(AxiomKind.RANGE, i("icon:symbolicallyRefersTo"), i("crm:E5_Event")),
        Axiom(AxiomKind.SUB_PROPERTY_OF, i("icon:showsMotifsOf"),
              i("crm:P130_shows_features_of")),
        Axiom(AxiomKind.DOMAIN, i("icon:showsMotifsOf"), i("crm:E28_Conceptual_Object")),
        Axiom(AxiomKind.RANGE, i("icon:showsMotifsOf"), i("crm:E28_Conceptual_Object")),
        Axiom(AxiomKind.SUB_PROPERTY_OF, i("icon:isDocumentOf"), i("crm:P62_depicts")),
        Axiom(AxiomKind.SHORTCUT_OF, i("icon:symbolizes"), assignment_path),
        Axiom(AxiomKind.SHORTCUT_OF, i("icon:isDocumentOf"),
              PathSpec(assignment_path.steps, assignment_path.through_class,
                       object_class=i("icon:CulturalPhenomenon"))),
    ]
    return TermRegistry(terms, axioms, Levels(
        atoms=(i("vir:IC1_Iconographical_Atom"),),
        subjects=(i("vir:IC9_Representation"), i("vir:IC10_Attribute"),
                  i("vir:IC11_Personification"), i("vir:IC16_Character")),
        recognitions=(i("vir:IC12_Visual_Recognition"),),
        concepts=(i("crm:E28_Conceptual_Object"),), phenomena=(i("icon:CulturalPhenomenon"),)))


def axioms_graph(reg: TermRegistry) -> Graph:
    """Triple rendering of the registry: one rdf:type marker per term and
    one triple per non-shortcut axiom. Shortcut definitions stay API-only."""
    rdfs_class = reg.iri("rdfs:Class")
    rdf_property = reg.iri("rdf:Property")
    pred = {
        AxiomKind.SUB_CLASS_OF: reg.iri("rdfs:subClassOf"),
        AxiomKind.SUB_PROPERTY_OF: reg.iri("rdfs:subPropertyOf"),
        AxiomKind.DOMAIN: reg.iri("rdfs:domain"),
        AxiomKind.RANGE: reg.iri("rdfs:range"),
    }
    triples = []
    for t in reg.terms:
        marker = rdfs_class if t.kind is TermKind.CLASS else rdf_property
        triples.append(Triple(t.iri, RDF_TYPE, marker))
    for a in reg.axioms:
        if a.kind is AxiomKind.SHORTCUT_OF:
            continue
        triples.append(Triple(a.subject, pred[a.kind], a.object))
    return Graph(triples)
