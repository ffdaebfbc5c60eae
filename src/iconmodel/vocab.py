"""Vocabulary registry: icon terms, stubs of the reused external terms and
their RDFS axioms, parsed from fixtures/icon-axioms.ttl by build_registry
(importing this module loads no Turtle module), plus the shortcut paths and
level classes that RDFS cannot state, declared in build_registry.

Naming note: the interpretation-act property pair is normalized to
icon:assignsTo (recognition -> interpreted entity) and icon:assigned
(recognition -> claim / meaning / phenomenon assigned).
"""

from __future__ import annotations

import enum
from graphlib import CycleError, TopologicalSorter
from importlib import resources
from typing import NamedTuple, Optional, Union

from .graph import RDF_TYPE, XSD_STRING, Iri, Literal, PrefixMap, term_key

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


_LABEL = curie_to_iri("rdfs:label")
_KINDS = {curie_to_iri("rdfs:Class"): TermKind.CLASS,
          curie_to_iri("rdf:Property"): TermKind.PROPERTY}
_AXIOM_KINDS = {curie_to_iri(f"rdfs:{local}"): kind for local, kind in (
    ("subClassOf", AxiomKind.SUB_CLASS_OF), ("subPropertyOf", AxiomKind.SUB_PROPERTY_OF),
    ("domain", AxiomKind.DOMAIN), ("range", AxiomKind.RANGE))}


def _curie(term) -> Optional[str]:
    """term as a CURIE under the NAMESPACES namespace it starts with, or None."""
    return next((f"{prefix}:{term[len(ns):]}" for prefix, ns in NAMESPACES.items()
                 if isinstance(term, Iri) and term.startswith(ns)), None)


def _read_vocabulary(text: str) -> tuple[list[VocabTerm], list[Axiom]]:
    """The terms (in IRI order) and RDFS axioms of a Turtle document whose
    statements each give a term its one type (rdfs:Class or rdf:Property)
    or its one plain-literal rdfs:label, or state an rdfs:subClassOf,
    rdfs:subPropertyOf, rdfs:domain or rdfs:range axiom between terms.
    Raises VocabError naming any other statement, or one with an IRI
    outside NAMESPACES, and naming the line and column of a document
    parse_turtle refuses. A term with no type or no label gets None there,
    which TermRegistry refuses."""
    from .turtle_io import ParseError, parse_turtle
    try:
        graph = parse_turtle(text).graph
    except ParseError as exc:
        raise VocabError(f"vocabulary document, {exc}") from None
    kinds: dict[Iri, TermKind] = {}
    labels: dict[Iri, str] = {}
    axioms = []
    for t in sorted(graph, key=lambda t: tuple(map(term_key, t))):
        s, p, o = t
        if _curie(s) is None or (p in _AXIOM_KINDS and _curie(o) is None):
            raise VocabError(f"vocabulary statement names a term outside NAMESPACES: {t!r}")
        if p == RDF_TYPE and o in _KINDS and s not in kinds:
            kinds[s] = _KINDS[o]
        elif (p == _LABEL and isinstance(o, Literal) and o.datatype == XSD_STRING
              and s not in labels):
            labels[s] = o.lexical
        elif p in _AXIOM_KINDS:
            axioms.append(Axiom(_AXIOM_KINDS[p], s, o))
        else:
            raise VocabError("vocabulary statement is no term's one type or plain label, "
                             f"nor an RDFS axiom: {t!r}")
    return [VocabTerm(iri, _curie(iri), kinds.get(iri), labels.get(iri))
            for iri in sorted(kinds.keys() | labels.keys())], axioms


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
        for t in self.terms:
            if not (isinstance(t.curie, str) and t.curie and isinstance(t.label, str)
                    and t.label and isinstance(t.kind, TermKind)):
                raise VocabError(f"term needs a str curie and label and a TermKind: {t}")
            if curie_to_iri(t.curie) != t.iri:  # a CURIE outside NAMESPACES raises there
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
    """The registry of fixtures/icon-axioms.ttl, plus the two shortcut
    paths and the level classes."""
    # __package__, not "iconmodel": a copy loaded under another name (as
    # scripts/stage_times_against.py loads two trees) reads its own document
    terms, axioms = _read_vocabulary((resources.files(__package__) / "fixtures"
                                      / "icon-axioms.ttl").read_text("utf-8"))
    i = curie_to_iri
    assignment_path = PathSpec(
        steps=((i("icon:assignsTo"), Direction.INVERSE),
               (i("icon:assigned"), Direction.FORWARD)),
        through_class=i("icon:IconologicalRecognition"),
    )
    axioms += [
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
