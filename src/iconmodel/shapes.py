"""Structural validation of interpretation graphs.

The shape set is fixed: nine built-in shapes covering the model's
constraints, each a flat `Shape` named tuple of targets, required
properties and allowed classes; the one shape with no targets is the
vocabulary-hygiene check. Validation expects the hierarchy-closed graph,
so subclass instances satisfy class constraints without redundant
explicit typing.
Warnings never fail validation; only Violation entries flip conforms.
"""

from __future__ import annotations

import enum
import json
from typing import Iterable, NamedTuple

from .graph import RDF_TYPE, Graph, Iri, Literal, Term, Triple, term_key, term_to_json
from .vocab import DATA_NAMESPACE, TermRegistry


class Severity(enum.Enum):
    VIOLATION = "violation"
    WARNING = "warning"


class Shape(NamedTuple):
    """One structural constraint, in the terms of SHACL Core.

    Its focus nodes are the instances of each class in `instances_of` and
    the subjects (objects) of each property in `subjects_of`
    (`objects_of`). A focus conforms when it has at least one value for
    every property in `required` and, when `classes` is non-empty, is
    typed with one of them; a literal focus never conforms. A shape with
    no targets is the vocabulary-hygiene check: it flags every predicate
    and rdf:type class outside the registry and the data namespace.
    """
    id: str
    severity: Severity
    message: str
    instances_of: tuple[Iri, ...] = ()
    subjects_of: tuple[Iri, ...] = ()
    objects_of: tuple[Iri, ...] = ()
    required: tuple[Iri, ...] = ()
    classes: tuple[Iri, ...] = ()


ShapeSet = tuple[Shape, ...]


class ValidationEntry(NamedTuple):
    focus: Term
    shape_id: str
    severity: Severity
    message: str


class ValidationReport:
    __slots__ = ("conforms", "entries")

    def __init__(self, conforms: bool, entries: list[ValidationEntry]):
        self.conforms = conforms
        self.entries = entries

    def to_json(self) -> str:
        """The report as a JSON object: "conforms", and one entry per
        focus and shape, whose "focus" is graph.term_to_json's form of the
        focus node, as query results write a term."""
        payload = {
            "conforms": self.conforms,
            "entries": [
                {"focus": term_to_json(e.focus), "shape": e.shape_id,
                 "severity": e.severity.value, "message": e.message}
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2)


def default_shapes(reg: TermRegistry) -> ShapeSet:
    i = reg.iri
    recognition = i("icon:IconologicalRecognition")
    refers, motifs = i("icon:symbolicallyRefersTo"), i("icon:showsMotifsOf")
    return (
        Shape("S1", Severity.VIOLATION,
              "an iconological recognition must assign a claim to an entity "
              "(icon:assignsTo and icon:assigned both required)",
              instances_of=(recognition,),
              required=(i("icon:assignsTo"), i("icon:assigned"))),
        Shape("S2", Severity.WARNING,
              "recognition should be attributed to an actor via crm:P14_carried_out_by",
              instances_of=(recognition,), required=(i("crm:P14_carried_out_by"),)),
        Shape("S3", Severity.VIOLATION,
              "icon:symbolicallyRefersTo endpoints must be typed crm:E5_Event",
              subjects_of=(refers,), objects_of=(refers,),
              classes=(i("crm:E5_Event"),)),
        Shape("S4", Severity.VIOLATION,
              "icon:showsMotifsOf endpoints must be typed crm:E28_Conceptual_Object",
              subjects_of=(motifs,), objects_of=(motifs,),
              classes=(i("crm:E28_Conceptual_Object"),)),
        Shape("S5", Severity.VIOLATION,
              "icon:isDocumentOf object must be typed icon:CulturalPhenomenon",
              objects_of=(i("icon:isDocumentOf"),),
              classes=(i("icon:CulturalPhenomenon"),)),
        Shape("S6", Severity.VIOLATION,
              "icon:hasIdentifyingAttribute object must be typed vir:IC10_Attribute",
              objects_of=(i("icon:hasIdentifyingAttribute"),),
              classes=(i("vir:IC10_Attribute"),)),
        Shape("S7", Severity.VIOLATION,
              "icon:symbolizes subject must be a representation, attribute, "
              "personification, or character",
              subjects_of=(i("icon:symbolizes"),), classes=reg.levels.subjects),
        Shape("S8", Severity.WARNING,
              "visual recognition should cite a source via vir:K10_on_the_base_of",
              instances_of=(i("vir:IC12_Visual_Recognition"),),
              required=(i("vir:K10_on_the_base_of"),)),
        Shape("S9", Severity.WARNING, "IRI is not a registered vocabulary term"),
    )


def _focus_nodes(g: Graph, shape: Shape) -> set[Term]:
    out = {x for cls in shape.instances_of for x in g.neighbours(cls, RDF_TYPE, False)}
    out |= {t.subject for p in shape.subjects_of for t in g.match(p=p)}
    out |= {t.object for p in shape.objects_of for t in g.match(p=p)}
    return out


def _conforms(focus: Term, triples: Iterable[Triple], shape: Shape) -> bool:
    """Does focus conform, given the triples it is the subject of?"""
    if isinstance(focus, Literal):
        return False
    if shape.required and not {t.predicate for t in triples}.issuperset(shape.required):
        return False
    return not shape.classes or not {
        t.object for t in triples if t.predicate == RDF_TYPE}.isdisjoint(shape.classes)


def _hygiene_entries(by_p: dict[Iri, list[Triple]], shape: Shape,
                     reg: TermRegistry) -> list[ValidationEntry]:
    """One entry per distinct predicate or rdf:type class that is flagged,
    read from a graph's predicate index."""
    iris = set(by_p)
    iris.update(o for o in {t.object for t in by_p.get(RDF_TYPE, ())} if isinstance(o, Iri))
    return [ValidationEntry(iri, shape.id, shape.severity, shape.message)
            for iri in iris
            if not reg.is_registered(iri) and not iri.startswith(DATA_NAMESPACE)]


def validate(g: Graph, shapes: ShapeSet, reg: TermRegistry) -> ValidationReport:
    """Validate a hierarchy-closed graph against the shape set."""
    entries: list[ValidationEntry] = []
    by_s, by_p, _ = g._indexes()
    for shape in shapes:
        if not (shape.instances_of or shape.subjects_of or shape.objects_of):
            entries.extend(_hygiene_entries(by_p, shape, reg))
            continue
        for focus in _focus_nodes(g, shape):
            if not _conforms(focus, by_s.get(focus, ()), shape):
                entries.append(ValidationEntry(focus, shape.id, shape.severity,
                                               shape.message))
    entries.sort(key=lambda e: (term_key(e.focus), e.shape_id))
    conforms = not any(e.severity is Severity.VIOLATION for e in entries)
    return ValidationReport(conforms, entries)
