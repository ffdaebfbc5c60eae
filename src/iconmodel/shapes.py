"""Structural validation of interpretation graphs.

The shape set is fixed: nine built-in shapes covering the model's
constraints. Validation expects the hierarchy-closed graph, so subclass
instances satisfy class constraints without redundant explicit typing.
Warnings never fail validation; only Violation entries flip conforms.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Union

from .graph import BlankNode, Graph, Iri, Literal, Term, term_key
from .turtle_io import RDF_TYPE
from .vocab import DATA_NAMESPACE, TermRegistry


class Severity(enum.Enum):
    VIOLATION = "violation"
    WARNING = "warning"


@dataclass(frozen=True)
class InstancesOf:
    cls: Iri


@dataclass(frozen=True)
class SubjectsOf:
    prop: Iri


@dataclass(frozen=True)
class ObjectsOf:
    prop: Iri


Target = Union[InstancesOf, SubjectsOf, ObjectsOf]


@dataclass(frozen=True)
class MinCount:
    prop: Iri
    n: int


@dataclass(frozen=True)
class FocusClassOneOf:
    classes: tuple[Iri, ...]


@dataclass(frozen=True)
class AllOf:
    constraints: tuple


@dataclass(frozen=True)
class UnknownTermHygiene:
    """Graph-wide check for predicates and classes outside the registry."""


Constraint = Union[MinCount, FocusClassOneOf, AllOf, UnknownTermHygiene]


@dataclass(frozen=True)
class Shape:
    id: str
    targets: tuple[Target, ...]
    constraint: Constraint
    severity: Severity
    message: str


ShapeSet = tuple[Shape, ...]


@dataclass(frozen=True)
class ValidationEntry:
    focus: Term
    shape_id: str
    severity: Severity
    message: str


def focus_str(t: Term) -> str:
    """A focus node as report text: IRI, _:label, or literal lexical form."""
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if isinstance(t, Literal):
        return t.lexical
    return t.value


@dataclass
class ValidationReport:
    conforms: bool
    entries: list[ValidationEntry]

    def violations(self) -> list[ValidationEntry]:
        return [e for e in self.entries if e.severity is Severity.VIOLATION]

    def to_json(self) -> str:
        payload = {
            "conforms": self.conforms,
            "entries": [
                {"focus": focus_str(e.focus), "shape": e.shape_id,
                 "severity": e.severity.value, "message": e.message}
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2)


def default_shapes(reg: TermRegistry) -> ShapeSet:
    def i(curie: str) -> Iri:
        return reg.iri(curie)

    lev2 = (i("vir:IC9_Representation"), i("vir:IC10_Attribute"),
            i("vir:IC11_Personification"), i("vir:IC16_Character"))
    return (
        Shape("S1", (InstancesOf(i("icon:IconologicalRecognition")),),
              AllOf((MinCount(i("icon:assignsTo"), 1),
                     MinCount(i("icon:assigned"), 1))),
              Severity.VIOLATION,
              "an iconological recognition must assign a claim to an entity "
              "(icon:assignsTo and icon:assigned both required)"),
        Shape("S2", (InstancesOf(i("icon:IconologicalRecognition")),),
              MinCount(i("crm:P14_carried_out_by"), 1),
              Severity.WARNING,
              "recognition should be attributed to an actor via crm:P14_carried_out_by"),
        Shape("S3", (SubjectsOf(i("icon:symbolicallyRefersTo")),
                     ObjectsOf(i("icon:symbolicallyRefersTo"))),
              FocusClassOneOf((i("crm:E5_Event"),)),
              Severity.VIOLATION,
              "icon:symbolicallyRefersTo endpoints must be typed crm:E5_Event"),
        Shape("S4", (SubjectsOf(i("icon:showsMotifsOf")),
                     ObjectsOf(i("icon:showsMotifsOf"))),
              FocusClassOneOf((i("crm:E28_Conceptual_Object"),)),
              Severity.VIOLATION,
              "icon:showsMotifsOf endpoints must be typed crm:E28_Conceptual_Object"),
        Shape("S5", (ObjectsOf(i("icon:isDocumentOf")),),
              FocusClassOneOf((i("icon:CulturalPhenomenon"),)),
              Severity.VIOLATION,
              "icon:isDocumentOf object must be typed icon:CulturalPhenomenon"),
        Shape("S6", (ObjectsOf(i("icon:hasIdentifyingAttribute")),),
              FocusClassOneOf((i("vir:IC10_Attribute"),)),
              Severity.VIOLATION,
              "icon:hasIdentifyingAttribute object must be typed vir:IC10_Attribute"),
        Shape("S7", (SubjectsOf(i("icon:symbolizes")),),
              FocusClassOneOf(lev2),
              Severity.VIOLATION,
              "icon:symbolizes subject must be a representation, attribute, "
              "personification, or character"),
        Shape("S8", (InstancesOf(i("vir:IC12_Visual_Recognition")),),
              MinCount(i("vir:K10_on_the_base_of"), 1),
              Severity.WARNING,
              "visual recognition should cite a source via vir:K10_on_the_base_of"),
        Shape("S9", (), UnknownTermHygiene(), Severity.WARNING,
              "IRI is not a registered vocabulary term"),
    )


def _focus_nodes(g: Graph, targets: tuple[Target, ...]) -> set[Term]:
    out: set[Term] = set()
    for target in targets:
        if isinstance(target, InstancesOf):
            out |= {t.subject for t in g.match(p=RDF_TYPE, o=target.cls)}
        elif isinstance(target, SubjectsOf):
            out |= {t.subject for t in g.match(p=target.prop)}
        else:
            out |= {t.object for t in g.match(p=target.prop)}
    return out


def _check(g: Graph, focus: Term, c: Constraint) -> bool:
    if isinstance(c, MinCount):
        if isinstance(focus, Literal):
            return False
        return len(g.match(s=focus, p=c.prop)) >= c.n
    if isinstance(c, FocusClassOneOf):
        if isinstance(focus, Literal):
            return False
        types = {t.object for t in g.match(s=focus, p=RDF_TYPE)}
        return any(cls in types for cls in c.classes)
    if isinstance(c, AllOf):
        return all(_check(g, focus, sub) for sub in c.constraints)
    raise TypeError(f"unhandled constraint {c!r}")


def _hygiene_entries(g: Graph, shape: Shape, reg: TermRegistry) -> list[ValidationEntry]:
    flagged: set[Iri] = set()
    for t in g:
        if not reg.is_registered(t.predicate) \
                and not t.predicate.value.startswith(DATA_NAMESPACE):
            flagged.add(t.predicate)
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri) \
                and not reg.is_registered(t.object) \
                and not t.object.value.startswith(DATA_NAMESPACE):
            flagged.add(t.object)
    return [ValidationEntry(iri, shape.id, shape.severity, shape.message)
            for iri in flagged]


def validate(g: Graph, shapes: ShapeSet, reg: TermRegistry) -> ValidationReport:
    """Validate a frozen, hierarchy-closed graph against the shape set."""
    entries: list[ValidationEntry] = []
    for shape in shapes:
        if isinstance(shape.constraint, UnknownTermHygiene):
            entries.extend(_hygiene_entries(g, shape, reg))
            continue
        for focus in _focus_nodes(g, shape.targets):
            if not _check(g, focus, shape.constraint):
                entries.append(ValidationEntry(focus, shape.id, shape.severity,
                                               shape.message))
    entries.sort(key=lambda e: (term_key(e.focus), e.shape_id))
    conforms = not any(e.severity is Severity.VIOLATION for e in entries)
    return ValidationReport(conforms, entries)
