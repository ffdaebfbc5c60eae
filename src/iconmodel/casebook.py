"""The four shipped case studies and the interpretation-level classifier.

Levels follow the four-strata reading of a visual work: Lev1 for
pre-iconographic atoms, Lev2 for identified subjects (representations,
attributes, characters, personifications and their visual recognitions),
Lev3 for intended conceptual meanings, Lev4 for unintentional
socio-cultural meanings. Levels are always derived from the closure,
never asserted as triples. When several rules match, the highest level
wins; that tie-break is a deliberate artifact decision since the upper
strata shade into each other.
"""

from __future__ import annotations

import enum
from functools import cache
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .graph import RDF_TYPE, Graph, Iri, Term
from .vocab import Direction, build_registry, curie_to_iri, data_iri

if TYPE_CHECKING:  # annotations only: listing or exporting cases runs no reasoner
    from .reasoner import ClosureGraph


class CasebookError(Exception):
    pass


class UnknownCaseError(CasebookError):
    pass


class NodeAbsentError(CasebookError):
    pass


class InterpretationLevel(enum.Enum):
    LEV1 = "Lev1"
    LEV2 = "Lev2"
    LEV3 = "Lev3"
    LEV4 = "Lev4"
    UNCLASSIFIED = "Unclassified"


class CaseStudy(NamedTuple):
    id: str
    typology: int
    title: str
    cited_works: tuple[Iri, ...]


_CASES = [
    CaseStudy("hercules-salvation", 4,
              "Hercules and the Erymanthian Boar / Allegory of Salvation",
              ()),
    CaseStudy("laocoon", 2,
              "Laocoon and His Sons, illumination and statue",
              (data_iri("laocoon", "aeneid-text"),)),
    CaseStudy("neptune", 3,
              "Giambologna's Neptune and Raimondi's Quos Ego",
              (data_iri("neptune", "aeneid-text"),)),
    CaseStudy("vermeer-balance", 1,
              "Vermeer, Woman Holding a Balance",
              (data_iri("vermeer-balance", "liedtke-2010"),)),
]


def list_cases() -> list[CaseStudy]:
    """All case studies, in stable order by id."""
    return list(_CASES)


def case_meta(case_id: str) -> CaseStudy:
    for case in _CASES:
        if case.id == case_id:
            return case
    raise UnknownCaseError(f"unknown case id {case_id!r}")


def case_document(case_id: str) -> str:
    """The raw Turtle text of a case fixture."""
    case = case_meta(case_id)
    return (resources.files("iconmodel") / "fixtures" / f"{case.id}.ttl"
            ).read_text("utf-8")


def load_case(case_id: str) -> tuple[Graph, CaseStudy]:
    """Parse one case fixture into a frozen graph, with its metadata."""
    from .turtle_io import parse_turtle  # listing or exporting cases parses nothing
    meta = case_meta(case_id)
    result = parse_turtle(case_document(case_id))
    return result.graph, meta


_LEV2_CLASSES = tuple(curie_to_iri(c) for c in (
    "vir:IC9_Representation", "vir:IC10_Attribute", "vir:IC11_Personification",
    "vir:IC16_Character", "vir:IC12_Visual_Recognition"))
_E28 = curie_to_iri("crm:E28_Conceptual_Object")
_PHENOMENON = curie_to_iri("icon:CulturalPhenomenon")
_ATOM = curie_to_iri("vir:IC1_Iconographical_Atom")


@cache
def _meaning_steps() -> frozenset:
    """(through class, predicate, direction) of the last step of every
    shortcut path: the step from an interpretation act to its meaning."""
    return frozenset((spec.through_class,) + spec.steps[-1]
                     for _, spec in build_registry().shortcuts())


def level_of(closure: ClosureGraph, node: Term) -> InterpretationLevel:
    """Classify a node into an interpretation level over a closure.

    Highest matching level wins. A node of a shortcut's through class
    takes the highest Lev3/Lev4 level among the meanings its path's last
    step reaches. Raises NodeAbsentError when the node occurs nowhere in
    the closed graph.
    """
    g = closure.graph()
    if not g.has_term(node):
        raise NodeAbsentError(f"node {node!r} does not occur in the graph")

    steps = _meaning_steps()
    types = g.neighbours(node, RDF_TYPE)
    meaning_types = [g.neighbours(m, RDF_TYPE) for through, p, d in steps
                     if through in types
                     for m in g.neighbours(node, p, d is Direction.FORWARD)]
    is_meaning = any(g.neighbours(node, p, d is not Direction.FORWARD)
                     for _, p, d in steps)
    if any(_PHENOMENON in ts for ts in [types, *meaning_types]):
        return InterpretationLevel.LEV4
    if (_E28 in types and is_meaning) or any(_E28 in ts for ts in meaning_types):
        return InterpretationLevel.LEV3
    if any(c in types for c in _LEV2_CLASSES):
        return InterpretationLevel.LEV2
    if _ATOM in types:
        return InterpretationLevel.LEV1
    return InterpretationLevel.UNCLASSIFIED
