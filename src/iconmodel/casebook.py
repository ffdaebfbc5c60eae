"""The four shipped case studies and the interpretation-level classifier,
which reads the level classes (vocab.Levels) and shortcut paths that its
closure's registry declares.
"""

from __future__ import annotations

import enum
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from .graph import RDF_TYPE, Graph, Iri, Term
from .vocab import Direction, data_iri

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
    """Parse one case fixture into a graph, with its metadata."""
    from .turtle_io import parse_turtle  # listing or exporting cases parses nothing
    meta = case_meta(case_id)
    result = parse_turtle(case_document(case_id))
    return result.graph, meta


def level_of(closure: ClosureGraph, node: Term) -> InterpretationLevel:
    """The interpretation level of a node over a closure, by the level
    declaration (vocab.Levels) of the registry it was closed under. Raises
    NodeAbsentError when the node occurs nowhere in the closed graph."""
    g = closure.graph()
    if not g.has_term(node):
        raise NodeAbsentError(f"node {node!r} does not occur in the graph")

    levels, steps = closure.registry.levels, closure.registry.meaning_steps
    types = g.neighbours(node, RDF_TYPE)
    meaning_types = [g.neighbours(m, RDF_TYPE) for through, p, d in steps
                     if through in types
                     for m in g.neighbours(node, p, d is Direction.FORWARD)]
    is_meaning = any(g.neighbours(node, p, d is not Direction.FORWARD)
                     for _, p, d in steps)
    if any(not ts.isdisjoint(levels.phenomena) for ts in [types, *meaning_types]):
        return InterpretationLevel.LEV4
    if ((is_meaning and not types.isdisjoint(levels.concepts))
            or any(not ts.isdisjoint(levels.concepts) for ts in meaning_types)):
        return InterpretationLevel.LEV3
    if not (types.isdisjoint(levels.subjects) and types.isdisjoint(levels.recognitions)):
        return InterpretationLevel.LEV2
    if not types.isdisjoint(levels.atoms):
        return InterpretationLevel.LEV1
    return InterpretationLevel.UNCLASSIFIED
