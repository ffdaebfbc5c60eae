"""Data model for iconographic and iconological interpretation graphs.

The package covers the full pipeline: parse a Turtle document into an
immutable triple store, materialize hierarchy and shortcut entailments,
validate the structural shape constraints, and answer graph-pattern
queries, including the shipped competency-question catalog over four
case-study fixtures.
"""

from .graph import (BlankNode, Graph, GraphError, Iri, Literal, Term, Triple,
                    isomorphic, union)
from .turtle_io import (ParseError, ParseResult, parse_turtle, serialize_turtle)
from .vocab import (Axiom, AxiomKind, NAMESPACES, PathSpec, TermRegistry,
                    VocabTerm, axioms_graph, build_registry, curie_to_iri)
from .reasoner import (ClosureGraph, Derivation, RuleSet, close,
                       expand_shortcut)
from .shapes import (Severity, Shape, ValidationEntry, ValidationReport,
                     default_shapes, validate)
from .query import (Alt, CompetencyQuestion, Inv, Pattern, Plus, Seq, Solution,
                    Var, cq_catalog, evaluate, find_cq, load_golden,
                    path_match, path_pairs, pattern_from_json, run_cq,
                    solutions_to_json)
from .casebook import (CaseStudy, InterpretationLevel, case_meta, level_of,
                       list_cases, load_case)

__version__ = "0.1.0"

__all__ = [
    "Alt", "Axiom", "AxiomKind", "BlankNode", "CaseStudy", "ClosureGraph",
    "CompetencyQuestion", "Derivation", "Graph", "GraphError",
    "InterpretationLevel", "Inv", "Iri", "Literal", "NAMESPACES", "ParseError",
    "ParseResult", "PathSpec", "Pattern", "Plus", "RuleSet", "Seq", "Severity",
    "Shape", "Solution", "Term", "TermRegistry", "Triple", "ValidationEntry",
    "ValidationReport", "Var", "VocabTerm", "axioms_graph", "build_registry",
    "case_meta", "close", "cq_catalog", "curie_to_iri", "default_shapes",
    "evaluate", "expand_shortcut", "find_cq", "isomorphic",
    "level_of", "list_cases", "load_case", "load_golden", "parse_turtle",
    "path_match", "path_pairs", "pattern_from_json", "run_cq",
    "serialize_turtle", "solutions_to_json", "union", "validate",
]
