"""Data model for iconographic and iconological interpretation graphs.

The package covers the full pipeline: parse a Turtle document into an
immutable triple store, materialize hierarchy and shortcut entailments,
validate the structural shape constraints, and answer graph-pattern
queries, including the shipped competency-question catalog over four
case-study fixtures.

Names resolve on first use (PEP 562): a bare ``import iconmodel`` loads
no submodule, and ``iconmodel.close`` or ``iconmodel.query`` imports its
home module when first read.
"""

import importlib

__version__ = "0.1.0"

# each library submodule and the exported names it defines
_EXPORTS = {
    "graph": ("BlankNode", "Graph", "GraphError", "Iri", "Literal", "Term",
              "Triple", "isomorphic", "union"),
    "turtle_io": ("ParseError", "ParseResult", "parse_turtle", "serialize_turtle"),
    "vocab": ("Axiom", "AxiomKind", "Levels", "NAMESPACES", "PathSpec", "TermRegistry",
              "VocabTerm", "build_registry", "curie_to_iri"),
    "reasoner": ("ClosureGraph", "Derivation", "RuleSet", "close", "expand_shortcut"),
    "shapes": ("Severity", "Shape", "ValidationEntry", "ValidationReport",
               "default_shapes", "validate"),
    "query": ("Alt", "CompetencyQuestion", "Inv", "Pattern", "Plus", "Seq",
              "Solution", "Var", "check_cq", "cq_catalog", "evaluate", "find_cq", "load_golden",
              "path_pairs", "pattern_from_json", "run_cq", "solutions_to_json"),
    "casebook": ("CaseStudy", "InterpretationLevel", "case_meta", "level_of",
                 "list_cases", "load_case"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
