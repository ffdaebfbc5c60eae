import random
from pathlib import Path

import pytest

from iconmodel import build_registry, close, list_cases, load_case
from iconmodel.graph import BlankNode, Graph, Iri, Literal, Triple
from iconmodel.turtle_io import RDF_TYPE
from iconmodel.vocab import (Axiom, AxiomKind, PathSpec, TermKind, TermRegistry,
                             VocabTerm, curie_to_iri)

TESTS_DIR = Path(__file__).resolve().parent
MUTATIONS_DIR = TESTS_DIR / "fixtures"

CASE_IDS = [c.id for c in list_cases()]


@pytest.fixture(scope="session")
def reg():
    return build_registry()


@pytest.fixture(scope="session")
def case_graphs():
    return {case_id: load_case(case_id)[0] for case_id in CASE_IDS}


@pytest.fixture(scope="session")
def case_closures(reg, case_graphs):
    return {case_id: close(g, reg) for case_id, g in case_graphs.items()}


def registry_random_graph(rng: random.Random, reg, max_triples: int = 60) -> Graph:
    """Random graph over registry terms plus a few data nodes; exercises
    typing, hierarchy edges, and recognition paths (R6 inputs). Terms are
    drawn from lists in IRI order, so a seed's graph does not depend on
    the order the registry lists its terms in."""
    props = sorted(t.iri for t in reg.terms if t.kind is TermKind.PROPERTY)
    classes = sorted(t.iri for t in reg.terms if t.kind is TermKind.CLASS)
    nodes = [Iri(f"https://w3id.org/icon/data/random/n{i}") for i in range(8)]
    nodes += [BlankNode(f"x{i}") for i in range(3)]
    sub_class_of = reg.iri("rdfs:subClassOf")
    sub_property_of = reg.iri("rdfs:subPropertyOf")
    triples = []
    for _ in range(rng.randrange(max_triples + 1)):
        roll = rng.random()
        if roll < 0.35:
            triples.append(Triple(rng.choice(nodes), RDF_TYPE, rng.choice(classes)))
        elif roll < 0.45:
            triples.append(Triple(rng.choice(classes), sub_class_of, rng.choice(classes)))
        elif roll < 0.55:
            triples.append(Triple(rng.choice(props), sub_property_of, rng.choice(props)))
        elif roll < 0.65:
            triples.append(Triple(rng.choice(nodes), rng.choice(props),
                                  Literal(f"v{rng.randrange(5)}")))
        else:
            triples.append(Triple(rng.choice(nodes), rng.choice(props), rng.choice(nodes)))
    # a few recognition paths, which the draws above almost never complete
    for i in range(rng.randrange(4)):
        r = Iri(f"https://w3id.org/icon/data/random/recognition{i}")
        triples.append(Triple(r, RDF_TYPE, reg.iri("icon:IconologicalRecognition")))
        triples.append(Triple(r, reg.iri("icon:assignsTo"), rng.choice(nodes)))
        triples.append(Triple(r, reg.iri("icon:assigned"), rng.choice(nodes)))
        if rng.random() < 0.5:
            triples.append(Triple(rng.choice(nodes), RDF_TYPE,
                                  reg.iri("icon:CulturalPhenomenon")))
    return Graph(triples)


def extended_registry(reg, local, steps, through, object_class):
    """reg, its levels kept, plus one shortcut property icon:<local> whose
    path takes steps (CURIE, Direction) through the class `through`; and
    that property."""
    prop = curie_to_iri(f"icon:{local}")
    term = VocabTerm(prop, f"icon:{local}", TermKind.PROPERTY, local)
    spec = PathSpec(tuple((reg.iri(p), dr) for p, dr in steps), reg.iri(through),
                    object_class=object_class and reg.iri(object_class))
    return TermRegistry(list(reg.terms) + [term],
                        list(reg.axioms) + [Axiom(AxiomKind.SHORTCUT_OF, prop, spec)],
                        reg.levels), prop


def plain_random_graph(rng: random.Random, n_triples: int,
                       n_nodes: int = 10, n_preds: int = 5) -> Graph:
    """Random graph over a small closed universe, for query tests."""
    nodes = [Iri(f"http://example.org/n{i}") for i in range(n_nodes)]
    nodes += [BlankNode(f"b{i}") for i in range(2)]
    preds = [Iri(f"http://example.org/p{i}") for i in range(n_preds)]
    lits = [Literal("red"), Literal("blue", lang="en")]
    triples = []
    for _ in range(n_triples):
        s = rng.choice(nodes)
        o = rng.choice(nodes + lits) if rng.random() < 0.9 else rng.choice(lits)
        triples.append(Triple(s, rng.choice(preds), o))
    return Graph(triples)


def turtle_random_graph(rng: random.Random, max_triples: int = 30) -> Graph:
    """Random graph whose terms all fall inside the supported Turtle
    grammar: absolute IRIs, blank nodes, plain/lang/datatyped strings."""
    iris = [Iri(f"http://example.org/r{i}") for i in range(6)]
    iris += [Iri("http://example.org/odd.name"), Iri("urn:uuid:1234")]
    bnodes = [BlankNode(f"n{i}") for i in range(4)]
    preds = [Iri(f"http://example.org/p{i}") for i in range(4)] + [RDF_TYPE]
    lits = [Literal("plain"), Literal("tabs\tand\nnewlines"),
            Literal('quote " backslash \\'), Literal("ciao", lang="it"),
            Literal("42", datatype=Iri("http://www.w3.org/2001/XMLSchema#integer"))]
    triples = []
    for _ in range(rng.randrange(max_triples + 1)):
        s = rng.choice(iris + bnodes)
        o = rng.choice(iris + bnodes + lits)
        triples.append(Triple(s, rng.choice(preds), o))
    return Graph(triples)
