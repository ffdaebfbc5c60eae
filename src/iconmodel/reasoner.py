"""Forward-chaining materialization over an interpretation graph.

Rules (all driven by the registry's axioms):
  R1/R3  transitivity of asserted rdfs:subClassOf / rdfs:subPropertyOf
  R2/R4  instance/statement propagation along the hierarchy, both for
         registry axiom edges and for edges asserted in the graph
  R5     domain/range typing (off by default; the declarations are
         treated as validation constraints, not inference licenses)
  R6     shortcut contraction, interpreting the registry's shortcut
         declarations: a node of a PathSpec's through class that links
         x to m along its steps yields (x shortcut m)

Evaluation is semi-naive: only newly derived triples re-fire rules.
The engine derives into the store it returns: each triple is inserted
when it is dequeued, and every join reads that store's indexes.
Shortcut *expansion* mints blank nodes and is deliberately not part of
close(); expand_shortcut() performs it from the same declarations.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import KeysView, Optional

from .graph import BlankNode, Graph, Iri, Literal, Term, Triple
from .turtle_io import RDF_TYPE
from .vocab import Direction, PathSpec, TermRegistry


class ReasonerError(Exception):
    pass


class WrongPredicateError(ReasonerError):
    pass


@dataclass
class RuleSet:
    hierarchy: bool = True
    shortcut_contraction: bool = True
    domain_range_typing: bool = False


@dataclass(frozen=True)
class Derivation:
    rule: str
    premises: tuple[Triple, ...]


@dataclass
class ClosureGraph:
    """The caller's base graph, the frozen store the engine derived base
    and inferred triples into, and a derivation per inferred triple."""
    base: Graph
    _store: Graph = field(repr=False)
    provenance: dict[Triple, Derivation]

    @property
    def inferred(self) -> KeysView[Triple]:
        """The inferred triples: a read-only view of provenance's keys."""
        return self.provenance.keys()

    def __contains__(self, t: Triple) -> bool:
        return t in self._store

    def graph(self) -> Graph:
        """The store the engine derived into: every call returns the same
        frozen graph, without copying."""
        return self._store

    def __len__(self) -> int:
        return len(self._store)


class _Engine:
    def __init__(self, base: Graph, reg: TermRegistry, rules: RuleSet):
        self.base = base
        self.reg = reg
        self.rules = rules
        self.sub_class_of = reg.iri("rdfs:subClassOf")
        self.sub_property_of = reg.iri("rdfs:subPropertyOf")
        self.shortcuts = [(_rule_id(prop), prop, spec) for prop, spec in reg.shortcuts()]
        self.domains = reg.domain_axioms()
        self.ranges = reg.range_axioms()

        self.store = Graph()
        self.provenance: dict[Triple, Derivation] = {}

    def run(self) -> tuple[Graph, dict[Triple, Derivation]]:
        queue: deque[Triple] = deque(self.base.sorted_triples())
        while queue:
            t = queue.popleft()
            self.store.insert(t)
            for derived, deriv in self._consequences(t):
                # base and provenance's keys are every triple ever enqueued
                if derived not in self.base and derived not in self.provenance:
                    self.provenance[derived] = deriv
                    queue.append(derived)
        return self.store.freeze(), self.provenance

    def _iris(self, x: Term, p: Iri, forward: bool) -> list[Iri]:
        """The IRIs one p edge away from x in the store."""
        return [y for y in self.store.neighbours(x, p, forward) if isinstance(y, Iri)]

    def _consequences(self, t: Triple):
        out: list[tuple[Triple, Derivation]] = []
        if self.rules.hierarchy:
            out += self._hierarchy(t)
        if self.rules.domain_range_typing:
            out += self._domain_range(t)
        if self.rules.shortcut_contraction:
            out += self._shortcut(t)
        return out

    # -- R1-R4 ------------------------------------------------------------

    def _hierarchy(self, t: Triple):
        out = []
        s, p, o = t.subject, t.predicate, t.object
        sub_c, sub_p = self.sub_class_of, self.sub_property_of
        if p == RDF_TYPE and isinstance(o, Iri):
            for d in self.reg.superclasses(o):
                out.append((Triple(s, RDF_TYPE, d), Derivation("R2-axiom", (t,))))
            for d in self._iris(o, sub_c, True):
                edge = Triple(o, sub_c, d)
                out.append((Triple(s, RDF_TYPE, d), Derivation("R2", (t, edge))))
        if p in (sub_c, sub_p) and isinstance(s, Iri) and isinstance(o, Iri):
            rule = "R1" if p == sub_c else "R3"
            # transitivity: join (s p o) with (o p e) and with (c p s)
            for e in self._iris(o, p, True):
                mid = Triple(o, p, e)
                out.append((Triple(s, p, e), Derivation(rule, (t, mid))))
            for c in self._iris(s, p, False):
                left = Triple(c, p, s)
                out.append((Triple(c, p, o), Derivation(rule, (left, t))))
            if p == sub_c:
                for x in self.store.neighbours(s, RDF_TYPE, False):
                    inst = Triple(x, RDF_TYPE, s)
                    out.append((Triple(x, RDF_TYPE, o), Derivation("R2", (inst, t))))
            else:
                for stmt in self.store.match(p=s):
                    out.append((Triple(stmt.subject, o, stmt.object),
                                Derivation("R4", (stmt, t))))
        # statement propagation for the triple's own predicate
        for q in self.reg.superproperties(p):
            out.append((Triple(s, q, o), Derivation("R4-axiom", (t,))))
        for q in self._iris(p, sub_p, True):
            edge = Triple(p, sub_p, q)
            out.append((Triple(s, q, o), Derivation("R4", (t, edge))))
        return out

    # -- R5 ---------------------------------------------------------------

    def _domain_range(self, t: Triple):
        out = []
        for p, c in self.domains:
            if p == t.predicate:
                out.append((Triple(t.subject, RDF_TYPE, c), Derivation("R5-domain", (t,))))
        for p, c in self.ranges:
            if p == t.predicate and isinstance(t.object, (Iri, BlankNode)):
                out.append((Triple(t.object, RDF_TYPE, c), Derivation("R5-range", (t,))))
        return out

    # -- R6 ---------------------------------------------------------------

    def _shortcut(self, t: Triple):
        out = []
        for rule, prop, spec in self.shortcuts:
            (p1, _), (p2, d2) = spec.steps
            through = ()
            if t.predicate in (p1, p2):
                through = (t.subject, t.object)
            elif t.predicate == RDF_TYPE and t.object == spec.through_class:
                through = (t.subject,)
            elif t.predicate == RDF_TYPE and t.object == spec.object_class:
                through = self.store.neighbours(t.subject, p2, d2 is Direction.INVERSE)
            for r in through:
                out += self._contract(r, rule, prop, spec)
        return out

    def _contract(self, r: Term, rule: str, prop: Iri, spec: PathSpec):
        """All conclusions of one shortcut spec through node r right now."""
        if spec.through_class not in self.store.neighbours(r, RDF_TYPE):
            return []
        (p1, d1), (p2, d2) = spec.steps
        through_t = Triple(r, RDF_TYPE, spec.through_class)
        out = []
        for x in self.store.neighbours(r, p1, d1 is Direction.INVERSE):
            if isinstance(x, Literal):
                continue
            for m in self.store.neighbours(r, p2, d2 is Direction.FORWARD):
                premises = (through_t, _step(x, p1, d1, r), _step(r, p2, d2, m))
                if spec.object_class is not None:
                    if spec.object_class not in self.store.neighbours(m, RDF_TYPE):
                        continue
                    premises += (Triple(m, RDF_TYPE, spec.object_class),)
                out.append((Triple(x, prop, m), Derivation(rule, premises)))
        return out


def _step(a: Term, p: Iri, d: Direction, b: Term) -> Triple:
    """The triple that takes a path from a to b along step (p, d)."""
    return Triple(a, p, b) if d is Direction.FORWARD else Triple(b, p, a)


def _rule_id(prop: Iri) -> str:
    """R6-<local name>, minus an is...Of wrapper: isDocumentOf -> R6-document."""
    local = re.split(r"[/#]", prop.value)[-1]
    wrapped = re.fullmatch(r"is([A-Z]\w*)Of", local)
    return "R6-" + (wrapped.group(1).lower() if wrapped else local)


def close(g: Graph, reg: TermRegistry, rules: Optional[RuleSet] = None) -> ClosureGraph:
    """Materialize the closure of a frozen graph to fixpoint."""
    if rules is None:
        rules = RuleSet()
    if not g.frozen:
        raise ReasonerError("close() requires a frozen graph")
    store, provenance = _Engine(g, reg, rules).run()
    return ClosureGraph(g, store, provenance)


def expand_shortcut(g: Graph, t: Triple, reg: TermRegistry,
                    actor: Optional[Iri] = None) -> Graph:
    """Rewrite a shortcut triple into an explicit through node.

    Returns a delta graph with a fresh blank node on the registry's path
    for t's predicate; shortcut contraction over the delta re-derives t.
    """
    spec = dict(reg.shortcuts()).get(t.predicate)
    if spec is None:
        raise WrongPredicateError(
            f"cannot expand {t.predicate!r}: not a shortcut property")
    if t not in g:
        raise ReasonerError("triple to expand is not in the graph")
    n = 1
    while g.has_term(BlankNode(f"r{n}")):
        n += 1
    r = BlankNode(f"r{n}")
    (p1, d1), (p2, d2) = spec.steps
    delta = Graph()
    delta.insert(Triple(r, RDF_TYPE, spec.through_class))
    delta.insert(_step(t.subject, p1, d1, r))
    delta.insert(_step(r, p2, d2, t.object))
    if spec.object_class is not None:
        delta.insert(Triple(t.object, RDF_TYPE, spec.object_class))
    if actor is not None:
        delta.insert(Triple(r, reg.iri("crm:P14_carried_out_by"), actor))
    return delta.freeze()
