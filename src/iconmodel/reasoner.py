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

Evaluation is semi-naive: only newly derived triples re-fire rules. The
engine derives into the store it returns, inserting each triple when it
dequeues it and firing only the rule bodies memoized for its predicate
(or rdf:type class); joins read the store's indexes, and a triple with
several derivations records the first one found.
Shortcut *expansion* mints blank nodes and is deliberately not part of
close(); expand_shortcut() performs it from the same declarations.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Iterable, KeysView, Optional

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
        self.store = Graph()
        self.provenance: dict[Triple, Derivation] = {}
        # unlike set order, hash order depends only on the triple set
        self.queue: deque[Triple] = deque(sorted(base, key=hash))

    def run(self) -> tuple[Graph, dict[Triple, Derivation]]:
        queue, insert, plan = self.queue, self.store.insert, cache(self._plan)
        while queue:
            t = queue.popleft()
            insert(t)
            p, o = t.predicate, t.object
            for fire in plan(p, o if p == RDF_TYPE and isinstance(o, Iri) else None):
                fire(t)
        return self.store.freeze(), self.provenance

    def _plan(self, p: Iri, cls: Optional[Iri]) -> tuple[Callable[[Triple], None], ...]:
        """The rule bodies that a triple with predicate p can fire, in rule
        order; cls is the object of an rdf:type triple, if an IRI."""
        reg, rules, plan = self.reg, self.rules, []
        if rules.hierarchy:
            if cls is not None:
                if supers := reg.superclasses(cls):
                    plan.append(partial(self._axioms, "R2-axiom", supers))
                plan.append(partial(self._join, "R2", cls, self.sub_class_of))
            if p in (self.sub_class_of, self.sub_property_of):
                plan.append(partial(self._transitive, "R1" if p == self.sub_class_of else "R3"))
            if supers := reg.superproperties(p):
                plan.append(partial(self._axioms, "R4-axiom", supers))
            plan.append(partial(self._join, "R4", p, self.sub_property_of))
        if rules.domain_range_typing:
            for rule, axioms in (("R5-domain", reg.domain_axioms()),
                                 ("R5-range", reg.range_axioms())):
                if classes := [c for q, c in axioms if q == p]:
                    plan.append(partial(self._axioms, rule, classes))
        for shortcut in self.shortcuts if rules.shortcut_contraction else ():
            spec = shortcut[2]
            (p1, d1), (p2, d2) = spec.steps
            # one triple can complete paths in more than one of these ways;
            # a step triple completes them only at its through end
            ends = set()
            if p == p1:
                ends.add("object" if d1 is Direction.FORWARD else "subject")
            if p == p2:
                ends.add("subject" if d2 is Direction.FORWARD else "object")
            if ends:
                plan.append(partial(self._contract, ends.pop() if len(ends) == 1
                                    else "both ends", *shortcut))
            if cls is not None and cls == spec.through_class:
                plan.append(partial(self._contract, "subject", *shortcut))
            if cls is not None and cls == spec.object_class:
                plan.append(partial(self._contract, "far end", *shortcut))
        return tuple(plan)

    def _emit(self, conclusion: Triple, rule: str, premises: tuple[Triple, ...]):
        # base and provenance's keys are every triple ever enqueued
        if conclusion not in self.base and conclusion not in self.provenance:
            self.provenance[conclusion] = Derivation(rule, premises)
            self.queue.append(conclusion)

    def _iris(self, x: Term, p: Iri, forward: bool) -> list[Iri]:
        """The IRIs one p edge away from x in the store."""
        return [y for y in self.store.neighbours(x, p, forward) if isinstance(y, Iri)]

    # -- R1-R5 ------------------------------------------------------------

    def _axioms(self, rule: str, targets: Iterable[Iri], t: Triple):
        """R2-axiom, R4-axiom and R5: conclusions from t and one axiom."""
        x = t.object if rule == "R5-range" else t.subject
        if not isinstance(x, Literal):
            for c in targets:
                lifted = Triple(x, c, t.object) if rule == "R4-axiom" else Triple(x, RDF_TYPE, c)
                self._emit(lifted, rule, (t,))

    def _join(self, rule: str, x: Iri, edge: Iri, t: Triple):
        """R2/R4: join t with each store edge (x edge d), x its class or predicate."""
        if self.store.has_subject(x):  # most classes and predicates have no edges
            s, o = t.subject, t.object
            for d in self._iris(x, edge, True):
                lifted = Triple(s, RDF_TYPE, d) if rule == "R2" else Triple(s, d, o)
                self._emit(lifted, rule, (t, Triple(x, edge, d)))

    def _transitive(self, rule: str, t: Triple):
        s, p, o = t.subject, t.predicate, t.object
        if not (isinstance(s, Iri) and isinstance(o, Iri)):
            return
        # join (s p o) with (o p e) and with (c p s)
        for e in self._iris(o, p, True):
            self._emit(Triple(s, p, e), rule, (t, Triple(o, p, e)))
        for c in self._iris(s, p, False):
            self._emit(Triple(c, p, o), rule, (Triple(c, p, s), t))
        if rule == "R1":
            for x in self.store.neighbours(s, RDF_TYPE, False):
                self._emit(Triple(x, RDF_TYPE, o), "R2", (Triple(x, RDF_TYPE, s), t))
        else:
            for stmt in self.store.match(p=s):
                self._emit(Triple(stmt.subject, o, stmt.object), "R4", (stmt, t))

    # -- R6 ---------------------------------------------------------------

    def _contract(self, where: str, rule: str, prop: Iri, spec: PathSpec, t: Triple):
        """Emit every conclusion of one shortcut spec through each node t can
        complete a path at: a step's through end ("subject", "object" or
        "both ends"), the subject it types, or a far end's ("far end")."""
        (p1, d1), (p2, d2) = spec.steps
        if where == "far end":
            through = self.store.neighbours(t.subject, p2, d2 is Direction.INVERSE)
        elif where == "both ends":
            through = (t.subject, t.object)
        else:
            through = (t.object,) if where == "object" else (t.subject,)
        for r in through:
            if spec.through_class not in self.store.neighbours(r, RDF_TYPE):
                continue
            through_t = Triple(r, RDF_TYPE, spec.through_class)
            for x in self.store.neighbours(r, p1, d1 is Direction.INVERSE):
                if isinstance(x, Literal):
                    continue
                for m in self.store.neighbours(r, p2, d2 is Direction.FORWARD):
                    premises = (through_t, _step(x, p1, d1, r), _step(r, p2, d2, m))
                    if spec.object_class is not None:
                        if spec.object_class not in self.store.neighbours(m, RDF_TYPE):
                            continue
                        premises += (Triple(m, RDF_TYPE, spec.object_class),)
                    self._emit(Triple(x, prop, m), rule, premises)


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
