"""Forward-chaining materialization over an interpretation graph.

Rules (all driven by the registry's axioms):
  R1/R3  transitivity of asserted rdfs:subClassOf / rdfs:subPropertyOf
  R2/R4  instance/statement propagation along the hierarchy, both for
         registry axiom edges and for edges asserted in the graph
  R5     domain/range typing (off by default; the declarations are
         treated as validation constraints, not inference licenses)
  R6     shortcut contraction, interpreting the registry's shortcut
         declarations: a node of a PathSpec's through class that links
         x to m along its steps yields (x shortcut m); specs that share
         steps and through class are contracted in one walk per path

Evaluation is semi-naive: only newly derived triples re-fire rules. The
engine derives into the store it returns, writing each triple when it
dequeues it and firing the rule bodies memoized for its predicate (or
rdf:type class): R2's (R4's) join only once the store holds an
rdfs:subClassOf (rdfs:subPropertyOf) edge. Joins read the store's
indexes; a triple with several derivations records the first found.
Shortcut *expansion* mints blank nodes and is deliberately not part of
close(); expand_shortcut() performs it from the same declarations.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache, partial
from typing import Callable, Iterable, KeysView, NamedTuple, Optional

from .graph import RDF_TYPE, BlankNode, Graph, Iri, Literal, Term, Triple, _triple
from .vocab import Direction, TermRegistry


class ReasonerError(Exception):
    pass


class WrongPredicateError(ReasonerError):
    pass


class RuleSet(NamedTuple):
    hierarchy: bool = True
    shortcut_contraction: bool = True
    domain_range_typing: bool = False


class Derivation(NamedTuple):
    rule: str
    premises: tuple[Triple, ...]


class ClosureGraph:
    """The caller's base graph, the store the engine derived base and
    inferred triples into, a derivation per inferred triple, and the
    registry close() closed under (casebook.level_of reads its levels)."""
    __slots__ = ("base", "_store", "provenance", "registry")

    def __init__(self, base: Graph, _store: Graph,
                 provenance: dict[Triple, Derivation], registry: TermRegistry):
        self.base = base
        self._store = _store
        self.provenance = provenance
        self.registry = registry

    @property
    def inferred(self) -> KeysView[Triple]:
        """The inferred triples: a read-only view of provenance's keys."""
        return self.provenance.keys()

    def __contains__(self, t: Triple) -> bool:
        return t in self._store

    def graph(self) -> Graph:
        """The store the engine derived into: every call returns the same
        graph, without copying."""
        return self._store


class _Engine:
    def __init__(self, base: Graph, reg: TermRegistry, rules: RuleSet):
        self.base = base
        self.reg = reg
        self.rules = rules
        self.sub_class_of = reg.iri("rdfs:subClassOf")
        self.sub_property_of = reg.iri("rdfs:subPropertyOf")
        self.edges = (self.sub_class_of, self.sub_property_of)
        # R6's (rule id, property, object class) per spec, grouped by shared paths
        self.shortcuts: dict[tuple, list[tuple[str, Iri, Optional[Iri]]]] = {}
        for prop, spec in reg.shortcuts() if rules.shortcut_contraction else ():
            self.shortcuts.setdefault((spec.steps, spec.through_class), []).append(
                (_rule_id(prop), prop, spec.object_class))
        self.store = Graph()
        self.provenance: dict[Triple, Derivation] = {}
        # unlike set order, hash order depends only on the triple set
        self.queue: deque[Triple] = deque(sorted(base, key=hash))

    def run(self) -> tuple[Graph, dict[Triple, Derivation]]:
        queue, plan, edges = self.queue, cache(self._plan), self.edges
        # _emit enqueues each new triple once, so each is written without a probe
        triples, by_s, by_p, by_o = self.store._writable()
        while queue:
            t = queue.popleft()
            s, p, o = t
            triples.add(t)
            (by_s.get(s) or by_s.setdefault(s, [])).append(t)
            if (bucket := by_p.get(p)) is None:
                bucket = by_p[p] = []
                if p in edges:  # the first edge of its kind: plan its join anew
                    plan.cache_clear()
            bucket.append(t)
            (by_o.get(o) or by_o.setdefault(o, [])).append(t)
            for fire in plan(p, o if p == RDF_TYPE and isinstance(o, Iri) else None):
                fire(t)
        return self.store, self.provenance

    def _plan(self, p: Iri, cls: Optional[Iri]) -> tuple[Callable[[Triple], None], ...]:
        """The rule bodies that a triple with predicate p can fire, in rule
        order; cls is the object of an rdf:type triple, if an IRI. As run()
        drops all plans when the first edge of a kind is written, a triple's
        plan holds the R2 (R4) join whenever the store, with that triple
        written, holds an rdfs:subClassOf (rdfs:subPropertyOf) edge."""
        reg, rules, plan = self.reg, self.rules, []
        if rules.hierarchy:
            if cls is not None:
                if supers := reg.superclasses(cls):
                    plan.append(partial(self._axioms, "R2-axiom", supers))
                if self.store.has_predicate(self.sub_class_of):
                    plan.append(partial(self._join, "R2", cls, self.sub_class_of))
            if p in self.edges:
                plan.append(partial(self._transitive, "R1" if p == self.sub_class_of else "R3"))
            if supers := reg.superproperties(p):
                plan.append(partial(self._axioms, "R4-axiom", supers))
            if self.store.has_predicate(self.sub_property_of):
                plan.append(partial(self._join, "R4", p, self.sub_property_of))
        if rules.domain_range_typing:
            for rule, axioms in (("R5-domain", reg.domain_axioms()),
                                 ("R5-range", reg.range_axioms())):
                if classes := [c for q, c in axioms if q == p]:
                    plan.append(partial(self._axioms, rule, classes))
        for (steps, through), specs in self.shortcuts.items():
            if p in (steps[0][0], steps[1][0]) or cls == through:
                plan.append(partial(self._contract, steps, through, specs, False))
            if cls is not None and any(cls == c for _, _, c in specs):
                plan.append(partial(self._contract, steps, through, specs, True))
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
                lifted = _triple(x, c, t.object) if rule == "R4-axiom" else _triple(x, RDF_TYPE, c)
                self._emit(lifted, rule, (t,))

    def _join(self, rule: str, x: Iri, edge: Iri, t: Triple):
        """R2/R4: join t with each store edge (x edge d), x its class or predicate."""
        if self.store.has_subject(x):  # most classes and predicates have no edges
            s, o = t.subject, t.object
            for d in self._iris(x, edge, True):
                lifted = _triple(s, RDF_TYPE, d) if rule == "R2" else _triple(s, d, o)
                self._emit(lifted, rule, (t, _triple(x, edge, d)))

    def _transitive(self, rule: str, t: Triple):
        s, p, o = t.subject, t.predicate, t.object
        if not (isinstance(s, Iri) and isinstance(o, Iri)):
            return
        # join (s p o) with (o p e) and with (c p s)
        for e in self._iris(o, p, True):
            self._emit(_triple(s, p, e), rule, (t, _triple(o, p, e)))
        for c in self._iris(s, p, False):
            self._emit(_triple(c, p, o), rule, (_triple(c, p, s), t))
        if rule == "R1":
            for x in self.store.neighbours(s, RDF_TYPE, False):
                self._emit(_triple(x, RDF_TYPE, o), "R2", (_triple(x, RDF_TYPE, s), t))
        else:
            for stmt in self.store.match(p=s):
                self._emit(_triple(stmt.subject, o, stmt.object), "R4", (stmt, t))

    # -- R6 ---------------------------------------------------------------

    def _contract(self, steps: tuple, through: Iri, specs: list, far_end: bool, t: Triple):
        """Walk each path of one group of shortcut specs (shared steps and
        through class) through either end of t, or, for far_end, through
        each through node one step 2 from the node t types; emit the
        conclusion of each spec whose object class, if any, types the far
        end. A path through t's other end that lacks t was walked already."""
        (p1, d1), (p2, d2) = steps
        store, neighbours = self.store, self.store.neighbours
        ends = (neighbours(t.subject, p2, d2 is Direction.INVERSE) if far_end
                else (t.subject, t.object))
        for r in ends:
            # type triples are probed in the store, not collected
            if (through_t := _triple(r, RDF_TYPE, through)) not in store:
                continue
            for x in neighbours(r, p1, d1 is Direction.INVERSE):
                if isinstance(x, Literal):
                    continue
                for m in neighbours(r, p2, d2 is Direction.FORWARD):
                    premises = (through_t, _step(x, p1, d1, r), _step(r, p2, d2, m))
                    for rule, prop, cls in specs:
                        if cls is None:
                            self._emit(_triple(x, prop, m), rule, premises)
                        elif (typed := _triple(m, RDF_TYPE, cls)) in store:
                            self._emit(_triple(x, prop, m), rule, premises + (typed,))


def _step(a: Term, p: Iri, d: Direction, b: Term) -> Triple:
    """The triple that takes a path from a to b along step (p, d)."""
    return _triple(a, p, b) if d is Direction.FORWARD else _triple(b, p, a)


def _rule_id(prop: Iri) -> str:
    """R6-<local name>, minus an is...Of wrapper: isDocumentOf -> R6-document."""
    local = re.split(r"[/#]", prop)[-1]
    wrapped = re.fullmatch(r"is([A-Z]\w*)Of", local)
    return "R6-" + (wrapped.group(1).lower() if wrapped else local)


def close(g: Graph, reg: TermRegistry, rules: Optional[RuleSet] = None) -> ClosureGraph:
    """Materialize the closure of a graph to fixpoint."""
    if rules is None:
        rules = RuleSet()
    store, provenance = _Engine(g, reg, rules).run()
    return ClosureGraph(g, store, provenance, reg)


def expand_shortcut(g: Graph, t: Triple, reg: TermRegistry,
                    actor: Optional[Iri] = None) -> Graph:
    """Rewrite a shortcut triple into an explicit through node.

    Returns a delta graph with a fresh blank node on the registry's path
    for t's predicate; shortcut contraction over the delta re-derives t.
    ReasonerError when the delta would need t's literal object as a subject.
    """
    spec = dict(reg.shortcuts()).get(t.predicate)
    if spec is None:
        raise WrongPredicateError(
            f"cannot expand {t.predicate!r}: not a shortcut property")
    if t not in g:
        raise ReasonerError("triple to expand is not in the graph")
    (p1, d1), (p2, d2) = spec.steps
    if isinstance(t.object, Literal) and (d2 is Direction.INVERSE
                                          or spec.object_class is not None):
        raise ReasonerError(f"cannot expand {t!r}: its path would need the "
                            "literal object as a subject")
    n = 1
    while g.has_term(BlankNode(f"r{n}")):
        n += 1
    r = BlankNode(f"r{n}")
    delta = [Triple(r, RDF_TYPE, spec.through_class),
             _step(t.subject, p1, d1, r), _step(r, p2, d2, t.object)]
    if spec.object_class is not None:
        delta.append(Triple(t.object, RDF_TYPE, spec.object_class))
    if actor is not None:
        delta.append(Triple(r, reg.iri("crm:P14_carried_out_by"), actor))
    return Graph(delta)
