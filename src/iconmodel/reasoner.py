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
Shortcut *expansion* mints blank nodes and is deliberately not part of
close(); expand_shortcut() performs it from the same declarations.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .graph import BlankNode, Graph, Iri, Literal, Term, Triple, union
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
    base: Graph
    inferred: Graph
    provenance: dict[Triple, Derivation] = field(default_factory=dict)
    _store: Graph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store = union(self.base, self.inferred)

    def __contains__(self, t: Triple) -> bool:
        return t in self._store

    def graph(self) -> Graph:
        """The closure's one shared frozen store of base and inferred
        triples, built when the closure was made: every call returns the
        same graph, without copying."""
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
        self.step_preds = {p for _, _, spec in self.shortcuts for p, _ in spec.steps}
        self.domains = {}
        self.ranges = {}
        for p, c in reg.domain_axioms():
            self.domains.setdefault(p, set()).add(c)
        for p, c in reg.range_axioms():
            self.ranges.setdefault(p, set()).add(c)

        self.inferred = Graph()
        self.provenance: dict[Triple, Derivation] = {}
        # joint indexes over base + inferred
        self.types: dict[Term, set[Iri]] = {}          # node -> classes
        self.instances: dict[Iri, set[Term]] = {}      # class -> nodes
        self.by_pred: dict[Iri, set[tuple[Term, Term]]] = {}
        self.sub_c_edges: dict[Iri, set[Iri]] = {}     # asserted subclass triples
        self.sub_p_edges: dict[Iri, set[Iri]] = {}
        # (node, step predicate, forward?) -> nodes one step away
        self.ends: dict[tuple[Term, Iri, bool], set[Term]] = {}

    def run(self) -> tuple[Graph, dict[Triple, Derivation]]:
        queue: deque[Triple] = deque(self.base.sorted_triples())
        # every triple enters the queue once, so each is indexed once
        enqueued: set[Triple] = set(queue)
        while queue:
            t = queue.popleft()
            self._index(t)
            for derived, deriv in self._consequences(t):
                if derived in enqueued:
                    continue
                if derived not in self.base:
                    self.provenance[derived] = deriv
                    self.inferred.insert(derived)
                enqueued.add(derived)
                queue.append(derived)
        return self.inferred.freeze(), self.provenance

    def _index(self, t: Triple):
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri):
            self.types.setdefault(t.subject, set()).add(t.object)
            self.instances.setdefault(t.object, set()).add(t.subject)
        if (t.predicate == self.sub_class_of and isinstance(t.subject, Iri)
                and isinstance(t.object, Iri)):
            self.sub_c_edges.setdefault(t.subject, set()).add(t.object)
        if (t.predicate == self.sub_property_of and isinstance(t.subject, Iri)
                and isinstance(t.object, Iri)):
            self.sub_p_edges.setdefault(t.subject, set()).add(t.object)
        self.by_pred.setdefault(t.predicate, set()).add((t.subject, t.object))
        if t.predicate in self.step_preds:
            self.ends.setdefault((t.subject, t.predicate, True), set()).add(t.object)
            self.ends.setdefault((t.object, t.predicate, False), set()).add(t.subject)

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
        if p == RDF_TYPE and isinstance(o, Iri):
            for d in self.reg.superclasses(o):
                out.append((Triple(s, RDF_TYPE, d), Derivation("R2-axiom", (t,))))
            for d in self.sub_c_edges.get(o, ()):
                edge = Triple(o, self.sub_class_of, d)
                out.append((Triple(s, RDF_TYPE, d), Derivation("R2", (t, edge))))
        if p == self.sub_class_of and isinstance(s, Iri) and isinstance(o, Iri):
            for e in self.sub_c_edges.get(o, ()):
                mid = Triple(o, self.sub_class_of, e)
                out.append((Triple(s, self.sub_class_of, e), Derivation("R1", (t, mid))))
            for c, cs in self.sub_c_edges.items():
                if s in cs and c != s:
                    left = Triple(c, self.sub_class_of, s)
                    out.append((Triple(c, self.sub_class_of, o),
                                Derivation("R1", (left, t))))
            for x in self.instances.get(s, ()):
                inst = Triple(x, RDF_TYPE, s)
                out.append((Triple(x, RDF_TYPE, o), Derivation("R2", (inst, t))))
        if p == self.sub_property_of and isinstance(s, Iri) and isinstance(o, Iri):
            for e in self.sub_p_edges.get(o, ()):
                mid = Triple(o, self.sub_property_of, e)
                out.append((Triple(s, self.sub_property_of, e),
                            Derivation("R3", (t, mid))))
            for c, cs in self.sub_p_edges.items():
                if s in cs and c != s:
                    left = Triple(c, self.sub_property_of, s)
                    out.append((Triple(c, self.sub_property_of, o),
                                Derivation("R3", (left, t))))
            for (xs, xo) in self.by_pred.get(s, ()):
                stmt = Triple(xs, s, xo)
                out.append((Triple(xs, o, xo), Derivation("R4", (stmt, t))))
        # statement propagation for the triple's own predicate
        for q in self.reg.superproperties(p):
            out.append((Triple(s, q, o), Derivation("R4-axiom", (t,))))
        for q in self.sub_p_edges.get(p, ()):
            edge = Triple(p, self.sub_property_of, q)
            out.append((Triple(s, q, o), Derivation("R4", (t, edge))))
        return out

    # -- R5 ---------------------------------------------------------------

    def _domain_range(self, t: Triple):
        out = []
        for c in self.domains.get(t.predicate, ()):
            out.append((Triple(t.subject, RDF_TYPE, c), Derivation("R5-domain", (t,))))
        for c in self.ranges.get(t.predicate, ()):
            if isinstance(t.object, (Iri, BlankNode)):
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
                through = self.ends.get((t.subject, p2, d2 is Direction.INVERSE), ())
            for r in through:
                out += self._contract(r, rule, prop, spec)
        return out

    def _contract(self, r: Term, rule: str, prop: Iri, spec: PathSpec):
        """All conclusions of one shortcut spec through node r right now."""
        if spec.through_class not in self.types.get(r, ()):
            return []
        (p1, d1), (p2, d2) = spec.steps
        through_t = Triple(r, RDF_TYPE, spec.through_class)
        out = []
        for x in self.ends.get((r, p1, d1 is Direction.INVERSE), ()):
            if isinstance(x, Literal):
                continue
            for m in self.ends.get((r, p2, d2 is Direction.FORWARD), ()):
                premises = (through_t, _step(x, p1, d1, r), _step(r, p2, d2, m))
                if spec.object_class is not None:
                    if spec.object_class not in self.types.get(m, ()):
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
    # the engine's working state is freed before the store is built
    inferred, provenance = _Engine(g, reg, rules).run()
    return ClosureGraph(g, inferred, provenance)


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
    used = g.blank_labels()
    n = 1
    while f"r{n}" in used:
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
