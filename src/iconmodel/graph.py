"""RDF-style terms, triples, and an indexed in-memory graph.

Terms and triples are built-in values, so hashing, equality and field
access run in C: an Iri is a str subclass that is its own text, and a
Literal (lexical, datatype, lang) and a Triple (subject, predicate,
object) are tuples with named fields. Each hashes as its text or its
tuple of fields, and never carries one process's string hash seed into
another. Equality widens in one way: an Iri equals the plain str of its
text, and a Triple or Literal the plain tuple of its fields. A blank
node hashes as its label but equals only a blank node, so no term
equals one of another kind. A parse shares one Iri per distinct IRI.

Graphs are append-only while being built and are frozen before they
are handed out. A graph builds its subject, predicate and object
indexes on the first read that needs one, or on its first insert, so a
graph that is only iterated and probed for membership (a parsed graph
handed to the reasoner) never builds them. A union shares its larger
frozen input's untouched index buckets and never mutates them. The
reasoner's engine derives into the store it returns, joining against
that graph's indexes as it inserts, and a closure hands out that same
frozen graph on every call.

A frozen graph can be shared freely between threads. Nothing mutates
its triple set, and its indexes are built into locals and published by
one attribute assignment: two threads making their first read each
build equal indexes from the same triples, and neither sees a partial
one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

PrefixMap = dict[str, str]

_new_tuple = tuple.__new__


class GraphError(Exception):
    pass


class FrozenGraphError(GraphError):
    """Raised on any attempt to mutate a frozen graph."""


class Iri(str):
    """An absolute IRI: the str of its own text, which must hold a ':'."""
    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not value or ":" not in value:
            raise ValueError(f"not an absolute IRI: {value!r}")
        return str.__new__(cls, value)

    value = property(str.__str__, doc="The IRI as a plain str.")

    def __repr__(self):
        return f"<{self}>"


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("blank node label must be non-empty")

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return f"_:{self.label}"


class Literal(namedtuple("_Literal", "lexical datatype lang")):
    """A literal: a language tag (lower-cased) or a datatype, which is
    xsd:string when neither is given."""
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Optional[Iri] = None,
                lang: Optional[str] = None) -> "Literal":
        if lang is not None:
            if datatype is not None:
                raise ValueError("literal cannot carry both a language tag and a datatype")
            if lang == "":
                raise ValueError("language tag must be non-empty")
            lang = lang.lower()
        elif datatype is None:
            datatype = XSD_STRING
        return _new_tuple(cls, (lexical, datatype, lang))

    def __repr__(self):
        if self.lang:
            return f'"{self.lexical}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{self.lexical}"^^{self.datatype!r}'
        return f'"{self.lexical}"'


RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

Term = Union[Iri, BlankNode, Literal]

# Total order over terms: IRIs < blank nodes < literals, each by canonical string.
def term_key(t: Term) -> tuple:
    if isinstance(t, Iri):
        return (0, t)
    if isinstance(t, BlankNode):
        return (1, t.label)
    return (2, t.lexical, t.lang or "", t.datatype or "")


def term_str(t: Term) -> str:
    """A term as plain text: IRI, _:label, or literal lexical form."""
    if isinstance(t, Iri):
        return t
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    return t.lexical


class Triple(namedtuple("_Triple", "subject predicate object")):
    __slots__ = ()

    def __new__(cls, subject: Union[Iri, BlankNode], predicate: Iri,
                object: Term) -> "Triple":
        if not isinstance(subject, (Iri, BlankNode)):
            raise ValueError(f"bad triple subject: {subject!r}")
        if not isinstance(predicate, Iri):
            raise ValueError(f"bad triple predicate: {predicate!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise ValueError(f"bad triple object: {object!r}")
        return _new_tuple(cls, (subject, predicate, object))

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


# a graph's triples by subject, by predicate and by object
_Indexes = tuple[dict[Term, set[Triple]], dict[Iri, set[Triple]], dict[Term, set[Triple]]]


class Graph:
    """Triple set with subject/predicate/object indexes, built on first read.

    Build with insert(), then freeze(). Lookups see every triple
    inserted so far, so code filling a graph can join against it.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set(triples)
        self._index: Optional[_Indexes] = None  # until the first read
        self._frozen = False

    def _indexes(self) -> _Indexes:
        """The three indexes, built in one pass over the triples the first
        time and published whole by one assignment (see the module
        docstring). Readers write `self._index or self._indexes()`, which
        skips the call once the indexes exist."""
        index = self._index
        if index is None:
            by_s: dict[Term, set[Triple]] = {}
            by_p: dict[Iri, set[Triple]] = {}
            by_o: dict[Term, set[Triple]] = {}
            for t in self._triples:
                (by_s.get(t.subject) or by_s.setdefault(t.subject, set())).add(t)
                (by_p.get(t.predicate) or by_p.setdefault(t.predicate, set())).add(t)
                (by_o.get(t.object) or by_o.setdefault(t.object, set())).add(t)
            index = self._index = (by_s, by_p, by_o)
        return index

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns True iff it was not already present."""
        if self._frozen:
            raise FrozenGraphError("cannot insert into a frozen graph")
        if t in self._triples:
            return False
        by_s, by_p, by_o = self._index or self._indexes()
        self._triples.add(t)
        # buckets are never empty, so only a new key builds a set
        (by_s.get(t.subject) or by_s.setdefault(t.subject, set())).add(t)
        (by_p.get(t.predicate) or by_p.setdefault(t.predicate, set())).add(t)
        (by_o.get(t.object) or by_o.setdefault(t.object, set())).add(t)
        return True

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def match(self, s: Optional[Term] = None, p: Optional[Iri] = None,
              o: Optional[Term] = None) -> set[Triple]:
        """All triples agreeing with every bound position."""
        if s is None and p is None and o is None:
            return set(self._triples)
        by_s, by_p, by_o = self._index or self._indexes()
        candidates = None
        if s is not None:
            candidates = by_s.get(s, set())
        if p is not None:
            bucket = by_p.get(p, set())
            candidates = bucket if candidates is None else candidates & bucket
        if o is not None:
            bucket = by_o.get(o, set())
            candidates = bucket if candidates is None else candidates & bucket
        return set(candidates)

    def neighbours(self, node: Term, p: Iri, forward: bool = True) -> set[Term]:
        """{o | (node p o)} when forward, else {s | (s p node)}, from node's bucket."""
        by_s, _, by_o = self._index or self._indexes()
        if forward:
            return {t.object for t in by_s.get(node, ()) if t.predicate == p}
        return {t.subject for t in by_o.get(node, ()) if t.predicate == p}

    def subjects(self) -> set[Term]:
        return set((self._index or self._indexes())[0])

    def objects(self) -> set[Term]:
        return set((self._index or self._indexes())[2])

    def terms(self) -> set[Term]:
        out: set[Term] = set()
        for t in self._triples:
            out.add(t.subject)
            out.add(t.predicate)
            out.add(t.object)
        return out

    def has_term(self, x: Term) -> bool:
        """True iff x occurs as a subject, predicate or object; a literal's
        datatype IRI does not count, as in terms()."""
        by_s, by_p, by_o = self._index or self._indexes()
        return x in by_s or x in by_p or x in by_o

    def has_subject(self, x: Term) -> bool:
        return x in (self._index or self._indexes())[0]

    def blank_labels(self) -> set[str]:
        by_s, _, by_o = self._index or self._indexes()
        # blank nodes never occur as predicates
        return {x.label for keys in (by_s, by_o) for x in keys
                if isinstance(x, BlankNode)}


def union(a: Graph, b: Graph) -> Graph:
    """Set union of two frozen graphs, returned frozen.

    Both inputs must be frozen; GraphError names an argument that is
    not. The result's triple set is a C-level copy of the larger input's
    plus the smaller input's new triples. If the larger input has built
    its indexes, the result starts from C-level copies of its index
    dicts, so it shares that input's index buckets: each index key that
    gains a triple from the smaller input gets a new bucket, and no
    bucket is ever mutated. Python code then runs only for the smaller
    input's triples. Otherwise there is nothing to share, and the result
    builds its own indexes on its first read, like any other graph.

    Blank node labels are merged as-is: callers must keep labels
    disjoint unless identification across the inputs is intended.
    """
    for name, x in (("first", a), ("second", b)):
        if not x.frozen:
            raise GraphError(f"union() requires frozen graphs; the {name} "
                             "argument is not frozen")
    if len(a) < len(b):
        a, b = b, a
    new = b._triples - a._triples
    g = Graph()
    g._triples = a._triples | new
    if a._index is not None:
        g._index = tuple(map(dict, a._index))
        for index, position in zip(g._index, ("subject", "predicate", "object")):
            fresh: dict[Term, set[Triple]] = {}
            for t in new:
                key = getattr(t, position)
                if key not in fresh:
                    fresh[key] = set(index.get(key, ()))
                fresh[key].add(t)
            index.update(fresh)
    return g.freeze()


def _blank_triples(g: Graph) -> set[Triple]:
    """The triples with a blank subject or object, read from the indexes."""
    by_s, _, by_o = g._index or g._indexes()
    return {t for index in (by_s, by_o) for x, bucket in index.items()
            if isinstance(x, BlankNode) for t in bucket}


def isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some blank-node bijection maps a exactly onto b.

    Backtracking search over candidate bijections with signature-based
    pruning; exponential in the worst case, fine at fixture scale.
    """
    blank_a, blank_b = _blank_triples(a), _blank_triples(b)
    # compares the ground triples; a set difference reuses stored hashes
    if len(a) != len(b) or a._triples - blank_a != b._triples - blank_b:
        return False
    bnodes_a = sorted(a.blank_labels())
    bnodes_b = sorted(b.blank_labels())
    if len(bnodes_a) != len(bnodes_b):
        return False
    if not bnodes_a:
        return True

    def signature(g: Graph, label: str) -> tuple:
        # the far-end slot is () for blank neighbours so rows stay comparable
        n = BlankNode(label)
        rows = []
        for t in g.match(s=n):
            rows.append(("s", t.predicate,
                         () if isinstance(t.object, BlankNode) else term_key(t.object)))
        for t in g.match(o=n):
            rows.append(("o", t.predicate,
                         () if isinstance(t.subject, BlankNode) else term_key(t.subject)))
        return tuple(sorted(rows))

    sig_a = {x: signature(a, x) for x in bnodes_a}
    sig_b = {x: signature(b, x) for x in bnodes_b}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False

    # one shared candidate list per signature, in bnodes_b order
    by_sig: dict[tuple, list[str]] = {}
    for y in bnodes_b:
        by_sig.setdefault(sig_b[y], []).append(y)
    candidates = {x: by_sig[sig_a[x]] for x in bnodes_a}
    order = sorted(bnodes_a, key=lambda x: len(candidates[x]))

    def rename(t: Triple, mapping: dict[str, str]) -> Triple:
        s = BlankNode(mapping[t.subject.label]) if isinstance(t.subject, BlankNode) else t.subject
        o = BlankNode(mapping[t.object.label]) if isinstance(t.object, BlankNode) else t.object
        return Triple(s, t.predicate, o)

    bset = b._triples
    # the triples touching each blank node, with the labels they need mapped
    touching = {x: [(t, {n.label for n in (t.subject, t.object)
                         if isinstance(n, BlankNode)})
                    for t in a.match(s=BlankNode(x)) | a.match(o=BlankNode(x))]
                for x in bnodes_a}

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str) -> bool:
        """Every triple at x whose blank nodes are all mapped exists in b."""
        return all(not labels <= mapping.keys() or rename(t, mapping) in bset
                   for t, labels in touching[x])

    # Depth-first search with an explicit stack, so a long chain of blank
    # nodes cannot exhaust the recursion limit. next_try[i] is the index
    # of the next candidate to try for order[i].
    next_try = [0]
    while next_try:
        i = len(next_try) - 1
        if i == len(order):
            if all(rename(t, mapping) in bset for t in blank_a):
                return True
            next_try.pop()
            continue
        x = order[i]
        if x in mapping:  # back from a failed deeper level: retract x
            used.discard(mapping.pop(x))
        cands = candidates[x]
        j = next_try[i]
        while j < len(cands):
            y = cands[j]
            j += 1
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            if consistent(x):
                break
            del mapping[x]
            used.discard(y)
        next_try[i] = j
        if x in mapping:
            next_try.append(0)
        else:
            next_try.pop()
    return False
