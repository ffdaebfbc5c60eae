"""Basic-graph-pattern evaluation with property paths, plus the catalog
of competency questions bound to the shipped case studies.

Patterns are built through the API or a small JSON format; there is no
query-language parser. The catalog is data in that format:
fixtures/catalog.json holds one object per question, with "id", "case",
"prose", and the "select" and "where" that pattern_from_json reads.
Competency questions always run over the closure of their case fixture:
several answers exist only by shortcut contraction.
"""

from __future__ import annotations

import json
from collections import namedtuple
from importlib import resources
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

from .graph import (BlankNode, Graph, Iri, Literal, PrefixMap, Term, _ExactTuple,
                    _new_tuple, term_key, term_to_json)
from .vocab import NAMESPACES, VocabError, expand_curie

if TYPE_CHECKING:  # annotations only: a query over an asserted graph runs no reasoner
    from .reasoner import ClosureGraph


class QueryError(Exception):
    pass


class UnboundProjectionError(QueryError):
    pass


class UnknownQuestionError(QueryError):
    pass


class Var(_ExactTuple, namedtuple("Var", "name")):
    __slots__ = ()

    def __new__(cls, name: str) -> "Var":
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty str: {name!r}")
        return _new_tuple(cls, (name,))


class Inv(_ExactTuple, namedtuple("Inv", "path")):
    __slots__ = ()


class Seq(_ExactTuple, namedtuple("Seq", "first second")):
    __slots__ = ()


class Alt(_ExactTuple, namedtuple("Alt", "left right")):
    __slots__ = ()


class Plus(_ExactTuple, namedtuple("Plus", "path")):
    __slots__ = ()


PathExpr = Union[Iri, Inv, Seq, Alt, Plus]
PatternTerm = Union[Term, Var]
PatternTriple = tuple[PatternTerm, Union[Iri, PathExpr, Var], PatternTerm]


class Pattern(NamedTuple):
    triples: tuple[PatternTriple, ...]


class Solution(NamedTuple):
    """One binding set; immutable and hashable for set semantics."""
    bindings: tuple[tuple[str, Term], ...]

    @classmethod
    def of(cls, mapping: dict[str, Term]) -> "Solution":
        return cls(tuple(sorted(mapping.items())))


Pairs = set[tuple[Term, Term]]

_MAX_PATH_DEPTH = 100  # keeps decoding and _path_pairs inside the recursion limit


def _by_start(pairs: Pairs) -> dict[Term, list[Term]]:
    ends: dict[Term, list[Term]] = {}
    for a, b in pairs:
        ends.setdefault(a, []).append(b)
    return ends


def _join(left: Pairs, ends: dict[Term, list[Term]]) -> Pairs:
    """{(a, c) | (a, b) in left and c in ends[b]}."""
    return {(a, c) for a, b in left for c in ends.get(b, ())}


def _check_path(path, depth: int = 0) -> None:
    """QueryError unless path is a path over IRIs at most _MAX_PATH_DEPTH deep."""
    if depth > _MAX_PATH_DEPTH:
        raise QueryError(f"path expression nested deeper than {_MAX_PATH_DEPTH}")
    if isinstance(path, (Inv, Seq, Alt, Plus)):
        for x in path:
            _check_path(x, depth + 1)
    elif not isinstance(path, Iri):
        raise QueryError(f"bad path expression {path!r}")


def path_pairs(g: Graph, path: PathExpr) -> Pairs:
    """All (start, end) pairs related by the path over the graph."""
    _check_path(path)
    return _path_pairs(g, path)


def _path_pairs(g: Graph, path: PathExpr) -> Pairs:
    if isinstance(path, Iri):
        return {(t.subject, t.object) for t in g.match(p=path)}
    if isinstance(path, Inv):
        return {(b, a) for a, b in _path_pairs(g, path.path)}
    if isinstance(path, Seq):
        return _join(_path_pairs(g, path.first), _by_start(_path_pairs(g, path.second)))
    if isinstance(path, Alt):
        return _path_pairs(g, path.left) | _path_pairs(g, path.right)
    # Plus, semi-naive: each round extends by one step only the pairs the
    # last round found
    step = _path_pairs(g, path.path)
    ends, out, last = _by_start(step), set(step), step
    while last:
        last = _join(last, ends) - out
        out |= last
    return out


def evaluate(g: Graph, pattern: Pattern, projection: Iterable[Var]) -> set[Solution]:
    """Exactly the binding sets under which every pattern triple holds;
    QueryError for a pattern, triple or projection it cannot run. Each matched
    triple is planned once and binds only its free variables, the projected
    names are sorted once, and a path triple recomputes its pairs per binding."""
    try:
        triples, projection = tuple(pattern.triples), list(projection)
    except (AttributeError, TypeError):
        raise QueryError(f"cannot read pattern {pattern!r} or projection {projection!r}")
    for triple in triples:  # checked once here, not per binding
        s, p, o = triple if isinstance(triple, tuple) and len(triple) == 3 else (None,) * 3
        if not all(isinstance(x, (Iri, BlankNode, Literal, Var)) for x in (s, o)):
            raise QueryError(f"bad pattern triple {triple!r}")
        if not isinstance(p, Var):
            _check_path(p)
    pattern_vars = {x.name for t in triples for x in t if isinstance(x, Var)}
    for v in projection:
        if not isinstance(v, Var):
            raise QueryError(f"projection entry {v!r} is not a variable")
        if v.name not in pattern_vars:
            raise UnboundProjectionError(f"projected variable ?{v.name} "
                                         "does not occur in the pattern")

    def extend(binding: dict[str, Term],
               pairs: Iterable[tuple[PatternTerm, Term]]) -> Optional[dict[str, Term]]:
        nb = dict(binding)
        for slot, val in pairs:
            if isinstance(slot, Var):
                if slot.name in nb and nb[slot.name] != val:
                    return None
                nb[slot.name] = val
            elif slot != val:
                return None
        return nb

    bindings: list[dict[str, Term]] = [{}]
    for s, p, o in triples:
        next_bindings: list[dict[str, Term]] = []
        if isinstance(p, (Inv, Seq, Alt, Plus)):
            for binding in bindings:
                bs, bo = (binding.get(x.name, x) if isinstance(x, Var) else x for x in (s, o))
                for a, b in _path_pairs(g, p):
                    nb = extend(binding, ((bs, a), (bo, b)))
                    if nb is not None:
                        next_bindings.append(nb)
        else:  # planned once: every binding here binds what the first binds
            bound, known, free, same = (bindings or [{}])[0], [], [], []
            key = [None if isinstance(x, Var) else x for x in (s, p, o)]
            for i, x in enumerate((s, p, o)):
                if isinstance(x, Var):
                    if x.name in bound:
                        known.append((i, x.name))
                    elif x in (s, p, o)[:i]:  # a repeat must match its first position
                        same.append(((s, p, o).index(x), i))
                    else:
                        free.append((x.name, i))
            for binding in bindings:
                for i, name in known:
                    key[i] = binding[name]
                for t in g.match(*key):
                    if not same or all(t[i] == t[j] for i, j in same):
                        nb = binding.copy()
                        for name, i in free:
                            nb[name] = t[i]
                        next_bindings.append(nb)
        bindings = next_bindings
    names = sorted({v.name for v in projection})
    return {_new_tuple(Solution, (tuple([(n, b[n]) for n in names]),)) for b in bindings}


# ---------------------------------------------------------------------------
# JSON pattern format

def _term_from_json(value, prefixes: PrefixMap) -> PatternTerm:
    """The term or variable a JSON value names, else QueryError."""
    try:
        if isinstance(value, dict):
            if "lit" in value:
                lit, lang, dt = value["lit"], value.get("lang"), value.get("datatype")
                if not isinstance(dt, (str, type(None))):  # Literal checks lit and lang
                    raise QueryError(f"bad literal {value!r}")
                return Literal(lit, lang=lang,
                               datatype=None if dt is None else _resolve(dt, prefixes))
            raise QueryError(f"bad term object {value!r}")
        if not isinstance(value, str):
            raise QueryError(f"bad term {value!r}")
        if value.startswith("?"):
            return _var(value)
        if value.startswith("_:"):
            return BlankNode(value[2:])
        return _resolve(value, prefixes)
    except ValueError as exc:  # "_:" with no label, or a bad literal field
        raise QueryError(f"bad term {value!r}: {exc}")


def _var(value) -> Var:
    """The variable that "?name" names; a bare "?" names none."""
    if not (isinstance(value, str) and value.startswith("?")):
        raise QueryError(f"bad variable {value!r}")
    if value == "?":
        raise QueryError("variable '?' has no name")
    return Var(value[1:])


def _resolve(value: str, prefixes: PrefixMap) -> Iri:
    try:
        if value.startswith("<") and value.endswith(">"):
            return Iri(value[1:-1])
        if "://" in value:
            return Iri(value)
        return expand_curie(value, prefixes)
    except ValueError as exc:  # <text> that is no absolute IRI
        raise QueryError(f"bad IRI {value!r}: {exc}")
    except VocabError as exc:  # each names the CURIE
        raise QueryError(str(exc))


def _balanced(node, parts: list):
    """parts folded under an associative binary node into a tree of
    logarithmic depth."""
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return node(_balanced(node, parts[:mid]), _balanced(node, parts[mid:]))


def _path_from_json(value, prefixes: PrefixMap, depth: int = 0):
    if depth > _MAX_PATH_DEPTH:
        raise QueryError(f"path expression nested deeper than {_MAX_PATH_DEPTH}")
    if isinstance(value, str):
        if value.startswith("?"):
            if depth:
                raise QueryError(f"variable {value} inside a path expression: "
                                 "only a bare predicate may be a variable")
            return _var(value)
        return _resolve(value, prefixes)
    if isinstance(value, dict):
        if "inv" in value:
            return Inv(_path_from_json(value["inv"], prefixes, depth + 1))
        if "plus" in value:
            return Plus(_path_from_json(value["plus"], prefixes, depth + 1))
        for key, node, parts_name in (("seq", Seq, "steps"), ("alt", Alt, "branches")):
            if key in value:
                if not isinstance(value[key], list):
                    raise QueryError(f"{key} needs a list of {parts_name}")
                parts = [_path_from_json(v, prefixes, depth + 1) for v in value[key]]
                if len(parts) < 2:
                    raise QueryError(f"{key} needs at least two {parts_name}")
                return _balanced(node, parts)
    raise QueryError(f"bad path expression {value!r}")


def pattern_from_json(doc: dict, prefixes: Optional[PrefixMap] = None
                      ) -> tuple[Pattern, list[Var]]:
    """The pattern and projection a JSON document describes, with CURIEs
    read under NAMESPACES and then prefixes; QueryError if it describes none."""
    merged = dict(NAMESPACES)
    if prefixes:
        merged.update(prefixes)
    try:
        select = doc["select"]
        where = doc["where"]
    except (TypeError, KeyError):
        raise QueryError('pattern JSON needs "select" and "where" keys')
    if not (isinstance(select, list) and isinstance(where, list)):
        raise QueryError('"select" and "where" must be lists')
    projection = [_var(v) for v in select]
    triples = []
    for row in where:
        if not (isinstance(row, list) and len(row) == 3):
            raise QueryError(f"bad pattern triple {row!r}")
        triples.append((_term_from_json(row[0], merged),
                        _path_from_json(row[1], merged),
                        _term_from_json(row[2], merged)))
    return Pattern(tuple(triples)), projection


def solutions_to_json(solutions: set[Solution]) -> list[dict]:
    """One row per solution, in term_key order of the bindings."""
    ordered = sorted(solutions, key=lambda s: [(k, term_key(v)) for k, v in s.bindings])
    return [{f"?{k}": term_to_json(v) for k, v in s.bindings} for s in ordered]


def solutions_from_json(rows: list[dict]) -> set[Solution]:
    """The solutions that solutions_to_json wrote; QueryError unless rows
    is a list of objects that bind "?name" keys to terms."""
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise QueryError("solutions must be a list of JSON objects")
    out = set()
    for row in rows:
        binding = {_var(k).name: _term_from_json(v, {}) for k, v in row.items()}
        if any(isinstance(term, Var) for term in binding.values()):
            raise QueryError(f"bad solution row {row!r}: a variable is no term")
        out.add(Solution.of(binding))
    return out


# ---------------------------------------------------------------------------
# competency questions

class CompetencyQuestion(NamedTuple):
    id: str
    case_id: str
    prose: str
    pattern: Pattern
    projection: tuple[Var, ...]


def cq_catalog() -> list[CompetencyQuestion]:
    """The questions of fixtures/catalog.json, in file order: each entry's
    "select" and "where" are a pattern_from_json document."""
    doc = json.loads((resources.files("iconmodel") / "fixtures" / "catalog.json"
                      ).read_text("utf-8"))
    return [CompetencyQuestion(e["id"], e["case"], e["prose"], pattern, tuple(projection))
            for e, (pattern, projection) in zip(doc, map(pattern_from_json, doc))]


def find_cq(cq_id: str) -> CompetencyQuestion:
    for cq in cq_catalog():
        if cq.id == cq_id:
            return cq
    raise UnknownQuestionError(f"unknown competency question {cq_id!r}")


def load_golden(case_id: str) -> dict[str, set[Solution]]:
    """The golden solutions shipped with a case, by question id;
    casebook.UnknownCaseError unless case_id names a shipped case."""
    from .casebook import case_meta  # case ids have one home; `cq list` loads no casebook
    text = (resources.files("iconmodel") / "fixtures"
            / f"{case_meta(case_id).id}.golden.json").read_text("utf-8")
    return {cq_id: solutions_from_json(rows) for cq_id, rows in json.loads(text).items()}


class CqResult(NamedTuple):
    solutions: set[Solution]
    matches_golden: bool


def check_cq(closure: ClosureGraph, cq: CompetencyQuestion,
             golden: dict[str, set[Solution]]) -> CqResult:
    """Evaluate a catalog question over its case closure and compare the
    result against its entry in the case's golden (from load_golden)."""
    solutions = evaluate(closure.graph(), cq.pattern, cq.projection)
    return CqResult(solutions, solutions == golden.get(cq.id, set()))


def run_cq(closure: ClosureGraph, cq_id: str) -> CqResult:
    """Evaluate one catalog question over a case closure and compare the
    result against the golden solution set shipped with the fixture."""
    cq = find_cq(cq_id)
    return check_cq(closure, cq, load_golden(cq.case_id))
