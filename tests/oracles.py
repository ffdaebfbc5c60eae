"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: whole-set
re-scanning instead of worklists, exhaustive assignment enumeration
instead of index joins. The tests treat agreement between these oracles
and the library as the correctness criterion.
"""

from __future__ import annotations

import itertools
import re

from iconmodel.casebook import InterpretationLevel
from iconmodel.graph import (XSD_STRING, BlankNode, Graph, GraphError, Iri, Literal,
                             Term, Triple, term_key)
from iconmodel.query import Alt, Inv, Pattern, Plus, Seq, Var
from iconmodel.reasoner import RuleSet
from iconmodel.shapes import Severity
from iconmodel.turtle_io import RDF_TYPE, _lex_error, _lexes_as
from iconmodel.vocab import (DATA_NAMESPACE, AxiomKind, Direction, TermRegistry,
                             curie_to_iri)


def naive_close(base: Graph, reg: TermRegistry, rules: RuleSet) -> set[Triple]:
    """Fixpoint by re-running every rule over the whole set each pass."""
    sub_class_of = reg.iri("rdfs:subClassOf")
    sub_property_of = reg.iri("rdfs:subPropertyOf")

    ax_sub_c = [(a.subject, a.object) for a in reg.axioms
                if a.kind is AxiomKind.SUB_CLASS_OF]
    ax_sub_p = [(a.subject, a.object) for a in reg.axioms
                if a.kind is AxiomKind.SUB_PROPERTY_OF]
    ax_domain = [(a.subject, a.object) for a in reg.axioms
                 if a.kind is AxiomKind.DOMAIN]
    ax_range = [(a.subject, a.object) for a in reg.axioms
                if a.kind is AxiomKind.RANGE]

    out: set[Triple] = set(base)
    while True:
        new: set[Triple] = set()
        asserted_sub_c = [(t.subject, t.object) for t in out
                          if t.predicate == sub_class_of
                          and isinstance(t.subject, Iri) and isinstance(t.object, Iri)]
        asserted_sub_p = [(t.subject, t.object) for t in out
                          if t.predicate == sub_property_of
                          and isinstance(t.subject, Iri) and isinstance(t.object, Iri)]
        if rules.hierarchy:
            for a, b in asserted_sub_c:
                for c, d in asserted_sub_c:
                    if b == c:
                        new.add(Triple(a, sub_class_of, d))
            for a, b in asserted_sub_p:
                for c, d in asserted_sub_p:
                    if b == c:
                        new.add(Triple(a, sub_property_of, d))
            for t in out:
                if t.predicate == RDF_TYPE and isinstance(t.object, Iri):
                    for c, d in ax_sub_c + asserted_sub_c:
                        if t.object == c:
                            new.add(Triple(t.subject, RDF_TYPE, d))
                for p, q in ax_sub_p + asserted_sub_p:
                    if t.predicate == p:
                        new.add(Triple(t.subject, q, t.object))
        if rules.domain_range_typing:
            for t in out:
                for p, c in ax_domain:
                    if t.predicate == p:
                        new.add(Triple(t.subject, RDF_TYPE, c))
                for p, c in ax_range:
                    if t.predicate == p and not isinstance(t.object, Literal):
                        new.add(Triple(t.object, RDF_TYPE, c))
        if rules.shortcut_contraction:
            for prop, spec in reg.shortcuts():
                (p1, d1), (p2, d2) = spec.steps
                ends = None if spec.object_class is None else typed(out, spec.object_class)
                for r in typed(out, spec.through_class):
                    # x reaches r along the first step, r reaches m along the second
                    for x in walk(out, r, p1, d1 is not Direction.FORWARD):
                        for m in walk(out, r, p2, d2 is Direction.FORWARD):
                            if not isinstance(x, Literal) and (ends is None or m in ends):
                                new.add(Triple(x, prop, m))
        if new <= out:
            return out
        out |= new


def typed(triples, cls: Iri) -> set[Term]:
    return {t.subject for t in triples if t.predicate == RDF_TYPE and t.object == cls}


def walk(triples, a: Term, p: Iri, forward: bool) -> list[Term]:
    """Every b with (a p b) when forward, else every b with (b p a)."""
    if forward:
        return [t.object for t in triples if t.subject == a and t.predicate == p]
    return [t.subject for t in triples if t.object == a and t.predicate == p]


def shortcut_rule_ids(reg: TermRegistry) -> dict:
    """R6-<local name> per shortcut declaration, with an is...Of wrapper
    dropped (isDocumentOf -> R6-document), mapped to (property, PathSpec)."""
    out = {}
    for prop, spec in reg.shortcuts():
        local = prop.value.replace("#", "/").split("/")[-1]
        if local.startswith("is") and local.endswith("Of") and local[2:3].isupper():
            local = local[2:-2].lower()
        out["R6-" + local] = (prop, spec)
    return out


def check_derivations(base: Graph, provenance: dict, reg: TermRegistry,
                      rules: RuleSet) -> list[str]:
    """Check every recorded derivation against its rule id, with the rules
    written out and each R6 rule read from the registry's shortcut
    declaration. Each premise must be asserted or recorded earlier in
    provenance. Returns one line per fault."""
    sub_class_of = reg.iri("rdfs:subClassOf")
    sub_property_of = reg.iri("rdfs:subPropertyOf")
    shortcuts = shortcut_rule_ids(reg)

    def reachable(kind: AxiomKind) -> set[tuple[Iri, Iri]]:
        pairs = {(a.subject, a.object) for a in reg.axioms if a.kind is kind}
        while True:
            longer = pairs | {(a, d) for a, b in pairs for c, d in pairs if b == c}
            if longer == pairs:
                return pairs
            pairs = longer

    ax_sub_c = reachable(AxiomKind.SUB_CLASS_OF)
    ax_sub_p = reachable(AxiomKind.SUB_PROPERTY_OF)
    ax_domain = {(a.subject, a.object) for a in reg.axioms if a.kind is AxiomKind.DOMAIN}
    ax_range = {(a.subject, a.object) for a in reg.axioms if a.kind is AxiomKind.RANGE}

    def hierarchy_edge(t: Triple, p: Iri) -> bool:
        return (t.predicate == p and isinstance(t.subject, Iri)
                and isinstance(t.object, Iri))

    def transitive(c: Triple, ps: tuple, p: Iri) -> bool:
        return (len(ps) == 2 and c.predicate == p
                and all(hierarchy_edge(x, p) for x in ps)
                and ps[0].object == ps[1].subject and c.subject == ps[0].subject
                and c.object == ps[1].object)

    def typing(x: Triple, cls: Iri) -> bool:
        return x.predicate == RDF_TYPE and x.object == cls

    def spo(t: Triple) -> tuple:
        return (t.subject, t.predicate, t.object)

    def step(a: Term, p: Iri, d: Direction, b: Term) -> tuple:
        return (a, p, b) if d is Direction.FORWARD else (b, p, a)

    def shortcut(c: Triple, ps: tuple, prop: Iri, spec) -> bool:
        needs_object_class = spec.object_class is not None
        if len(ps) != 3 + needs_object_class or c.predicate != prop:
            return False
        (p1, d1), (p2, d2) = spec.steps
        r, x, m = ps[0].subject, c.subject, c.object
        return (typing(ps[0], spec.through_class) and not isinstance(x, Literal)
                and spo(ps[1]) == step(x, p1, d1, r) and spo(ps[2]) == step(r, p2, d2, m)
                and (not needs_object_class
                     or spo(ps[3]) == (m, RDF_TYPE, spec.object_class)))

    def licensed(rule: str, c: Triple, ps: tuple) -> bool:
        one = ps[0] if len(ps) == 1 else None
        if rule == "R1":
            return rules.hierarchy and transitive(c, ps, sub_class_of)
        if rule == "R3":
            return rules.hierarchy and transitive(c, ps, sub_property_of)
        if rule == "R2-axiom":
            return (rules.hierarchy and one is not None and one.predicate == RDF_TYPE
                    and c.subject == one.subject and c.predicate == RDF_TYPE
                    and (one.object, c.object) in ax_sub_c)
        if rule == "R4-axiom":
            return (rules.hierarchy and one is not None
                    and (c.subject, c.object) == (one.subject, one.object)
                    and (one.predicate, c.predicate) in ax_sub_p)
        if rule == "R2":
            return (rules.hierarchy and len(ps) == 2
                    and hierarchy_edge(ps[1], sub_class_of)
                    and ps[0] == Triple(c.subject, RDF_TYPE, ps[1].subject)
                    and c == Triple(c.subject, RDF_TYPE, ps[1].object))
        if rule == "R4":
            return (rules.hierarchy and len(ps) == 2
                    and hierarchy_edge(ps[1], sub_property_of)
                    and ps[0].predicate == ps[1].subject
                    and c == Triple(ps[0].subject, ps[1].object, ps[0].object))
        if rule == "R5-domain":
            return (rules.domain_range_typing and one is not None
                    and c.subject == one.subject and c.predicate == RDF_TYPE
                    and (one.predicate, c.object) in ax_domain)
        if rule == "R5-range":
            return (rules.domain_range_typing and one is not None
                    and not isinstance(one.object, Literal)
                    and c.subject == one.object and c.predicate == RDF_TYPE
                    and (one.predicate, c.object) in ax_range)
        if rule in shortcuts:
            return rules.shortcut_contraction and shortcut(c, ps, *shortcuts[rule])
        return False

    faults = []
    seen = set(base)
    for conclusion, deriv in provenance.items():
        if conclusion in base:
            faults.append(f"{conclusion!r} is asserted but has a derivation")
        for premise in deriv.premises:
            if premise not in seen:
                faults.append(f"{conclusion!r}: premise {premise!r} is neither "
                              "asserted nor derived earlier")
        if not licensed(deriv.rule, conclusion, deriv.premises):
            faults.append(f"{conclusion!r}: {deriv.rule} does not license it "
                          f"from {deriv.premises!r}")
        seen.add(conclusion)
    return faults


def oracle_level_of(triples: set[Triple], node: Term) -> InterpretationLevel:
    """The four-level classifier with its recognition rules written out
    for the shipped vocabulary, scanning the whole triple set each time."""
    phenomenon = curie_to_iri("icon:CulturalPhenomenon")
    recognition = curie_to_iri("icon:IconologicalRecognition")
    assigned = curie_to_iri("icon:assigned")
    e28 = curie_to_iri("crm:E28_Conceptual_Object")

    def types_of(n: Term) -> set[Term]:
        return {t.object for t in triples if t.subject == n and t.predicate == RDF_TYPE}

    types = types_of(node)
    meanings = {t.object for t in triples if t.subject == node and t.predicate == assigned}
    if phenomenon in types:
        return InterpretationLevel.LEV4
    if recognition in types and any(phenomenon in types_of(m) for m in meanings):
        return InterpretationLevel.LEV4
    is_assigned_object = any(t.predicate == assigned and t.object == node for t in triples)
    if e28 in types and is_assigned_object:
        return InterpretationLevel.LEV3
    if recognition in types and any(phenomenon not in types_of(m) and e28 in types_of(m)
                                    for m in meanings):
        return InterpretationLevel.LEV3
    lev2 = ("vir:IC9_Representation", "vir:IC10_Attribute", "vir:IC11_Personification",
            "vir:IC16_Character", "vir:IC12_Visual_Recognition")
    if any(curie_to_iri(c) in types for c in lev2):
        return InterpretationLevel.LEV2
    if curie_to_iri("vir:IC1_Iconographical_Atom") in types:
        return InterpretationLevel.LEV1
    return InterpretationLevel.UNCLASSIFIED


def oracle_validate(triples: set[Triple], reg: TermRegistry
                    ) -> set[tuple[Term, str, Severity]]:
    """(focus, shape id, severity) of every failure of the nine shapes,
    each written out from its report message by whole-set scans."""
    def i(curie: str) -> Iri:
        return reg.iri(curie)

    def instances(cls: Iri) -> set[Term]:
        return {t.subject for t in triples
                if t.predicate == RDF_TYPE and t.object == cls}

    def has_value(node: Term, p: Iri) -> bool:
        return any(t.subject == node and t.predicate == p for t in triples)

    def typed_one_of(node: Term, classes: set[Iri]) -> bool:
        return any(t.subject == node and t.predicate == RDF_TYPE and t.object in classes
                   for t in triples)

    def subjects(p: Iri) -> set[Term]:
        return {t.subject for t in triples if t.predicate == p}

    def objects(p: Iri) -> set[Term]:
        return {t.object for t in triples if t.predicate == p}

    def unregistered(x: Iri) -> bool:
        return not reg.is_registered(x) and not x.value.startswith(DATA_NAMESPACE)

    out: set[tuple[Term, str, Severity]] = set()
    # S1 both icon:assignsTo and icon:assigned; S2 an actor via P14
    for r in instances(i("icon:IconologicalRecognition")):
        if not (has_value(r, i("icon:assignsTo")) and has_value(r, i("icon:assigned"))):
            out.add((r, "S1", Severity.VIOLATION))
        if not has_value(r, i("crm:P14_carried_out_by")):
            out.add((r, "S2", Severity.WARNING))
    refers, motifs = i("icon:symbolicallyRefersTo"), i("icon:showsMotifsOf")
    typed_ends = [
        ("S3", subjects(refers) | objects(refers), {i("crm:E5_Event")}),
        ("S4", subjects(motifs) | objects(motifs), {i("crm:E28_Conceptual_Object")}),
        ("S5", objects(i("icon:isDocumentOf")), {i("icon:CulturalPhenomenon")}),
        ("S6", objects(i("icon:hasIdentifyingAttribute")), {i("vir:IC10_Attribute")}),
        ("S7", subjects(i("icon:symbolizes")),
         {i("vir:IC9_Representation"), i("vir:IC10_Attribute"),
          i("vir:IC11_Personification"), i("vir:IC16_Character")}),
    ]
    for shape_id, ends, classes in typed_ends:
        for node in ends:
            # a literal is never the subject of an rdf:type triple
            if not typed_one_of(node, classes):
                out.add((node, shape_id, Severity.VIOLATION))
    # S8 a visual recognition cites a source
    for v in instances(i("vir:IC12_Visual_Recognition")):
        if not has_value(v, i("vir:K10_on_the_base_of")):
            out.add((v, "S8", Severity.WARNING))
    # S9 predicates and rdf:type classes outside the registry and data namespace
    for t in triples:
        if unregistered(t.predicate):
            out.add((t.predicate, "S9", Severity.WARNING))
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri) \
                and unregistered(t.object):
            out.add((t.object, "S9", Severity.WARNING))
    return out


def oracle_isomorphic(a: Graph, b: Graph) -> bool:
    """Try every bijection between the blank-node labels of a and b."""
    def labels(g):
        return sorted({n.label for t in g for n in (t.subject, t.object)
                       if isinstance(n, BlankNode)})

    la, lb = labels(a), labels(b)
    if len(la) != len(lb):
        return False
    target = set(b)
    for image in itertools.permutations(lb):
        m = dict(zip(la, image))

        def rename(n):
            return BlankNode(m[n.label]) if isinstance(n, BlankNode) else n

        if {Triple(rename(t.subject), t.predicate, rename(t.object)) for t in a} == target:
            return True
    return False


def oracle_path_pairs(triples: set[Triple], path) -> set[tuple[Term, Term]]:
    if isinstance(path, Iri):
        return {(t.subject, t.object) for t in triples if t.predicate == path}
    if isinstance(path, Inv):
        return {(b, a) for a, b in oracle_path_pairs(triples, path.path)}
    if isinstance(path, Seq):
        left = oracle_path_pairs(triples, path.first)
        right = oracle_path_pairs(triples, path.second)
        return {(a, d) for a, b in left for c, d in right if b == c}
    if isinstance(path, Alt):
        return (oracle_path_pairs(triples, path.left)
                | oracle_path_pairs(triples, path.right))
    if isinstance(path, Plus):
        base = oracle_path_pairs(triples, path.path)
        # repeated squaring to the transitive closure
        out = set(base)
        while True:
            squared = out | {(a, d) for a, b in out for c, d in out if b == c}
            if squared == out:
                return out
            out = squared
    raise TypeError(f"bad path {path!r}")


def brute_evaluate(g: Graph, pattern: Pattern, projection: list[Var]
                   ) -> set[tuple]:
    """Enumerate every assignment of pattern variables over the graph's
    term universe and keep those satisfying all triples. Returns projected
    binding tuples keyed by the sorted distinct projected names."""
    triples = set(g)
    universe = sorted(g.terms(), key=repr)
    var_names: list[str] = []
    for s, p, o in pattern.triples:
        for x in (s, p, o):
            if isinstance(x, Var) and x.name not in var_names:
                var_names.append(x.name)
    path_cache = {i: oracle_path_pairs(triples, p)
                  for i, (s, p, o) in enumerate(pattern.triples)
                  if not isinstance(p, (Iri, Var))}

    def satisfied(binding: dict) -> bool:
        for i, (s, p, o) in enumerate(pattern.triples):
            bs = binding[s.name] if isinstance(s, Var) else s
            bo = binding[o.name] if isinstance(o, Var) else o
            if isinstance(p, (Iri, Var)):
                bp = binding[p.name] if isinstance(p, Var) else p
                try:
                    t = Triple(bs, bp, bo)
                except ValueError:
                    return False
                if t not in triples:
                    return False
            else:
                if (bs, bo) not in path_cache[i]:
                    return False
        return True

    names = sorted({v.name for v in projection})
    results: set[tuple] = set()

    def assign(i: int, binding: dict):
        if i == len(var_names):
            if satisfied(binding):
                results.add(tuple((name, binding[name]) for name in names))
            return
        for term in universe:
            binding[var_names[i]] = term
            assign(i + 1, binding)
        binding.pop(var_names[i], None)

    assign(0, {})
    return results


def count_fixture_statements(text: str) -> int:
    """Count distinct statement lines of a one-triple-per-line fixture,
    ignoring directives, comments, and blank lines."""
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("@"):
            continue
        seen.add(line)
    return len(seen)


# The token grammar of the Turtle subset, each pattern written the plain
# way and kept apart from turtle_io's _TABLE, whose patterns are shaped
# for the regex engine's speed: the lexer must read the same language.
ORACLE_TOKEN_PATTERNS = [
    ("IRIREF", r'<[^ \t\r\n<>"{}|^`]*>'),
    ("STRING", r'"(?!"")[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*"'),
    ("BLANK", r"_:[\w-]+"),
    ("PUNCT", r"[.;,\[\]]"),
    ("KEYWORD", r"@(?:prefix|base)(?![\w-])|a(?![\w-]|:)"),
    ("LANG", r"@[\w-]+"),
    ("DTSEP", r"\^\^"),
    # an optional prefix, ":", and a local name in which a "." must lead
    # to more name
    ("PNAME", r"(?:(?!_:)[^\W\d][\w-]*)?:[A-Za-z0-9_-]*(?:\.[A-Za-z0-9_-]+)*"),
    ("EOF", r"\Z"),
]


def oracle_tokens(text: str) -> list[str]:
    """The token texts of text, read one at a time and ending with the EOF
    token "": skip whitespace and comments character by character, then
    try each ORACLE_TOKEN_PATTERNS pattern on its own at that position and
    take the first that matches. A position where none matches, or a
    PNAME that starts with neither a letter, "_" nor ":" (such as "²x:o"),
    raises the ParseError that _lex_error gives for it."""
    patterns = [(kind, re.compile(pattern)) for kind, pattern in ORACLE_TOKEN_PATTERNS]
    tokens, pos = [], 0
    while True:
        while pos < len(text) and text[pos] in " \t\r\n#":
            if text[pos] == "#":
                end = text.find("\n", pos)
                pos = len(text) if end < 0 else end
            else:
                pos += 1
        for kind, pattern in patterns:
            m = pattern.match(text, pos)
            if m:
                break
        else:
            raise _lex_error(text, pos)
        token = m[0]
        if kind == "PNAME" and not (token[0].isalpha() or token[0] in "_:"):
            raise _lex_error(text, pos)
        tokens.append(token)
        if kind == "EOF":
            return tokens
        pos = m.end()


def oracle_serialize(triples, prefixes: dict[str, str]) -> str:
    """Turtle as serialize_turtle writes it, built the slow way: per
    subject, then per predicate, each sorted by term_key, rendering every
    term again wherever it is written and checking it with _lexes_as. So a
    graph with unreadable terms raises the GraphError of the first one met,
    and a subject is met after the predicates and objects of its block."""
    def unreadable(what) -> GraphError:
        return GraphError(f"cannot serialize {what}: the Turtle reader would not "
                          "read it back")

    def checked(kind: str, text: str, t) -> str:
        if not _lexes_as(kind, text):
            raise unreadable(repr(t))
        return text

    def iri(i: Iri) -> str:
        for ns, label in sorted(((ns, label) for label, ns in prefixes.items()),
                                key=lambda x: (-len(x[0]), x[1])):
            if i.startswith(ns) and _lexes_as("PNAME", f"{label}:{i[len(ns):]}"):
                return f"{label}:{i[len(ns):]}"
        return checked("IRIREF", f"<{i}>", i)

    def render(t: Term) -> str:
        if isinstance(t, Iri):
            return iri(t)
        if isinstance(t, BlankNode):
            return checked("BLANK", f"_:{t.label}", t)
        body = '"' + "".join({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                              "\t": "\\t"}.get(c, c) for c in t.lexical) + '"'
        if t.lang:
            return body + checked("LANG", f"@{t.lang}", t)
        if t.datatype not in (None, XSD_STRING):
            return body + "^^" + iri(t.datatype)
        return body

    for label, ns in prefixes.items():
        if not (_lexes_as("PNAME", f"{label}:") and _lexes_as("IRIREF", f"<{ns}>")):
            raise unreadable(f"prefix {label}: <{ns}>")
    triples = list(triples)
    blocks = []
    for s in sorted({t.subject for t in triples}, key=term_key):
        lines = []
        for p in sorted({t.predicate for t in triples if t.subject == s}, key=term_key):
            objects = sorted((t.object for t in triples if t.subject == s and t.predicate == p),
                             key=term_key)
            lines.append(("a" if p == RDF_TYPE else render(p)) + " "
                         + ", ".join(render(o) for o in objects))
        blocks.append(render(s) + " " + " ;\n    ".join(lines) + " .\n")
    head = "".join(f"@prefix {label}: <{ns}> .\n" for label, ns in sorted(prefixes.items()))
    return "\n".join(([head] if head else []) + blocks)
