#!/usr/bin/env python3
"""Time the ingest stages of this checkout against another checkout's.

Loads this checkout's iconmodel and the one under OLD_SRC (for example an
older commit unpacked with `git archive`) under two different package
names, so one process holds both. Each run times the lexer (turtle_io's
_tokens), parse_turtle, close, validate, serialize_turtle,
isomorphic(G, G) and casebook.level_of over every non-literal subject
or object of the closure, on the casebook x SCALE (perfbench's
scaled_document) for both trees, alternating which goes first. The
closure has no blank nodes, so isomorphic(G, G) never reaches the
blank-node search; the "blank-iso" stage does what perfbench's author
workload does. Once per tree, it expands 20 shortcuts of the closure (a seeded sample, or all of
them where there are fewer, as at SCALE 1) into blank recognition nodes,
closes again and serializes that closure. Each run parses the text
back and times isomorphic against that closure (True) plus against a
copy whose first icon:assignsTo edge is moved (False). It checks that
both trees serialize the closure to the same text, give the same
validation report (to_json) and the same level for every node, record
the same derivation (rule and premises, each triple compared by the
term_key of its terms) for every inferred triple, derive the inferred
triples in the same order (the closure's provenance order), iterate the
closure store in the same order (which holds only if every term and
triple hashes the same in both) and give the same two blank-iso
answers, and exits 1 if they do not; "ingest" is the sum of parse,
close, validate and serialize. The store order follows the triples'
hashes, so it barely shows a change in the order the engine derives in;
the provenance order shows it. The casebook asserts no rdfs:subClassOf
or rdfs:subPropertyOf edge, so before timing, both trees also close 200
seeded random graphs that assert such edges and derive more, under the
default, R5 and hierarchy-only rule sets, and the script exits 1 unless
every closure, derivation, derivation order and store order is
identical. Before it exits, it prints how many closures differ in their
triple sets, in their store order and in their derivation order, and
how many inferred triples in their derivations.
Interleaving in one process keeps drift in machine speed from landing on
one tree only. Prints the median milliseconds of each stage per tree,
with each tree's first and third quartiles beside it, and marks the stage
"unresolved" when the two trees' interquartile ranges overlap: those runs
cannot tell the trees apart. It prints the median milliseconds of cyclic
garbage collection inside each stage
(from gc.callbacks): a collection runs when allocations cross a threshold,
so a stage can pay for garbage an earlier stage left. An untimed
gc.collect() before each run starts every run, of either tree, from the
same collector state, so one tree's garbage is not collected inside the
other's stages. Last, for each tree, the tracemalloc bytes that one
ingest result holds (the parse result, closure, validation report and
serialized text, which perfbench's ingest loop keeps until the next
operation), and each ingest stage's traced peak above the operation's
start while the previous result is still held. The largest of these is
the operation's peak, so it shows which stage sets it.

Each run also evaluates, over the tree's own x SCALE closure, each of
that tree's cq_catalog() questions (whose data constants name copy 0)
and each of perfbench's scaled.path_patterns(). Those patterns are built
with this checkout's classes, so each is rebuilt for each tree from the
tree's Var, Inv, Seq, Alt, Plus, Pattern and Iri classes, node by class
name. The script compares every question's and pattern's solution set,
each binding's term by the tree's term_key, exits 1 on any difference,
and prints the median milliseconds of each question and pattern per tree,
with quartiles and the "unresolved" mark as for the stages.

    python3 scripts/stage_times_against.py OLD_SRC [SCALE] [RUNS]

SCALE defaults to 50 and RUNS to 12.
"""

import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from scaled import path_patterns, scaled_document  # noqa: E402

# the default, R5 and hierarchy-only rule sets, as RuleSet keyword arguments
RULE_SETS = ({}, {"domain_range_typing": True}, {"shortcut_contraction": False})
STAGES = ("lex", "parse", "close", "validate", "serialize", "isomorphic", "blank-iso",
          "level_of", "ingest")
INGEST = ("parse", "close", "validate", "serialize")  # one perfbench ingest operation


class GcClock:
    """Milliseconds spent in cyclic garbage collection, as a gc callback."""

    def __init__(self):
        self.ms = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.ms += (time.perf_counter() - self._start) * 1000


def compared(old: list[float], new: list[float], digits: int) -> str:
    """Both trees' median milliseconds, the change, and each tree's first
    and third quartiles, marked "unresolved" when those ranges overlap."""
    (o1, o2, o3), (n1, n2, n3) = (statistics.quantiles(xs, n=4, method="inclusive")
                                  if len(xs) > 1 else xs * 3 for xs in (old, new))
    mark = "  unresolved" if o1 <= n3 and n1 <= o3 else ""
    f = f".{digits}f"
    return (f"{o2:9{f}} -> {n2:9{f}}  ({n2 / o2 - 1:+4.0%})"
            f"  IQR [{o1:{f}}, {o3:{f}}] -> [{n1:{f}}, {n3:{f}}]{mark}")


def load_as(name: str, src: Path):
    """The iconmodel package under src, imported as the package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "iconmodel" / "__init__.py",
        submodule_search_locations=[str(src / "iconmodel")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("casebook", "graph", "query", "reasoner", "shapes", "turtle_io",
                      "vocab")}


def rebuilt(tree, node):
    """A pattern, projection or path built with this checkout's classes,
    rebuilt with tree's classes of the same names."""
    name = type(node).__name__
    if name == "Iri":
        return tree["graph"].Iri(str(node))
    if name in ("Var", "Inv", "Seq", "Alt", "Plus", "Pattern"):
        return getattr(tree["query"], name)(*(rebuilt(tree, x) for x in node))
    if isinstance(node, tuple):
        return tuple(rebuilt(tree, x) for x in node)
    return node  # a variable's name


def queries(tree) -> dict:
    """Each of tree's catalog questions by id, then each perfbench path
    pattern by name, as (pattern, projection) under tree's classes."""
    out = {cq.id: (cq.pattern, cq.projection) for cq in tree["query"].cq_catalog()}
    out.update((name, rebuilt(tree, question)) for name, question in path_patterns().items())
    return out


def hierarchy_graph(tree, reg, rng: random.Random):
    """A random graph over registry terms and data nodes that asserts
    rdfs:subClassOf and rdfs:subPropertyOf edges, and declares two data
    properties sub-properties of those, so that more edges are derived.
    Terms are drawn from lists in IRI order, so both trees draw the same
    graph whatever order their registries list the terms in."""
    g, kind = tree["graph"], tree["vocab"].TermKind
    props = sorted(t.iri for t in reg.terms if t.kind is kind.PROPERTY)
    classes = sorted(t.iri for t in reg.terms if t.kind is kind.CLASS)
    nodes = [g.Iri(f"https://w3id.org/icon/data/random/n{i}") for i in range(8)]
    nodes += [g.BlankNode(f"x{i}") for i in range(3)]
    edges = [reg.iri("rdfs:subClassOf"), reg.iri("rdfs:subPropertyOf")]
    lifts = [g.Iri(f"https://w3id.org/icon/data/random/p{i}") for i in range(2)]
    triples = [g.Triple(p, edges[1], rng.choice(edges)) for p in lifts]
    for _ in range(rng.randrange(60)):
        roll = rng.random()
        if roll < 0.3:
            triples.append(g.Triple(rng.choice(nodes), g.RDF_TYPE, rng.choice(classes)))
        elif roll < 0.4:
            triples.append(g.Triple(rng.choice(classes), edges[0], rng.choice(classes)))
        elif roll < 0.5:
            triples.append(g.Triple(rng.choice(props), edges[1], rng.choice(props)))
        elif roll < 0.6:  # an edge derived along a lift
            terms = rng.choice((classes, props))
            triples.append(g.Triple(rng.choice(terms), rng.choice(lifts), rng.choice(terms)))
        elif roll < 0.7:
            triples.append(g.Triple(rng.choice(nodes), rng.choice(props + lifts),
                                    g.Literal(f"v{rng.randrange(5)}")))
        else:
            triples.append(g.Triple(rng.choice(nodes), rng.choice(props + lifts),
                                    rng.choice(nodes)))
    return g.Graph(triples).freeze()


def triple_key(tree):
    """A triple's key under tree: the term_key of each of its terms."""
    term_key = tree["graph"].term_key
    return lambda t: tuple(map(term_key, t))


def hierarchy_closures(tree, graphs: int = 200) -> tuple[list, int]:
    """For each seeded hierarchy_graph and rule set, the closure store's
    triple keys in iteration order, its derivations by triple key and its
    inferred triples' keys in derivation order; and the number of
    hierarchy edges the stores hold."""
    reg, key = tree["vocab"].build_registry(), triple_key(tree)
    edges = {reg.iri("rdfs:subClassOf"), reg.iri("rdfs:subPropertyOf")}
    out, held = [], 0
    for seed in range(graphs):
        g = hierarchy_graph(tree, reg, random.Random(seed))
        for rules in RULE_SETS:
            closure = tree["reasoner"].close(g, reg, tree["reasoner"].RuleSet(**rules))
            out.append(([key(t) for t in closure.graph()],
                        {key(t): (d.rule, tuple(map(key, d.premises)))
                         for t, d in closure.provenance.items()},
                        [key(t) for t in closure.provenance]))
            held += sum(t.predicate in edges for t in closure.graph())
    return out, held


def authored(tree, text: str, expansions: int = 20) -> tuple:
    """The closure of text with `expansions` shortcuts (at most all there
    are) expanded, that closure serialized, and its first expansion's
    icon:assignsTo edge moved to another entity, as perfbench's author
    workload builds them."""
    g, reg = tree["graph"], tree["vocab"].build_registry()
    parsed = tree["turtle_io"].parse_turtle(text)
    closure = tree["reasoner"].close(parsed.graph, reg)
    shortcut_iris = {reg.iri("icon:symbolizes"), reg.iri("icon:isDocumentOf")}
    shortcuts = sorted((t for t in closure.inferred if t.predicate in shortcut_iris), key=repr)
    full, deltas = closure.graph(), []
    for t in random.Random(0).sample(shortcuts, min(expansions, len(shortcuts))):
        deltas.append(tree["reasoner"].expand_shortcut(full, t, reg))
        full = g.union(full, deltas[-1])
    merged = g.Graph(u for d in deltas for u in d).freeze()
    full = tree["reasoner"].close(g.union(parsed.graph, merged), reg).graph()
    assigns_to = reg.iri("icon:assignsTo")
    edge = min((t for t in deltas[0] if t.predicate == assigns_to), key=repr)
    target = next(t.subject for t in shortcuts if t.subject != edge.object)
    moved = g.Triple(edge.subject, assigns_to, target)
    return full, tree["turtle_io"].serialize_turtle(full, tree["vocab"].NAMESPACES), edge, moved


def run_once(tree, text: str, session: tuple, asked: dict,
             clock: GcClock) -> tuple[dict, dict, tuple, tuple, list, tuple, dict]:
    """Milliseconds per stage, milliseconds of garbage collection per stage,
    the outputs (the serialized closure, its validation report as JSON and
    the level's value per node, by term_key), the closure's provenance
    keyed by triple key with the inferred triples' keys in derivation
    order, the key of each closure triple in the store's iteration order,
    the two blank-iso answers, and the sorted solutions (each binding's
    term by term_key) of each query in asked, which also times each under
    its label. session is authored(tree, text), and asked is queries(tree)."""
    reg = tree["vocab"].build_registry()
    shapes = tree["shapes"].default_shapes(reg)
    ms, gc_ms = {}, {}

    def timed(stage, f, *args):
        gc_before = clock.ms
        start = time.perf_counter()
        out = f(*args)
        ms[stage] = (time.perf_counter() - start) * 1000
        gc_ms[stage] = clock.ms - gc_before
        return out

    timed("lex", tree["turtle_io"]._tokens, text)
    parsed = timed("parse", tree["turtle_io"].parse_turtle, text)
    closure = timed("close", tree["reasoner"].close, parsed.graph, reg)
    full = closure.graph()
    report = timed("validate", tree["shapes"].validate, full, shapes, reg)
    out = timed("serialize", tree["turtle_io"].serialize_turtle, full,
                tree["vocab"].NAMESPACES)
    key, level_of = tree["graph"].term_key, tree["casebook"].level_of
    nodes = sorted({n for t in full for n in (t.subject, t.object)
                    if not isinstance(n, tree["graph"].Literal)}, key=key)
    levels = timed("level_of", lambda: [level_of(closure, n) for n in nodes])
    outputs = (out, report.to_json(), [(key(n), lv.value) for n, lv in zip(nodes, levels)])
    for by_stage in (ms, gc_ms):
        by_stage["ingest"] = sum(by_stage[stage] for stage in INGEST)
    if not timed("isomorphic", tree["graph"].isomorphic, full, full):
        raise SystemExit("isomorphic(G, G) is False")
    session_full, session_text, edge, moved = session
    back = tree["turtle_io"].parse_turtle(session_text).graph
    changed = tree["graph"].Graph([t for t in session_full if t != edge] + [moved]).freeze()
    answers = timed("blank-iso", lambda: (tree["graph"].isomorphic(back, session_full),
                                          tree["graph"].isomorphic(back, changed)))
    solutions = {}
    for label, (pattern, projection) in asked.items():
        answer = timed(label, tree["query"].evaluate, full, pattern, projection)
        solutions[label] = sorted(tuple((name, key(term)) for name, term in s.bindings)
                                  for s in answer)
    key = triple_key(tree)
    derivations = ({key(t): (d.rule, tuple(map(key, d.premises)))
                    for t, d in closure.provenance.items()},
                   [key(t) for t in closure.provenance])
    return ms, gc_ms, outputs, derivations, [key(t) for t in full], answers, solutions


def ingest_memory(tree, text: str) -> tuple[int, dict[str, int]]:
    """Bytes that tracemalloc sees held by one ingest result, and each
    ingest stage's traced peak above the operation's start. A previous
    result is held throughout, as perfbench's ingest loop holds it, and
    the peak of the operation is the largest stage's. Run after the timed
    runs, so that caches filled on a first run are not counted."""
    reg = tree["vocab"].build_registry()
    shapes = tree["shapes"].default_shapes(reg)
    peaks: dict[str, int] = {}

    def stage(name, f, *args):
        tracemalloc.reset_peak()
        out = f(*args)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        return out

    def ingest(timed):
        parsed = timed("parse", tree["turtle_io"].parse_turtle, text)
        closure = timed("close", tree["reasoner"].close, parsed.graph, reg)
        full = closure.graph()
        report = timed("validate", tree["shapes"].validate, full, shapes, reg)
        out = timed("serialize", tree["turtle_io"].serialize_turtle, full,
                    tree["vocab"].NAMESPACES)
        return parsed, closure, report, out

    previous = ingest(lambda name, f, *args: f(*args))  # noqa: F841 (held)
    gc.collect()
    tracemalloc.start()
    try:
        result = ingest(stage)  # noqa: F841 (held)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held, peaks


def main(old_src: str, scale: int = 50, runs: int = 12) -> int:
    trees = {"old": load_as("old_iconmodel", Path(old_src)),
             "new": load_as("new_iconmodel", ROOT / "src")}
    (old, held), (new, _) = (hierarchy_closures(tree) for tree in trees.values())
    if old != new:
        pairs = list(zip(old, new))
        differ = sum(a != b for a, b in pairs)
        sets = sum(set(a[0]) != set(b[0]) for a, b in pairs)
        derivations = sum(a[1].get(t) != b[1].get(t)
                          for a, b in pairs for t in a[1].keys() | b[1].keys())
        orders = sum(a[0] != b[0] for a, b in pairs)
        derived = sum(a[2] != b[2] for a, b in pairs)
        print(f"the trees close {differ} of {len(old)} random hierarchy graphs differently: "
              f"{sets} closures differ in their triple sets, {orders} in their store "
              f"order and {derived} in their derivation order, and {derivations} "
              "inferred triples in their derivations")
        return 1
    print(f"{len(old)} closures of random hierarchy graphs ({held} hierarchy edges in "
          "their stores): stores, store order, derivations and derivation order identical")
    text = scaled_document(scale)
    sessions = {name: authored(tree, text) for name, tree in trees.items()}
    asked = {name: queries(tree) for name, tree in trees.items()}
    labels = list(asked["new"])
    if list(asked["old"]) != labels:
        print(f"the trees ask different questions: old {list(asked['old'])}, new {labels}")
        return 1
    times = {name: {stage: [] for stage in (*STAGES, *labels)} for name in trees}
    gc_times = {name: {stage: [] for stage in (*STAGES, *labels)} for name in trees}
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        for i in range(runs):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            outputs, derivations, orders, answers, solutions = {}, {}, {}, {}, {}
            for name in order:
                gc.collect()
                (ms, gc_ms, outputs[name], derivations[name], orders[name], answers[name],
                 solutions[name]) = run_once(trees[name], text, sessions[name], asked[name],
                                             clock)
                for stage in (*STAGES, *labels):
                    times[name][stage].append(ms[stage])
                    gc_times[name][stage].append(gc_ms[stage])
            for what, old, new in zip(("serialize the closure", "validate the closure",
                                       "classify the closure's nodes"),
                                      outputs["old"], outputs["new"]):
                if old != new:
                    print(f"the trees {what} differently")
                    return 1
            (old, old_order), (new, new_order) = derivations["old"], derivations["new"]
            if old != new:
                differ = sum(old.get(t) != new.get(t) for t in old.keys() | new.keys())
                print(f"the trees record different derivations for {differ} inferred triples")
                return 1
            if old_order != new_order:
                print("the trees derive the inferred triples in different orders")
                return 1
            if orders["old"] != orders["new"]:
                print("the trees iterate the closure store in different orders")
                return 1
            if answers["old"] != answers["new"]:
                print(f"the trees answer blank-iso differently: old {answers['old']}, "
                      f"new {answers['new']}")
                return 1
            differ = [label for label in labels
                      if solutions["old"][label] != solutions["new"][label]]
            if differ:
                print(f"the trees answer {', '.join(differ)} differently")
                return 1
    finally:
        gc.callbacks.remove(clock)
    print(f"x{scale}, {runs} runs each; closures, validation reports, levels of "
          f"{len(outputs['new'][2])} nodes, derivations, derivation order, iteration order, "
          f"blank-iso answers {answers['new']} and the solutions of {len(labels)} queries "
          "identical; median ms (old -> new), each tree's quartiles, "
          "and median ms in cyclic GC")
    for stage in STAGES:
        gc_old, gc_new = (statistics.median(gc_times[name][stage]) for name in ("old", "new"))
        print(f"  {stage:<10} {compared(times['old'][stage], times['new'][stage], 1)}"
              f"   gc {gc_old:6.1f} -> {gc_new:6.1f}")
    print("  median ms per catalog question and path pattern, quartiles (solutions):")
    for label in labels:
        print(f"  {label:<20} {compared(times['old'][label], times['new'][label], 3)}"
              f"   ({len(solutions['new'][label])})")
    (old_held, old_peaks), (new_held, new_peaks) = (ingest_memory(trees[name], text)
                                                    for name in ("old", "new"))
    print(f"  one ingest result holds {old_held / 1e6:.1f} -> {new_held / 1e6:.1f} MB"
          f" ({new_held / old_held - 1:+.0%}); traced peak above the operation's start,"
          " with the previous result held:")
    for stage in INGEST:
        old, new = old_peaks[stage] / 1e6, new_peaks[stage] / 1e6
        print(f"  {stage:<10} {old:9.1f} -> {new:9.1f} MB ({new / old - 1:+4.0%})")
    return 0


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 4:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], *(int(a) for a in sys.argv[2:])))
