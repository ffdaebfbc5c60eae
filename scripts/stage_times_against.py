#!/usr/bin/env python3
"""Time the ingest stages of this checkout against another checkout's.

Loads this checkout's iconmodel and the one under OLD_SRC (for example an
older commit unpacked with `git archive`) under two different package
names, so one process holds both. Each run times the lexer (turtle_io's
_tokens), parse_turtle, close, validate, serialize_turtle and
isomorphic(G, G) on the casebook x SCALE (perfbench's scaled_document)
for both trees, alternating which goes first. The closure has no blank
nodes, so isomorphic(G, G) never reaches the blank-node search; the
"blank-iso" stage does what perfbench's author workload does. Once per
tree, it expands 20 shortcuts of the closure (a seeded sample, or all of
them where there are fewer, as at SCALE 1) into blank recognition nodes,
closes again and serializes that closure. Each run parses the text
back and times isomorphic against that closure (True) plus against a
copy whose first icon:assignsTo edge is moved (False). It checks that
both trees serialize the closure to the same text, record the same
derivation (rule and premises, compared through triple_key) for every
inferred triple, iterate the closure store in the same order (which
holds only if every term and triple hashes the same in both) and give
the same two blank-iso answers, and exits 1 if they do not; "ingest" is
the sum of parse, close, validate and serialize. The casebook asserts no
rdfs:subClassOf or rdfs:subPropertyOf edge, so before timing, both trees
also close 200 seeded random graphs that assert such edges and derive
more, under the default, R5 and hierarchy-only rule sets, and the script
exits 1 unless every closure, derivation and store order is identical.
Interleaving in one process keeps drift in machine speed from landing on
one tree only. Prints the median milliseconds of each stage per tree, and
the median milliseconds of cyclic garbage collection inside each stage
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

from scaled import scaled_document  # noqa: E402

# the default, R5 and hierarchy-only rule sets, as RuleSet keyword arguments
RULE_SETS = ({}, {"domain_range_typing": True}, {"shortcut_contraction": False})
STAGES = ("lex", "parse", "close", "validate", "serialize", "isomorphic", "blank-iso",
          "ingest")
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


def load_as(name: str, src: Path):
    """The iconmodel package under src, imported as the package `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "iconmodel" / "__init__.py",
        submodule_search_locations=[str(src / "iconmodel")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("graph", "reasoner", "shapes", "turtle_io", "vocab")}


def hierarchy_graph(tree, reg, rng: random.Random):
    """A random graph over registry terms and data nodes that asserts
    rdfs:subClassOf and rdfs:subPropertyOf edges, and declares two data
    properties sub-properties of those, so that more edges are derived."""
    g, kind = tree["graph"], tree["vocab"].TermKind
    props = [t.iri for t in reg.terms if t.kind is kind.PROPERTY]
    classes = [t.iri for t in reg.terms if t.kind is kind.CLASS]
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


def hierarchy_closures(tree, graphs: int = 200) -> tuple[list, int]:
    """For each seeded hierarchy_graph and rule set, the closure store's
    triple_keys in iteration order and its derivations keyed by
    triple_key; and the number of hierarchy edges the stores hold."""
    reg, key = tree["vocab"].build_registry(), tree["graph"].triple_key
    edges = {reg.iri("rdfs:subClassOf"), reg.iri("rdfs:subPropertyOf")}
    out, held = [], 0
    for seed in range(graphs):
        g = hierarchy_graph(tree, reg, random.Random(seed))
        for rules in RULE_SETS:
            closure = tree["reasoner"].close(g, reg, tree["reasoner"].RuleSet(**rules))
            out.append(([key(t) for t in closure.graph()],
                        {key(t): (d.rule, tuple(map(key, d.premises)))
                         for t, d in closure.provenance.items()}))
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


def run_once(tree, text: str, session: tuple,
             clock: GcClock) -> tuple[dict, dict, str, dict, list, tuple]:
    """Milliseconds per stage, milliseconds of garbage collection per stage,
    the serialized closure, its provenance keyed by triple_key, the
    triple_key of each closure triple in the store's iteration order, and
    the two blank-iso answers. session is authored(tree, text)."""
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
    timed("validate", tree["shapes"].validate, full, shapes, reg)
    out = timed("serialize", tree["turtle_io"].serialize_turtle, full,
                tree["vocab"].NAMESPACES)
    for by_stage in (ms, gc_ms):
        by_stage["ingest"] = sum(by_stage[stage] for stage in INGEST)
    if not timed("isomorphic", tree["graph"].isomorphic, full, full):
        raise SystemExit("isomorphic(G, G) is False")
    session_full, session_text, edge, moved = session
    back = tree["turtle_io"].parse_turtle(session_text).graph
    changed = tree["graph"].Graph([t for t in session_full if t != edge] + [moved]).freeze()
    answers = timed("blank-iso", lambda: (tree["graph"].isomorphic(back, session_full),
                                          tree["graph"].isomorphic(back, changed)))
    key = tree["graph"].triple_key
    derivations = {key(t): (d.rule, tuple(map(key, d.premises)))
                   for t, d in closure.provenance.items()}
    return ms, gc_ms, out, derivations, [key(t) for t in full], answers


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
        differ = sum(a != b for a, b in zip(old, new))
        print(f"the trees close {differ} of {len(old)} random hierarchy graphs differently")
        return 1
    print(f"{len(old)} closures of random hierarchy graphs ({held} hierarchy edges in "
          "their stores): stores, store order and derivations identical")
    text = scaled_document(scale)
    sessions = {name: authored(tree, text) for name, tree in trees.items()}
    times = {name: {stage: [] for stage in STAGES} for name in trees}
    gc_times = {name: {stage: [] for stage in STAGES} for name in trees}
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        for i in range(runs):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            outputs, derivations, orders, answers = {}, {}, {}, {}
            for name in order:
                gc.collect()
                (ms, gc_ms, outputs[name], derivations[name], orders[name],
                 answers[name]) = run_once(trees[name], text, sessions[name], clock)
                for stage in STAGES:
                    times[name][stage].append(ms[stage])
                    gc_times[name][stage].append(gc_ms[stage])
            if outputs["old"] != outputs["new"]:
                print("the trees serialize the closure differently")
                return 1
            old, new = derivations["old"], derivations["new"]
            if old != new:
                differ = sum(old.get(t) != new.get(t) for t in old.keys() | new.keys())
                print(f"the trees record different derivations for {differ} inferred triples")
                return 1
            if orders["old"] != orders["new"]:
                print("the trees iterate the closure store in different orders")
                return 1
            if answers["old"] != answers["new"]:
                print(f"the trees answer blank-iso differently: old {answers['old']}, "
                      f"new {answers['new']}")
                return 1
    finally:
        gc.callbacks.remove(clock)
    print(f"x{scale}, {runs} runs each; closures, derivations, iteration order and "
          f"blank-iso answers {answers['new']} identical; median ms (old -> new), "
          f"of which in cyclic GC")
    for stage in STAGES:
        old, new = (statistics.median(times[name][stage]) for name in ("old", "new"))
        gc_old, gc_new = (statistics.median(gc_times[name][stage]) for name in ("old", "new"))
        print(f"  {stage:<10} {old:9.1f} -> {new:9.1f}  ({new / old - 1:+4.0%})"
              f"   gc {gc_old:6.1f} -> {gc_new:6.1f}")
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
