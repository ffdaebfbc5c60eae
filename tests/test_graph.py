import copy
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import iconmodel
from iconmodel.casebook import case_document
from iconmodel.graph import (RDF_TYPE, BlankNode, Graph, Iri, Literal, Triple, XSD_STRING,
                             _blank_triples, isomorphic, term_key, union)
from iconmodel.query import Var
from iconmodel.reasoner import RuleSet, close
from iconmodel.shapes import default_shapes, validate
from iconmodel.turtle_io import parse_turtle, serialize_turtle
from iconmodel.vocab import NAMESPACES

from conftest import CASE_IDS, plain_random_graph, registry_random_graph, turtle_random_graph
from oracles import oracle_isomorphic

EX = "http://example.org/"


def iri(name):
    return Iri(EX + name)


def t(s, p, o):
    return Triple(s, p, o)


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValueError):
            Iri("no-colon-here")
        with pytest.raises(ValueError):
            Iri("")

    def test_blank_label_nonempty(self):
        with pytest.raises(ValueError):
            BlankNode("")

    def test_blank_node_hashes_as_its_label_and_is_immutable(self):
        b = BlankNode("b")
        assert isinstance(b, tuple)
        assert hash(b) == hash("b") and repr(b) == "_:b"
        assert b == BlankNode("b") and b != "b" and b != iri("b")
        with pytest.raises(AttributeError):
            b.label = "c"
        with pytest.raises(AttributeError):
            del b.label
        assert b.label == "b"

    def test_literal_lang_and_datatype_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", lang="en", datatype=Iri(XSD_STRING))

    def test_plain_literal_defaults_to_xsd_string(self):
        assert Literal("x").datatype == Iri(XSD_STRING)

    def test_empty_language_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", lang="")

    def test_language_tag_is_case_normalized(self):
        assert Literal("x", lang="EN") == Literal("x", lang="en")

    @pytest.mark.parametrize("build", [
        lambda: Iri(5), lambda: BlankNode(5), lambda: Literal(5),
        lambda: Literal("a", lang=5), lambda: Literal("a", datatype=5),
        lambda: Literal("a", datatype="rel")],
        ids=["iri", "blank", "lexical", "lang", "datatype", "relative-datatype"])
    def test_field_that_is_no_text_or_no_iri_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, expected", [
        (lambda: Var._make([5]), ValueError),
        (lambda: Var("x")._replace(name=""), ValueError),
        (lambda: BlankNode._make([""]), ValueError),
        (lambda: Literal._make(["a", 5, None]), ValueError),
        (lambda: Triple._make([1, 2, 3]), ValueError),
        (lambda: Literal("a")._replace(lexical="b"), Literal("b"))],
        ids=["var-make", "var-replace", "blank-make", "literal-make", "triple-make",
             "literal-replace"])
    def test_make_and_replace_check_fields_as_the_constructor(self, build, expected):
        # namedtuple's own _make builds with tuple.__new__, past __new__'s checks
        if expected is ValueError:
            with pytest.raises(ValueError):
                build()
        else:
            assert build() == expected

    def test_str_datatype_becomes_an_iri_and_reads_back(self):
        lit = Literal("a", datatype=EX + "d")
        assert type(lit.datatype) is Iri
        assert lit == Literal("a", datatype=iri("d"))
        assert hash(lit) == hash(Literal("a", datatype=iri("d")))
        g = Graph([t(BlankNode("6"), iri("p"), lit)])
        assert set(parse_turtle(serialize_turtle(g, {})).graph) == set(g)

    def test_term_order_is_iri_blank_literal(self):
        ordered = sorted([Literal("a"), BlankNode("a"), iri("a")], key=term_key)
        assert isinstance(ordered[0], Iri)
        assert isinstance(ordered[1], BlankNode)
        assert isinstance(ordered[2], Literal)


# One of each kind of cached or value-derived hash, built the same way in
# every process that runs it.
PICKLED_VALUES = """
import pickle, sys
from iconmodel.graph import BlankNode, Iri, Literal, Triple
values = [Iri("http://example.org/a"), BlankNode("b1"), Literal("v", lang="EN"),
          Literal("3", datatype=Iri("http://example.org/d")),
          Triple(Iri("http://example.org/a"), Iri("http://example.org/p"), Literal("v"))]
"""


def run_python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=str(Path(iconmodel.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", PICKLED_VALUES + code], input=stdin,
                          env=env, capture_output=True, check=True, timeout=60).stdout


class TestHashTravel:
    def test_unpickled_under_another_seed_is_in_a_fresh_set(self):
        dumped = run_python("sys.stdout.buffer.write(pickle.dumps(values))", seed=1)
        out = run_python("loaded = pickle.loads(sys.stdin.buffer.read())\n"
                         "fresh = set(values)\n"
                         "print([x == v and x in fresh for x, v in zip(loaded, values)])",
                         seed=2, stdin=dumped)
        assert out.decode().strip() == str([True] * 5)

    @pytest.mark.parametrize("make_copy", [copy.copy, copy.deepcopy])
    def test_copies_are_equal_members(self, make_copy):
        values = [iri("a"), BlankNode("b1"), Literal("v", lang="EN"),
                  Literal("3", datatype=iri("d")), t(iri("a"), iri("p"), Literal("v"))]
        for v in values:
            c = make_copy(v)
            assert c == v and hash(c) == hash(v) and c in {v}


texts = st.sampled_from(["e:a", "e:b", "http://example.org/v"])
hash_terms = st.one_of(
    st.builds(Iri, texts),
    st.builds(BlankNode, texts),  # the same text as an IRI
    st.builds(Literal, texts),
    st.builds(lambda x, tag: Literal(x, lang=tag), texts,
              st.sampled_from(["en", "EN", "en-gb", "En-GB"])),
    st.builds(lambda x, d: Literal(x, datatype=Iri(d)), texts,
              st.sampled_from([XSD_STRING, "e:a", "e:b"])))
hash_triples = st.builds(Triple, st.one_of(st.builds(Iri, texts), st.builds(BlankNode, texts)),
                         st.builds(Iri, texts), hash_terms)
# a literal and a triple are both tuples of three
terms_and_triples = st.one_of(hash_terms, hash_triples)


def check_equality_hash_and_key_agree(xs, key):
    for a in xs:
        for b in xs:
            assert (a == b) == (key(a) == key(b)), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
    # distinct nodes are never merged
    assert len(set(xs)) == len({key(x) for x in xs})


def triple_key(x: Triple) -> tuple:
    return tuple(map(term_key, x))


def term_or_triple_key(x) -> tuple:
    return triple_key(x) if isinstance(x, Triple) else term_key(x)


@given(st.lists(terms_and_triples, max_size=12))
def test_term_equality_hash_and_key_agree(xs):
    check_equality_hash_and_key_agree(xs, term_or_triple_key)


def plain(x):
    """What x hashes as: a blank node's label, an IRI's text as a plain
    str, a literal's or triple's fields as a plain tuple."""
    if isinstance(x, BlankNode):
        return x.label
    if isinstance(x, tuple):
        return tuple(map(plain, x))
    return x if x is None else str(x)


@given(terms_and_triples)
def test_terms_and_triples_hash_as_plain_values(x):
    assert hash(x) == hash(plain(x))
    assert type(plain(x)) in (str, tuple)
    if isinstance(x, (Iri, Literal)):
        assert x == plain(x)  # the widened equality
    if isinstance(x, Iri):
        assert x.value == x and type(x.value) is str
    if isinstance(x, Triple):
        s, p, o = x
        assert (s, p, o) == (x.subject, x.predicate, x.object) == x
        assert s is x.subject and p is x.predicate and o is x.object


@given(st.lists(hash_triples, max_size=12))
def test_triple_equality_hash_and_key_agree(xs):
    check_equality_hash_and_key_agree(xs, triple_key)


class TestTriple:
    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            Triple(Literal("x"), iri("p"), iri("o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(ValueError):
            Triple(iri("s"), BlankNode("p"), iri("o"))


class TestGraph:
    def test_match_by_each_position(self):
        g = Graph([t(iri("s1"), iri("p1"), iri("o1")),
                   t(iri("s1"), iri("p2"), iri("o2")),
                   t(iri("s2"), iri("p1"), iri("o1"))]).freeze()
        assert len(g.match(s=iri("s1"))) == 2
        assert len(g.match(p=iri("p1"))) == 2
        assert len(g.match(o=iri("o1"))) == 2
        assert len(g.match(s=iri("s1"), p=iri("p1"))) == 1
        assert g.match(s=iri("nope")) == []
        assert len(g.match()) == 3

    def test_union_is_set_union(self):
        a = Graph([t(iri("s"), iri("p"), iri("o"))]).freeze()
        b = Graph([t(iri("s"), iri("p"), iri("o")),
                   t(iri("s"), iri("p"), iri("o2"))]).freeze()
        u = union(a, b)
        assert len(u) == 2


class TestIsomorphism:
    def test_blank_rename_is_isomorphic(self):
        a = Graph([t(BlankNode("x"), iri("p"), iri("o")),
                   t(BlankNode("x"), iri("q"), BlankNode("y"))]).freeze()
        b = Graph([t(BlankNode("u"), iri("p"), iri("o")),
                   t(BlankNode("u"), iri("q"), BlankNode("v"))]).freeze()
        assert isomorphic(a, b)

    def test_ground_difference_is_not(self):
        a = Graph([t(iri("s"), iri("p"), iri("o"))]).freeze()
        b = Graph([t(iri("s"), iri("p"), iri("o2"))]).freeze()
        assert not isomorphic(a, b)

    def test_structure_difference_is_not(self):
        a = Graph([t(BlankNode("x"), iri("p"), BlankNode("x"))]).freeze()
        b = Graph([t(BlankNode("x"), iri("p"), BlankNode("y"))]).freeze()
        assert not isomorphic(a, b)

    def test_swapped_roles_need_correct_bijection(self):
        a = Graph([t(BlankNode("x"), iri("p"), Literal("1")),
                   t(BlankNode("y"), iri("p"), Literal("2"))]).freeze()
        b = Graph([t(BlankNode("y"), iri("p"), Literal("1")),
                   t(BlankNode("x"), iri("p"), Literal("2"))]).freeze()
        assert isomorphic(a, b)

    def test_wrong_first_choice_backtracks(self):
        # every node has the same signature; mapping u onto b's 3-cycle
        # passes the local check, and only v's failure shows it is wrong
        def graph(edges):
            return Graph(t(BlankNode(x), iri("p"), BlankNode(y))
                         for x, y in edges).freeze()

        a = graph(["uv", "vu", "wx", "xy", "yw"])
        b = graph(["xy", "yx", "uv", "vw", "wu"])
        assert isomorphic(a, b) and isomorphic(b, a)
        assert not isomorphic(a, graph(["uv", "vw", "wx", "xy", "yu"]))

    def test_long_blank_chain_does_not_recurse(self):
        chain = [BlankNode(f"n{i}") for i in range(3000)]
        g = Graph(t(x, iri("next"), y) for x, y in zip(chain, chain[1:])).freeze()
        assert isomorphic(g, g)

    @pytest.mark.parametrize("y,answer", [
        ("_:u ex:p ex:o ; ex:q _:v . _:v ex:r ex:s .", True),
        ("_:u ex:p ex:o ; ex:q _:v . _:u ex:r ex:s .", False),
        ("ex:a ex:p [ ex:q ex:o ] . ex:b ex:p ex:c .", False),
    ])
    def test_parsed_graphs_build_no_indexes(self, y, answer):
        prefix = f"@prefix ex: <{EX}> .\n"
        a = parse_turtle(prefix + "_:x ex:p ex:o ; ex:q _:y . _:y ex:r ex:s .").graph
        b = parse_turtle(prefix + y).graph
        assert isomorphic(a, b) is answer
        assert a._index is None and b._index is None


def blank_edges(edges) -> Graph:
    return Graph(t(BlankNode(f"n{x}"), iri("p"), BlankNode(f"n{y}"))
                 for x, y in edges).freeze()


def cycle(nodes: list[int]) -> list[tuple[int, int]]:
    return list(zip(nodes, nodes[1:] + nodes[:1]))


def timed_isomorphic(a: Graph, b: Graph) -> tuple[bool, float]:
    start = time.perf_counter()
    return isomorphic(a, b), time.perf_counter() - start


# Shapes that made a search without colour refinement exponential. Each
# decides in well under half a second on 2 cores with CPython 3.11.7.
class TestIsomorphismSize:
    def test_shuffled_long_chain(self):
        shuffled = list(range(3000))
        random.Random(3).shuffle(shuffled)
        answer, seconds = timed_isomorphic(blank_edges(zip(range(3000), range(1, 3000))),
                                           blank_edges(zip(shuffled, shuffled[1:])))
        assert answer and seconds < 2

    def test_one_cycle_against_two_halves(self):
        answer, seconds = timed_isomorphic(
            blank_edges(cycle(list(range(200)))),
            blank_edges(cycle(list(range(100))) + cycle(list(range(100, 200)))))
        assert not answer and seconds < 2

    def test_relabelled_binary_tree(self):
        shuffled = list(range(255))
        random.Random(5).shuffle(shuffled)
        answer, seconds = timed_isomorphic(
            blank_edges(((i - 1) // 2, i) for i in range(1, 255)),
            blank_edges((shuffled[(i - 1) // 2], shuffled[i]) for i in range(1, 255)))
        assert answer and seconds < 2


iris = st.sampled_from([Iri(EX + n) for n in "abcdef"])
blanks = st.sampled_from([BlankNode(n) for n in "xyz"])
literals = st.sampled_from([Literal("1"), Literal("2", lang="en")])
subjects = st.one_of(iris, blanks)
objects = st.one_of(iris, blanks, literals)
triples = st.builds(Triple, subjects, iris, objects)


@given(st.lists(triples, max_size=30))
def test_match_agrees_with_linear_scan(ts):
    g = Graph(ts).freeze()
    for probe in ts[:5]:
        expected = {x for x in g if x.subject == probe.subject}
        assert Counter(g.match(s=probe.subject)) == Counter(expected)
        expected = {x for x in g if x.predicate == probe.predicate
                    and x.object == probe.object}
        assert Counter(g.match(p=probe.predicate, o=probe.object)) == Counter(expected)


@given(st.lists(triples, max_size=30), objects, iris)
def test_neighbours_agree_with_linear_scan(ts, node, p):
    g = Graph(ts).freeze()
    assert g.neighbours(node, p) == {x.object for x in ts
                                     if x.subject == node and x.predicate == p}
    assert g.neighbours(node, p, False) == {x.subject for x in ts
                                            if x.object == node and x.predicate == p}


@given(st.lists(triples, max_size=25))
def test_graph_is_a_set_of_triples(ts):
    g = Graph(ts).freeze()
    assert set(g) == set(ts)
    assert len(g) == len(set(ts))


@given(st.lists(triples, max_size=20), st.lists(triples, max_size=20))
def test_union_commutes_up_to_set_equality(ts1, ts2):
    a, b = Graph(ts1).freeze(), Graph(ts2).freeze()
    assert set(union(a, b)) == set(union(b, a)) == set(ts1) | set(ts2)


# Few terms, so that deltas keep landing in buckets the base already has.
chain_nodes = st.sampled_from([iri("a"), iri("b"), iri("c"), BlankNode("x"),
                               BlankNode("y"), BlankNode("z")])
chain_triples = st.builds(Triple, chain_nodes, st.sampled_from([iri("p"), iri("q")]),
                          st.one_of(chain_nodes, st.just(Literal("1"))))


def match_answers(g: Graph, probe: Graph) -> dict:
    """g.match for every s/p/o pattern over probe's terms, each position
    bound or unbound, as a multiset."""
    subjects = [None, *{u.subject for u in probe}]
    predicates = [None, *{u.predicate for u in probe}]
    objects = [None, *{u.object for u in probe}]
    return {(s, p, o): Counter(g.match(s, p, o))
            for s in subjects for p in predicates for o in objects}


@settings(max_examples=60, deadline=None)
@given(st.lists(chain_triples, max_size=30),
       st.lists(st.lists(chain_triples, min_size=1, max_size=5),
                min_size=1, max_size=20))
def test_chained_unions_answer_as_a_fresh_graph(base_ts, delta_ts):
    fresh = Graph(set(base_ts).union(*delta_ts)).freeze()
    chain = [Graph(base_ts).freeze()]
    before = [match_answers(chain[0], fresh)]
    for ts in delta_ts:
        chain.append(union(chain[-1], Graph(ts).freeze()))
        before.append(match_answers(chain[-1], fresh))
    g = chain[-1]
    assert len(g) == len(fresh)
    assert all(u in g for u in fresh)
    assert Triple(iri("absent"), iri("p"), iri("a")) not in g
    assert sorted(g, key=triple_key) == sorted(fresh, key=triple_key)
    assert before[-1] == match_answers(fresh, fresh)
    terms = fresh.terms()
    for node in terms:
        for p in (iri("p"), iri("q")):
            for forward in (True, False):
                assert g.neighbours(node, p, forward) == fresh.neighbours(node, p, forward)
    for x in terms | {iri("absent"), BlankNode("absent"), Literal("absent")}:
        assert g.has_term(x) == fresh.has_term(x)
    assert g.blank_labels() == fresh.blank_labels()
    # no union mutated a bucket that an earlier graph holds, not even one
    # that branches off an earlier graph
    for h in chain[:-1]:
        union(h, Graph([Triple(BlankNode("late"), iri("p"), iri("a"))]).freeze())
    assert [match_answers(h, fresh) for h in chain] == before


def assert_buckets_partition(g: Graph) -> None:
    """Each index of g holds every triple of g in exactly one bucket, the
    one of its own term in that position, and no bucket holds one twice."""
    for position, index in enumerate(g._indexes()):
        for key, bucket in index.items():
            assert set(Counter(bucket).values()) == {1}, (key, bucket)
            assert all(u[position] == key for u in bucket)
        assert Counter(u for bucket in index.values() for u in bucket) == Counter(g)


def test_bulk_built_graph_keeps_each_triple_once_per_index():
    rng = random.Random(31)
    for _ in range(50):
        ts = list(turtle_random_graph(rng))
        ts += rng.choices(ts, k=len(ts))  # duplicates
        assert_buckets_partition(Graph(ts))


@pytest.mark.parametrize("rules", [RuleSet(), RuleSet(domain_range_typing=True),
                                   RuleSet(shortcut_contraction=False)],
                         ids=["default", "R5", "hierarchy-only"])
def test_engine_store_keeps_each_triple_once_per_index(reg, rules):
    rng = random.Random(2030)
    for _ in range(30):
        assert_buckets_partition(close(registry_random_graph(rng, reg), reg, rules).graph())


@settings(max_examples=60, deadline=None)
@given(st.lists(chain_triples, max_size=30),
       st.lists(st.lists(chain_triples, min_size=1, max_size=40), min_size=1, max_size=10))
def test_chained_unions_keep_each_triple_once_per_index(base_ts, delta_ts):
    g = Graph(base_ts)
    for ts in delta_ts:
        delta = Graph(ts)
        g._indexes()  # so that union copies its larger input's buckets
        delta._indexes()
        g = union(g, delta)
        assert_buckets_partition(g)


def read_answers(g: Graph, probe: Graph) -> dict:
    """What each read method of g answers over probe's terms."""
    terms = probe.terms() | {iri("absent"), BlankNode("absent"), Literal("absent")}
    predicates = {u.predicate for u in probe}
    return {"match": match_answers(g, probe),
            "neighbours": {(x, p, forward): g.neighbours(x, p, forward)
                           for x in terms for p in predicates
                           for forward in (True, False)},
            "subjects": {u.subject for u in g}, "objects": {u.object for u in g},
            "has_term": {x for x in terms if g.has_term(x)},
            "has_subject": {x for x in terms if g.has_subject(x)},
            "has_predicate": {x for x in terms if g.has_predicate(x)},
            "blank_labels": g.blank_labels(), "blank_triples": _blank_triples(g)}


# Each read that can be a graph's first, building its indexes.
FIRST_READS = {
    "match": lambda g: g.match(p=RDF_TYPE),
    "neighbours": lambda g: g.neighbours(iri("r0"), RDF_TYPE),
    "has_term": lambda g: g.has_term(BlankNode("n0")),
    "has_subject": lambda g: g.has_subject(iri("r1")),
    "has_predicate": lambda g: g.has_predicate(RDF_TYPE),
    "blank_labels": Graph.blank_labels,
    "union": lambda g: union(g.freeze(), Graph([]).freeze()),
    "blank_triples": _blank_triples,
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bulk_built_graph_answers_alike_after_any_first_read(seed):
    rng = random.Random(seed)
    ts = list(turtle_random_graph(rng))
    ts += rng.choices(ts, k=len(ts) // 2)  # duplicates
    rng.shuffle(ts)
    reference = Graph(set(ts))
    expected = read_answers(reference, reference)
    for name, first_read in FIRST_READS.items():
        for bulk in (Graph(ts), Graph(u for u in ts)):
            first_read(bulk)
            assert len(bulk) == len(reference)
            assert set(bulk) == set(reference)
            assert read_answers(bulk, reference) == expected, name


@pytest.mark.parametrize("rules", [RuleSet(), RuleSet(domain_range_typing=True),
                                   RuleSet(shortcut_contraction=False)],
                         ids=["default", "R5", "hierarchy-only"])
def test_engine_store_answers_as_a_bulk_built_graph(reg, rules):
    # the engine writes its store's indexes triple by triple as it derives
    rng = random.Random(2029)
    for _ in range(15):
        store = close(registry_random_graph(rng, reg), reg, rules).graph()
        assert read_answers(store, store) == read_answers(Graph(set(store)), store)


@given(st.lists(triples, max_size=20), st.lists(triples, max_size=20))
def test_union_of_never_read_graphs_answers_as_the_set_union(ts1, ts2):
    g = union(Graph(ts1).freeze(), Graph(ts2).freeze())
    fresh = Graph(set(ts1) | set(ts2)).freeze()
    assert set(g) == set(fresh)
    assert read_answers(g, fresh) == read_answers(fresh, fresh)


def test_ingest_builds_no_index_on_the_parsed_graph(reg):
    # close only iterates its base graph and tests membership in it;
    # validating and serializing read the closure's own store
    base = parse_turtle(case_document(CASE_IDS[0])).graph
    full = close(base, reg).graph()
    validate(full, default_shapes(reg), reg)
    serialize_turtle(full, NAMESPACES)
    assert base._index is None


def test_threads_making_first_reads_of_a_graph_agree():
    probe = plain_random_graph(random.Random(7), 2000)
    g = Graph(probe).freeze()
    start = threading.Barrier(8)
    answers = [None] * 8

    def first_reads(k):
        start.wait(timeout=30)
        answers[k] = read_answers(g, probe)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, also inside _indexes
    try:
        threads = [threading.Thread(target=first_reads, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(a == read_answers(probe, probe) for a in answers)


def test_bulk_built_graph_counts_duplicates_once():
    assert len(Graph([])) == 0 and Graph([]).match() == []
    a, b = t(iri("s"), iri("p"), iri("o")), t(iri("s"), iri("p"), iri("o2"))
    g = Graph([a, b, a])
    assert Counter(g.match(s=iri("s"))) == Counter(g.match(p=iri("p"))) == Counter([a, b])
    assert g.match(o=iri("o2")) == [b]
    assert g.neighbours(iri("s"), iri("p")) == {iri("o"), iri("o2")}
    assert len(g.freeze()) == 2


datatyped = st.sampled_from([Literal("3", datatype=Iri(EX + "a")),
                             Literal("4", datatype=Iri(EX + "g"))])


@given(st.lists(st.builds(Triple, subjects, iris,
                          st.one_of(objects, datatyped)), max_size=25))
def test_has_term_and_blank_labels_agree_with_terms(ts):
    g = Graph(ts).freeze()
    terms = g.terms()
    probes = {x for u in ts for x in (u.subject, u.predicate, u.object)}
    probes |= {u.object.datatype for u in ts if isinstance(u.object, Literal)}
    probes |= {iri("absent"), BlankNode("absent"), Literal("absent")}
    for x in probes:
        assert g.has_term(x) == (x in terms), x
    assert g.blank_labels() == {x.label for x in terms if isinstance(x, BlankNode)}


# Few predicates and many blank nodes, so that signatures tie and the
# search has to backtrack.
six_blanks = st.sampled_from([BlankNode(n) for n in "uvwxyz"])
blank_triples = st.builds(Triple, st.one_of(six_blanks, st.just(iri("a"))),
                          st.sampled_from([iri("p"), iri("q")]),
                          st.one_of(six_blanks, st.just(iri("a"))))


@settings(max_examples=150, deadline=None)
@given(st.lists(blank_triples, max_size=12), st.lists(blank_triples, max_size=12),
       st.permutations("uvwxyz"))
def test_isomorphic_agrees_with_oracle(ts1, ts2, image):
    relabel = dict(zip("uvwxyz", image))

    def rename(n):
        return BlankNode(relabel[n.label]) if isinstance(n, BlankNode) else n

    a = Graph(ts1).freeze()
    renamed = Graph(Triple(rename(u.subject), u.predicate, rename(u.object))
                    for u in ts1).freeze()
    assert isomorphic(a, renamed)
    b = Graph(ts2).freeze()
    assert isomorphic(a, b) == oracle_isomorphic(a, b)


XSD_INTEGER = Iri("http://www.w3.org/2001/XMLSchema#integer")
two_predicates = st.sampled_from([iri("p"), iri("q")])
# three literals that share a lexical form, so only their tags tell them apart
leaves = st.sampled_from([iri("a"), Literal("1"), Literal("1", lang="en"),
                          Literal("1", datatype=XSD_INTEGER)])


@st.composite
def blank_shapes(draw, max_nodes: int = 12) -> list[Triple]:
    """A blank chain, cycle or tree, each edge drawn in either direction
    with one of two predicates, and a ground leaf on some nodes."""
    n = draw(st.integers(2, max_nodes))
    shape = draw(st.sampled_from(["chain", "cycle", "tree"]))
    edges = [(draw(st.integers(0, i - 1)) if shape == "tree" else i - 1, i)
             for i in range(1, n)]
    if shape == "cycle":
        edges.append((n - 1, 0))
    ts = []
    for x, y in edges:
        if draw(st.booleans()):
            x, y = y, x
        ts.append(Triple(BlankNode(f"n{x}"), draw(two_predicates), BlankNode(f"n{y}")))
    for x in range(n):
        leaf = draw(st.none() | leaves)
        if leaf is not None:
            ts.append(Triple(BlankNode(f"n{x}"), draw(two_predicates), leaf))
    return ts


def relabelled(g: Graph, rnd: random.Random) -> Graph:
    labels = sorted(g.blank_labels())
    image = dict(zip(labels, rnd.sample(labels, len(labels))))

    def rename(x):
        return BlankNode(image[x.label]) if isinstance(x, BlankNode) else x

    return Graph(Triple(rename(u.subject), u.predicate, rename(u.object))
                 for u in g).freeze()


@settings(max_examples=200, deadline=None)
@given(blank_shapes(), blank_shapes(max_nodes=6), st.randoms(use_true_random=False))
def test_blank_shapes_are_isomorphic_to_their_relabellings(ts1, ts2, rnd):
    a = Graph(ts1).freeze()
    assert isomorphic(a, relabelled(a, rnd))
    if len(a.blank_labels()) > 6:
        return
    b = Graph(ts2).freeze()
    assert isomorphic(a, b) == oracle_isomorphic(a, b)
    # One blank object moved to a new node keeps the triple count, and adds
    # a blank node unless the old one occurred only there.
    moved = next(u for u in a if isinstance(u.object, BlankNode))
    split = Graph(set(a) - {moved} | {Triple(moved.subject, moved.predicate,
                                             BlankNode("new"))}).freeze()
    assert len(split) == len(a)
    assert isomorphic(a, split) == oracle_isomorphic(a, split)
