import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from iconmodel.casebook import UnknownCaseError, list_cases
from iconmodel.graph import XSD_STRING, BlankNode, Graph, Iri, Literal, Triple
from iconmodel.query import (Alt, Inv, Pattern, Plus, QueryError, Seq,
                             Solution, UnboundProjectionError,
                             UnknownQuestionError, Var, _term_from_json, cq_catalog,
                             evaluate, find_cq, load_golden, path_pairs,
                             pattern_from_json, run_cq, solutions_from_json,
                             solutions_to_json, term_to_json)
from iconmodel.reasoner import Derivation

from conftest import plain_random_graph
from oracles import brute_evaluate, oracle_path_pairs

E = "http://example.org/"


def e(name):
    return Iri(E + name)


@pytest.fixture(scope="module")
def chain():
    # a -p-> b -p-> c -q-> d, plus a literal leaf
    return Graph([Triple(e("a"), e("p"), e("b")),
                  Triple(e("b"), e("p"), e("c")),
                  Triple(e("c"), e("q"), e("d")),
                  Triple(e("a"), e("name"), Literal("alpha"))]).freeze()


def inverted(depth):
    """e("p") under depth nested Inv nodes."""
    path = e("p")
    for _ in range(depth):
        path = Inv(path)
    return path


class TestPaths:
    def test_plain_predicate(self, chain):
        assert path_pairs(chain, e("p")) == {(e("a"), e("b")), (e("b"), e("c"))}

    def test_inverse(self, chain):
        assert path_pairs(chain, Inv(e("q"))) == {(e("d"), e("c"))}

    def test_sequence(self, chain):
        assert path_pairs(chain, Seq(e("p"), e("q"))) == {(e("b"), e("d"))}
        assert path_pairs(chain, Seq(e("p"), Seq(e("p"), e("q")))) \
            == {(e("a"), e("d"))}

    def test_alternative(self, chain):
        assert path_pairs(chain, Alt(e("p"), e("q"))) \
            == {(e("a"), e("b")), (e("b"), e("c")), (e("c"), e("d"))}

    def test_plus_is_transitive(self, chain):
        assert path_pairs(chain, Plus(e("p"))) \
            == {(e("a"), e("b")), (e("b"), e("c")), (e("a"), e("c"))}

    def test_plus_handles_cycles(self):
        g = Graph([Triple(e("x"), e("p"), e("y")),
                   Triple(e("y"), e("p"), e("x"))]).freeze()
        assert path_pairs(g, Plus(e("p"))) == {
            (e("x"), e("y")), (e("y"), e("x")), (e("x"), e("x")), (e("y"), e("y"))}

    def test_plus_over_a_300_step_chain(self):
        nodes = [e(f"n{k}") for k in range(301)]
        g = Graph([Triple(a, e("p"), b) for a, b in zip(nodes, nodes[1:])]).freeze()
        assert path_pairs(g, Plus(e("p"))) == {
            (nodes[i], nodes[j]) for i in range(301) for j in range(i + 1, 301)}

    def test_path_pairs_from_start(self, chain):
        assert {b for a, b in path_pairs(chain, Plus(e("p"))) if a == e("a")} == {
            e("b"), e("c")}


class TestRecords:
    def test_nodes_equal_only_nodes_of_their_own_class(self):
        p, q = e("p"), e("q")
        assert Inv(p) != Plus(p) and not Inv(p) == Plus(p)
        assert Seq(p, q) != Alt(p, q)
        assert Var(E + "x") != Inv(Iri(E + "x"))
        assert BlankNode("x") != Var("x") and Var("x") != BlankNode("x")
        assert len({Inv(p), Plus(p)}) == 2
        for node, fields in ((Var("x"), ("x",)), (Inv(p), (p,)), (Seq(p, q), (p, q)),
                             (BlankNode("x"), ("x",))):
            assert node != fields and fields != node
        assert Seq(Inv(p), q) == Seq(Inv(p), q)
        assert hash(Seq(Inv(p), q)) == hash(Seq(Inv(p), q))
        assert repr(Alt(p, Var("x"))) == f"Alt(left={p!r}, right=Var(name='x'))"

    @pytest.mark.parametrize("record, field", [
        (Var("x"), "name"),
        (Derivation("R1", ()), "rule"),
        (Solution.of({"x": e("a")}), "bindings")])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    @pytest.mark.parametrize("name", [5, ["l"], "", None])
    def test_variable_name_must_be_a_non_empty_str(self, name):
        # as BlankNode's label: an int name once broke the sort of the
        # projected names, and "" wrote a "?" key no reader accepts
        with pytest.raises(ValueError, match="variable name must be a non-empty str"):
            Var(name)

    def test_solution_and_derivation_hash_as_their_field_tuple(self):
        solution = Solution.of({"x": e("a")})
        assert hash(solution) == hash(((("x", e("a")),),))
        assert hash(Derivation("R1", ())) == hash(("R1", ()))


class TestEvaluate:
    def test_single_triple_binding(self, chain):
        got = evaluate(chain, Pattern(((Var("x"), e("p"), Var("y")),)),
                       [Var("x"), Var("y")])
        assert got == {Solution.of({"x": e("a"), "y": e("b")}),
                       Solution.of({"x": e("b"), "y": e("c")})}

    def test_join_on_shared_variable(self, chain):
        pattern = Pattern(((Var("x"), e("p"), Var("y")),
                           (Var("y"), e("p"), Var("z"))))
        assert evaluate(chain, pattern, [Var("x"), Var("z")]) \
            == {Solution.of({"x": e("a"), "z": e("c")})}

    def test_predicate_variable(self, chain):
        got = evaluate(chain, Pattern(((e("c"), Var("rel"), e("d")),)),
                       [Var("rel")])
        assert got == {Solution.of({"rel": e("q")})}

    def test_same_variable_subject_and_object(self):
        g = Graph([Triple(e("n"), e("p"), e("n")),
                   Triple(e("n"), e("p"), e("m"))]).freeze()
        got = evaluate(g, Pattern(((Var("x"), e("p"), Var("x")),)), [Var("x")])
        assert got == {Solution.of({"x": e("n")})}

    def test_path_in_pattern(self, chain):
        got = evaluate(chain, Pattern(((e("a"), Plus(e("p")), Var("end")),)),
                       [Var("end")])
        assert got == {Solution.of({"end": e("b")}), Solution.of({"end": e("c")})}

    def test_variable_inside_path_is_query_error(self, chain):
        for path in (Plus(Var("p")), Inv(Seq(Var("p"), e("q")))):
            with pytest.raises(QueryError):
                evaluate(chain, Pattern(((Var("s"), path, Var("o")),)), [Var("s")])

    @pytest.mark.parametrize("triple, projection", [
        ((Var("s"), inverted(101), Var("o")), []),
        ((Var("s"), inverted(5000), Var("o")), []),
        ((Var("s"), 5, Var("o")), []),
        ((Var("s"), Literal(E + "p"), Var("o")), []),
        ((5, Var("p"), Var("o")), []),
        ((Var("s"), Var("p"), None), []),
        ((Var("s"), Var("p")), []),
        ((Var("s"), Var("p"), Var("o"), Var("x")), []),
        (5, []),
        ([Var("s"), Var("p"), Var("o")], []),
        ((Var("s"), Var("p"), Var("o")), [5]),
        ((Var("s"), Var("p"), Var("o")), ["s"]),
        ((Var("s"), Var("p"), Var("o")), None),
        ((Var("s"), Var("p"), Var("o")), 5),
        # a whole pattern with no iterable triples
        (Pattern(5), []),
        (None, [])])
    def test_pattern_it_cannot_run_is_query_error(self, chain, triple, projection):
        whole = triple is None or isinstance(triple, Pattern)
        pattern = triple if whole else Pattern((triple,))
        with pytest.raises(QueryError):
            evaluate(chain, pattern, projection)
        with pytest.raises(QueryError):  # the same on an empty graph
            evaluate(Graph().freeze(), pattern, projection)
        if isinstance(triple, tuple) and len(triple) == 3 and not isinstance(triple[1], Var):
            with pytest.raises(QueryError):
                path_pairs(chain, triple[1])

    def test_path_nested_100_deep_evaluates(self, chain):
        # an even number of inversions cancels out
        assert evaluate(chain, Pattern(((Var("x"), inverted(100), Var("y")),)),
                        [Var("x")]) \
            == {Solution.of({"x": e("a")}), Solution.of({"x": e("b")})}

    def test_no_solutions(self, chain):
        assert evaluate(chain, Pattern(((Var("x"), e("nope"), Var("y")),)),
                        [Var("x")]) == set()

    def test_empty_pattern_empty_projection(self, chain):
        assert evaluate(chain, Pattern(()), []) == {Solution.of({})}

    def test_unbound_projection_rejected(self, chain):
        with pytest.raises(UnboundProjectionError):
            evaluate(chain, Pattern(((Var("x"), e("p"), Var("y")),)),
                     [Var("ghost")])

    def test_projection_subset(self, chain):
        got = evaluate(chain, Pattern(((Var("x"), e("p"), Var("y")),)), [Var("x")])
        assert got == {Solution.of({"x": e("a")}), Solution.of({"x": e("b")})}

    def test_repeated_projection_binds_each_name_once(self, chain):
        got = evaluate(chain, Pattern(((Var("x"), e("p"), Var("y")),)),
                       [Var("y"), Var("x"), Var("y")])
        assert got == {Solution.of({"x": e("a"), "y": e("b")}),
                       Solution.of({"x": e("b"), "y": e("c")})}
        assert all(s.bindings == tuple(sorted(s.bindings)) for s in got)


def random_pattern(rng, g):
    """Pattern over the graph's own vocabulary: up to 3 triples, up to 3
    variables, mixed constants, predicate vars, and property paths. Most
    triples start from one of the graph's own, so that many patterns have
    solutions. The projection is every variable used, a proper subset of
    them (whose solutions set semantics merges) or a list that repeats one."""
    terms = sorted(g.terms(), key=repr) or [e("x")]
    preds = sorted({t.predicate for t in g}, key=repr) or [e("p")]
    facts = sorted(g, key=repr)
    var_pool = [Var("a"), Var("b"), Var("c")][:rng.randint(1, 3)]

    def endpoint():
        return rng.choice(var_pool) if rng.random() < 0.6 else rng.choice(terms)

    def predicate():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(preds)
        if roll < 0.6:
            return rng.choice(var_pool)
        base = rng.choice(preds)
        other = rng.choice(preds)
        return rng.choice([Inv(base), Plus(base), Seq(base, other),
                           Alt(base, other)])

    def triple():
        if facts and rng.random() < 0.75:  # a fact, some positions made variables
            s, p, o = (rng.choice(var_pool) if rng.random() < 0.5 else x
                       for x in rng.choice(facts))
            if not isinstance(p, Var) and rng.random() < 0.4:  # a path the fact satisfies
                p = rng.choice([Plus(p), Alt(p, rng.choice(preds)), Alt(rng.choice(preds), p)])
            return s, p, o
        return endpoint(), predicate(), endpoint()

    triples = tuple(triple() for _ in range(rng.randint(1, 3)))
    used = [v for v in var_pool if any(v in t for t in triples)]
    roll = rng.random()
    if roll < 0.4 or not used:
        projection = used
    elif roll < 0.7:
        projection = rng.sample(used, rng.randrange(len(used)))
    else:  # one more entry than there are variables
        projection = rng.choices(used, k=len(used) + 1)
    return Pattern(triples), projection


def as_tuples(solutions):
    return {s.bindings for s in solutions}


class TestAgainstBruteForce:
    def test_random_patterns(self, reg):
        rng = random.Random(42)
        for _ in range(60):
            g = plain_random_graph(rng, rng.randint(0, 40))
            pattern, projection = random_pattern(rng, g)
            got = as_tuples(evaluate(g, pattern, projection))
            want = brute_evaluate(g, pattern, projection)
            assert got == want, (pattern, projection)

    def test_path_semantics_match(self):
        rng = random.Random(99)
        for _ in range(30):
            g = plain_random_graph(rng, rng.randint(0, 30))
            preds = sorted({t.predicate for t in g}, key=repr) or [e("p")]
            p = rng.choice(preds)
            q = rng.choice(preds)
            for path in (Inv(p), Plus(p), Seq(p, q), Alt(p, q),
                         Seq(Inv(p), Plus(q))):
                assert path_pairs(g, path) == oracle_path_pairs(set(g), path)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_evaluate_equals_brute_force_property(seed):
    rng = random.Random(seed)
    g = plain_random_graph(rng, rng.randint(0, 30))
    pattern, projection = random_pattern(rng, g)
    assert as_tuples(evaluate(g, pattern, projection)) \
        == brute_evaluate(g, pattern, projection)


# Drawn JSON for the two readers: texts that start as a variable, a blank
# node or an <IRI> does, and objects keyed like terms and path nodes.
TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["?", "?x", "??x", "_:", "_:b", "<", "<>", "<a>", "<http://e/a>", "a:b", "r:x",
     "icon:x", E + "a"]), st.from_regex(r"\A[?<_][:_<>?a-z]{0,5}\Z"))
VARIABLES = st.one_of(st.sampled_from(["?", "?x", "??x", "x", ""]), st.text(max_size=4))
KEYS = st.one_of(VARIABLES, st.sampled_from(
    ["lit", "lang", "datatype", "inv", "plus", "seq", "alt", "select", "where"]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXTS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=12)
PATTERN_DOCS = st.fixed_dictionaries({
    "select": st.lists(st.one_of(VARIABLES, JSON_VALUES), max_size=3),
    "where": st.lists(st.lists(JSON_VALUES, min_size=3, max_size=3), max_size=3)})
PREFIXES = st.sampled_from(["", "r", "x", "icon", "a"])
# absolute and relative namespaces
NAMESPACE_TEXTS = st.one_of(st.sampled_from(["rel", "", "foo/", "http://e/", "urn:"]),
                            st.text(max_size=5))
# Drawn terms for the writer: IRIs from any text that holds a colon, and
# texts shared between kinds, so that an IRI, a blank node and a literal
# often carry the same text.
SHARED_TEXTS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["http://e/b", "<http://e/b>", "_:b", "_://b", "?a:b", "?://b", "urn:x", "<urn:x>"]))
IRIS = st.one_of(st.builds(Iri, SHARED_TEXTS.filter(lambda x: ":" in x)),
                 st.builds(lambda a, b: Iri(f"{a}:{b}"), st.text(max_size=4),
                           st.text(max_size=4)))
TERMS = st.one_of(
    IRIS,
    st.builds(BlankNode, SHARED_TEXTS.filter(bool)),
    st.builds(Literal, SHARED_TEXTS),
    st.builds(lambda x, tag: Literal(x, lang=tag), SHARED_TEXTS,
              st.text(min_size=1, max_size=4)),
    st.builds(lambda x, d: Literal(x, datatype=d), SHARED_TEXTS, IRIS | st.just(XSD_STRING)))


class TestJsonFormats:
    def test_pattern_from_json(self):
        doc = {"select": ["?x"],
               "where": [["?x", "icon:symbolizes", "?m"],
                         ["?m", {"alt": ["cito:citesAsEvidence",
                                         {"inv": "icon:assignsTo"}]}, "_:b"],
                         ["<http://example.org/s>", "http://example.org/p",
                          {"lit": "v", "lang": "en"}]]}
        pattern, projection = pattern_from_json(doc)
        assert projection == [Var("x")]
        assert pattern.triples[0][1] == Iri("https://w3id.org/icon/ontology/symbolizes")
        assert isinstance(pattern.triples[1][1], Alt)
        s, p, o = pattern.triples[2]
        assert s == Iri("http://example.org/s")
        assert o == Literal("v", lang="en")

    def test_pattern_json_errors(self):
        with pytest.raises(QueryError):
            pattern_from_json({"select": ["?x"]})
        with pytest.raises(QueryError):
            pattern_from_json({"select": ["x"], "where": []})
        with pytest.raises(QueryError):
            pattern_from_json({"select": [], "where": [["?x", "nope:p", "?y"]]})
        with pytest.raises(QueryError):
            pattern_from_json({"select": [], "where": [["?x", "?p"]]})

    @pytest.mark.parametrize("doc", [
        {"select": 5, "where": []},
        {"select": ["?s"], "where": 5},
        {"select": ["?s"], "where": [["?s", {"seq": 5}, "?o"]]},
        {"select": ["?s"], "where": [["?s", {"alt": 5}, "?o"]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": 5}]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "lang": 5}]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "datatype": 5}]]},
        # terms that a constructor refuses, in each position
        {"select": ["?s"], "where": [["_:", "?p", "?o"]]},
        {"select": ["?s"], "where": [["?s", "<>", "?o"]]},
        {"select": ["?s"], "where": [["?s", {"inv": "<a>"}, "?o"]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "lang": ""}]]},
        # a bare "?" names no variable
        {"select": ["?"], "where": [["?s", "?p", "?o"]]},
        {"select": ["?s"], "where": [["?", "?p", "?o"]]},
        {"select": ["?s"], "where": [["?s", "?", "?o"]]},
        {"select": ["?s"], "where": [["?s", "?p", "?"]]},
        # an empty datatype names no IRI
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "datatype": ""}]]},
    ])
    def test_malformed_parts_are_query_errors(self, doc):
        with pytest.raises(QueryError):
            pattern_from_json(doc)

    @pytest.mark.parametrize("path", [5, [], {"x": 1}])
    def test_path_of_no_known_form_is_rejected(self, path):
        with pytest.raises(QueryError, match="bad path expression"):
            pattern_from_json({"select": ["?s"], "where": [["?s", path, "?o"]]})

    @pytest.mark.parametrize("path", [
        {"plus": "?p"},
        {"inv": {"seq": ["?p", "?q"]}},
        {"alt": ["<http://example.org/p>", "?q"]},
    ])
    def test_variable_inside_path_is_rejected(self, path):
        with pytest.raises(QueryError, match="only a bare predicate"):
            pattern_from_json({"select": ["?s"], "where": [["?s", path, "?o"]]})

    @pytest.mark.parametrize("n", range(2, 8))
    def test_seq_and_alt_relate_what_a_left_fold_relates(self, n):
        rng = random.Random(n)
        g = plain_random_graph(rng, 30)
        preds = [f"{E}p{rng.randrange(5)}" for _ in range(n)]
        for key, node in (("seq", Seq), ("alt", Alt)):
            pattern, _ = pattern_from_json(
                {"select": ["?s"], "where": [["?s", {key: preds}, "?o"]]})
            left_fold = functools.reduce(node, [Iri(p) for p in preds])
            assert path_pairs(g, pattern.triples[0][1]) \
                == oracle_path_pairs(set(g), left_fold)

    def test_long_seq_and_alt_evaluate(self):
        # a -p-> b -p-> a: an even number of p steps returns to the start
        g = Graph([Triple(e("a"), e("p"), e("b")),
                   Triple(e("b"), e("p"), e("a"))]).freeze()
        for key, want in (("seq", {(e("a"), e("a")), (e("b"), e("b"))}),
                          ("alt", {(e("a"), e("b")), (e("b"), e("a"))})):
            pattern, _ = pattern_from_json(
                {"select": ["?s"], "where": [["?s", {key: [E + "p"] * 3000}, "?o"]]})
            assert path_pairs(g, pattern.triples[0][1]) == want

    def test_path_nested_deeper_than_100_is_rejected(self):
        def doc(depth):
            path = E + "p"
            for _ in range(depth):
                path = {"inv": path}
            return {"select": ["?s"], "where": [["?s", path, "?o"]]}

        pattern_from_json(doc(100))
        with pytest.raises(QueryError, match="nested deeper than 100"):
            pattern_from_json(doc(101))

    @pytest.mark.parametrize("rows", [
        5, {"?x": "a:b"}, "?x", [5], [[]], ["?x"],
        # keys that name no variable
        [{"?": E + "a"}], [{"x": E + "a"}], [{5: E + "a"}],
        # values that name no term
        [{"?x": "_:"}], [{"?x": "<>"}], [{"?x": "?y"}], [{"?x": 5}],
        [{"?x": {"lit": "x", "datatype": "<>"}}],
        [{"?x": {"lit": "x", "lang": ""}}],
        [{"?x": {"lit": "x", "lang": "en", "datatype": "icon:a"}}],
        [{"?x": {"lit": "x", "lang": "en", "datatype": E + "d"}}],
        [{"?x": {"lit": "x", "datatype": ""}}],
    ])
    def test_malformed_solution_rows_are_query_errors(self, rows):
        with pytest.raises(QueryError):
            solutions_from_json(rows)

    @pytest.mark.parametrize("term,reason", [
        ({"lit": 5}, "literal lexical form must be a str: 5"),
        ({"lit": "a", "lang": 5}, "language tag must be a non-empty str: 5"),
    ])
    def test_literal_field_that_is_no_text_is_refused_by_literal(self, term, reason):
        # Literal's own ValueError, caught as a QueryError naming the term
        with pytest.raises(QueryError, match=f"^bad term .*: {reason}$"):
            pattern_from_json({"select": ["?s"], "where": [["?s", "?p", term]]})
        with pytest.raises(QueryError, match=f"^bad term .*: {reason}$"):
            solutions_from_json([{"?x": term}])

    @settings(max_examples=300, deadline=None)
    @given(doc=st.one_of(JSON_VALUES, PATTERN_DOCS),
           prefixes=st.none() | st.dictionaries(PREFIXES, NAMESPACE_TEXTS, max_size=3))
    def test_pattern_reader_raises_only_query_error(self, doc, prefixes):
        try:
            pattern_from_json(doc, prefixes)
        except QueryError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(rows=st.one_of(JSON_VALUES, st.lists(st.dictionaries(VARIABLES, JSON_VALUES,
                                                                max_size=3), max_size=3)))
    def test_solution_reader_raises_only_query_error(self, rows):
        try:
            solutions_from_json(rows)
        except QueryError:
            pass

    def test_solutions_round_trip(self):
        solutions = {Solution.of({"x": e("a"), "y": Literal("v", lang="en")}),
                     Solution.of({"x": e("b"), "y": Literal("w")})}
        assert solutions_from_json(solutions_to_json(solutions)) == solutions

    def test_variable_named_with_a_question_mark_round_trips(self):
        # "??x" selects the variable named "?x", and reads back as it
        g = Graph([Triple(e("a"), e("p"), e("b"))]).freeze()
        pattern, projection = pattern_from_json(
            {"select": ["??x"], "where": [["??x", E + "p", "?y"]]})
        assert projection == [Var("?x")]
        solutions = evaluate(g, pattern, projection)
        rows = solutions_to_json(solutions)
        assert rows == [{"??x": E + "a"}]
        assert solutions_from_json(rows) == solutions

    def test_iris_that_read_as_other_terms_round_trip(self):
        # bare, these read back as a blank node, a variable and an
        # undeclared prefix
        odd = [Iri("_:b"), Iri("?a:b"), Iri("urn:isbn:1")]
        solutions = {Solution.of({"x": x}) for x in [*odd, BlankNode("b"), e("a")]}
        solutions.add(Solution.of({"x": Literal("1", datatype=Iri("urn:int"))}))
        rows = solutions_to_json(solutions)
        assert [r["?x"] for r in rows] == [
            "<?a:b>", "<_:b>", E + "a", "<urn:isbn:1>", "_:b",
            {"lit": "1", "datatype": "<urn:int>"}]
        assert solutions_from_json(rows) == solutions

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TERMS, max_size=8))
    def test_term_writer_is_read_back_and_names_each_term_apart(self, terms):
        for t in terms:
            assert _term_from_json(term_to_json(t), {}) == t
        written = {json.dumps(term_to_json(t), sort_keys=True) for t in terms}
        assert len(written) == len(set(terms))

    def test_solutions_to_json_sorted(self):
        solutions = {Solution.of({"x": e("b")}), Solution.of({"x": e("a")})}
        rows = solutions_to_json(solutions)
        assert rows == [{"?x": E + "a"}, {"?x": E + "b"}]

    def test_solutions_to_json_orders_iris_blank_nodes_and_literals(self):
        # ?y binds an IRI, a blank node and literals, and ?x ties across
        # rows up to a literal
        solutions = {Solution.of({"x": Literal("v"), "y": e("a")}),
                     Solution.of({"x": Literal("v"), "y": Literal("w", lang="en")}),
                     Solution.of({"x": Literal("v"), "y": Literal("w")}),
                     Solution.of({"x": Literal("v"), "y": BlankNode("b")}),
                     Solution.of({"x": e("a"), "y": Literal("3", datatype=e("int"))})}
        rows = solutions_to_json(solutions)
        assert [r["?y"] for r in rows] == [
            {"lit": "3", "datatype": E + "int"}, E + "a", "_:b", {"lit": "w"},
            {"lit": "w", "lang": "en"}]
        assert solutions_to_json(set(reversed(list(solutions)))) == rows
        assert solutions_from_json(rows) == solutions


class TestCompetencyCatalog:
    def test_eight_questions(self):
        catalog = cq_catalog()
        assert [cq.id for cq in catalog] == ["CQ1a", "CQ1b", "CQ1c", "CQ2a",
                                            "CQ2b", "CQ3", "CQ4a", "CQ4b"]
        assert all(cq.prose for cq in catalog)

    def test_case_assignment(self):
        by_case = {}
        for cq in cq_catalog():
            by_case.setdefault(cq.case_id, []).append(cq.id)
        assert by_case == {"vermeer-balance": ["CQ1a", "CQ1b", "CQ1c"],
                           "laocoon": ["CQ2a", "CQ2b"],
                           "neptune": ["CQ3"],
                           "hercules-salvation": ["CQ4a", "CQ4b"]}

    def test_unknown_question(self):
        with pytest.raises(UnknownQuestionError):
            find_cq("CQ99")

    def test_goldens_cover_catalog(self):
        catalog = cq_catalog()
        ids = [cq.id for cq in catalog]
        assert len(set(ids)) == len(ids)
        assert {cq.case_id for cq in catalog} <= {case.id for case in list_cases()}
        for cq in catalog:
            golden = load_golden(cq.case_id)
            assert cq.id in golden and golden[cq.id]
        for case in list_cases():  # no golden entry lacks a question
            assert set(load_golden(case.id)) == {cq.id for cq in catalog
                                                 if cq.case_id == case.id}, case.id

    @pytest.mark.parametrize("case_id", ["x", 5, None, "../fixtures/laocoon"])
    def test_load_golden_refuses_an_unknown_case(self, case_id):
        with pytest.raises(UnknownCaseError):
            load_golden(case_id)

    def test_run_cq_matches_golden(self, case_closures):
        for cq in cq_catalog():
            result = run_cq(case_closures[cq.case_id], cq.id)
            assert result.matches_golden, cq.id

    def test_run_cq_detects_mismatch(self, reg):
        empty = Graph().freeze()
        from iconmodel.reasoner import close
        result = run_cq(close(empty, reg), "CQ3")
        assert not result.matches_golden and result.solutions == set()
