import contextlib
import random
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from iconmodel.graph import (BlankNode, Graph, GraphError, Iri, Literal, Triple,
                             isomorphic)
from iconmodel.turtle_io import (ErrorKind, ParseError, RDF_TYPE, _Parser, _tokens,
                                 parse_turtle, serialize_turtle)
from iconmodel.vocab import NAMESPACES
from iconmodel.casebook import case_document, list_cases

from conftest import CASE_IDS, turtle_random_graph
from oracles import oracle_serialize, oracle_tokens

EX = "@prefix ex: <http://example.org/> .\n"
# 20,000 statements on lines 2 to 20,001
STATEMENTS = EX + "ex:s ex:p ex:o .\n" * 20_000


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once seconds have passed, so a
    parser that loops or backtracks without end fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestParseBasics:
    def test_single_triple(self):
        r = parse_turtle(EX + "ex:s ex:p ex:o .")
        assert len(r.graph) == 1
        assert r.prefixes == {"ex": "http://example.org/"}

    def test_a_keyword_is_rdf_type(self):
        r = parse_turtle(EX + "ex:s a ex:C .")
        [t] = list(r.graph)
        assert t.predicate == RDF_TYPE

    def test_predicate_and_object_lists(self):
        r = parse_turtle(EX + "ex:s ex:p ex:o1, ex:o2 ; ex:q ex:o3 .")
        assert len(r.graph) == 3

    def test_trailing_semicolon_tolerated(self):
        r = parse_turtle(EX + "ex:s ex:p ex:o ; .")
        assert len(r.graph) == 1

    def test_labelled_blank_nodes(self):
        r = parse_turtle(EX + "_:x ex:p _:y .")
        [t] = list(r.graph)
        assert t.subject == BlankNode("x") and t.object == BlankNode("y")

    def test_anonymous_nodes_get_document_order_labels(self):
        r = parse_turtle(EX + "ex:s ex:p [ ex:q ex:o ] .\nex:s ex:p [] .")
        assert r.graph.blank_labels() == {"b1", "b2"}

    def test_anonymous_labels_skip_explicit_ones(self):
        r = parse_turtle(EX + "_:b1 ex:p ex:x . [ ex:q ex:y ] ex:r ex:z .")
        [explicit] = r.graph.match(p=Iri("http://example.org/p"))
        [anon] = r.graph.match(p=Iri("http://example.org/r"))
        assert explicit.subject == BlankNode("b1")
        assert anon.subject != explicit.subject
        assert r.graph.match(s=anon.subject, p=Iri("http://example.org/q"))

    def test_anonymous_labels_skip_explicit_ones_written_later(self):
        r = parse_turtle(EX + "[ ex:q ex:y ] ex:r ex:z . _:b1 ex:p ex:x .")
        [anon] = r.graph.match(p=Iri("http://example.org/r"))
        assert anon.subject == BlankNode("b2")

    def test_string_escapes(self):
        r = parse_turtle(EX + 'ex:s ex:p "a\\"b\\\\c\\nd\\te\\rf" .')
        [t] = list(r.graph)
        assert t.object.lexical == 'a"b\\c\nd\te\rf'

    def test_empty_string_is_not_triple_quoted(self):
        r = parse_turtle(EX + 'ex:s ex:p "" .')
        [t] = list(r.graph)
        assert t.object == Literal("")

    def test_lang_and_datatype(self):
        r = parse_turtle(EX + 'ex:s ex:p "ciao"@IT .\n'
                              'ex:s ex:q "4"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        objs = {t.object for t in r.graph}
        assert Literal("ciao", lang="it") in objs
        assert Literal("4", datatype=Iri("http://www.w3.org/2001/XMLSchema#integer")) in objs

    def test_comments_and_blank_lines(self):
        r = parse_turtle("# header\n\n" + EX + "ex:s ex:p ex:o . # tail\n")
        assert len(r.graph) == 1

    def test_base_resolves_relative_iris(self):
        r = parse_turtle("@base <http://example.org/> .\n<s> <p> <o> .")
        [t] = list(r.graph)
        assert t.subject == Iri("http://example.org/s")

    def test_relative_base_resolves_against_base(self):
        r = parse_turtle("@base <http://example.org/> .\n@base <sub/> .\n<s> <p> <o> .")
        assert r.base == Iri("http://example.org/sub/")

    def test_redeclared_prefix_and_base_resolve_anew(self):
        r = parse_turtle("@prefix e: <http://a/> .\n@base <http://a/> .\ne:s e:p <o> .\n"
                         "@prefix e: <http://b/> .\n@base <http://b/> .\ne:s e:p <o> .")
        assert set(r.graph) == {Triple(Iri(f"http://{x}/s"), Iri(f"http://{x}/p"),
                                       Iri(f"http://{x}/o")) for x in "ab"}

    @pytest.mark.parametrize("text,resolved,triples", [
        ("@prefix e: <http://a/> .\n@prefix f: <http://f/> .\n"
         "e:s e:p f:o .\n"
         "@prefix e: <http://a/> .\ne:s e:p f:o .\n"  # same namespace
         "@prefix e: <http://b/> .\ne:s e:p f:o .\n",  # a new one
         ["e:s", "e:p", "f:o", "e:s", "e:p"],
         [("a/s", "a/p", "f/o"), ("b/s", "b/p", "f/o")]),
        # e:s under three redefinitions of e:, which keep ex:p and :o, and
        # one of the empty prefix, which keeps e:s and ex:p
        ("@prefix e: <http://a/> .\n@prefix ex: <http://x/> .\n@prefix : <http://c/> .\n"
         "e:s ex:p :o .\n@prefix e: <http://b/> .\ne:s ex:p :o .\n"
         "@prefix e: <http://a/> .\ne:s ex:p :o .\n@prefix : <http://d/> .\ne:s ex:p :o .\n"
         "@prefix e: <http://b/> .\ne:s ex:p :o .\n",
         ["e:s", "ex:p", ":o", "e:s", "e:s", ":o", "e:s"],
         [("a/s", "x/p", "c/o"), ("b/s", "x/p", "c/o"), ("a/s", "x/p", "d/o"),
          ("b/s", "x/p", "d/o")]),
    ])
    def test_redeclared_prefix_drops_only_its_own_cached_curies(self, monkeypatch, text,
                                                                 resolved, triples):
        seen = []
        resolve = _Parser._node

        def spy(parser, i, *args, **kwargs):
            seen.append(parser.tokens[i])
            return resolve(parser, i, *args, **kwargs)

        monkeypatch.setattr(_Parser, "_node", spy)
        r = parse_turtle(text)
        assert seen == resolved
        assert set(r.graph) == {Triple(*(Iri(f"http://{x}") for x in t)) for t in triples}

    def test_one_iri_written_two_ways_is_one_term(self):
        # a CURIE and an <IRI>, and "a" and rdf:type, resolve to equal terms
        r = parse_turtle("@prefix e: <http://e/> .\n"
                         "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
                         "e:a a e:C .\n<http://e/a> rdf:type e:C .\n"
                         "e:a e:p <http://e/a> .\n<http://e/a> e:p e:a .\n")
        a = Iri("http://e/a")
        assert len(r.graph) == 2
        assert set(r.graph) == {Triple(a, RDF_TYPE, Iri("http://e/C")),
                                Triple(a, Iri("http://e/p"), a)}
        assert {type(term) for t in r.graph for term in t} == {Iri}

    def test_dotted_local_names(self):
        r = parse_turtle("@prefix vir: <http://w3id.org/vir#> .\n"
                         "vir:a vir:K4.1_prototypical_mode \"copy\" .")
        [t] = list(r.graph)
        assert t.predicate == Iri("http://w3id.org/vir#K4.1_prototypical_mode")

    def test_empty_document(self):
        assert len(parse_turtle("").graph) == 0


class TestParseErrors:
    def err(self, text):
        with pytest.raises(ParseError) as e:
            parse_turtle(text)
        return e.value

    def test_undeclared_prefix(self):
        e = self.err("ex:s ex:p ex:o .")
        assert e.kind is ErrorKind.UNDECLARED_PREFIX

    def test_missing_dot(self):
        e = self.err(EX + "ex:s ex:p ex:o")
        assert e.kind is ErrorKind.UNTERMINATED_STATEMENT

    def test_unterminated_string(self):
        e = self.err(EX + 'ex:s ex:p "open .')
        assert e.kind is ErrorKind.BAD_LITERAL

    def test_unterminated_iri(self):
        e = self.err("@prefix ex: <http://example.org/\n")
        assert e.kind is ErrorKind.BAD_IRI

    @pytest.mark.parametrize("name", ["ex:b", "_:b", '"b"'])
    def test_base_must_be_an_iri_token(self, name):
        # even a CURIE that names an absolute IRI is refused after @base
        e = self.err(EX + f"@base {name} .")
        assert (e.line, e.column, e.kind, e.message) == (
            2, 7, ErrorKind.UNEXPECTED_TOKEN, "base IRI expected")

    @pytest.mark.parametrize("doc,column,kind,message", [
        ('@prefix e: "x" .', 12, "UNEXPECTED_TOKEN", "namespace IRI expected"),
        ("@prefix e: <http://e/> e:s e:p e:o .", 24, "UNTERMINATED_STATEMENT",
         "'.' expected after directive"),
        ("<http://e/s> <http://e/p> [ <http://e/q> <http://e/o> .", 55,
         "UNTERMINATED_STATEMENT", "']' expected"),
    ])
    def test_unfinished_directive_or_bracket(self, doc, column, kind, message):
        e = self.err(doc)
        assert (e.line, e.column, e.kind, e.message) == (1, column, ErrorKind[kind],
                                                          message)

    def test_collections_rejected(self):
        e = self.err(EX + "ex:s ex:p (ex:a ex:b) .")
        assert e.kind is ErrorKind.UNEXPECTED_TOKEN

    def test_numeric_shorthand_rejected(self):
        e = self.err(EX + "ex:s ex:p 42 .")
        assert e.kind is ErrorKind.UNEXPECTED_TOKEN

    def test_boolean_shorthand_rejected(self):
        e = self.err(EX + "ex:s ex:p true .")
        assert e.kind is ErrorKind.UNEXPECTED_TOKEN

    def test_triple_quotes_rejected(self):
        e = self.err(EX + 'ex:s ex:p """long""" .')
        assert e.kind is ErrorKind.UNEXPECTED_TOKEN

    def test_deep_nesting_is_a_parse_error(self):
        doc = EX + "ex:s ex:p " + "[ ex:p " * 3000 + "ex:o" + " ]" * 3000 + " ."
        with pytest.raises(ParseError) as info:
            parse_turtle(doc)
        # the 101st "[" is the first one past the limit
        assert (info.value.line, info.value.column) == (2, 11 + 100 * len("[ ex:p "))

    @pytest.mark.parametrize("tail", ["ex:s ex:p _:b", "ex:s a", 'ex:s ex:p "x"@en'])
    def test_name_at_end_of_input(self, tail):
        with deadline(5), pytest.raises(ParseError):
            parse_turtle(EX + tail)

    @pytest.mark.parametrize("tag", ["\u0130", "PREFIX", "Base"])
    def test_tag_unreadable_once_lower_cased(self, tag):
        # Literal lower-cases the tag: "İ" becomes "i" plus a combining dot,
        # "PREFIX" becomes a directive keyword; neither could be written back
        e = self.err(EX + 'ex:s ex:p\t"x"@' + tag + " .")
        assert (e.line, e.column, e.kind) == (2, 14, ErrorKind.BAD_LITERAL)

    @pytest.mark.parametrize("doc,line,column", [
        ("@base <s> .", 1, 7),
        ("@prefix e: <> .\ne:s e:p e:o .", 2, 1),
        ("@prefix e: <rel/> .\ne:s e:p e:o .", 2, 1),
    ])
    def test_relative_iri_without_base(self, doc, line, column):
        e = self.err(doc)
        assert (e.line, e.column, e.kind) == (line, column, ErrorKind.BAD_IRI)

    def test_error_carries_position(self):
        e = self.err(EX + "ex:s ex:p %bad .")
        assert e.line == 2 and e.column == 11
        assert "line 2" in str(e)

    # Each object sits on line 3, after a comment line and a tab, at column
    # 12; an escape error points at its backslash.
    @pytest.mark.parametrize("obj,column,kind,message", [
        ("<< ex:a ex:b ex:c >>", 12, "UNEXPECTED_TOKEN", "quoted triples"),
        ("<http://e/a b>", 12, "BAD_IRI", "unterminated or malformed IRI"),
        ('"""x"""', 12, "UNEXPECTED_TOKEN", "triple-quoted"),
        ('"open', 12, "BAD_LITERAL", "unterminated string"),
        ('"ab\\q"', 15, "BAD_LITERAL", "unsupported escape \\q"),
        ("_: ex:o", 12, "UNEXPECTED_TOKEN", "blank node label expected"),
        ("( ex:a )", 12, "UNEXPECTED_TOKEN", "collections"),
        ('"x"@ ', 15, "UNEXPECTED_TOKEN", "bad '@' token"),
        ("42", 12, "UNEXPECTED_TOKEN", "numeric shorthand"),
        ("²x:o", 12, "UNEXPECTED_TOKEN", "numeric shorthand"),  # \w admits "²"
        ("true", 12, "UNEXPECTED_TOKEN", "boolean shorthand"),
        ("foo", 12, "UNEXPECTED_TOKEN", "unexpected token 'foo'"),
        ("%bad", 12, "UNEXPECTED_TOKEN", "unexpected character '%'"),
        # after a comment that holds tokens and then no token, the error
        # opens line 4
        ("# ex:a %\n%", 1, "UNEXPECTED_TOKEN", "unexpected character '%'"),
        ("# see a ~\n42", 1, "UNEXPECTED_TOKEN", "numeric shorthand"),
        ('#"x" <http://e/a> %\n"open', 1, "BAD_LITERAL", "unterminated string"),
        ("#_:b ex:a |\n²x:o", 1, "UNEXPECTED_TOKEN", "numeric shorthand"),
    ])
    def test_lexer_error_positions(self, obj, column, kind, message):
        e = self.err(EX + "# a comment\n\tex:s ex:p " + obj + " .")
        line = 3 + obj.count("\n")
        assert (e.line, e.column, e.kind) == (line, column, ErrorKind[kind])
        assert message in e.message

    @pytest.mark.parametrize("last,offset", [
        ("ex:s ex:p %bad .", 10),  # the lexer's error
        ("ex:s ex:p ex:o", 14),  # the parser's, at the end of input
    ])
    def test_error_in_the_last_statement_of_a_long_document(self, last, offset):
        fixtures = "\n".join(case_document(c.id) for c in list_cases())
        text = "\n".join([fixtures] * 5) + "\n" + EX + "\t" + last
        e = self.err(text)
        lines = text[:len(text) - len(last) + offset].split("\n")
        assert (e.line, e.column) == (len(lines), len(lines[-1]) + 1)

    @pytest.mark.parametrize("bad,message", [
        ("%", "unexpected character '%'"),
        ("²x:o", "numeric shorthand"),  # a PNAME to the pattern, but no name
    ])
    @pytest.mark.parametrize("first", ["ex:s ex:p .", "ex:s ex:p ex:o", "e:s ex:p ex:o ."])
    def test_lex_error_wins_over_an_earlier_parse_error(self, first, bad, message):
        e = self.err(EX + first + "\nex:s ex:p ex:o .\n\tex:s ex:p " + bad
                     + " .\nex:s ex:p ex:o .")
        assert (e.line, e.column, e.kind) == (4, 12, ErrorKind.UNEXPECTED_TOKEN)
        assert message in e.message

    def test_prefix_label_that_starts_with_a_numeral_is_a_lex_error(self):
        e = self.err("@prefix ²x: <http://example.org/> .\n²x:s ²x:p ²x:o .")
        assert (e.line, e.column, e.kind) == (1, 9, ErrorKind.UNEXPECTED_TOKEN)
        assert "numeric shorthand" in e.message

    def test_no_token_is_read_inside_a_comment(self):
        # the skip over whitespace and comments never gives back a part of
        # a comment for a token to match, such as the keyword "a" here
        e = self.err(EX + "ex:s ex:p ex:o . # see a %\n%")
        assert (e.line, e.column, e.kind) == (3, 1, ErrorKind.UNEXPECTED_TOKEN)
        assert e.message == "unexpected character '%'"


# Characters that start, end or break tokens, and ones that look like name
# characters but are not (numerals, a capital that lower-cases to two).
TURTLE_ALPHABET = list("<>\"'\\_:@^.;,[]()#a-+²½İé0 \t\r\n") + [
    '"""', "<<", "\\q", "\\n", "ex:", "_:b", "@prefix", "@base", "true", "<http://e/>",
    "<>", "<s>", "ex:a.b", "ex:a..b", "ex:a.-", "ex:-.a", "# #", "#\n#"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TURTLE_ALPHABET), max_size=40).map("".join))
@example("@base <s> .")  # no base to resolve against
@example("@prefix e: <> . e:s e:p e:o .")  # the CURIE is not an absolute IRI
def test_parse_raises_only_parse_error(text):
    for doc in (text, EX + text, EX + "ex:s ex:p " + text):
        try:
            parse_turtle(doc)
        except ParseError:
            pass


def lexed(doc):
    """oracle_tokens(doc), or its error as (line, column, kind, message)."""
    try:
        return oracle_tokens(doc)
    except ParseError as e:
        return (e.line, e.column, e.kind, e.message)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TURTLE_ALPHABET), max_size=40).map("".join))
def test_lexer_agrees_with_oracle(text):
    """The lexer reads the oracle's tokens, and then at most one more EOF
    token. Where the oracle finds a lex error, parsing raises that error,
    whatever parse error comes first: the lexer raises one that ends the
    text, and the parser refuses a PNAME such as "²x:o"."""
    for doc in (text, EX + text):
        want = lexed(doc)
        if isinstance(want, list):
            tokens = _tokens(doc)
            assert tokens[:len(want)] == want and tokens[len(want):] in ([], [""])
        else:
            with pytest.raises(ParseError) as e:
                parse_turtle(doc)
            assert (e.value.line, e.value.column, e.value.kind, e.value.message) == want


def test_long_trailing_whitespace_and_comments_parse_quickly():
    tail = (" " * 90 + "# a comment\n") * 2_000  # 204,000 characters
    with deadline(0.5):
        r = parse_turtle(STATEMENTS + tail)
    assert len(r.graph) == 1


def test_lex_error_after_long_document_is_found_quickly():
    with deadline(0.5), pytest.raises(ParseError) as e:
        parse_turtle(STATEMENTS + "ex:s ex:p\t%")
    assert (e.value.line, e.value.column) == (20_002, 11)
    assert e.value.message == "unexpected character '%'"


@pytest.mark.parametrize("doc, triples", [
    (STATEMENTS + "# " * 100_000, 1),
    (STATEMENTS + "# a # b ## c #\n" * 20_000, 1),
    (EX + "ex:s ex:p ex:" + "a-." * 33_334, 1),
    (EX + "@prefix " + "p" * 100_000 + ": <http://example.org/> .\n"
     + "p" * 100_000 + ":s ex:p ex:o .", 1),
    (EX + "ex:s ex:p " + "p" * 100_000 + " .", None),
], ids=["comment-line-of-hash-pairs", "comment-lines-of-several-hashes",
        "dotted-local-name-ending-in-dot", "long-prefix-label", "long-word"])
def test_long_guarded_repeats_lex_quickly(doc, triples):
    """Each repeat that the lexer guards by its first character, run
    100,000 characters long: a comment skip, a local name's dotted tail
    and a prefix label, which must read the whole document or refuse it
    in time."""
    with deadline(0.5):
        try:
            r = parse_turtle(doc)
        except ParseError:
            r = None
    assert (None if r is None else len(r.graph)) == triples


@pytest.mark.parametrize("doc", [
    EX + 'ex:s ex:p "' + "x" * 200_000,
    " \t\r\n# comment\n" * 20_000 + "%",
    EX + "ex:s ex:p <" + "a" * 200_000,
    EX + "ex:s ex:p ex:" + "a." * 100_000 + ".",
], ids=["unterminated-string", "whitespace-and-comments", "unterminated-iri",
        "dotted-local-name"])
def test_long_input_is_rejected_quickly(doc):
    with deadline(0.5), pytest.raises(ParseError):
        parse_turtle(doc)


class TestSerializer:
    def test_deterministic_output(self):
        text = EX + "ex:b ex:p ex:o .\nex:a ex:p ex:o1, ex:o2 .\n"
        g = parse_turtle(text).graph
        out1 = serialize_turtle(g, {"ex": "http://example.org/"})
        out2 = serialize_turtle(g, {"ex": "http://example.org/"})
        assert out1 == out2
        # subjects sorted, rdf:type rendered as "a"
        assert out1.index("ex:a ") < out1.index("ex:b ")

    def test_rdf_type_renders_as_a(self):
        g = Graph([Triple(Iri("http://example.org/s"), RDF_TYPE,
                          Iri("http://example.org/C"))]).freeze()
        out = serialize_turtle(g, {"ex": "http://example.org/"})
        assert "ex:s a ex:C ." in out

    def test_uncontractable_iri_uses_angle_brackets(self):
        g = Graph([Triple(Iri("urn:uuid:123"), Iri("http://other.org/p"),
                          Literal("x"))]).freeze()
        out = serialize_turtle(g, {"ex": "http://example.org/"})
        assert "<urn:uuid:123>" in out and "<http://other.org/p>" in out

    def test_longest_namespace_wins(self):
        prefixes = {"a": "http://example.org/", "ab": "http://example.org/sub/"}
        g = Graph([Triple(Iri("http://example.org/sub/x"),
                          Iri("http://example.org/p"), Literal("1"))]).freeze()
        out = serialize_turtle(g, prefixes)
        assert "ab:x" in out

    def test_trailing_dot_local_not_contracted(self):
        g = Graph([Triple(Iri("http://example.org/name."),
                          Iri("http://example.org/p"), Literal("1"))]).freeze()
        out = serialize_turtle(g, {"ex": "http://example.org/"})
        assert "<http://example.org/name.>" in out

    def test_rdf_type_is_a_only_as_predicate(self):
        s, p = Iri("http://example.org/s"), Iri("http://example.org/p")
        g = Graph([Triple(RDF_TYPE, RDF_TYPE, RDF_TYPE), Triple(s, p, RDF_TYPE)]).freeze()
        assert serialize_turtle(g, {"ex": "http://example.org/"}) == (
            "@prefix ex: <http://example.org/> .\n\nex:s ex:p <{0}> .\n\n<{0}> a <{0}> .\n"
            .format(RDF_TYPE))
        assert serialize_turtle(g, EXAMPLE_PREFIXES).endswith(
            "\nex:s ex:p rdf:type .\n\nrdf:type a rdf:type .\n")

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_any_iterable_of_triples_gives_the_same_text(self, case_closures, case_id):
        # icon infer --emit inferred passes closure.inferred, a view of a dict's keys
        inferred = case_closures[case_id].inferred
        assert len(inferred) > 0
        text = serialize_turtle(Graph(inferred).freeze(), NAMESPACES)
        for triples in (list(inferred), (t for t in inferred), iter(list(inferred)), inferred):
            assert serialize_turtle(triples, NAMESPACES) == text


class TestRoundTrip:
    @pytest.mark.parametrize("case_id", [c.id for c in list_cases()])
    def test_fixture_round_trip(self, case_id):
        g = parse_turtle(case_document(case_id)).graph
        text = serialize_turtle(g, NAMESPACES)
        assert isomorphic(g, parse_turtle(text).graph)

    def test_random_round_trips(self):
        rng = random.Random(20240817)
        for _ in range(100):
            g = turtle_random_graph(rng)
            text = serialize_turtle(g, {"ex": "http://example.org/",
                                        "rdf": NAMESPACES["rdf"]})
            assert isomorphic(g, parse_turtle(text).graph)

    def test_nested_anonymous_binary_tree(self):
        # 63 blank nodes on six levels; both children share one predicate,
        # so only the tree's shape pairs the nodes up
        def tree(depth):
            if depth == 1:
                return '[ ex:value "1" ]'
            return f"[ ex:child {tree(depth - 1)}, {tree(depth - 1)} ]"

        g = parse_turtle(EX + f"ex:root ex:child {tree(6)} .").graph
        # node[0] is ex:root, node[i]'s children are node[2i] and node[2i + 1],
        # and node[32..63] are the leaves
        node = [Iri("http://example.org/root")]
        node += [BlankNode(f"t{i}") for i in range(63, 0, -1)]
        child, value = Iri("http://example.org/child"), Iri("http://example.org/value")
        built = Graph([Triple(node[i // 2], child, node[i]) for i in range(1, 64)]
                      + [Triple(node[i], value, Literal("1")) for i in range(32, 64)]).freeze()
        assert len(g.blank_labels()) == 63 and isomorphic(g, built)
        text = serialize_turtle(g, {"ex": "http://example.org/"})
        assert isomorphic(parse_turtle(text).graph, built)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(seed):
    g = turtle_random_graph(random.Random(seed))
    text = serialize_turtle(g, {"ex": "http://example.org/"})
    assert isomorphic(g, parse_turtle(text).graph)


# Terms the parser cannot read back, and awkward ones that it can.
UNREADABLE = [Iri("http://example.org/a b"), Iri("http://example.org/a>b"),
              Iri("urn:x{y}"), BlankNode("a b"), BlankNode("a.b"),
              Literal("x", lang="en us"), Literal("x", lang="prefix"),
              Literal("x", datatype=Iri("http://example.org/d t"))]
READABLE = [Iri("http://example.org/a..b"), Iri("http://example.org/a.b"),
            Iri("http://other.org/a\\b"), BlankNode("a-b_c"),
            Literal("x", lang="en-us"), Literal("carriage\rreturn")]
EXAMPLE_PREFIXES = {"ex": "http://example.org/", "rdf": NAMESPACES["rdf"]}


def round_trips_or_refuses(g: Graph, prefixes) -> bool:
    """True if g round-trips, False if the serializer refuses it."""
    try:
        text = serialize_turtle(g, prefixes)
    except GraphError:
        return False
    assert isomorphic(g, parse_turtle(text).graph), text
    return True


class TestRoundTripPromise:
    @pytest.mark.parametrize("term", UNREADABLE + READABLE, ids=repr)
    def test_each_term(self, term):
        s, p = Iri("http://example.org/s"), Iri("http://example.org/p")
        triples = [Triple(s, p, term)]
        if not isinstance(term, Literal):
            triples.append(Triple(term, p, s))
        for u in triples:
            g = Graph([u]).freeze()
            assert round_trips_or_refuses(g, EXAMPLE_PREFIXES) == (term in READABLE)

    def test_error_names_the_term(self):
        g = Graph([Triple(Iri("http://example.org/s"), Iri("http://example.org/p"),
                          Iri("http://example.org/a b"))]).freeze()
        with pytest.raises(GraphError, match="<http://example.org/a b>"):
            serialize_turtle(g, EXAMPLE_PREFIXES)

    def test_error_names_a_subjects_terms_before_the_subject(self):
        p = Iri("http://example.org/p")
        g = Graph([Triple(BlankNode("s x"), p, BlankNode("o x"))]).freeze()
        with pytest.raises(GraphError, match="o x"):
            serialize_turtle(g, EXAMPLE_PREFIXES)
        g = Graph([Triple(BlankNode("s x"), Iri("http://example.org/p q"), p)]).freeze()
        with pytest.raises(GraphError, match="p q"):
            serialize_turtle(g, EXAMPLE_PREFIXES)

    @pytest.mark.parametrize("prefixes", [{"_": "http://example.org/"},
                                          {"1x": "http://example.org/"},
                                          {"²x": "http://example.org/"},
                                          {"ex": "http://example.org/a b/"}])
    def test_unreadable_prefix_is_refused(self, prefixes):
        with pytest.raises(GraphError):
            serialize_turtle(Graph().freeze(), prefixes)

    def test_random_graphs_with_awkward_terms(self):
        rng = random.Random(31)
        for _ in range(100):
            g = turtle_random_graph(rng)
            extra = rng.sample(UNREADABLE + READABLE, 2)
            subjects = sorted({t.subject for t in g}, key=repr)
            subject = rng.choice(subjects or [Iri("urn:s")])
            g = Graph(list(g) + [Triple(subject, Iri("http://example.org/p0"), x)
                                 for x in extra]).freeze()
            refused = any(x in UNREADABLE for x in extra)
            assert round_trips_or_refuses(g, EXAMPLE_PREFIXES) is not refused


def serialized(serialize, triples, prefixes) -> str:
    """serialize's text, or its GraphError's message."""
    try:
        return serialize(triples, prefixes)
    except GraphError as e:
        return f"GraphError: {e}"


def test_serializer_agrees_with_oracle():
    """300 random graphs, each with 1 to 3 awkward terms as subject,
    predicate or object, under one of three prefix maps: the same text, or
    the same GraphError, which with several unreadable terms pins the one
    that is named."""
    rng = random.Random(2023)
    prefix_maps = [EXAMPLE_PREFIXES, {}, {"ex": "http://example.org/", "x": "urn:x",
                                          "exa": "http://example.org/a", "o": "http://other.org/"}]
    seen = {"written": 0, "refused": 0, "refused, several unreadable": 0}
    for _ in range(300):
        g = turtle_random_graph(rng)
        nodes = sorted({t.subject for t in g}, key=repr) or [Iri("urn:s")]
        predicates = sorted({t.predicate for t in g}, key=repr) or [Iri("urn:p")]
        triples = list(g)
        extra = rng.sample(UNREADABLE + READABLE, rng.randint(1, 3))
        for x in extra:
            spo = [rng.choice(nodes), rng.choice(predicates), rng.choice(nodes)]
            places = [2] + [0] * (not isinstance(x, Literal)) + [1] * isinstance(x, Iri)
            spo[rng.choice(places)] = x
            triples.insert(rng.randrange(len(triples) + 1), Triple(*spo))
        prefixes = rng.choice(prefix_maps)
        g = Graph(triples).freeze()
        text = serialized(serialize_turtle, g, prefixes)
        assert text == serialized(oracle_serialize, g, prefixes)
        # a list may hold a triple twice, and then writes its object twice
        assert (serialized(serialize_turtle, triples, prefixes)
                == serialized(oracle_serialize, triples, prefixes))
        unreadable = len({x for x in extra if x in UNREADABLE})
        seen["written" if unreadable == 0 else "refused"] += 1
        seen["refused, several unreadable"] += unreadable > 1
        assert text.startswith("GraphError") == (unreadable > 0)
    assert min(seen.values()) >= 30, seen
