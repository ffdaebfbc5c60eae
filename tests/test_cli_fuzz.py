"""The CLI's exit-code contract under arbitrary input: every subcommand,
run in-process through main(), exits 0, 1 or 2 and never raises."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from iconmodel.cli import main
from iconmodel.query import solutions_from_json

# Whole statements that reach the reasoner and the shapes; raw bytes, and
# fragments mixed with raw bytes, that usually stop the reader or the lexer.
HEADER = ("@prefix e: <http://example.org/> .\n"
          "@prefix icon: <https://w3id.org/icon/ontology/> .\n"
          "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n")
STATEMENTS = [
    "@base <http://example.org/> .",
    "e:r a icon:IconologicalRecognition ; icon:assignsTo e:x ; icon:assigned e:m .",
    "e:r2 a icon:IconologicalRecognition .",
    "e:m a icon:CulturalPhenomenon .",
    "e:x icon:symbolizes e:m .",
    "e:A rdfs:subClassOf e:B .",
    "e:x a e:A .",
    "_:b e:p [ e:q \"x\"@en ] .",
    "@prefix r: <rel> .",  # a relative namespace: r:x expands to no absolute IRI
]
PIECES = HEADER.splitlines() + STATEMENTS + [
    "e:s", "e:o", "<s>", "<http://e/x>", "_:b", "[", "]", "(", ")", "a",
    "icon:assigned", "icon:symbolizes", '"x"', '"x"@en', '"x"@', '"1"^^e:t',
    '"""a\nb"""', "1", ".", ";", ",", "# c\n", "\n", "\\", "é", "İ", "@",
]
documents = st.lists(st.sampled_from(STATEMENTS), max_size=12).map(
    lambda lines: (HEADER + "\n".join(lines)).encode())
turtle = st.one_of(
    documents, st.binary(max_size=100),
    st.lists(st.one_of(st.sampled_from(PIECES).map(str.encode), st.binary(max_size=3)),
             max_size=30).map(b" ".join))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5),
                                                              kids, max_size=3),
    max_leaves=8)
terms = st.sampled_from(["?s", "?o", "e:x", "e:m", "_:b", "r:x",
                         {"lit": "x", "lang": "en"}, {"lit": "x", "datatype": "r:x"}])
odd_terms = st.sampled_from(["nope:x", "x", "<>", "_:", "?", 5, None, {"lit": 5},
                             {"lit": "x", "lang": "en", "datatype": "e:t"}])
predicates = st.sampled_from(["?p", "?q", "e:p", "r:x", "icon:assigned",
                              "icon:assignsTo", "icon:symbolizes"])


def paths(leaves, min_parts):
    def compound(kids):
        return (st.builds(lambda k, v: {k: v}, st.sampled_from(["inv", "plus"]), kids)
                | st.builds(lambda k, v: {k: v}, st.sampled_from(["seq", "alt"]),
                            st.lists(kids, min_size=min_parts, max_size=3)))
    return st.recursive(leaves, compound, max_leaves=4)


def where_clauses(term, path):
    return st.fixed_dictionaries({
        "select": st.lists(st.sampled_from(["?s", "?o"]), max_size=2),
        "where": st.lists(st.tuples(term, path, term).map(list), min_size=1, max_size=3)})


patterns = st.one_of(json_values, where_clauses(terms, paths(predicates, 2)),
                     where_clauses(terms | odd_terms, paths(predicates | odd_terms, 0)))
pattern_bytes = st.one_of(patterns.map(lambda doc: json.dumps(doc).encode()),
                          st.binary(max_size=20))

DOC, PATTERN, TEXT = "DOC", "PATTERN", "TEXT"
COMMANDS = [
    ["parse", DOC], ["validate", DOC], ["validate", "--json", DOC],
    ["validate", "--no-axioms", DOC], ["infer", DOC],
    ["infer", "--emit", "inferred", DOC],
    ["infer", "--emit", "base", "--rules", "domainrange,shortcuts", DOC],
    ["infer", "--rules", TEXT, DOC], ["query", DOC, PATTERN],
    ["query", "--infer", DOC, PATTERN], ["cq", "run", TEXT],
    ["cq", "run-all", "--case", TEXT], ["cases", "export", TEXT],
]


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_main(where, argv, doc, pattern, text=""):
    (where / "doc.ttl").write_bytes(doc)
    (where / "pattern.json").write_bytes(pattern)
    fill = {DOC: str(where / "doc.ttl"), PATTERN: str(where / "pattern.json"),
            TEXT: text}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([fill.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=10, deadline=None)
@given(doc=turtle, pattern=pattern_bytes, text=st.text(max_size=8))
def test_any_input_keeps_the_exit_code_contract(where, command, doc, pattern, text):
    run_main(where, command, doc, pattern, text)


# Most drawn documents do not parse, so patterns get their own run over
# documents that do.
@pytest.mark.parametrize("infer", [[], ["--infer"]], ids=["asserted", "closure"])
@settings(max_examples=40, deadline=None)
@given(doc=documents, pattern=pattern_bytes)
def test_any_pattern_keeps_the_exit_code_contract(where, infer, doc, pattern):
    run_main(where, ["query", *infer, DOC, PATTERN], doc, pattern)


# Objects of one predicate that are IRIs, blank nodes and literals, so one
# variable binds all three across the rows of one answer.
MIXED = ["e:x e:p e:y .", "e:x e:p _:b .", 'e:x e:p "v" .', 'e:x e:p "v"@en .',
         'e:y e:p "1"^^e:t .', 'e:y e:q "v" .', "e:y e:q e:x ."]


@pytest.mark.parametrize("infer", [[], ["--infer"]], ids=["asserted", "closure"])
@settings(max_examples=30, deadline=None)
@given(lines=st.lists(st.sampled_from(MIXED), min_size=1, max_size=7),
       select=st.permutations(["?s", "?p", "?o"]))
def test_a_variable_bound_to_iris_and_literals_is_exit_0(where, infer, lines, select):
    doc = (HEADER + "\n".join(lines)).encode()
    pattern = json.dumps({"select": select, "where": [["?s", "?p", "?o"]]}).encode()
    code, out = run_main(where, ["query", *infer, DOC, PATTERN], doc, pattern)
    rows = json.loads(out)
    assert code == 0 and len(solutions_from_json(rows)) == len(rows) >= len(set(lines))
