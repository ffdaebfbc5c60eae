import errno
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import iconmodel
from iconmodel.cli import main
from iconmodel.graph import Iri, Literal
from iconmodel.query import solutions_from_json

from conftest import MUTATIONS_DIR


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("ICON_NO_COLOR", "1")


@pytest.fixture()
def fixture_path(tmp_path):
    def path_for(name):
        text = (resources.files("iconmodel") / "fixtures" / name).read_text("utf-8")
        out = tmp_path / name
        out.write_text(text, "utf-8")
        return str(out)
    return path_for


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_fixture_counts_and_prefixes(self, capsys, fixture_path):
        code, out, err = run(capsys, "parse", fixture_path("vermeer-balance.ttl"))
        assert code == 0
        assert out.splitlines()[0] == "44 triples"
        assert "@prefix icon: <https://w3id.org/icon/ontology/>" in out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "parse", "/no/such/file.ttl")
        assert code == 2 and "icon:" in err

    def test_malformed_input_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text("@prefix ex: <http://example.org/> .\nex:s ex:p (1) .\n")
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2 and "line 2" in err and "col" in err

    def test_non_utf8_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.ttl"
        bad.write_bytes("# caf\xe9\n".encode("latin-1"))
        code, out, err = run(capsys, "parse", str(bad))
        assert code == 2 and err.startswith("icon:") and "Traceback" not in err

    def test_unwritable_language_tag_is_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "tag.ttl"
        doc.write_text('<http://e/s> <http://e/p> "x"@\u0130 .\n', "utf-8")
        code, out, err = run(capsys, "parse", str(doc))
        assert code == 2 and err.startswith("icon:") and "line 1, col 30" in err
        assert out == ""

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .\n"))
        code, out, err = run(capsys, "parse", "-")
        assert code == 0 and out.startswith("1 triples")

    def test_non_utf8_stdin_reads_as_the_file(self, capsys, monkeypatch, tmp_path):
        data = b'@prefix ex: <http://example.org/> .\r\nex:s ex:p "caf\xff" .\r\n'
        doc = tmp_path / "latin1.ttl"
        doc.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        code, out, err = run(capsys, "parse", "-")
        assert code == 2 and out == ""
        at = data.index(b"\xff")
        assert err == f"icon: -: not UTF-8 text: invalid start byte at byte {at}\n"
        assert run(capsys, "parse", str(doc))[2] == err.replace("-:", f"{doc}:", 1)


class TestValidate:
    def test_fixture_conforms(self, capsys, fixture_path):
        code, out, err = run(capsys, "validate", fixture_path("laocoon.ttl"))
        assert code == 0 and "conforms" in out

    def test_mutation_fails_naming_shape(self, capsys):
        code, out, err = run(capsys, "validate",
                             str(MUTATIONS_DIR / "s1-missing-assigned.ttl"))
        assert code == 1 and "[S1]" in out

    def test_json_report_schema(self, capsys, fixture_path):
        code, out, err = run(capsys, "validate", "--json",
                             fixture_path("hercules-salvation.ttl"))
        assert code == 0
        doc = json.loads(out)
        assert doc["conforms"] is True
        assert all(set(e) == {"focus", "shape", "severity", "message"}
                   for e in doc["entries"])

    def test_no_axioms_skips_closure(self, capsys, tmp_path):
        # identifying attribute typed only via a subclass-free assertion:
        # without the hierarchy closure the S6 target check still applies
        doc = tmp_path / "doc.ttl"
        doc.write_text(
            "@prefix icon: <https://w3id.org/icon/ontology/> .\n"
            "@prefix vir: <http://w3id.org/vir#> .\n"
            "@prefix d: <https://w3id.org/icon/data/x/> .\n"
            "d:c icon:hasIdentifyingAttribute d:a .\n"
            "d:a a vir:IC10_Attribute .\n")
        code, out, err = run(capsys, "validate", "--no-axioms", str(doc))
        assert code == 0

    def test_parse_error_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text("not turtle at all")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2

    @pytest.mark.parametrize("flag, focus", [("--json", '"focus": "x"'), (None, "] x:")])
    def test_literal_focus_prints_its_lexical_form(self, capsys, tmp_path, flag, focus):
        doc = tmp_path / "lit.ttl"
        doc.write_text('<http://e/a> <https://w3id.org/icon/ontology/isDocumentOf> "x" .\n')
        code, out, err = run(capsys, "validate", str(doc), *([flag] if flag else []))
        assert code == 1 and focus in out and "S5" in out


class TestInfer:
    def test_inferred_contains_document_links(self, capsys, fixture_path):
        code, out, err = run(capsys, "infer", fixture_path("vermeer-balance.ttl"),
                             "--emit", "inferred")
        assert code == 0 and "icon:isDocumentOf" in out

    def test_deterministic_output(self, capsys, fixture_path):
        path = fixture_path("neptune.ttl")
        _, out1, _ = run(capsys, "infer", path)
        _, out2, _ = run(capsys, "infer", path)
        assert out1 == out2

    def test_emit_base_is_input_graph(self, capsys, fixture_path):
        from iconmodel import isomorphic, parse_turtle
        path = fixture_path("laocoon.ttl")
        code, out, err = run(capsys, "infer", path, "--emit", "base")
        assert isomorphic(parse_turtle(out).graph,
                          parse_turtle(open(path).read()).graph)

    def test_carriage_return_in_a_literal_survives_a_file(self, capsys, tmp_path):
        from iconmodel import Graph, Iri, Literal, Triple, parse_turtle, serialize_turtle
        t = Triple(Iri("http://example.org/s"), Iri("http://example.org/p"),
                   Literal("a\rb"))
        doc = tmp_path / "cr.ttl"
        # newline="" writes the text as is; the CLI reads with universal newlines
        with open(doc, "w", encoding="utf-8", newline="") as f:
            f.write(serialize_turtle(Graph([t]).freeze(), {}))
        code, out, err = run(capsys, "infer", str(doc), "--emit", "base")
        assert (code, err) == (0, "")
        assert set(parse_turtle(out).graph) == {t}

    def test_empty_rules_rejected(self, capsys, fixture_path):
        code, out, err = run(capsys, "infer", fixture_path("laocoon.ttl"),
                             "--rules", "")
        assert code == 2 and "no rules" in err

    def test_unknown_rule_rejected(self, capsys, fixture_path):
        code, out, err = run(capsys, "infer", fixture_path("laocoon.ttl"),
                             "--rules", "hierarchy,magic")
        assert code == 2 and "magic" in err

    def test_unwritable_language_tag_is_exit_2(self, capsys, tmp_path):
        # "İ" lower-cases to "i" plus a combining dot, which no tag can hold
        doc = tmp_path / "tag.ttl"
        doc.write_text('<http://e/s> <http://e/p> "x"@\u0130 .\n', "utf-8")
        code, out, err = run(capsys, "infer", str(doc))
        assert code == 2 and err.startswith("icon:") and "Traceback" not in err
        assert out == ""

    def test_shortcuts_only(self, capsys, fixture_path):
        code, out, err = run(capsys, "infer", fixture_path("vermeer-balance.ttl"),
                             "--rules", "shortcuts", "--emit", "inferred")
        assert code == 0 and "icon:symbolizes" in out
        assert "crm:P9_consists_of" not in out


class TestQuery:
    def test_json_pattern_over_closure(self, capsys, tmp_path, fixture_path):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({
            "select": ["?rel"],
            "where": [["<https://w3id.org/icon/data/vermeer-balance/weighing-balance-event>",
                       "?rel",
                       "<https://w3id.org/icon/data/vermeer-balance/weighing-souls-event>"]]}))
        code, out, err = run(capsys, "query", "--infer",
                             fixture_path("vermeer-balance.ttl"), str(pattern))
        assert code == 0
        rows = json.loads(out)
        assert {r["?rel"] for r in rows} == {
            "https://w3id.org/icon/ontology/symbolicallyRefersTo",
            "http://www.cidoc-crm.org/cidoc-crm/P9_consists_of"}

    def test_variable_bound_to_iris_and_literals(self, capsys, tmp_path, fixture_path):
        # ?o binds IRIs and literals, and rows tie on ?s and ?rel
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?s", "?rel", "?o"],
                                       "where": [["?s", "?rel", "?o"]]}))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"), str(pattern))
        assert code == 0 and err == ""
        rows = json.loads(out)
        solutions = solutions_from_json(rows)
        assert len(solutions) == len(rows) > 0
        assert {type(dict(x.bindings)["o"]) for x in solutions} >= {Iri, Literal}

    def test_iri_and_blank_node_of_one_text_print_apart(self, capsys, tmp_path):
        doc = tmp_path / "d.ttl"
        doc.write_text("<http://e/s> <http://e/p> <_:b>, _:b .\n")
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?o"], "where": [["?s", "?p", "?o"]]}))
        code, out, err = run(capsys, "query", str(doc), str(pattern))
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"?o": "<_:b>"}, {"?o": "_:b"}]

    @pytest.mark.parametrize("term", ["x:p", {"lit": "v", "datatype": "x:d"}])
    def test_curie_of_a_relative_prefix_is_exit_2(self, capsys, tmp_path, term):
        doc = tmp_path / "d.ttl"
        doc.write_text("@prefix x: <foo> .\n<http://e/s> <http://e/p> <http://e/o> .\n")
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?s"], "where": [["?s", "?p", term]]}))
        code, out, err = run(capsys, "query", str(doc), str(pattern))
        assert code == 2 and out == ""
        assert err.startswith("icon:") and err.count("\n") == 1 and "'x:" in err

    @pytest.mark.parametrize("select, row", [(["?"], ["?s", "?p", "?o"]),
                                             (["?s"], ["?s", "?", "?o"])])
    def test_bare_question_mark_is_exit_2(self, capsys, tmp_path, fixture_path,
                                          select, row):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": select, "where": [row]}))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"), str(pattern))
        assert code == 2 and out == ""
        assert err.startswith("icon:") and "has no name" in err

    def test_bad_pattern_json(self, capsys, tmp_path, fixture_path):
        pattern = tmp_path / "q.json"
        pattern.write_text("{not json")
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2

    def test_deeply_nested_json_is_exit_2(self, capsys, tmp_path, fixture_path):
        pattern = tmp_path / "q.json"
        pattern.write_text("[" * 100_000)
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2 and out == ""
        assert err.startswith("icon:") and "bad JSON" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", ["seq", "alt"])
    def test_long_seq_and_alt_are_exit_0(self, capsys, tmp_path, fixture_path, key):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?s"], "where": [
            ["?s", {key: ["crm:P62_depicts"] * 3000}, "?o"]]}))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 0 and err == ""
        assert isinstance(json.loads(out), list)

    def test_non_utf8_pattern_is_exit_2(self, capsys, tmp_path, fixture_path):
        pattern = tmp_path / "q.json"
        pattern.write_bytes(b'{"select": ["?s"], "where": [["?s", "?p", "\xff"]]}')
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2 and err.startswith("icon:") and "Traceback" not in err

    def test_unlabelled_blank_node_is_exit_2(self, capsys, tmp_path, fixture_path):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?p"], "where": [["_:", "?p", "?o"]]}))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2 and err.startswith("icon:") and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"select": 5, "where": []},
        {"select": ["?s"], "where": 5},
        {"select": ["?s"], "where": [["?s", {"seq": 5}, "?o"]]},
        {"select": ["?s"], "where": [["?s", {"alt": 5}, "?o"]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": 5}]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "lang": 5}]]},
        {"select": ["?s"], "where": [["?s", "?p", {"lit": "x", "datatype": 5}]]},
    ])
    def test_malformed_pattern_part_is_exit_2(self, capsys, tmp_path, fixture_path,
                                              doc):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps(doc))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2 and err.startswith("icon:") and "Traceback" not in err

    def test_graph_and_pattern_both_from_stdin_is_exit_2(self, capsys, monkeypatch):
        stdin = io.StringIO("@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .\n")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "query", "-", "-")
        assert (code, out) == (2, "")
        assert err == "icon: the graph and the pattern cannot both come from stdin\n"
        assert stdin.tell() == 0  # rejected before anything was read

    @pytest.mark.parametrize("path", [{"plus": "?p"}, {"inv": {"seq": ["?p", "?q"]}}])
    def test_path_variable_is_exit_2(self, capsys, tmp_path, fixture_path, path):
        pattern = tmp_path / "q.json"
        pattern.write_text(json.dumps({"select": ["?s"], "where": [["?s", path, "?o"]]}))
        code, out, err = run(capsys, "query", fixture_path("laocoon.ttl"),
                             str(pattern))
        assert code == 2 and out == ""
        assert err.startswith("icon:") and len(err.splitlines()) == 1


class TestCq:
    def test_list_has_eight_entries(self, capsys):
        code, out, err = run(capsys, "cq", "list")
        assert code == 0 and len(out.strip().splitlines()) == 8

    def test_run_single(self, capsys):
        code, out, err = run(capsys, "cq", "run", "CQ3")
        assert code == 0
        assert "ruler-who-quells-the-rioting" in out
        assert "GOLDEN MATCH" in out

    def test_run_all(self, capsys):
        code, out, err = run(capsys, "cq", "run-all")
        assert code == 0 and out.count("GOLDEN MATCH") == 8

    def test_run_all_reads_each_golden_once(self, capsys, monkeypatch):
        import iconmodel.query as query
        calls = []

        def counted(name):
            real = getattr(query, name)

            def wrapper(*args):
                calls.append((name, *args))
                return real(*args)
            monkeypatch.setattr(query, name, wrapper)

        counted("load_golden")
        counted("cq_catalog")
        code, out, err = run(capsys, "cq", "run-all")
        assert code == 0 and out.count("GOLDEN MATCH") == 8
        cases = ["hercules-salvation", "laocoon", "neptune", "vermeer-balance"]
        assert sorted(calls) == [("cq_catalog",), *(("load_golden", c) for c in cases)]

    def test_run_all_single_case(self, capsys):
        code, out, err = run(capsys, "cq", "run-all", "--case", "laocoon")
        assert code == 0 and out.count("GOLDEN MATCH") == 2

    def test_unknown_id(self, capsys):
        code, out, err = run(capsys, "cq", "run", "CQ99")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["cq", "run-all", "CQ1a"], "cq run-all takes no question id"),
        (["cq", "list", "CQ1"], "cq list takes no question id"),
        (["cq", "list", "--case", "laocoon"],
         "cq list takes no --case; it applies to cq run-all"),
        (["cq", "run", "CQ3", "--case", "laocoon"],
         "cq run takes no --case; it applies to cq run-all"),
    ])
    def test_extra_argument_is_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"icon: {message}\n")


class TestCases:
    def test_list(self, capsys):
        code, out, err = run(capsys, "cases", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4 and lines[0].startswith("hercules-salvation")

    @pytest.mark.parametrize("argv", [["x"], ["--out", "dir"], ["x", "--out", "dir"]])
    def test_list_with_extra_argument_is_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "cases", "list", *argv)
        assert (code, out) == (2, "")
        assert err == "icon: cases list takes no case id and no --out\n"
        assert not (tmp_path / "dir").exists()

    def test_export_to_stdout(self, capsys):
        code, out, err = run(capsys, "cases", "export", "neptune")
        assert code == 0 and "quos-ego" in out

    def test_export_to_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "exported"
        code, out, err = run(capsys, "cases", "export", "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "hercules-salvation.ttl", "laocoon.ttl", "neptune.ttl",
            "vermeer-balance.ttl"]

    def test_export_needs_a_case_id_or_a_directory(self, capsys):
        code, out, err = run(capsys, "cases", "export")
        assert (code, out, err) == (2, "", "icon: cases export needs a case id or --out DIR\n")

    def test_export_unknown_case(self, capsys):
        code, out, err = run(capsys, "cases", "export", "nope")
        assert code == 2

    def test_export_unknown_case_makes_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "exported"
        code, out, err = run(capsys, "cases", "export", "nope", "--out", str(out_dir))
        assert code == 2 and not out_dir.exists()

    def test_export_under_a_regular_file_is_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        code, out, err = run(capsys, "cases", "export", "laocoon",
                             "--out", str(blocker / "sub"))
        assert code == 2 and out == ""
        assert err.startswith("icon:") and len(err.splitlines()) == 1


SRC = Path(iconmodel.__file__).resolve().parents[1]
FIXTURE = str(SRC / "iconmodel" / "fixtures" / "vermeer-balance.ttl")


def run_process(argv, closed_fd=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                unbuffered=False):
    """An icon run as its own process, optionally with fd 0, 1 or 2 closed;
    colour stays on so that a closed stdout is asked whether it is a tty."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("ICON_NO_COLOR", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "iconmodel.cli", *argv],
                          stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=stderr, env=env, timeout=60,
                          preexec_fn=None if closed_fd is None
                          else lambda: os.close(closed_fd))


class TestBrokenStreams:
    """A read or write that fails is exit 2 with one "icon:" line; a closed
    stdout is not an error."""

    def test_closed_stdin_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", None)
        assert run(capsys, "parse", "-") == (2, "", "icon: -: standard input is closed\n")

    def test_closed_stdin(self):
        proc = run_process(["parse", "-"], closed_fd=0)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, b"", b"icon: -: standard input is closed\n")

    @pytest.mark.parametrize("argv", [["cq", "list"], ["cq", "run", "CQ3"],
                                      ["infer", FIXTURE], ["validate", FIXTURE],
                                      ["cases", "export", "laocoon"]])
    def test_closed_stdout_is_not_an_error(self, argv):
        proc = run_process(argv, closed_fd=1, stdout=None)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["cq", "list"], ["infer", FIXTURE], ["--help"]])
    def test_full_stdout_is_exit_2(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = run_process(argv, stdout=full, unbuffered=unbuffered)
        # one line, with no traceback and no "Exception ignored" after it
        assert (proc.returncode, proc.stderr.decode()) == (
            2, f"icon: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("stderr", ["closed", "/dev/full"])
    def test_refusal_that_cannot_be_written_is_exit_2(self, stderr, unbuffered):
        if stderr == "closed":
            proc = run_process(["parse", "/nope"], closed_fd=2, stderr=None,
                               unbuffered=unbuffered)
        elif not os.path.exists(stderr):
            pytest.skip("needs /dev/full")
        else:
            with open(stderr, "wb") as full:
                proc = run_process(["parse", "/nope"], stderr=full, unbuffered=unbuffered)
        # the report goes nowhere: not to stdout, and no exit-time flush fails
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_failed_stdout_without_a_descriptor_is_exit_2(self, capsys, monkeypatch):
        class Full(io.StringIO):  # fileno() raises io.UnsupportedOperation
            def write(self, text=""):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            flush = write
        monkeypatch.setattr("sys.stdout", Full())
        assert main(["cq", "list"]) == 2
        assert capsys.readouterr().err.count("icon: ") == 1
