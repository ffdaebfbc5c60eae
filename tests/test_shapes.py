import json
import random
from importlib import resources

import pytest

from iconmodel.cli import main
from iconmodel.graph import Graph, Iri, Triple
from iconmodel.reasoner import RuleSet, close
from iconmodel.shapes import Severity, default_shapes, validate
from iconmodel.turtle_io import RDF_TYPE, parse_turtle

from conftest import CASE_IDS, MUTATIONS_DIR, registry_random_graph
from oracles import oracle_validate


def violations(report):
    return [e for e in report.entries if e.severity is Severity.VIOLATION]


D = "https://w3id.org/icon/data/test/"

VIOLATION_SHAPES = {"S1", "S3", "S4", "S5", "S6", "S7"}
WARNING_SHAPES = {"S2", "S8", "S9"}


def d(name):
    return Iri(D + name)


def hierarchy_closure(g, reg):
    return close(g, reg, RuleSet(hierarchy=True, shortcut_contraction=False)).graph()


@pytest.fixture(scope="module")
def shapes(reg):
    return default_shapes(reg)


class TestShapeSet:
    def test_nine_shapes_fixed_ids(self, shapes):
        assert [s.id for s in shapes] == [f"S{n}" for n in range(1, 10)]

    def test_severity_split(self, shapes):
        assert {s.id for s in shapes if s.severity is Severity.VIOLATION} \
            == VIOLATION_SHAPES
        assert {s.id for s in shapes if s.severity is Severity.WARNING} \
            == WARNING_SHAPES


class TestFixturesConform:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_case_conforms(self, case_id, reg, shapes, case_graphs):
        g = hierarchy_closure(case_graphs[case_id], reg)
        report = validate(g, shapes, reg)
        assert report.conforms, [
            (e.shape_id, e.focus) for e in violations(report)]


class TestMutations:
    """Each Violation shape has a fixture breaking exactly that shape."""

    CASES = [("s1-missing-assigned.ttl", "S1"),
             ("s3-untyped-event.ttl", "S3"),
             ("s4-untyped-motif.ttl", "S4"),
             ("s5-bad-document.ttl", "S5"),
             ("s6-bad-attribute.ttl", "S6"),
             ("s7-bad-symbolizer.ttl", "S7")]

    @pytest.mark.parametrize("filename,shape_id", CASES)
    def test_mutation_triggers_one_shape(self, filename, shape_id, reg, shapes):
        g = parse_turtle((MUTATIONS_DIR / filename).read_text("utf-8")).graph
        report = validate(hierarchy_closure(g, reg), shapes, reg)
        assert not report.conforms
        assert {e.shape_id for e in violations(report)} == {shape_id}

    def test_every_violation_shape_covered(self):
        assert {shape_id for _, shape_id in self.CASES} == VIOLATION_SHAPES


class TestIndividualShapes:
    def test_s1_passes_on_complete_recognition(self, reg, shapes):
        g = Graph([Triple(d("r"), RDF_TYPE, reg.iri("icon:IconologicalRecognition")),
                   Triple(d("r"), reg.iri("icon:assignsTo"), d("a")),
                   Triple(d("r"), reg.iri("icon:assigned"), d("m"))]).freeze()
        report = validate(g, shapes, reg)
        assert not [e for e in violations(report) if e.shape_id == "S1"]
        # missing P14 attribution surfaces as the S2 warning
        assert {e.shape_id for e in report.entries} == {"S2"}
        assert report.conforms

    def test_s7_accepts_each_level2_class(self, reg, shapes):
        for curie in ("vir:IC9_Representation", "vir:IC10_Attribute",
                      "vir:IC11_Personification", "vir:IC16_Character"):
            g = Graph([Triple(d("s"), RDF_TYPE, reg.iri(curie)),
                       Triple(d("s"), reg.iri("icon:symbolizes"), d("m"))]).freeze()
            report = validate(g, shapes, reg)
            assert not [e for e in violations(report) if e.shape_id == "S7"], curie

    def test_s8_warns_on_unsupported_visual_recognition(self, reg, shapes):
        g = Graph([Triple(d("v"), RDF_TYPE,
                          reg.iri("vir:IC12_Visual_Recognition"))]).freeze()
        report = validate(g, shapes, reg)
        assert {e.shape_id for e in report.entries} == {"S8"}
        assert report.conforms

    def test_s9_flags_unknown_predicate_and_class(self, reg, shapes):
        g = Graph([Triple(d("s"), Iri("http://other.org/mystery"), d("o")),
                   Triple(d("s"), RDF_TYPE, Iri("http://iconclass.org/94L3241"))
                   ]).freeze()
        report = validate(g, shapes, reg)
        flagged = {e.focus for e in report.entries if e.shape_id == "S9"}
        assert flagged == {Iri("http://other.org/mystery"),
                           Iri("http://iconclass.org/94L3241")}
        assert report.conforms

    def test_s9_ignores_data_namespace_terms(self, reg, shapes):
        g = Graph([Triple(d("s"), d("local-predicate"), d("o"))]).freeze()
        report = validate(g, shapes, reg)
        assert not [e for e in report.entries if e.shape_id == "S9"]


class TestReport:
    def test_json_schema(self, reg, shapes):
        g = Graph([Triple(d("r"), RDF_TYPE,
                          reg.iri("icon:IconologicalRecognition"))]).freeze()
        doc = json.loads(validate(g, shapes, reg).to_json())
        assert set(doc) == {"conforms", "entries"}
        assert doc["conforms"] is False
        for entry in doc["entries"]:
            assert set(entry) == {"focus", "shape", "severity", "message"}
            assert entry["severity"] in ("violation", "warning")

    def test_entries_sorted_deterministically(self, reg, shapes):
        g = Graph([Triple(d("b"), reg.iri("icon:symbolizes"), d("m")),
                   Triple(d("a"), reg.iri("icon:symbolizes"), d("m"))]).freeze()
        report = validate(g, shapes, reg)
        focuses = [e.focus for e in report.entries if e.shape_id == "S7"]
        assert focuses == sorted(focuses, key=lambda x: x.value)


class TestFullClosure:
    """`icon validate` validates the hierarchy closure only. Shortcut
    contraction makes every artwork with a recognition path an
    icon:symbolizes subject, and S7 flags each one that carries no
    subject class, although its fixture conforms."""

    S7_FLAGGED = {
        "hercules-salvation": ["salvation-relief"],
        "laocoon": ["vatican-manuscript-illumination"],
        "neptune": [],
        "vermeer-balance": ["allegory-of-faith-painting", "woman-holding-balance-painting"],
    }

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_contracted_closure_flags_untyped_symbolizers(self, case_id, reg, shapes,
                                                          case_closures):
        report = validate(case_closures[case_id].graph(), shapes, reg)
        flagged = self.S7_FLAGGED[case_id]
        assert [(e.focus, e.shape_id) for e in violations(report)] == [
            (Iri(f"https://w3id.org/icon/data/{case_id}/{name}"), "S7") for name in flagged]
        assert report.conforms is not bool(flagged)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_icon_validate_conforms(self, case_id, capsys):
        with resources.as_file(resources.files("iconmodel") / "fixtures"
                               / f"{case_id}.ttl") as path:
            assert main(["validate", "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["conforms"] is True


class TestAgainstOracle:
    """Every report entry, and no other, is a failure the oracle finds."""

    @staticmethod
    def assert_agrees(g, reg, shapes):
        for graph in (g, hierarchy_closure(g, reg), close(g, reg).graph()):
            entries = [(e.focus, e.shape_id, e.severity)
                       for e in validate(graph, shapes, reg).entries]
            assert len(entries) == len(set(entries))
            assert set(entries) == oracle_validate(set(graph), reg)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_fixtures(self, case_id, reg, shapes, case_graphs):
        self.assert_agrees(case_graphs[case_id], reg, shapes)

    @pytest.mark.parametrize("filename", [f for f, _ in TestMutations.CASES])
    def test_mutations(self, filename, reg, shapes):
        g = parse_turtle((MUTATIONS_DIR / filename).read_text("utf-8")).graph
        self.assert_agrees(g, reg, shapes)

    def test_random_registry_graphs(self, reg, shapes):
        rng = random.Random(7)
        for _ in range(150):
            self.assert_agrees(registry_random_graph(rng, reg), reg, shapes)
