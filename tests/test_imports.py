"""What importing the package and running each `icon` subcommand loads.

The package namespace resolves its names on first use, and each
subcommand imports only the library modules it runs. Both are checked in
fresh interpreters, since the test process has long since imported every
module.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import iconmodel

SRC = str(Path(iconmodel.__file__).parents[1])
SUBMODULES = ("graph", "turtle_io", "vocab", "reasoner", "shapes", "query", "casebook")


def python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, ICON_NO_COLOR="1")
    return subprocess.run([sys.executable, *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, env=env, timeout=60)


def imported(*argv: str) -> tuple[int, set[str]]:
    """Exit code and every module imported by `python -X importtime ARGV`:
    the interpreter logs each module the first time it is imported."""
    proc = python("-X", "importtime", *argv)
    return proc.returncode, {line.rsplit("|", 1)[1].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


def ours(names: set[str]) -> set[str]:
    return {n for n in names if n.split(".")[0] == "iconmodel"}


def loaded(*argv: str) -> tuple[int, set[str]]:
    """Exit code and the iconmodel modules among those imported."""
    code, names = imported(*argv)
    return code, ours(names)


# ~9 ms a run at import, and the package's records need neither
UNWANTED = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def startup() -> set[str]:
    """What the interpreter itself imports before running any code."""
    return imported("-c", "pass")[1]


def mods(*names: str) -> set[str]:
    return {"iconmodel", *(f"iconmodel.{n}" for n in names)}


PARSE = ("graph", "turtle_io")
INFER = PARSE + ("vocab", "reasoner")
QUERY = PARSE + ("vocab", "query")
CASES = ("graph", "vocab", "casebook")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("load-sets")
    doc = work / "laocoon.ttl"
    doc.write_text((resources.files("iconmodel") / "fixtures" / "laocoon.ttl")
                   .read_text("utf-8"), "utf-8")
    pattern = work / "pattern.json"
    pattern.write_text(json.dumps({
        "select": ["?entity", "?meaning"],
        "where": [["?entity", {"seq": [{"inv": "icon:assignsTo"}, "icon:assigned"]},
                   "?meaning"]]}), "utf-8")
    bad = work / "bad.ttl"
    bad.write_text("not turtle at all", "utf-8")
    return {"DOC": str(doc), "PATTERN": str(pattern), "BAD": str(bad)}


# argv, exit code, modules loaded; a run that fails stops loading where it fails
LOAD_SETS = [
    (["parse", "DOC"], 0, mods(*PARSE)),
    (["infer", "DOC"], 0, mods(*INFER)),
    (["validate", "DOC", "--json"], 0, mods(*INFER, "shapes")),
    (["query", "DOC", "PATTERN"], 0, mods(*QUERY)),
    (["query", "DOC", "PATTERN", "--infer"], 0, mods(*INFER, "query")),
    (["cq", "list"], 0, mods("graph", "vocab", "query")),
    (["cq", "run", "CQ3"], 0, mods(*INFER, "query", "casebook")),
    (["cq", "run-all"], 0, mods(*INFER, "query", "casebook")),
    (["cases", "list"], 0, mods(*CASES)),
    (["cases", "export", "laocoon"], 0, mods(*CASES)),
    (["validate", "BAD"], 2, mods(*PARSE)),
    (["query", "DOC", "BAD"], 2, mods(*PARSE)),
    (["cq", "run-all", "CQ1a"], 2, mods()),
    (["query", "-", "-"], 2, mods()),
]


@pytest.mark.parametrize("argv, code, expected", LOAD_SETS,
                         ids=[" ".join(argv) for argv, _, _ in LOAD_SETS])
def test_subcommand_loads_only_its_modules(inputs, startup, argv, code, expected):
    argv = [inputs.get(a, a) for a in argv]
    got, names = imported("-m", "iconmodel.cli", *argv)
    assert (got, ours(names)) == (code, expected)
    assert (names - startup) & UNWANTED == set()


@pytest.mark.parametrize("module", [*SUBMODULES, "cli"])
def test_module_import_loads_no_dataclasses_or_inspect(startup, module):
    code, names = imported("-c", f"import iconmodel.{module}")
    assert (code, (names - startup) & UNWANTED) == (0, set())


def test_source_parses_as_the_oldest_supported_python():
    # pyproject.toml: requires-python = ">=3.10"; this checks syntax only,
    # not what the standard library of 3.10 accepts (such as regex syntax)
    for path in sorted(Path(iconmodel.__file__).parent.glob("*.py")):
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))


# each core module imports graph and vocab, never the Turtle module
@pytest.mark.parametrize("module", ["vocab", "reasoner", "shapes", "query"])
def test_core_module_loads_no_turtle_module(module):
    assert loaded("-c", f"import iconmodel.{module}") == (
        0, mods("graph", "vocab", module))


def test_bare_import_loads_no_submodule():
    assert loaded("-c", "import iconmodel") == (0, mods())


def test_cli_import_loads_no_library_module():
    assert loaded("-c", "import iconmodel.cli") == (0, mods("cli"))


def home_object(name: str):
    return getattr(importlib.import_module(f"iconmodel.{iconmodel._HOME[name]}"), name)


class TestNamespace:
    def test_every_export_has_a_home(self):
        for name in iconmodel.__all__:
            obj = home_object(name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == f"iconmodel.{iconmodel._HOME[name]}", name

    def test_getattr_gives_the_home_object(self):
        assert [n for n in iconmodel.__all__
                if getattr(iconmodel, n) is not home_object(n)] == []

    def test_star_import_in_a_fresh_interpreter(self):
        proc = python("-c", "\n".join([
            "import importlib, iconmodel",
            "from iconmodel import *",
            "wrong = [n for n in iconmodel.__all__ if globals()[n] is not getattr(",
            "    importlib.import_module('iconmodel.' + iconmodel._HOME[n]), n)]",
            "print(wrong)"]))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_dir_lists_every_export_and_submodule(self):
        listed = dir(iconmodel)
        assert set(iconmodel.__all__) <= set(listed)
        assert set(SUBMODULES) <= set(listed)
        assert listed == sorted(listed)

    def test_submodules_resolve_after_a_bare_import(self):
        proc = python("-c", "\n".join([
            "import sys, iconmodel",
            f"for m in {SUBMODULES!r}:",
            "    assert getattr(iconmodel, m) is sys.modules['iconmodel.' + m], m",
            "print(iconmodel.query.evaluate.__name__)"]))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "evaluate\n", "")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            iconmodel.nope
        with pytest.raises(ImportError):
            from iconmodel import nope  # noqa: F401
        assert not hasattr(iconmodel, "__nope__")
