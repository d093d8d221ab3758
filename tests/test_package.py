"""The package surface and the import graph: each command loads only what it runs."""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import glocon

ROOT = Path(__file__).resolve().parent.parent
CORPUS = str(ROOT / "data" / "worked_examples.glocon.jsonl")

# every name ``glocon`` exports, by the module that defines it
EXPORTS = {
    "agreement": (
        "AgreementLevel", "KappaResult", "MatchMode", "PRFReport", "label_kappa",
        "pair_corpora", "span_prf",
    ),
    "assemble": (
        "EventRecord", "ParticipantRecord", "assemble_events", "check_separation",
        "export_rows",
    ),
    "io": (
        "ParseError", "ParseErrorKind", "iter_corpus", "load_corpus", "parse_corpus",
        "parse_event_refs", "save_corpus", "serialize_corpus",
    ),
    "lint": (
        "CATALOG", "Diagnostic", "LintConfig", "Severity", "allowed_overlap",
        "validate_corpus", "validate_document",
    ),
    "model": (
        "Annotation", "DemandLabel", "DocumentLabels", "DocumentRecord", "Focus",
        "InvariantError", "ProtestLabel", "SentenceLabel", "SentenceRecord", "TagId",
        "TokenSpan", "ViolenceLabel", "coterminous", "overlaps",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestSurface:
    def test_all_is_every_exported_name(self):
        assert sorted(glocon.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_its_module_attribute(self, module, name):
        defined = getattr(importlib.import_module(f"glocon.{module}"), name)
        assert getattr(glocon, name) is defined
        assert name in dir(glocon)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from glocon import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"glocon.{module}"), name)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="module 'glocon' has no attribute 'nothing'"):
            glocon.nothing  # noqa: B018
        with pytest.raises(ImportError):
            exec("from glocon import nothing", {})

    def test_version(self):
        assert glocon.__version__ == "0.1.0"


def _loaded_after(code: str, *flags: str) -> list[str]:
    """The modules a fresh interpreter, started with ``flags``, holds after
    running ``code`` with its stdout discarded."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


BASE = ["glocon", "glocon.io", "glocon.model"]


def _command(*argv: str) -> str:
    return f"from glocon import cli; cli.run({list(argv)!r})"


COMMANDS = {
    "stats": _command("stats", CORPUS),
    "agree": _command("agree", CORPUS, CORPUS),
    "assemble": _command("assemble", CORPUS),
    "validate": _command("validate", CORPUS),
}


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import glocon", ["glocon"]),
        ("import glocon.io", BASE),
        ("import glocon; glocon.Severity", sorted([*BASE, "glocon.lint"])),
        ("import glocon; glocon.lint.CATALOG", sorted([*BASE, "glocon.lint"])),
        (COMMANDS["stats"], sorted([*BASE, "glocon.cli"])),
        (COMMANDS["agree"], sorted([*BASE, "glocon.cli", "glocon.agreement"])),
        (COMMANDS["assemble"], sorted([*BASE, "glocon.cli", "glocon.assemble"])),
        (COMMANDS["validate"], sorted([*BASE, "glocon.cli", "glocon.lint"])),
    ],
    ids=["package", "io", "name", "submodule", "stats", "agree", "assemble", "validate"],
)
def test_each_command_loads_only_what_it_runs(code, loaded):
    assert [m for m in _loaded_after(code) if m.split(".")[0] == "glocon"] == loaded


@pytest.mark.parametrize(
    "code", ["import glocon.io", *COMMANDS.values()], ids=["io", *COMMANDS]
)
def test_no_command_loads_dataclasses_inspect_or_typing(code):
    # -S: without site, whose .pth files may import typing themselves
    loaded = set(_loaded_after(code, "-S"))
    assert "glocon.io" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


@pytest.mark.parametrize(
    "build, changes",
    [
        (
            lambda: glocon.Diagnostic(
                "E010", glocon.Severity.ERROR, "d", 0, glocon.TokenSpan(0, 0, 1), ("a",), "m"
            ),
            {"message": "n", "span": None},
        ),
        (lambda: glocon.ParseError(3, None, glocon.ParseErrorKind.BAD_SPAN, "m"), {"line": 4}),
        (
            lambda: glocon.assemble_events(glocon.load_corpus(CORPUS)[0][0])[0],
            {"event_number": 9},
        ),
    ],
    ids=["Diagnostic", "ParseError", "EventRecord"],
)
def test_values_pickle_and_replace(build, changes):
    value = build()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
    changed = value._replace(**changes)
    assert type(changed) is type(value) and changed._asdict() == value._asdict() | changes
    with pytest.raises(AttributeError):
        value.note = "x"
