"""The package surface and the import graph: each command loads only what it runs."""

import importlib
import json
import os
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


def _loaded_after(code: str) -> list[str]:
    """The glocon modules a fresh interpreter holds after running ``code``
    with its stdout discarded."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'glocon')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


BASE = ["glocon", "glocon.io", "glocon.model"]


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import glocon", ["glocon"]),
        ("import glocon.io", BASE),
        ("import glocon; glocon.Severity", sorted([*BASE, "glocon.lint"])),
        ("import glocon; glocon.lint.CATALOG", sorted([*BASE, "glocon.lint"])),
        (f"from glocon import cli; cli.run(['stats', {CORPUS!r}])", sorted([*BASE, "glocon.cli"])),
        (
            f"from glocon import cli; cli.run(['agree', {CORPUS!r}, {CORPUS!r}])",
            sorted([*BASE, "glocon.cli", "glocon.agreement"]),
        ),
        (
            f"from glocon import cli; cli.run(['assemble', {CORPUS!r}])",
            sorted([*BASE, "glocon.cli", "glocon.assemble"]),
        ),
        (
            f"from glocon import cli; cli.run(['validate', {CORPUS!r}])",
            sorted([*BASE, "glocon.cli", "glocon.lint"]),
        ),
    ],
    ids=["package", "io", "name", "submodule", "stats", "agree", "assemble", "validate"],
)
def test_each_command_loads_only_what_it_runs(code, loaded):
    assert _loaded_after(code) == loaded
