"""The operations the benchmark runs, each as a fresh child process.

An operation is one ``python -m glocon.cli ...`` command, or the library
round trip ``save_corpus(out, load_corpus(C)[0])``.  ``check`` compares
what it produced with the generator's expected results.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from dataclasses import dataclass

import checks

# Timed operations, in the order of the first round.
TIMED = ("validate", "assemble", "stats", "roundtrip", "agree_strict", "agree_lenient")
# Untimed operations run once per run to check every kappa.
KAPPA = ("agree_doc", "agree_sentence")
KAPPA_LEVELS = {
    "agree_doc": ["doc_protest", "doc_violent", "doc_demand"],
    "agree_sentence": ["sentence"],
}
ROUNDTRIP = (
    "import sys\n"
    "from glocon.io import load_corpus, save_corpus\n"
    "save_corpus(sys.argv[2], load_corpus(sys.argv[1])[0])\n"
)
_PAIRING = re.compile(r"^(\d+) pairs, unmatched a=\[\], b=\[\], token mismatches=0$", re.M)
_SUMMARY = re.compile(r"^(\d+) documents: (\d+) errors, (\d+) warnings, (\d+) info$", re.M)
_ASSEMBLED = re.compile(r"^(\d+) events from (\d+) documents$", re.M)


@dataclass(frozen=True)
class Paths:
    """Input and output files of one run, relative to the checkout root."""

    work: str

    @property
    def a(self) -> str:
        return os.path.join(self.work, "a.glocon.jsonl")

    @property
    def b(self) -> str:
        return os.path.join(self.work, "b.glocon.jsonl")

    @property
    def out(self) -> str:
        return os.path.join(self.work, "roundtrip.glocon.jsonl")

    @property
    def stdout(self) -> str:
        return os.path.join(self.work, "stdout")

    @property
    def stderr(self) -> str:
        return os.path.join(self.work, "stderr")


def argv(op: str, paths: Paths) -> list[str]:
    """Command line of an operation, after the interpreter (``cli.run`` takes argv[2:])."""
    cli = ["-m", "glocon.cli"]
    if op == "roundtrip":
        return ["-c", ROUNDTRIP, paths.a, paths.out]
    if op in ("validate", "stats"):
        return cli + [op, paths.a, "--format", "json"]
    if op == "assemble":
        return cli + ["assemble", paths.a, "--format", "csv"]
    if op in ("agree_strict", "agree_lenient"):
        return cli + ["agree", paths.a, paths.b, "--level", "token", "--mode", op[6:],
                      "--format", "json"]
    return cli + ["agree", paths.a, paths.b, "--level", op[6:], "--format", "json"]


def expected_exit(op: str, expected: dict) -> int:
    """0 success, 1 error-level findings (validate), 3 rejected lines."""
    if op == "roundtrip":
        return 0
    if expected["bad_lines"]:
        return 3
    if op == "validate" and any(
        checks.SEVERITY[rule] == "error" for diags in expected["lint"].values() for rule, _ in diags
    ):
        return 1
    return 0


def check(op: str, paths: Paths, code: int, expected: dict, missed: Counter) -> list[str]:
    """Problems with what ``op`` just wrote to ``paths``; adds missed W140/W141 to ``missed``."""
    problems = []
    want = expected_exit(op, expected)
    if code != want:
        problems.append(f"{op}: exit code {code}, expected {want}")
    with open(paths.stdout, "rb") as handle:
        stdout = handle.read()
    with open(paths.stderr, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    if op == "roundtrip":
        with open(paths.out, "rb") as handle:
            return problems + checks.roundtrip(handle.read(), expected)
    problems += checks.rejected_lines(stderr, paths.a, expected)
    if op == "validate":
        found, more_missed = checks.validate_json(stdout, expected)
        problems += found
        missed.update(more_missed)
        summary = _SUMMARY.search(stderr)
        if summary is None or int(summary.group(1)) != expected["stats"]["documents"]:
            problems.append("validate: summary line missing or wrong document count")
    elif op == "stats":
        problems += checks.stats(stdout, expected)
    elif op == "assemble":
        problems += checks.assemble_csv(stdout, expected)
        note = _ASSEMBLED.search(stderr)
        if note is None or (int(note.group(1)), int(note.group(2))) != (
                len(expected["event_keys"]), expected["stats"]["documents"]):
            problems.append("assemble: summary line missing or wrong")
    else:
        problems += checks.rejected_lines(stderr, paths.b, {"bad_lines": []})
        note = _PAIRING.search(stderr)
        if note is None or int(note.group(1)) != expected["agree"]["pairs"]:
            problems.append(f"{op}: pairing note missing or wrong")
        if op in KAPPA_LEVELS:
            problems += checks.kappa_json(stdout, expected, KAPPA_LEVELS[op])
        else:
            problems += checks.span_agreement(stdout, expected, op[6:])
    return [f"{op}: {p}" if not p.startswith(op) else p for p in problems]


def output_digest(op: str, paths: Paths) -> bytes:
    """What must not change between repetitions: stdout, or the written file."""
    with open(paths.out if op == "roundtrip" else paths.stdout, "rb") as handle:
        return hashlib.sha256(handle.read()).digest()
