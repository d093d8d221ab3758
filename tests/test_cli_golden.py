"""Golden CLI outputs: the exact stdout of ``validate``, ``stats``,
``assemble`` and ``agree`` on small fixed corpus pairs.

``golden/labels_a.glocon.jsonl`` is ``randdocs.random_corpus(8, seed=12)``.
``golden/labels_b.glocon.jsonl`` is the same documents with each one taking
the next document's labels (``economic_welfare`` read as
``economic_non_welfare``) and every odd sentence's label moved one step
along ``none -> 0 -> 1 -> 2 -> none``.  Between them they hold every
document-label value, unlabeled fields, ``no_protest`` documents and
sentence labels 0, 1, 2 and none.  Their annotations are identical.

``golden/spans_b.glocon.jsonl`` is ``labels_a`` with fixed span edits, so
that token-level agreement has something to score.  Taking each
document's annotations in canonical order, the ones at positions 1, 6,
11, ... are shifted one token right (left when they end their sentence;
a span over a whole sentence stays), those at 3, 8, 13, ... are dropped,
and those at 4, 9, 14, ... are retagged ``event_mention`` (``event_type``
when they were ``event_mention``).  Every document with annotations gains
``x1``, a copy of its first annotation widened by one token on the right
(on the left when it ends its sentence), and ``x2``, an ``event_place``
of event 1 on the last token of its last sentence.

The ``golden/<case>.out`` files of the ``stats``, ``assemble``, ``agree_doc``
and ``agree_sentence`` cases were recorded before the label schema was
declared in one table (``glocon.model.DOC_LABELS``), and those of the
``agree_token`` cases before span matching compared each annotation only
with references of its tag and sentence.  The ``validate`` cases print
``labels_a``'s lint errors, so they exit 1.  A change to any of them is a
change to the CLI's output.
"""

from pathlib import Path

import pytest

from glocon.cli import EXIT_FINDINGS, EXIT_OK, run

GOLDEN = Path(__file__).parent / "golden"
A = str(GOLDEN / "labels_a.glocon.jsonl")
B = str(GOLDEN / "labels_b.glocon.jsonl")
SPANS_B = str(GOLDEN / "spans_b.glocon.jsonl")

CASES = {
    "validate_a_text": ["validate", A],
    "validate_a_json": ["validate", A, "--format", "json"],
    "stats_a_text": ["stats", A],
    "stats_a_json": ["stats", A, "--format", "json"],
    "stats_b_text": ["stats", B],
    "stats_b_json": ["stats", B, "--format", "json"],
    "assemble_a_csv": ["assemble", A],
    "assemble_a_jsonl": ["assemble", A, "--format", "jsonl"],
    "assemble_b_csv": ["assemble", B],
    "assemble_b_jsonl": ["assemble", B, "--format", "jsonl"],
    "agree_doc_text": ["agree", A, B, "--level", "doc"],
    "agree_doc_json": ["agree", A, B, "--level", "doc", "--format", "json"],
    "agree_sentence_text": ["agree", A, B, "--level", "sentence"],
    "agree_sentence_json": ["agree", A, B, "--level", "sentence", "--format", "json"],
    **{
        f"agree_token_{mode}_{fmt}": [
            "agree", A, SPANS_B, "--level", "token", "--mode", mode, "--format", fmt
        ]
        for mode in ("strict", "lenient")
        for fmt in ("text", "json")
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    assert run(CASES[case]) == (EXIT_FINDINGS if case.startswith("validate") else EXIT_OK)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", sorted(case for case in CASES if case.startswith("agree")))
def test_agree_does_not_depend_on_the_order_of_b(case, tmp_path, capsys):
    """``agree`` holds each document of B until its partner in A is read, so B
    read in reverse, the most it can hold, prints the recorded bytes."""
    argv = CASES[case]
    reversed_b = tmp_path / "reversed_b.glocon.jsonl"
    with open(argv[2], "rb") as b:
        reversed_b.write_bytes(b"".join(reversed(b.readlines())))
    assert run([*argv[:2], str(reversed_b), *argv[3:]]) == EXIT_OK
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
