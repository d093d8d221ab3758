import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict, deque
from pathlib import Path

import pytest

from glocon.cli import (
    EXIT_FINDINGS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    corpus_stats,
    run,
    write_json_array,
)
from glocon.assemble import assemble_events, export_rows, rows_to_csv, rows_to_jsonl
from glocon.io import load_corpus, parse_corpus, serialize_corpus
from glocon.lint import Diagnostic, validate_document
from glocon.model import DocumentLabels, DocumentRecord, TagId
from golden_docs import ann, bjp_square_doc, karnataka_doc, sent
from randdocs import random_corpus
from rule_fixtures import RULE_FIXTURES


class TestStats:
    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.documents == 0
        assert stats.annotations == 0
        assert stats.events_total == 0
        assert dict(stats.tag_counts) == {}

    def test_bjp_counts(self, bjp_doc):
        stats = corpus_stats([bjp_doc])
        assert stats.events_per_doc["bjp-square"] == 2
        assert stats.tag_counts["event_type"] == 2
        assert stats.tag_counts["event_mention"] == 2
        assert stats.doc_labels["protest"] == {"protest": 1}

    def test_counts_match_recount(self):
        from randdocs import random_corpus

        docs = random_corpus(20, seed=13)
        stats = corpus_stats(docs)
        assert stats.documents == 20
        assert stats.annotations == sum(len(d.annotations) for d in docs)
        assert stats.sentences == sum(len(d.sentences) for d in docs)
        recount = {}
        for doc in docs:
            for a in doc.annotations:
                recount[a.tag.value] = recount.get(a.tag.value, 0) + 1
        assert dict(stats.tag_counts) == recount
        assert stats.events_total == sum(stats.events_per_doc.values())


class TestValidateCommand:
    def test_clean_corpus_exits_zero(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc(), karnataka_doc()])
        assert run(["validate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_errors_fail_with_one(self, corpus_file):
        bad, _ = RULE_FIXTURES["E021"]
        path = corpus_file([bad])
        assert run(["validate", path, "--fail-on", "error"]) == EXIT_FINDINGS

    def test_warnings_pass_unless_requested(self, corpus_file):
        bad, _ = RULE_FIXTURES["W103"]
        path = corpus_file([bad])
        assert run(["validate", path]) == EXIT_OK
        assert run(["validate", path, "--fail-on", "warning"]) == EXIT_FINDINGS

    def test_text_output_format(self, corpus_file, capsys):
        bad, _ = RULE_FIXTURES["W103"]
        path = corpus_file([bad])
        run(["validate", path])
        out = capsys.readouterr().out
        assert "w103-bad:0:3-5 W103 warning" in out

    def test_json_payload_on_stdout_summary_on_stderr(self, corpus_file, capsys):
        bad, _ = RULE_FIXTURES["W103"]
        path = corpus_file([bad])
        assert run(["validate", path, "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload[0]["rule"] == "W103"
        assert "warnings" in captured.err
        assert "warnings" not in captured.out

    def test_missing_file_exits_three(self, capsys):
        assert run(["validate", "no-such-file.glocon.jsonl"]) == EXIT_IO
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_config_exits_three(self, corpus_file, tmp_path, capsys):
        corpus = corpus_file([bjp_square_doc()])
        missing = tmp_path / "no-such-config.json"
        assert run(["validate", corpus, "--config", str(missing)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"glocon: cannot read config {missing}: ")

    def test_parse_errors_exit_three(self, tmp_path, capsys):
        path = tmp_path / "broken.glocon.jsonl"
        path.write_text('{"doc_id": "ok", "sentences": []}\nnot json\n')
        assert run(["validate", str(path)]) == EXIT_IO
        assert "malformed_record" in capsys.readouterr().err

    def test_config_flag(self, corpus_file, tmp_path):
        bad, _ = RULE_FIXTURES["W103"]
        corpus = corpus_file([bad])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disabled_rules": ["W103"]}))
        assert run(["validate", corpus, "--config", str(cfg), "--fail-on", "warning"]) == EXIT_OK

    def test_bad_config_is_usage_error(self, corpus_file, tmp_path):
        corpus = corpus_file([bjp_square_doc()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disabled_rules": ["Z999"]}))
        assert run(["validate", corpus, "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"severity_overrides": ["W103"]}', "severity_overrides must be a JSON object"),
            (b'{"lexicons": []}', "lexicons must be a JSON object"),
            (b'{"disabled_rules": {}}', "disabled_rules must be a JSON list"),
            (b'{"disabled_rules": [["W103"]]}', "disabled_rules must be a list of rule ids"),
            (b'{"lexicons": {"countries": [1]}}', "lexicon countries must be a list"),
            (b'{"lexicons": {"countries": "India"}}', "lexicon countries must be a list"),
            (b'{"lexicons": {"estimation_qualifiers": [""]}}',
             "lexicon estimation_qualifiers must be a list"),
            (b'{"disabled_rules": ["W103\xff"]}', "not UTF-8"),
            (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nesting too deep"),
            # the message of this one depends on the Python version
            (b'{"disabled_rules": [' + b"1" * 5_000 + b"]}", ""),
            (b'["W103"]', "config must be a JSON object"),
            (b'{"lexicons": {"colours": []}}', "unknown lexicon keys: ['colours']"),
        ],
        ids=["overrides-list", "lexicons-list", "disabled-object", "nested-rule-list",
             "non-string-word", "string-lexicon", "blank-word", "not-utf8",
             "nested-past-recursion-limit", "integer-past-digit-limit", "config-list",
             "unknown-lexicon-key"],
    )
    def test_ill_typed_config_is_usage_error(self, corpus_file, tmp_path, capsys, content,
                                             message):
        corpus = corpus_file([bjp_square_doc()])
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run(["validate", corpus, "--config", str(cfg)]) == EXIT_USAGE
        assert f"glocon: bad config {cfg}: {message}" in capsys.readouterr().err


class TestAssembleCommand:
    def test_csv_to_stdout(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["assemble", path]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("doc_id,event_number,")
        assert len(lines) == 3
        assert "gathered|shouted slogans" in lines[1]

    def test_jsonl_to_file(self, corpus_file, tmp_path, capsys):
        path = corpus_file([karnataka_doc()])
        out_path = tmp_path / "events.jsonl"
        assert run(["assemble", path, "--format", "jsonl", "--out", str(out_path)]) == EXIT_OK
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["places"] for r in rows] == ["Karnataka", "Bangalore", "Mysore"]
        assert capsys.readouterr().out == ""  # payload went to the file

    def test_unwritable_out_exits_three(self, corpus_file, tmp_path, capsys):
        path = corpus_file([karnataka_doc()])
        out_path = tmp_path / "missing" / "events.csv"
        assert run(["assemble", path, "--out", str(out_path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"glocon: cannot write {out_path}: ")


    @pytest.mark.parametrize("name", ["bulk", "flat"])
    def test_output_does_not_depend_on_line_order(self, name, workload, tmp_path, capsys):
        """A shuffled corpus assembles to the bytes of the unshuffled one, which
        are ``export_rows``' order over every document's records.  The lines of
        one doc_id keep their input order, since the first copy is the one read."""
        lines = workload(name, 1)["a"].split(b"\n")
        positions = defaultdict(deque)  # doc_id (or, if none, line position) -> positions
        for position, line in enumerate(lines):
            try:
                doc_id = json.loads(line).get("doc_id", position)
            except (ValueError, AttributeError, TypeError):  # not JSON, or not an object
                doc_id = position
            positions[doc_id if type(doc_id) is str else position].append(position)
        keys = [key for key, taken in positions.items() for _ in taken]
        random.Random(name).shuffle(keys)
        shuffled = [lines[positions[key].popleft()] for key in keys]

        docs, _ = parse_corpus(b"\n".join(lines))
        rows = export_rows([record for doc in docs for record in assemble_events(doc)])
        for fmt, expected in (("csv", rows_to_csv(rows)), ("jsonl", rows_to_jsonl(rows))):
            printed = []
            for order, content in (("input", lines), ("shuffled", shuffled)):
                path = tmp_path / f"{order}.glocon.jsonl"
                path.write_bytes(b"\n".join(content))
                run(["assemble", str(path), "--format", fmt])
                printed.append(capsys.readouterr().out.encode("utf-8"))
            assert printed[0] == printed[1] == expected.encode("utf-8"), fmt


class TestDiagnosticWriter:
    """``write_json_array`` over ``Diagnostic.to_json`` pieces, against the
    ``json.dumps(..., indent=2)`` it stands in for."""

    # W112 and W130 put span text into messages, so a message can hold any character
    AWKWARD = (
        'say "no"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "São 示威 \u2028 \U0001F600",
        "",
    )

    @staticmethod
    def _written(per_doc):
        buf = io.StringIO()
        write_json_array((",\n".join(map(Diagnostic.to_json, ds)) for ds in per_doc if ds), buf)
        return buf.getvalue()

    def test_empty_list(self):
        assert self._written([]) == json.dumps([], indent=2)
        assert self._written([[], []]) == json.dumps([], indent=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_json_dumps(self, seed):
        rng = random.Random(seed)

        def awkward(diag):
            changes = {}
            if rng.random() < 0.3:
                changes["span"] = None
            if rng.random() < 0.3:
                changes["annotation_ids"] = ()
            if rng.random() < 0.5:
                changes["message"] = rng.choice(self.AWKWARD) + diag.message
            if rng.random() < 0.2:
                changes["doc_id"] = rng.choice(self.AWKWARD) or "d"
                changes["annotation_ids"] = (*diag.annotation_ids, rng.choice(self.AWKWARD))
            return diag._replace(**changes)

        per_doc = [[awkward(d) for d in validate_document(doc)] for doc in random_corpus(30, seed)]
        diags = [d for ds in per_doc for d in ds]
        assert any(d.span is None for d in diags) and any(not d.annotation_ids for d in diags)
        assert any(len(ds) > 1 for ds in per_doc) and any(not ds for ds in per_doc)
        assert self._written(per_doc) == json.dumps([d.to_obj() for d in diags], indent=2)


class TestAgreeCommand:
    def test_diverging_tokens_are_reported(self, corpus_file, capsys):
        path_a = corpus_file([bjp_square_doc()], name="a.glocon.jsonl")
        path_b = corpus_file(
            [DocumentRecord("bjp-square", sentences=(sent(0, "Other tokens"),))],
            name="b.glocon.jsonl",
        )
        assert run(["agree", path_a, path_b]) == EXIT_OK
        captured = capsys.readouterr()
        assert "glocon: doc bjp-square: tokenization diverges at sentence 0\n" in captured.err
        assert "token mismatches=1" in captured.out

    def test_doc_level_self_agreement(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc(), karnataka_doc()])
        assert run(["agree", path, path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "doc_protest" in out
        assert "1.0000" in out

    def test_token_level_json(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["agree", path, path, "--level", "token", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["micro"]["f1"] == 1.0
        assert payload["mode"] == "strict"

    def test_sentence_level(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["agree", path, path, "--level", "sentence"]) == EXIT_OK
        assert "sentence" in capsys.readouterr().out

    def test_lenient_mode_flag(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["agree", path, path, "--level", "token", "--mode", "lenient"]) == EXIT_OK
        assert "mode=lenient" in capsys.readouterr().out

    def test_repeated_doc_id_is_a_parse_error(self, corpus_file, capsys):
        # the reader drops the second copy; the join pairs the first
        doc = bjp_square_doc()
        path_a = corpus_file([doc, karnataka_doc(), doc], name="a.glocon.jsonl")
        path_b = corpus_file([doc], name="b.glocon.jsonl")
        assert run(["agree", path_a, path_b]) == EXIT_IO
        captured = capsys.readouterr()
        assert f"glocon: {path_a}: line 3 [bjp-square] duplicate_id: " in captured.err
        assert "1 pairs, unmatched a=['karnataka-wave'], b=[]" in captured.out


class TestUsage:
    def test_unknown_flag_is_usage_error(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["validate", path, "--frobnicate"]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert run(["annotate"]) == EXIT_USAGE

    def test_bad_choice_value(self, corpus_file):
        path = corpus_file([bjp_square_doc()])
        assert run(["validate", path, "--format", "xml"]) == EXIT_USAGE

    def test_stats_text_and_json(self, corpus_file, capsys):
        path = corpus_file([bjp_square_doc()])
        assert run(["stats", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "documents:   1" in out
        assert run(["stats", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_total"] == 2
        assert payload["tag_counts"]["facility_type"] == 2


class TestCorpusReading:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "late"],
            ["validate", "late", "--format", "json"],
            ["assemble", "late"],
            ["assemble", "late", "--format", "jsonl", "--out", "FILE"],
            ["stats", "late"],
            ["agree", "late", "good"],
            ["agree", "good", "late"],
        ],
        ids=[
            "validate", "validate-json", "assemble", "assemble-jsonl-out", "stats",
            "agree-late-a", "agree-late-b",
        ],
    )
    def test_late_decode_error_prints_only_itself(self, tmp_path, capsys, argv):
        path = tmp_path / "late.glocon.jsonl"
        path.write_bytes(serialize_corpus([bjp_square_doc()]) + b"not json\n\xff\n")
        good = tmp_path / "good.glocon.jsonl"
        good.write_bytes(serialize_corpus([bjp_square_doc()]))
        out_file = tmp_path / "events.jsonl"
        files = {"late": str(path), "good": str(good), "FILE": str(out_file)}
        assert run([files.get(arg, arg) for arg in argv]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert not out_file.exists()
        assert err.splitlines() == [
            f"glocon: {path}: line 3: undecodable bytes ('utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte)"
        ]

    def test_agree_reports_a_before_b(self, tmp_path, capsys):
        """A's failure alone, else A's parse errors; then B's failure."""
        missing_a, missing_b = tmp_path / "missing-a", tmp_path / "missing-b"
        rejected = tmp_path / "rejected.glocon.jsonl"
        rejected.write_bytes(serialize_corpus([bjp_square_doc()]) + b"not json\n{}\n")
        good = tmp_path / "good.glocon.jsonl"
        good.write_bytes(serialize_corpus([bjp_square_doc()]))

        assert run(["agree", str(missing_a), str(missing_b)]) == EXIT_IO
        assert capsys.readouterr() == (
            "",
            f"glocon: cannot read {missing_a}: [Errno 2] No such file or directory: "
            f"'{missing_a}'\n",
        )
        assert run(["agree", str(rejected), str(missing_b)]) == EXIT_IO
        assert capsys.readouterr() == (
            "",
            f"glocon: {rejected}: line 2 [?] malformed_record: invalid JSON: Expecting value\n"
            f"glocon: {rejected}: line 3 [?] malformed_record: doc_id must be a non-empty string\n"
            f"glocon: cannot read {missing_b}: [Errno 2] No such file or directory: "
            f"'{missing_b}'\n",
        )
        assert run(["agree", str(good), str(tmp_path)]) == EXIT_IO
        assert capsys.readouterr() == (
            "",
            f"glocon: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n",
        )

    def test_streaming_commands_hold_one_document_at_a_time(
        self, corpus_file, workload, tmp_path
    ):
        path = str(tmp_path / "bulk.glocon.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(workload("bulk", 1)["a"].splitlines(keepends=True)[:300])

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def command(*argv):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert run(argv) in (EXIT_OK, EXIT_FINDINGS)

        def output_bytes(*argv):
            with io.StringIO() as buf, contextlib.redirect_stdout(buf):
                run(argv)
                return len(buf.getvalue().encode("utf-8"))

        whole = peak(lambda: load_corpus(path))
        assert peak(lambda: command("stats", path)) < whole / 4
        # validate and assemble hold their rendered output until the stream is used up
        for argv in (
            ("validate", path),
            ("validate", path, "--format", "json"),
            ("assemble", path),
            ("assemble", path, "--format", "jsonl"),
        ):
            assert peak(lambda: command(*argv)) - output_bytes(*argv) < whole / 10, argv
        for level in ("token", "doc", "sentence"):
            assert peak(lambda: command("agree", path, path, "--level", level)) < whole / 4
        # once B has run out, each document of A is unmatched at once and dropped
        empty = corpus_file([], name="empty.glocon.jsonl")
        assert peak(lambda: command("agree", path, empty)) < whole / 4


class TestConsoleEntry:
    """``main()`` as the console script runs it, in a child interpreter."""

    @staticmethod
    def _cli(args, env=(), **popen):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "glocon.cli", *args],
            env={**os.environ, "PYTHONPATH": src, **dict(env)},
            **popen,
        )

    def test_closed_pipe_exits_three_without_traceback(self, workload, tmp_path):
        path = tmp_path / "bulk.glocon.jsonl"
        path.write_bytes(workload("bulk", 1)["a"])  # far more output than a pipe buffers
        with open(tmp_path / "stderr", "wb") as err:
            proc = self._cli(["validate", path], stdout=subprocess.PIPE, stderr=err)
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_IO
        assert b"Traceback" not in (tmp_path / "stderr").read_bytes()

    def test_stdout_is_utf8_under_an_ascii_locale(self, corpus_file, tmp_path):
        doc = DocumentRecord(
            "d1",
            DocumentLabels(),
            (sent(0, "Workers held a 示威 in São Paulo ."),),
            (
                ann("t1", TagId.EVENT_TYPE, 0, 3, 4),
                ann("t1s", TagId.DEMONSTRATION, 0, 3, 4),
                ann("p1", TagId.EVENT_PLACE, 0, 5, 7),
            ),
        )
        path, out = corpus_file([doc]), tmp_path / "events.csv"
        ascii_env = {"PYTHONIOENCODING": "ascii"}
        to_file = self._cli(["assemble", path, "--out", str(out)], ascii_env)
        assert to_file.wait(timeout=60) == EXIT_OK
        to_stdout = self._cli(["assemble", path], ascii_env, stdout=subprocess.PIPE)
        stdout, _ = to_stdout.communicate(timeout=60)
        assert to_stdout.returncode == EXIT_OK
        assert "São Paulo" in out.read_text(encoding="utf-8")
        assert stdout == out.read_bytes()
