import json
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocon.io import (
    CorpusDecodeError,
    ParseError,
    ParseErrorKind,
    format_event_refs,
    iter_corpus,
    load_corpus,
    parse_corpus,
    parse_event_refs,
    save_corpus,
    serialize_corpus,
)
from glocon.lint import ConfigError, load_config, validate_document
from glocon.model import (
    Annotation,
    DemandLabel,
    DocumentLabels,
    DocumentRecord,
    InvariantError,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
    ViolenceLabel,
)
from oracle import canonical_obj
from randdocs import HOSTILE_TEXT, random_corpus


class TestEventRefs:
    def test_two_events(self):
        assert parse_event_refs("Event 2, Event 3") == {2, 3}

    def test_absent_means_event_one(self):
        assert parse_event_refs(None) == {1}
        assert parse_event_refs("") == {1}
        assert parse_event_refs("   ") == {1}

    def test_multiple_events(self):
        assert parse_event_refs("Event 3, Event 4, Event 6") == {3, 4, 6}

    def test_whitespace_insensitive(self):
        assert parse_event_refs("  Event   2 ,Event 3  ") == {2, 3}
        assert parse_event_refs("Event2") == {2}

    @pytest.mark.parametrize(
        "bad", ["event two", "event 2", "EVENT 2", "Event", "Event 0", "Event -1", "2"]
    )
    def test_malformed(self, bad):
        with pytest.raises(InvariantError) as raised:
            parse_event_refs(bad)
        assert raised.value.kind is ParseErrorKind.BAD_EVENT_REF

    def test_format_round_trips(self):
        assert format_event_refs({3, 1}) == "Event 1, Event 3"
        assert parse_event_refs(format_event_refs({5, 2, 9})) == {2, 5, 9}


def test_minimal_line():
    line = b'{"doc_id": "d1", "sentences": [{"index": 0, "tokens": ["Workers", "marched", "."]}]}\n'
    docs, errors = parse_corpus(line)
    assert errors == []
    assert len(docs) == 1
    assert docs[0].doc_id == "d1"
    assert docs[0].sentences[0].tokens == ("Workers", "marched", ".")
    assert docs[0].labels.protest is None


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def _doc_obj(**overrides):
    obj = {
        "doc_id": "d1",
        "sentences": [{"index": 0, "tokens": ["Workers", "marched", "."]}],
        "annotations": [],
    }
    obj.update(overrides)
    return obj


def test_span_out_of_range_is_bad_span():
    obj = _doc_obj(
        annotations=[
            {"id": "a1", "tag": "event_type", "sentence": 0, "start": 3, "end": 5}
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert docs == []
    assert [e.kind for e in errors] == [ParseErrorKind.BAD_SPAN]
    assert errors[0].line == 1
    assert errors[0].doc_id == "d1"


def test_alias_accepted_at_parse_time():
    obj = _doc_obj(
        annotations=[
            {"id": "a1", "tag": "participant_SES", "sentence": 0, "start": 0, "end": 1}
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert errors == []
    assert docs[0].annotations[0].tag is TagId.PARTICIPANT_SES


def test_unknown_tag_rejected():
    obj = _doc_obj(
        annotations=[{"id": "a1", "tag": "mood", "sentence": 0, "start": 0, "end": 1}]
    )
    docs, errors = parse_corpus(_line(obj))
    assert docs == []
    assert errors[0].kind is ParseErrorKind.UNKNOWN_TAG


def test_event_comment_string_normalized():
    obj = _doc_obj(
        annotations=[
            {
                "id": "a1",
                "tag": "event_type",
                "sentence": 0,
                "start": 1,
                "end": 2,
                "events": "Event 2, Event 3",
            }
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert errors == []
    ann = docs[0].annotations[0]
    assert ann.events == {2, 3}
    assert ann.events_from_comment


def test_bad_event_comment():
    obj = _doc_obj(
        annotations=[
            {
                "id": "a1",
                "tag": "event_type",
                "sentence": 0,
                "start": 1,
                "end": 2,
                "events": "event two",
            }
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert docs == []
    assert errors[0].kind is ParseErrorKind.BAD_EVENT_REF


@pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
def test_blank_event_comment_is_event_one(blank):
    obj = _doc_obj(
        annotations=[
            {"id": "a1", "tag": "event_type", "sentence": 0, "start": 1, "end": 2,
             "events": blank}
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert errors == []
    ann = docs[0].annotations[0]
    assert (ann.events, ann.events_from_comment) == ({1}, False)
    assert "W122" not in [d.rule for d in validate_document(docs[0])]
    assert json.loads(serialize_corpus(docs))["annotations"][0]["events"] == [1]


def test_bad_label_values():
    docs, errors = parse_corpus(_line(_doc_obj(labels={"protest": "maybe"})))
    assert docs == [] and errors[0].kind is ParseErrorKind.BAD_LABEL
    # violence label without a protest label violates the dependency rule
    docs, errors = parse_corpus(_line(_doc_obj(labels={"violent": "violent"})))
    assert docs == [] and errors[0].kind is ParseErrorKind.BAD_LABEL


def test_duplicate_annotation_id():
    obj = _doc_obj(
        annotations=[
            {"id": "a1", "tag": "event_type", "sentence": 0, "start": 0, "end": 1},
            {"id": "a1", "tag": "event_mention", "sentence": 0, "start": 1, "end": 2},
        ]
    )
    docs, errors = parse_corpus(_line(obj))
    assert docs == []
    assert errors[0].kind is ParseErrorKind.DUPLICATE_ID


def test_duplicate_doc_id_across_lines():
    data = _line(_doc_obj()) + _line(_doc_obj())
    docs, errors = parse_corpus(data)
    assert len(docs) == 1
    assert errors[0].kind is ParseErrorKind.DUPLICATE_ID
    assert errors[0].line == 2
    assert errors[0].message == "duplicate doc_id 'd1'"


def test_malformed_json_line_is_skipped_others_kept():
    data = b'{"doc_id": "ok", "sentences": []}\nnot json\n'
    docs, errors = parse_corpus(data)
    assert [d.doc_id for d in docs] == ["ok"]
    assert errors[0].line == 2
    assert errors[0].kind is ParseErrorKind.MALFORMED_RECORD


def test_unknown_keys_rejected():
    docs, errors = parse_corpus(_line(_doc_obj(extra=1)))
    assert docs == [] and errors[0].kind is ParseErrorKind.MALFORMED_RECORD


def test_undecodable_bytes_raise():
    with pytest.raises(CorpusDecodeError):
        parse_corpus(b'{"doc_id": "\xff"}')


def test_iter_corpus_yields_each_line_before_reading_the_next():
    errors = []

    def lines():
        yield _line(_doc_obj(doc_id="first"))
        yield b"not json"
        assert [e.line for e in errors] == [2]  # line 2's error is in before line 3 is read
        yield _line(_doc_obj(doc_id="third"))
        raise AssertionError("read past the line being yielded")

    stream = iter_corpus(lines(), errors)
    assert next(stream).doc_id == "first"
    assert errors == []
    assert next(stream).doc_id == "third"


def test_empty_corpus_serializes_to_empty_stream():
    assert serialize_corpus([]) == b""


def test_round_trip_golden(bjp_doc, karnataka):
    docs = [bjp_doc, karnataka]
    data = serialize_corpus(docs)
    parsed, errors = parse_corpus(data)
    assert errors == []
    assert parsed == docs
    assert serialize_corpus(parsed) == data


def test_comment_events_reserialize_as_comment(bjp_doc):
    data = serialize_corpus([bjp_doc]).decode()
    obj = json.loads(data)
    by_id = {a["id"]: a for a in obj["annotations"]}
    assert by_id["e3"]["events"] == "Event 2"
    assert by_id["e1"]["events"] == [1]


def test_annotations_sorted_canonically(bjp_doc):
    # shuffle the annotation order; output must come back sorted
    shuffled = bjp_doc.__class__(
        doc_id=bjp_doc.doc_id,
        labels=bjp_doc.labels,
        sentences=bjp_doc.sentences,
        annotations=tuple(reversed(bjp_doc.annotations)),
    )
    obj = json.loads(serialize_corpus([shuffled]).decode())
    keys = [
        (a["sentence"], a["start"], a["end"], a["tag"]) for a in obj["annotations"]
    ]
    assert keys == sorted(keys)


def test_key_order_is_fixed(bjp_doc):
    obj = json.loads(
        serialize_corpus([bjp_doc]).decode(), object_pairs_hook=lambda p: p
    )
    assert [k for k, _ in obj] == ["doc_id", "labels", "sentences", "annotations"]


def test_demo_corpus_matches_golden_builders(bjp_doc, karnataka):
    from pathlib import Path

    path = Path(__file__).parent.parent / "data" / "worked_examples.glocon.jsonl"
    assert path.read_bytes() == serialize_corpus([bjp_doc, karnataka])


@pytest.mark.parametrize("seed", [None, *range(8)])
def test_save_corpus_writes_the_serialized_bytes(tmp_path, seed):
    docs = [] if seed is None else random_corpus(6, seed)
    path = tmp_path / "corpus.glocon.jsonl"
    save_corpus(str(path), docs)
    assert path.read_bytes() == serialize_corpus(docs)


def test_save_corpus_writes_one_line_at_a_time(tmp_path, workload):
    path = tmp_path / "corpus.glocon.jsonl"
    docs, _ = parse_corpus(b"".join(workload("bulk", 1)["a"].splitlines(keepends=True)[:300]))
    tracemalloc.start()
    try:
        save_corpus(str(path), docs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_save_corpus_streams_back_over_the_file_it_reads(tmp_path):
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(serialize_corpus(random_corpus(40, 3)))
    original = path.read_bytes()
    errors = []
    with open(path, "rb") as handle:
        save_corpus(str(path), iter_corpus(handle, errors))
    assert errors == []
    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_failed_save_corpus_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(serialize_corpus(random_corpus(4, 5)))
    original = path.read_bytes()

    def docs_then_failure():
        yield from random_corpus(6, 6)
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        save_corpus(str(path), docs_then_failure())
    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_stale_temporary_file_does_not_block_a_save(tmp_path):
    path = tmp_path / "corpus.glocon.jsonl"
    stale = tmp_path / f"{path.name}.{os.getpid()}.tmp"
    stale.write_bytes(b"left by a killed run")
    docs = random_corpus(3, 4)
    save_corpus(str(path), docs)
    save_corpus(str(path), docs)
    assert path.read_bytes() == serialize_corpus(docs)
    assert stale.read_bytes() == b"left by a killed run"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, stale.name])


def test_save_corpus_syncs_the_temporary_file_once_before_the_replace(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced = os.fstat(fd)
        calls.append(("fsync", synced.st_ino, synced.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, dst))
        real_replace(src, dst)

    monkeypatch.setattr("glocon.io.os.fsync", fsync)
    monkeypatch.setattr("glocon.io.os.replace", replace)
    path = tmp_path / "corpus.glocon.jsonl"
    docs = random_corpus(5, 2)
    save_corpus(str(path), docs)
    # the synced file holds every byte, and it is the one renamed onto the path
    written = path.stat()
    assert written.st_size == len(serialize_corpus(docs))
    assert calls == [
        ("fsync", written.st_ino, written.st_size),
        ("replace", written.st_ino, os.path.realpath(path)),
    ]


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_save_corpus_refuses_what_is_not_a_regular_file(tmp_path, kind):
    # A pipe stands for any file that is not regular, a device such as
    # os.devnull among them, which the refusal keeps from being replaced.
    target = tmp_path / "target"
    if kind == "directory":
        target.mkdir()
    elif hasattr(os, "mkfifo"):
        os.mkfifo(target)
    else:
        pytest.skip("no named pipes here")
    before = target.lstat()
    with pytest.raises(ValueError, match="not a regular file"):
        save_corpus(str(target), random_corpus(2, 9))
    after = target.lstat()
    assert (after.st_mode, after.st_ino) == (before.st_mode, before.st_ino)
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_save_corpus_writes_through_a_symbolic_link(tmp_path):
    target, link = tmp_path / "target.glocon.jsonl", tmp_path / "link.glocon.jsonl"
    target.write_bytes(b"")
    link.symlink_to(target.name)
    docs = random_corpus(3, 8)
    save_corpus(str(link), docs)
    assert link.is_symlink()
    assert target.read_bytes() == serialize_corpus(docs)
    assert sorted(p.name for p in tmp_path.iterdir()) == [link.name, target.name]


def test_save_corpus_leaves_the_mode_writing_in_place_would(tmp_path):
    kept = tmp_path / "kept.glocon.jsonl"
    kept.write_bytes(b"")
    kept.chmod(0o604)
    save_corpus(str(kept), random_corpus(2, 7))
    assert kept.stat().st_mode & 0o7777 == 0o604
    new, plain = tmp_path / "new.glocon.jsonl", tmp_path / "plain"
    save_corpus(str(new), random_corpus(2, 7))
    with open(plain, "wb"):
        pass
    assert new.stat().st_mode == plain.stat().st_mode


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_corpora(seed):
    docs = random_corpus(5, seed)
    data = serialize_corpus(docs)
    parsed, errors = parse_corpus(data)
    assert errors == []
    assert parsed == docs
    assert serialize_corpus(parsed) == data


# --------------------------------------------------------------------------
# rejection messages: one single-defect line per rejection site

_DROP = object()
_ANN = {"id": "a1", "tag": "event_type", "sentence": 0, "start": 0, "end": 1}


def _drop(obj):
    return {k: v for k, v in obj.items() if v is not _DROP}


def _doc(**overrides):
    return _drop(_doc_obj(**overrides))


def _sent(**fields):
    return _doc(sentences=[_drop({"index": 0, "tokens": ["Workers", "marched", "."], **fields})])


def _ann(**fields):
    return _doc(annotations=[_drop({**_ANN, **fields})])


MALFORMED = "malformed_record"
TOKENS = "sentence 0: tokens must be a non-empty list of non-empty strings"
EVENTS = "annotation a1: events must be a non-empty list of positive integers"
EVENTS_TYPE = "annotation a1: events must be an integer array or an 'Event N' string"

# (case, line, doc_id, kind, message): what a user sees for each rejection
# site, whichever layer (parser or model constructor) does the check.
SINGLE_DEFECT_LINES = [
    ("invalid_json", b"not json", None, MALFORMED, "invalid JSON: Expecting value"),
    ("truncated_json", b'{"doc_id": "d1", "sent', None, MALFORMED,
     "invalid JSON: Unterminated string starting at"),
    ("record_not_object", [1, 2], None, MALFORMED, "record must be a JSON object"),
    ("record_unknown_key", _doc(extra=1), "d1", MALFORMED, "unknown record keys: ['extra']"),
    ("doc_id_missing", _doc(doc_id=_DROP), None, MALFORMED, "doc_id must be a non-empty string"),
    ("doc_id_empty", _doc(doc_id=""), "", MALFORMED, "doc_id must be a non-empty string"),
    ("doc_id_not_string", _doc(doc_id=7), None, MALFORMED, "doc_id must be a non-empty string"),
    ("labels_not_object", _doc(labels=["protest"]), "d1", MALFORMED, "labels must be an object"),
    ("labels_unknown_key", _doc(labels={"mood": "calm"}), "d1", MALFORMED,
     "unknown label keys: ['mood']"),
    ("protest_label_unknown", _doc(labels={"protest": "maybe"}), "d1", "bad_label",
     "bad protest label: 'maybe'"),
    # a list cannot key the label cache; DocumentLabels rejects it
    ("protest_label_list", _doc(labels={"protest": ["protest"]}), "d1", "bad_label",
     "bad protest label: ['protest']"),
    ("violent_label_not_string", _doc(labels={"protest": "protest", "violent": 1}), "d1",
     "bad_label", "bad violent label: 1"),
    ("demand_label_unknown", _doc(labels={"protest": "protest", "demand": "welfare"}), "d1",
     "bad_label", "bad demand label: 'welfare'"),
    ("violent_without_protest", _doc(labels={"violent": "violent"}), "d1", "bad_label",
     "violence label requires protest = protest"),
    ("demand_with_no_protest",
     _doc(labels={"protest": "no_protest", "demand": "economic_welfare"}), "d1", "bad_label",
     "demand label requires protest = protest"),
    ("sentences_not_array", _doc(sentences={"index": 0}), "d1", MALFORMED,
     "sentences must be an array"),
    ("sentence_not_object", _doc(sentences=["Workers marched ."]), "d1", MALFORMED,
     "sentence must be an object"),
    ("sentence_unknown_key", _sent(text="x"), "d1", MALFORMED,
     "sentence 0: unknown keys ['text']"),
    ("sentence_index_missing", _sent(index=_DROP), "d1", MALFORMED,
     "sentence 0: index must be an integer"),
    ("sentence_index_bool", _sent(index=False), "d1", MALFORMED,
     "sentence 0: index must be an integer"),
    ("sentence_index_mismatch", _sent(index=1), "d1", MALFORMED,
     "sentence index 1 at position 0"),
    ("sentence_index_negative", _sent(index=-1), "d1", MALFORMED,
     "sentence index -1 at position 0"),
    ("tokens_missing", _sent(tokens=_DROP), "d1", MALFORMED, TOKENS),
    ("tokens_string", _sent(tokens="Workers marched"), "d1", MALFORMED, TOKENS),
    ("tokens_object", _sent(tokens={"a": 1}), "d1", MALFORMED, TOKENS),
    ("tokens_empty", _sent(tokens=[]), "d1", MALFORMED, TOKENS),
    ("token_empty_string", _sent(tokens=["Workers", ""]), "d1", MALFORMED, TOKENS),
    ("token_not_string", _sent(tokens=["Workers", 3]), "d1", MALFORMED, TOKENS),
    ("token_array", _sent(tokens=[["a"]]), "d1", MALFORMED, TOKENS),
    ("token_null", _sent(tokens=[None]), "d1", MALFORMED, TOKENS),
    ("token_bool", _sent(tokens=[True]), "d1", MALFORMED, TOKENS),
    # a held corpus looks each token up in its table of texts: an unhashable token
    # leaves the list as it is, and True finds the 1 before it
    ("token_array_after_text", _sent(tokens=["a", ["b"]]), "d1", MALFORMED, TOKENS),
    ("token_object", _sent(tokens=[{}]), "d1", MALFORMED, TOKENS),
    ("token_number_then_bool", _sent(tokens=[1, True]), "d1", MALFORMED, TOKENS),
    ("token_lone_surrogate", _sent(tokens=["\ud800"]), "d1", MALFORMED,
     "string with a lone surrogate, not encodable as UTF-8"),
    ("sentence_label_string", _sent(label="1"), "d1", "bad_label",
     "sentence 0: label must be 0, 1 or 2"),
    ("sentence_label_bool", _sent(label=True), "d1", "bad_label",
     "sentence 0: label must be 0, 1 or 2"),
    ("sentence_label_out_of_range", _sent(label=3), "d1", "bad_label",
     "sentence 0: label must be 0, 1 or 2, got 3"),
    # the model checks the vocabulary, naming the sentence's index, after its tokens
    ("sentence_label_out_of_range_at_index_1", _sent(index=1, label=3), "d1", "bad_label",
     "sentence 1: label must be 0, 1 or 2, got 3"),
    ("token_empty_and_label_out_of_range", _sent(tokens=["Workers", ""], label=3), "d1",
     MALFORMED, TOKENS),
    ("annotations_not_array", _doc(annotations={"id": "a1"}), "d1", MALFORMED,
     "annotations must be an array"),
    ("annotation_not_object", _doc(annotations=["a1"]), "d1", MALFORMED,
     "annotation must be an object"),
    ("annotation_unknown_key", _ann(note="x"), "d1", MALFORMED,
     "annotation: unknown keys ['note']"),
    ("annotation_id_missing", _ann(id=_DROP), "d1", MALFORMED,
     "annotation id must be a non-empty string"),
    ("annotation_id_empty", _ann(id=""), "d1", MALFORMED,
     "annotation id must be a non-empty string"),
    ("annotation_id_not_string", _ann(id=1), "d1", MALFORMED,
     "annotation id must be a non-empty string"),
    ("tag_not_string", _ann(tag=["event_type"]), "d1", MALFORMED,
     "annotation a1: tag must be a string"),
    ("tag_unknown", _ann(tag="mood"), "d1", "unknown_tag",
     "annotation a1: unknown tag name: 'mood'"),
    ("tag_wrong_case", _ann(tag="EVENT_TYPE"), "d1", "unknown_tag",
     "annotation a1: unknown tag name: 'EVENT_TYPE'"),
    ("sentence_ref_missing", _ann(sentence=_DROP), "d1", MALFORMED,
     "annotation a1: sentence must be an integer"),
    ("start_not_int", _ann(start=0.0), "d1", MALFORMED, "annotation a1: start must be an integer"),
    ("end_bool", _ann(end=True), "d1", MALFORMED, "annotation a1: end must be an integer"),
    ("sentence_ref_out_of_range", _ann(sentence=1), "d1", "bad_span",
     "annotation a1: sentence 1 of 1"),
    ("sentence_ref_negative", _ann(sentence=-1), "d1", "bad_span",
     "annotation a1: sentence -1 of 1"),
    ("span_past_end", _ann(start=3, end=5), "d1", "bad_span",
     "annotation a1: span [3, 5) in a 3-token sentence"),
    ("span_empty", _ann(start=1, end=1), "d1", "bad_span",
     "annotation a1: span [1, 1) in a 3-token sentence"),
    ("span_reversed", _ann(start=2, end=1), "d1", "bad_span",
     "annotation a1: span [2, 1) in a 3-token sentence"),
    ("span_negative_start", _ann(start=-1, end=1), "d1", "bad_span",
     "annotation a1: span [-1, 1) in a 3-token sentence"),
    ("events_bad_comment", _ann(events="event two"), "d1", "bad_event_ref",
     "annotation a1: not an event reference: 'event two'"),
    ("events_comment_zero", _ann(events="Event 0"), "d1", "bad_event_ref",
     "annotation a1: event numbers start at 1, got 0"),
    ("events_empty_list", _ann(events=[]), "d1", "bad_event_ref", EVENTS),
    ("events_zero", _ann(events=[0]), "d1", "bad_event_ref", EVENTS),
    ("events_bool", _ann(events=[True]), "d1", "bad_event_ref", EVENTS),
    ("events_float", _ann(events=[1.0]), "d1", "bad_event_ref", EVENTS),
    ("events_nested", _ann(events=[[1]]), "d1", "bad_event_ref", EVENTS),
    ("events_null", _ann(events=[None]), "d1", "bad_event_ref", EVENTS),
    ("events_one_then_null", _ann(events=[1, None]), "d1", "bad_event_ref", EVENTS),
    ("events_object", _ann(events={"1": 1}), "d1", "bad_event_ref", EVENTS_TYPE),
    ("events_number", _ann(events=1), "d1", "bad_event_ref", EVENTS_TYPE),
    ("confidence_string", _ann(confidence="0.5"), "d1", MALFORMED,
     "annotation a1: confidence must be a number"),
    ("confidence_bool", _ann(confidence=True), "d1", MALFORMED,
     "annotation a1: confidence must be a number"),
    ("confidence_above_one", _ann(confidence=1.5), "d1", MALFORMED,
     "annotation a1: confidence 1.5 outside [0, 1]"),
    ("confidence_int_above_one", _ann(confidence=2), "d1", MALFORMED,
     "annotation a1: confidence 2.0 outside [0, 1]"),
    ("confidence_negative", _ann(confidence=-0.25), "d1", MALFORMED,
     "annotation a1: confidence -0.25 outside [0, 1]"),
    ("confidence_seven_digits", _ann(confidence=0.1234567), "d1", MALFORMED,
     "annotation a1: confidence 0.1234567 has more than 6 fractional digits"),
    ("comment_not_string", _ann(comment=5), "d1", MALFORMED,
     "annotation a1: comment must be a string"),
    ("duplicate_annotation_id",
     _doc(annotations=[_ANN, {**_ANN, "tag": "event_mention", "start": 1, "end": 2}]), "d1",
     "duplicate_id", "duplicate annotation id 'a1'"),
]


@pytest.mark.parametrize("doc_id,shown", [("d1", "[d1]"), (None, "[?]")])
def test_parse_error_names_its_document(doc_id, shown):
    error = ParseError(3, doc_id, ParseErrorKind.BAD_SPAN, "m")
    assert str(error) == f"line 3 {shown} bad_span: m"


@pytest.mark.parametrize(
    "line,doc_id,kind,message",
    [case[1:] for case in SINGLE_DEFECT_LINES],
    ids=[case[0] for case in SINGLE_DEFECT_LINES],
)
def test_single_defect_line_rejection(line, doc_id, kind, message):
    data = line if isinstance(line, bytes) else json.dumps(line).encode()
    docs, errors = parse_corpus(data + b"\n")
    assert docs == []
    assert [(e.line, e.doc_id, e.kind.value, e.message) for e in errors] == [
        (1, doc_id, kind, message)
    ]
    # iter_corpus, which shares no token texts, rejects the line alike
    streamed = []
    assert list(iter_corpus([data], streamed)) == [] and streamed == errors


# (case, line, doc_id, kind, message) for lines with several defects: a
# rejection names an annotation only by an id that is a non-empty string and
# a sentence only by an integer index, never by another raw JSON value.
UNNAMED_RECORD_LINES = [
    ("annotation_id_object_and_start_float", _ann(id={}, start=0.0), "d1", MALFORMED,
     "annotation: start must be an integer"),
    ("annotation_id_missing_and_tag_number", _ann(id=_DROP, tag=5), "d1", MALFORMED,
     "annotation: tag must be a string"),
    ("annotation_id_empty_and_tag_unknown", _ann(id="", tag="nope"), "d1", "unknown_tag",
     "annotation: unknown tag name: 'nope'"),
    ("annotation_id_number_and_span_reversed", _ann(id=7, start=2, end=1), "d1", "bad_span",
     "annotation: span [2, 1) in a 3-token sentence"),
    ("sentence_index_array_and_tokens_bad", _sent(index=[1, [2, {}]], tokens=[1]), "d1",
     MALFORMED, "sentence: tokens must be a non-empty list of non-empty strings"),
    ("sentence_index_null_and_label_out_of_range", _sent(index=None, label=7), "d1", "bad_label",
     "sentence: label must be 0, 1 or 2, got 7"),
]


@pytest.mark.parametrize(
    "line,doc_id,kind,message",
    [case[1:] for case in UNNAMED_RECORD_LINES],
    ids=[case[0] for case in UNNAMED_RECORD_LINES],
)
def test_a_rejection_quotes_no_raw_value_as_a_name(line, doc_id, kind, message):
    test_single_defect_line_rejection(line, doc_id, kind, message)


def _string_objects(docs):
    tokens = [token for doc in docs for sentence in doc.sentences for token in sentence.tokens]
    return len(set(map(id, tokens))), len(set(tokens))


@pytest.mark.parametrize("name", ["bulk", "flat"])
def test_a_held_corpus_keeps_one_string_per_token_text(workload, tmp_path, name):
    data = workload(name, 1)["a"]
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(data)
    for docs, _ in (parse_corpus(data), load_corpus(str(path))):
        objects, texts = _string_objects(docs)
        assert objects == texts
    # iter_corpus holds one document at a time, so it shares nothing between them
    objects, texts = _string_objects(iter_corpus(data.split(b"\n"), []))
    assert objects > 10 * texts


def _annotation_fields(docs):
    anns = [ann for doc in docs for ann in doc.annotations]
    comments = [ann.comment for ann in anns if ann.comment is not None]
    return {"id": [ann.id for ann in anns], "comment": comments, "span": [a.span for a in anns]}


@pytest.mark.parametrize("name", ["bulk", "dense", "flat"])
def test_a_held_corpus_keeps_one_object_per_id_comment_and_span(workload, tmp_path, name):
    data = workload(name, 1)["a"]
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(data)
    for docs, _ in (parse_corpus(data), load_corpus(str(path))):
        fields = _annotation_fields(docs)
        for values in fields.values():
            assert len(set(map(id, values))) == len(set(values))
        assert len(set(fields["span"])) < len(fields["span"]) / 5
    # iter_corpus holds one document at a time, so no span is shared between documents
    seen = set()
    for doc in list(iter_corpus(data.split(b"\n"), [])):
        spans = {id(ann.span) for ann in doc.annotations}
        assert seen.isdisjoint(spans)
        seen |= spans


@pytest.mark.parametrize("name", ["bulk", "dense", "flat"])
def test_parse_corpus_peaks_near_what_it_holds(workload, name):
    data = workload(name, 1)["a"]
    tracemalloc.start()
    try:
        parsed = parse_corpus(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed[0] and peak < 1.25 * held


def _ann_doc(doc_id, **fields):
    sentences = [{"index": i, "tokens": ["Workers", "marched", "."]} for i in (0, 1)]
    return _doc(doc_id=doc_id, sentences=sentences, annotations=[{**_ANN, **fields}])


# (case, first line, second line, parse errors): a valid value first, then one
# that compares equal to it but is rejected; or one rejected value on both lines
SHARED_THEN_REJECTED = [
    ("span_then_bool_sentence", _ann_doc("d1", sentence=1), _ann_doc("d2", sentence=True),
     [(2, "d2", MALFORMED, "annotation a1: sentence must be an integer")]),
    ("string_id_then_integer_id", _ann_doc("d1", id="1"), _ann_doc("d2", id=1),
     [(2, "d2", MALFORMED, "annotation id must be a non-empty string")]),
    ("integer_id_then_string_id", _ann_doc("d1", id=1), _ann_doc("d2", id="1"),
     [(1, "d1", MALFORMED, "annotation id must be a non-empty string")]),
    ("confidence_one_then_bool", _ann_doc("d1", confidence=1),
     _ann_doc("d2", confidence=True),
     [(2, "d2", MALFORMED, "annotation a1: confidence must be a number")]),
    ("lone_surrogate_id_twice", _ann_doc("d1", id="\ud800"), _ann_doc("d2", id="\ud800"),
     [(line, doc_id, MALFORMED, "string with a lone surrogate, not encodable as UTF-8")
      for line, doc_id in ((1, "d1"), (2, "d2"))]),
]


@pytest.mark.parametrize(
    "first,second,rejected",
    [case[1:] for case in SHARED_THEN_REJECTED],
    ids=[case[0] for case in SHARED_THEN_REJECTED],
)
def test_sharing_never_changes_a_rejection(tmp_path, first, second, rejected):
    lines = [json.dumps(first).encode(), json.dumps(second).encode()]
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(data)
    # each line parsed alone, with a table of its own
    alone = [parse_corpus(line) for line in lines]
    expected_docs = [doc for docs, _ in alone for doc in docs]
    streamed = []
    for docs, errors in (
        parse_corpus(data),
        load_corpus(str(path)),
        (list(iter_corpus(lines, streamed)), streamed),
    ):
        assert repr(docs) == repr(expected_docs)  # repr tells True from 1
        assert [(e.line, e.doc_id, e.kind.value, e.message) for e in errors] == rejected
        assert [e.message for e in errors] == [e.message for _, errs in alone for e in errs]


@pytest.mark.parametrize("name", ["dense", "flat"])
def test_equal_events_and_labels_are_one_shared_object(workload, name):
    docs, _ = parse_corpus(workload(name, 1)["a"])
    events, labels = {}, {}
    for doc in docs:
        assert labels.setdefault(doc.labels, doc.labels) is doc.labels
        for ann in doc.annotations:
            assert events.setdefault(ann.events, ann.events) is ann.events
    assert len(events) > 1 and len(labels) > 1


def test_repeated_event_comment_parses_alike_and_a_bad_one_raises_each_time():
    line = json.dumps(_ann(events="Event 2, Event 3")).encode() + b"\n"
    (first,), _ = parse_corpus(line)
    (second,), _ = parse_corpus(line)
    assert first.annotations[0].events == second.annotations[0].events == {2, 3}
    assert serialize_corpus([first]) == serialize_corpus([second])
    assert b'"events":"Event 2, Event 3"' in serialize_corpus([second])
    bad = json.dumps(_ann(events="Event 0")).encode()
    for _ in range(2):
        docs, errors = parse_corpus(bad)
        assert docs == [] and [(e.kind.value, e.message) for e in errors] == [
            ("bad_event_ref", "annotation a1: event numbers start at 1, got 0")
        ]


# one rejected line of each ParseErrorKind, from the single-defect cases
_ONE_PER_KIND = {}
for _, _obj, _, _kind, _ in SINGLE_DEFECT_LINES:
    _ONE_PER_KIND.setdefault(_kind, _obj if isinstance(_obj, bytes) else json.dumps(_obj).encode())


@pytest.mark.parametrize("seed", range(16))
def test_load_corpus_reads_a_file_as_parse_corpus_reads_its_bytes(tmp_path, seed):
    assert set(_ONE_PER_KIND) == {kind.value for kind in ParseErrorKind}
    rng = random.Random(seed)
    lines = serialize_corpus(random_corpus(8, seed)).split(b"\n")[:-1]
    lines += [b"", b"   ", b" \t", rng.choice(lines), *_ONE_PER_KIND.values()]
    rng.shuffle(lines)
    cut = b'{"doc_id": "cut", "sent'  # a string cut off at the end of a line
    lines.insert(rng.randrange(len(lines)), cut)
    ends = [rng.choice((b"\n", b"\r\n")) for _ in lines]
    ends[lines.index(cut)] = b"\n"
    if seed % 2:
        ends[-1] = b""  # no final newline
    data = b"".join(line + end for line, end in zip(lines, ends))
    path = tmp_path / "corpus.glocon.jsonl"
    path.write_bytes(data)

    docs, errors = load_corpus(str(path))
    assert repr((docs, errors)) == repr(parse_corpus(data))
    assert len(docs) == 8
    assert {e.kind.value for e in errors} == set(_ONE_PER_KIND)
    assert "invalid JSON: Unterminated string starting at" in {e.message for e in errors}


# --------------------------------------------------------------------------
# inputs at the interpreter's limits, and strings UTF-8 cannot encode


def _only_error(data: bytes):
    docs, errors = parse_corpus(data)
    assert docs == [] and len(errors) == 1
    return errors[0]


def test_huge_integer_confidence_is_malformed():
    line = _line(_ann()).replace(b'"end": 1', b'"end": 1, "confidence": 1' + b"0" * 400)
    error = _only_error(line)
    assert (error.kind, error.message) == (
        ParseErrorKind.MALFORMED_RECORD, "annotation a1: confidence outside [0, 1]"
    )


def test_deep_nesting_is_malformed():
    good = _line(_doc_obj(doc_id="ok"))
    docs, errors = parse_corpus(good + b"[" * 100_000 + b"]" * 100_000 + b"\n" + good)
    assert [d.doc_id for d in docs] == ["ok"]
    assert [(e.line, e.kind, e.message) for e in errors] == [
        (2, ParseErrorKind.MALFORMED_RECORD, "invalid JSON: nesting too deep"),
        (3, ParseErrorKind.DUPLICATE_ID, "duplicate doc_id 'ok'"),
    ]


def _frames_deeper(frames, call):
    return call() if frames == 0 else _frames_deeper(frames - 1, call)


@pytest.mark.parametrize("depth", [99, 100, 101, 500, 900])
@pytest.mark.parametrize("closed", [True, False], ids=["valid", "unterminated"])
def test_nesting_cap_does_not_depend_on_the_stack(depth, closed):
    # the record is one level deep and "x" holds depth - 1 nested arrays
    line = b'{"doc_id": "d", "x": ' + b"[" * (depth - 1)
    if closed:
        line += b"]" * (depth - 1) + b"}"
    result = parse_corpus(line)
    assert _frames_deeper(60, lambda: parse_corpus(line)) == result
    docs, (error,) = result
    assert docs == []
    too_deep = (None, ParseErrorKind.MALFORMED_RECORD, "invalid JSON: nesting too deep")
    if depth > 100:
        assert (error.doc_id, error.kind, error.message) == too_deep
    else:
        assert error.message != too_deep[2]


@pytest.mark.parametrize("depth", [101, 500, 950])
def test_config_nesting_cap_does_not_depend_on_the_stack(tmp_path, depth):
    # the config nests 2 deep around depth - 2 nested arrays
    path = tmp_path / "lint.json"
    path.write_text('{"disabled_rules": {"x": ' + "[" * (depth - 2) + "]" * (depth - 2) + "}}")

    def message():
        with pytest.raises(ConfigError) as raised:
            load_config(str(path))
        return str(raised.value)

    assert message() == _frames_deeper(60, message) == "invalid JSON: nesting too deep"


def test_brackets_inside_strings_do_not_nest():
    error = _only_error(b'{"doc_id": "d", "x": "' + b"[{" * 200 + b'\\"]"}')
    assert (error.doc_id, error.message) == ("d", "unknown record keys: ['x']")


def test_integer_past_digit_limit_is_malformed():
    error = _only_error(b'{"doc_id": "d1", "x": 1' + b"0" * 5000 + b"}")
    assert (error.kind, error.message) == (
        ParseErrorKind.MALFORMED_RECORD, "invalid JSON: integer literal too long"
    )
    error = _only_error(_line(_ann(events="Event 1" + "0" * 5000)))
    assert (error.kind, error.message) == (
        ParseErrorKind.BAD_EVENT_REF, "annotation a1: event number of 5001 digits"
    )


NOT_UTF8 = "string with a lone surrogate, not encodable as UTF-8"


@pytest.mark.parametrize(
    "obj,doc_id",
    [
        (_doc(doc_id="\ud800"), None),
        (_sent(tokens=["Workers", "\udfff"]), "d1"),
        (_ann(id="a\ud800"), "d1"),
        (_ann(comment="\udbff!"), "d1"),
    ],
    ids=["doc_id", "token", "annotation_id", "comment"],
)
def test_lone_surrogate_is_malformed(obj, doc_id):
    line = _line(obj)  # json.dumps writes the surrogate as a \u escape
    assert b"\\ud" in line
    error = _only_error(line)
    assert (error.doc_id, error.kind, error.message) == (
        doc_id, ParseErrorKind.MALFORMED_RECORD, NOT_UTF8
    )
    str(error).encode("utf-8")


# (case, line, doc_id, kind, message) for a lone surrogate in each other
# position of a line, and on lines with a second defect: a closed vocabulary
# rejects it as any other text outside it.  No rejection names a document or
# an annotation by a string that UTF-8 cannot encode.
SURROGATE_LINES = [
    ("tag", _ann(tag="event_\ud800"), "d1", "unknown_tag",
     "annotation a1: unknown tag name: 'event_\\ud800'"),
    ("doc_label", _doc(labels={"protest": "\ud800"}), "d1", "bad_label",
     "bad protest label: '\\ud800'"),
    ("sentence_label", _sent(label="\ud800"), "d1", "bad_label",
     "sentence 0: label must be 0, 1 or 2"),
    ("events_comment", _ann(events="Event \ud800"), "d1", "bad_event_ref",
     "annotation a1: not an event reference: 'Event \\ud800'"),
    ("record_key", _doc(**{"\ud800": 1}), "d1", MALFORMED,
     "unknown record keys: ['\\ud800']"),
    ("label_key", _doc(labels={"\ud800": "protest"}), "d1", MALFORMED,
     "unknown label keys: ['\\ud800']"),
    ("sentence_key", _sent(**{"\ud800": 1}), "d1", MALFORMED,
     "sentence 0: unknown keys ['\\ud800']"),
    ("annotation_key", _ann(**{"\ud800": 1}), "d1", MALFORMED,
     "annotation: unknown keys ['\\ud800']"),
    ("doc_id_and_record_key", _doc(doc_id="d\ud800", extra=1), None, MALFORMED,
     "unknown record keys: ['extra']"),
    ("annotation_id_and_tag", _ann(id="a\ud800", tag="mood"), "d1", "unknown_tag",
     "annotation: unknown tag name: 'mood'"),
]


@pytest.mark.parametrize(
    "line,doc_id,kind,message",
    [case[1:] for case in SURROGATE_LINES],
    ids=[case[0] for case in SURROGATE_LINES],
)
def test_a_lone_surrogate_is_rejected_as_its_position_rejects_text(line, doc_id, kind, message):
    assert b"\\ud" in _line(line)
    test_single_defect_line_rejection(line, doc_id, kind, message)
    (error,) = parse_corpus(_line(line))[1]
    str(error).encode("utf-8")


def test_surrogate_pair_escape_is_accepted():
    docs, errors = parse_corpus(_line(_sent(tokens=["\U0001F600"])))
    assert errors == []
    assert docs[0].sentences[0].tokens == ("\U0001F600",)
    assert parse_corpus(serialize_corpus(docs)) == (docs, [])


# --------------------------------------------------------------------------
# fuzz: whatever the input, only ParseErrors or CorpusDecodeError come out

_text = st.text(max_size=6) | st.text(max_size=3).map(lambda s: s + "\ud800")
_json_leaf = (
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | _text
    | st.sampled_from(["event_type", "e_type", "protest", "Event 2, Event 3", "", 0, 1, 2, 3])
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)


def _maybe(valid):
    """Mostly a valid field value, sometimes any JSON value."""
    return st.one_of(valid, valid, valid, _json_value)


_annotation_obj = st.fixed_dictionaries(
    {
        "id": _maybe(st.sampled_from(["a1", "a2", "a3"])),
        "tag": _maybe(st.sampled_from(["event_type", "e_place", "peasant", "mood"])),
        "sentence": _maybe(st.integers(-1, 2)),
        "start": _maybe(st.integers(-1, 4)),
        "end": _maybe(st.integers(0, 5)),
    },
    optional={
        "events": _maybe(st.lists(st.integers(0, 3), max_size=3) | st.just("Event 2")),
        "confidence": _maybe(st.floats(0, 1) | st.integers(0, 2)),
        "comment": _maybe(_text),
    },
)
_sentence_obj = st.fixed_dictionaries(
    {"index": _maybe(st.integers(0, 2)), "tokens": _maybe(st.lists(_text, max_size=5))},
    optional={"label": _maybe(st.integers(0, 3))},
)
_document_obj = st.fixed_dictionaries(
    {"doc_id": _maybe(st.sampled_from(["d1", "d2", ""]))},
    optional={
        "labels": _maybe(
            st.fixed_dictionaries(
                {}, optional={"protest": st.sampled_from(["protest", "no_protest", "maybe"]),
                              "violent": st.just("violent")}
            )
        ),
        "sentences": _maybe(st.lists(_sentence_obj, max_size=3)),
        "annotations": _maybe(st.lists(_annotation_obj, max_size=4)),
    },
)
_lines = st.one_of(
    _document_obj.map(lambda obj: json.dumps(obj).encode()),
    _json_value.map(lambda obj: json.dumps(obj).encode()),
    st.integers(1, 3000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.binary(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=4))
def test_fuzz_parse_corpus_raises_only_documented_errors(lines):
    data = b"\n".join(lines)
    streamed = []
    try:
        docs, errors = parse_corpus(data)
    except CorpusDecodeError as exc:
        with pytest.raises(CorpusDecodeError, match=f"^{re.escape(str(exc))}$"):
            list(iter_corpus(data.split(b"\n"), streamed))
        return
    # the held corpus shares token texts; the streamed one reads alike
    assert repr(list(iter_corpus(data.split(b"\n"), streamed))) == repr(docs)
    assert streamed == errors
    for error in errors:
        assert isinstance(error.kind, ParseErrorKind)
        str(error).encode("utf-8")  # printable: no lone surrogate escapes into a message
    for doc in docs:
        assert parse_corpus(serialize_corpus([doc])) == ([doc], [])


# --------------------------------------------------------------------------
# closure: whatever the model constructors accept, the corpus format carries

# One string in seven holds a lone surrogate, which UTF-8 cannot encode and
# the constructors of the fields that keep a string reject; most documents
# hold none, so that most are accepted.
_utf8_text = st.text(st.characters(codec="utf-8"), max_size=4)
_field_text = st.one_of(
    *[_utf8_text] * 6,
    st.tuples(_utf8_text, st.characters(categories=["Cs"]), _utf8_text).map("".join),
)
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _field_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_field_text, inner, max_size=3),
    max_leaves=5,
)
# one valid value per constructor field; the test swaps some for any JSON value
_VALID_FIELDS = {
    "doc_id": _field_text.filter(bool),
    "protest": st.sampled_from([None, *ProtestLabel, ProtestLabel.PROTEST]),
    "violent": st.sampled_from([None, None, *ViolenceLabel]),
    "demand": st.sampled_from([None, None, *DemandLabel]),
    "index": st.just(0),
    "tokens": st.lists(_field_text.filter(bool), min_size=2, max_size=3).flatmap(
        lambda tokens: st.sampled_from([tokens, tuple(tokens)])
    ),
    "label": st.sampled_from([None, 0, 1, 2, *SentenceLabel]),
    "id": _field_text.filter(bool),
    "sentence": st.integers(0, 1),
    "start": st.integers(0, 1),
    "end": st.just(2),
    "events": st.frozensets(st.integers(1, 70), min_size=1, max_size=3)
    | st.lists(st.integers(1, 70), min_size=1, max_size=3),
    "confidence": st.none() | st.integers(0, 1) | st.floats(0, 1).map(lambda x: round(x, 6)),
    "comment": st.none() | _field_text,
    "events_from_comment": st.booleans(),
}


@st.composite
def _constructor_fields(draw):
    swapped = draw(st.sets(st.sampled_from(sorted(_VALID_FIELDS)), max_size=2))
    return {
        name: draw(_any_json if name in swapped else valid)
        for name, valid in _VALID_FIELDS.items()
    }


@settings(max_examples=600, deadline=None)
@given(_constructor_fields())
def test_whatever_the_constructors_accept_reads_back_equal(f):
    try:  # a rejection is an InvariantError; any other exception fails the test
        labels = DocumentLabels(f["protest"], f["violent"], f["demand"])
        sentences = [
            SentenceRecord(f["index"], f["tokens"], f["label"]), SentenceRecord(1, ["x", "y"])
        ]
        span = TokenSpan(f["sentence"], f["start"], f["end"])
        annotation = Annotation(
            f["id"], TagId.EVENT_TYPE, span, f["events"], f["confidence"], f["comment"],
            f["events_from_comment"],
        )
        doc = DocumentRecord(f["doc_id"], labels, sentences, [annotation])
    except InvariantError:
        return
    data = serialize_corpus([doc])
    parsed = parse_corpus(data)
    assert parsed == ([doc], [])
    assert serialize_corpus(parsed[0]) == data


# --------------------------------------------------------------------------
# the writer, byte for byte against json.dumps of the oracle's canonical object


def _dumped(docs) -> bytes:
    return b"".join(
        (json.dumps(canonical_obj(doc), ensure_ascii=False, separators=(",", ":")) + "\n").encode()
        for doc in docs
    )


def test_writer_matches_json_dumps_on_random_documents():
    docs = random_corpus(2000, 26)
    assert serialize_corpus(docs) == _dumped(docs)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("name", ["bulk", "dense", "flat"])
def test_writer_matches_json_dumps_on_the_bench_corpora(workload, name, side):
    docs, _ = parse_corpus(workload(name, 1)[side])
    written = serialize_corpus(docs)
    assert written == _dumped(docs)
    # what the writer wrote reads back to documents that it writes the same way
    assert serialize_corpus(parse_corpus(written)[0]) == written


# A set of small ints iterates in hash order, which is not sorted once a
# number passes the set's table size: {1, 8}, {3, 64} and {2, 9, 16} iterate
# unsorted, so a writer that does not sort writes them wrong.
_WRITTEN_EVENTS = [frozenset(s) for s in ({1}, {2, 3}, {1, 8}, {3, 64}, {2, 9, 16})]
_CONFIDENCES = [None, 0, 1, 0.0, 1.0, 1e-06, 0.5, 0.123456]
_LABEL_TRIPLES = [
    DocumentLabels(),
    DocumentLabels(ProtestLabel.NO_PROTEST),
    *[DocumentLabels(ProtestLabel.PROTEST, violent, demand)
      for violent in [None, *ViolenceLabel] for demand in [None, *DemandLabel]],
]


@st.composite
def _hostile_documents(draw):
    sentences = [
        SentenceRecord(
            index,
            draw(st.lists(HOSTILE_TEXT.filter(bool), min_size=2, max_size=4)),
            draw(st.sampled_from([None, *SentenceLabel])),
        )
        for index in range(draw(st.integers(1, 2)))
    ]
    annotations = [
        Annotation(
            ann_id,
            draw(st.sampled_from(list(TagId))),
            TokenSpan(0, draw(st.integers(0, 1)), 2),
            draw(st.sampled_from(_WRITTEN_EVENTS)),
            draw(st.sampled_from(_CONFIDENCES)),
            draw(st.none() | HOSTILE_TEXT),
            draw(st.booleans()),
        )
        for ann_id in draw(st.lists(HOSTILE_TEXT.filter(bool), max_size=4, unique=True))
    ]
    labels = draw(st.sampled_from(_LABEL_TRIPLES))
    return DocumentRecord(draw(HOSTILE_TEXT.filter(bool)), labels, sentences, annotations)


@settings(max_examples=300, deadline=None)
@given(_hostile_documents())
def test_writer_matches_json_dumps_on_hostile_strings(doc):
    assert any(list(events) != sorted(events) for events in _WRITTEN_EVENTS)
    assert serialize_corpus([doc]) == _dumped([doc])


@pytest.mark.parametrize("field", ["doc_id", "token", "annotation_id", "comment"])
def test_a_lone_surrogate_is_not_written(field):
    values = {"doc_id": "d", "token": "b", "annotation_id": "a1", "comment": None}
    values[field] = "x\ud800"
    with pytest.raises(InvariantError) as raised:
        DocumentRecord(
            values["doc_id"],
            sentences=[SentenceRecord(0, ["a", values["token"]])],
            annotations=[
                Annotation(values["annotation_id"], TagId.EVENT_TYPE, TokenSpan(0, 0, 1),
                           comment=values["comment"])
            ],
        )
    assert (raised.value.kind, str(raised.value)) == (ParseErrorKind.MALFORMED_RECORD, NOT_UTF8)
