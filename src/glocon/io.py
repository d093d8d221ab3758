"""Reading and writing the corpus file format.

Corpora are stored as UTF-8 JSON Lines (extension ``.glocon.jsonl``),
one document object per line::

    {"doc_id": "...",
     "labels": {"protest": "protest", "violent": "violent"},
     "sentences": [{"index": 0, "tokens": ["...", ...], "label": 1}, ...],
     "annotations": [{"id": "a1", "tag": "event_type", "sentence": 0,
                      "start": 3, "end": 4, "events": [1],
                      "confidence": 0.9, "comment": "..."}, ...]}

``events`` may be a plain integer array or a FLAT-style comment string
such as ``"Event 2, Event 3"``; the string form is normalized through
:func:`parse_event_refs` and re-emitted as a string on serialization.
An absent ``events`` key or a blank string means event 1, written back
as ``[1]``.  Absent optional fields (``labels`` sub-keys, sentence
``label``, ``confidence``, ``comment``) are omitted on output.

:func:`iter_corpus` is the one parse loop.  It takes raw byte lines (an
open binary file will do) and yields only documents, one at a time; each
rejected line's ParseError goes to a list the caller passes in.
:func:`parse_corpus` (the corpus as bytes) and :func:`load_corpus` (a
path) collect it into lists, and so hold the whole corpus.  A rejected
line nested more than 100 arrays or objects deep is "nesting too deep",
whatever else is wrong with it, so the result does not depend on the
caller's stack.

Serialization is canonical: keys in the order shown above, annotations
sorted by (sentence, start, end, tag, event numbers, id), compact
separators, LF line endings.  :func:`serialize_corpus` and
:func:`save_corpus` share one line encoder; ``save_corpus`` writes each
document's line as it is made.
``parse_corpus(serialize_corpus(docs))`` reproduces ``docs`` exactly.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, repeat

from .model import (
    DOC_LABELS,
    EMPTY_LABELS,
    TAG_BY_NAME,
    Annotation,
    DocumentLabels,
    DocumentRecord,
    InvariantError,
    ParseErrorKind,
    SentenceRecord,
    TagId,
    TokenSpan,
    annotation_name,
    format_event_refs,
    label_text,
    parse_event_refs,
    resolve_tag,
    span_error,
)


class ParseError(namedtuple("ParseError", "line doc_id kind message")):
    """One rejected input line (or one problem within it)."""

    __slots__ = ()

    def __str__(self) -> str:
        doc = self.doc_id or "?"
        return f"line {self.line} [{doc}] {self.kind.value}: {self.message}"


class CorpusDecodeError(Exception):
    """The byte stream is not valid UTF-8; nothing can be parsed."""

    def __init__(self, line: int, cause: UnicodeDecodeError):
        super().__init__(f"line {line}: undecodable bytes ({cause})")
        self.line = line


# The parser only decodes: valid JSON whose strings encode as UTF-8, the
# allowed keys, objects and arrays where the format has them, the tag names
# and label texts, and the events comment form.  It passes every field value
# to the model constructors, which check its type and value.  Both raise
# InvariantError with the line's ParseErrorKind; the parser prefixes an
# annotation's tag, span type and events errors with its annotation_name.

_DOC_KEYS = frozenset({"doc_id", "labels", "sentences", "annotations"})
_LABEL_KEYS = frozenset(DOC_LABELS)
_SENTENCE_KEYS = frozenset({"index", "tokens", "label"})
_ANNOTATION_KEYS = frozenset(
    {"id", "tag", "sentence", "start", "end", "events", "confidence", "comment"}
)
_LABEL_BY_TEXT = [{label.value: label for label in vocab} for vocab in DOC_LABELS.values()]
_TAG_TEXT = {tag: tag.value for tag in TagId}  # a lookup is faster than .value
# A corpus repeats a few label triples and event comments, so each parses to
# one shared object.  Both caches are bounded, whatever the corpus: a label
# triple is kept by its texts once DocumentLabels accepts it, and the
# vocabularies are closed (at most 36 triples); the comment cache keeps 256.
# A triple or comment that raises is not cached, so it raises each time.
_LABELS: dict[tuple, DocumentLabels] = {(None, None, None): EMPTY_LABELS}
_comment_events = lru_cache(maxsize=256)(parse_event_refs)
_EVENT_ONE = parse_event_refs(None)


def _parse_labels(obj: object) -> DocumentLabels:
    if obj is None:
        return EMPTY_LABELS
    if type(obj) is not dict:
        raise InvariantError("labels must be an object")
    if not obj.keys() <= _LABEL_KEYS:
        raise InvariantError(f"unknown label keys: {sorted(obj.keys() - _LABEL_KEYS)}")
    texts = tuple([obj.get(key) for key in DOC_LABELS])
    try:
        return _LABELS[texts]
    except (KeyError, TypeError):  # not seen yet, or a list or object: DocumentLabels decides
        pass
    # a text outside its vocabulary is passed on as it is, for DocumentLabels to reject
    labels = DocumentLabels(*[
        by_text.get(text, text) if type(text) is str else text
        for text, by_text in zip(texts, _LABEL_BY_TEXT)
    ])
    _LABELS[texts] = labels
    return labels


def _parse_sentence(obj: object, position: int) -> SentenceRecord:
    if type(obj) is not dict:
        raise InvariantError("sentence must be an object")
    if not obj.keys() <= _SENTENCE_KEYS:
        raise InvariantError(
            f"sentence {position}: unknown keys {sorted(obj.keys() - _SENTENCE_KEYS)}"
        )
    return SentenceRecord(obj.get("index"), obj.get("tokens"), obj.get("label"))


def _parse_annotation(obj: object, sentences: tuple[SentenceRecord, ...]) -> Annotation:
    if type(obj) is not dict:
        raise InvariantError("annotation must be an object")
    if not obj.keys() <= _ANNOTATION_KEYS:
        raise InvariantError(
            f"annotation: unknown keys {sorted(obj.keys() - _ANNOTATION_KEYS)}"
        )
    get = obj.get
    ann_id, name, events = get("id"), get("tag"), get("events")
    sentence, start, end = get("sentence"), get("start"), get("end")
    from_comment = False
    try:
        if type(name) is not str:
            raise InvariantError("tag must be a string")
        tag = TAG_BY_NAME.get(name) or resolve_tag(name)  # raises outside the tagset
        span = TokenSpan(sentence, start, end)
        if type(events) is not list:
            if type(events) is str and events.strip():
                from_comment = True
                events = _comment_events(events)
            elif events is None or type(events) is str:
                events = _EVENT_ONE  # absent, or a blank comment that numbers nothing
            else:
                raise InvariantError(
                    "events must be an integer array or an 'Event N' string",
                    ParseErrorKind.BAD_EVENT_REF,
                )
    except InvariantError as exc:
        if exc.kind is ParseErrorKind.BAD_SPAN:  # named against the sentence's length
            raise span_error(ann_id, sentence, start, end, sentences) from None
        raise InvariantError(f"{annotation_name(ann_id)}: {exc}", exc.kind) from None
    return Annotation(ann_id, tag, span, events, get("confidence"), get("comment"), from_comment)


def _parse_document(obj: object) -> DocumentRecord:
    if type(obj) is not dict:
        raise InvariantError("record must be a JSON object")
    if not obj.keys() <= _DOC_KEYS:
        raise InvariantError(f"unknown record keys: {sorted(obj.keys() - _DOC_KEYS)}")
    labels = _parse_labels(obj.get("labels"))
    sentences_raw = obj.get("sentences", [])
    if type(sentences_raw) is not list:
        raise InvariantError("sentences must be an array")
    sentences = tuple([_parse_sentence(s, pos) for pos, s in enumerate(sentences_raw)])
    annotations_raw = obj.get("annotations", [])
    if type(annotations_raw) is not list:
        raise InvariantError("annotations must be an array")
    annotations = tuple([_parse_annotation(a, sentences) for a in annotations_raw])
    return DocumentRecord(obj.get("doc_id"), labels, sentences, annotations)


def _decode(line: str) -> object:
    """The JSON value of one line; a string that UTF-8 cannot encode (a lone
    surrogate) rejects the line, since the document could not be written back.
    Strict UTF-8 decoding yields no surrogates, so only a ``\\u`` escape can
    put one into a line, and only such lines are re-encoded."""
    try:
        obj = json.loads(line)
        if "\\u" in line:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise InvariantError(f"invalid JSON: {exc.msg}") from None
    except UnicodeEncodeError:
        raise InvariantError("string with a lone surrogate, not encodable as UTF-8") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise InvariantError("invalid JSON: integer literal too long") from None
    return obj


# A well-formed record nests 4 deep and a lint config 3.  json.loads raises
# RecursionError at a depth that depends on the caller's stack, so a rejected
# line or config nested past this cap is "nesting too deep" whatever else is wrong.
_MAX_DEPTH = 100
TOO_DEEP = "invalid JSON: nesting too deep"
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def nests_too_deep(text: str) -> bool:
    """Whether brackets outside strings nest past ``_MAX_DEPTH``; for text
    that decodes, that is the nesting of its JSON value."""
    if text.count("[") + text.count("{") <= _MAX_DEPTH:
        return False
    # without escaped backslashes and quotes, every '"' opens or closes a string
    outside = "".join(text.replace("\\\\", "").replace('\\"', "").split('"')[::2])
    return max(accumulate(map(_DEPTH_STEP.get, outside, repeat(0)), initial=0)) > _MAX_DEPTH


def _rejection(lineno: int, line: str, obj: object, exc: Exception) -> ParseError:
    if isinstance(exc, RecursionError) or nests_too_deep(line):
        return ParseError(lineno, None, ParseErrorKind.MALFORMED_RECORD, TOO_DEEP)
    doc_id = obj.get("doc_id") if type(obj) is dict else None
    return ParseError(lineno, doc_id if type(doc_id) is str else None, exc.kind, str(exc))


def iter_corpus(lines: Iterable[bytes], errors: list[ParseError]) -> Iterator[DocumentRecord]:
    """Parse a corpus line by line, holding one document at a time.

    ``lines`` are raw byte lines, such as an open binary file yields; one
    trailing ``\\n`` is stripped from each.  Yields a DocumentRecord per
    well-formed line, in input order, and appends at least one ParseError
    per malformed line to ``errors`` before it reads the next line; errors
    carry 1-based line numbers.  Blank lines are skipped, and a repeated
    ``doc_id`` is a DUPLICATE_ID error.  Undecodable bytes raise
    CorpusDecodeError.
    """
    seen_doc_ids: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        if raw.endswith(b"\n"):  # as bytes.split drops it, so JSON errors read alike
            raw = raw[:-1]
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusDecodeError(lineno, exc) from None
        if not line.strip():
            continue
        obj = None
        try:
            obj = _decode(line)
            doc = _parse_document(obj)
        except (InvariantError, RecursionError) as exc:
            errors.append(_rejection(lineno, line, obj, exc))
            continue
        if doc.doc_id in seen_doc_ids:
            message = f"duplicate doc_id {doc.doc_id!r}"
            errors.append(ParseError(lineno, doc.doc_id, ParseErrorKind.DUPLICATE_ID, message))
            continue
        seen_doc_ids.add(doc.doc_id)
        yield doc


def parse_corpus(data: bytes) -> tuple[list[DocumentRecord], list[ParseError]]:
    """Parse a whole corpus from its UTF-8 bytes: :func:`iter_corpus` over
    its lines, as ``(documents, parse errors)``."""
    errors: list[ParseError] = []
    return list(iter_corpus(data.split(b"\n"), errors)), errors


def document_to_obj(doc: DocumentRecord) -> dict:
    """Canonical JSON-compatible dict for one document."""
    labels = {
        key: label_text(label)
        for key in DOC_LABELS
        if (label := getattr(doc.labels, key)) is not None
    }

    sentences = []
    for sent in doc.sentences:
        obj: dict = {"index": sent.index, "tokens": list(sent.tokens)}
        if sent.label is not None:
            obj["label"] = int(sent.label)
        sentences.append(obj)

    annotations = []
    for ann in doc.annotations:  # kept in canonical order by DocumentRecord
        obj = {
            "id": ann.id,
            "tag": _TAG_TEXT[ann.tag],
            "sentence": ann.span.sentence,
            "start": ann.span.start,
            "end": ann.span.end,
        }
        if ann.events_from_comment:
            obj["events"] = format_event_refs(ann.events)
        else:
            obj["events"] = sorted(ann.events)
        if ann.confidence is not None:
            obj["confidence"] = ann.confidence
        if ann.comment is not None:
            obj["comment"] = ann.comment
        annotations.append(obj)

    return {
        "doc_id": doc.doc_id,
        "labels": labels,
        "sentences": sentences,
        "annotations": annotations,
    }


def _document_line(doc: DocumentRecord) -> bytes:
    """One document as a canonical UTF-8 JSON line, ending in LF."""
    text = json.dumps(document_to_obj(doc), ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def serialize_corpus(docs: Iterable[DocumentRecord]) -> bytes:
    """Serialize documents to canonical UTF-8 JSON Lines."""
    return b"".join(map(_document_line, docs))


def load_corpus(path: str) -> tuple[list[DocumentRecord], list[ParseError]]:
    """Parse a whole corpus file, reading it line by line."""
    errors: list[ParseError] = []
    with open(path, "rb") as handle:
        return list(iter_corpus(handle, errors)), errors


def save_corpus(path: str, docs: Iterable[DocumentRecord]) -> None:
    """Write documents as :func:`serialize_corpus` does, one line at a time."""
    with open(path, "wb") as handle:
        handle.writelines(map(_document_line, docs))
