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
path) collect it into lists, and so hold the whole corpus.  They keep one
``str`` per distinct token text, annotation id and comment, and one
TokenSpan per distinct span, from a table that dies with the call.  A
span is looked up only once TokenSpan has accepted it, and no number is
shared, so a bool equal to an accepted value is still rejected.
``iter_corpus`` shares none, so compare these values with ``==``, never
``is``.
A rejected line nested more than 100 arrays or objects deep is "nesting
too deep", whatever else is wrong with it, so the result does not depend
on the caller's stack.

Serialization is canonical: keys in the order shown above, annotations
sorted by (sentence, start, end, tag, event numbers, id), compact
separators, LF line endings.  Each line's text is written directly, as
json's encoder with ``ensure_ascii=False`` would write it: strings through
json's C string encoder, with no ASCII escaping, integers through ``str``
and confidences through ``float.__repr__``.  :func:`serialize_corpus` and
:func:`save_corpus` share that one line writer; ``save_corpus`` writes
each document's line as it is made, to a file that replaces ``path`` once
the last is written.
``parse_corpus(serialize_corpus(docs))`` reproduces ``docs`` exactly.
"""

from __future__ import annotations

import io
import json
import os
import stat
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, repeat
from json.encoder import encode_basestring as _json_string

from .model import (
    DOC_LABELS,
    EMPTY_LABELS,
    TAG_BY_NAME,
    Annotation,
    DocumentLabels,
    DocumentRecord,
    InvariantError,
    ParseErrorKind,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
    annotation_name,
    format_event_refs,
    parse_event_refs,
    resolve_tag,
    span_error,
    utf8_encodable,
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


# The parser only decodes: valid JSON, the allowed keys, objects and arrays
# where the format has them, the tag names and label texts, and the events
# comment form.  It passes every field value to the model constructors, which
# check its type and value, UTF-8 encodability of a string included.  Both raise
# InvariantError with the line's ParseErrorKind; the parser prefixes an
# annotation's tag, span type and events errors with its annotation_name.

_DOC_KEYS = frozenset({"doc_id", "labels", "sentences", "annotations"})
_LABEL_KEYS = frozenset(DOC_LABELS)
_SENTENCE_KEYS = frozenset({"index", "tokens", "label"})
_ANNOTATION_KEYS = frozenset(
    {"id", "tag", "sentence", "start", "end", "events", "confidence", "comment"}
)
_LABEL_BY_TEXT = [{label.value: label for label in vocab} for vocab in DOC_LABELS.values()]
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
    if not _LABEL_KEYS.issuperset(obj):
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


def _parse_sentence(obj: object, position: int, shared: dict | None) -> SentenceRecord:
    if type(obj) is not dict:
        raise InvariantError("sentence must be an object")
    if not _SENTENCE_KEYS.issuperset(obj):
        raise InvariantError(
            f"sentence {position}: unknown keys {sorted(obj.keys() - _SENTENCE_KEYS)}"
        )
    tokens = obj.get("tokens")
    if shared is not None and type(tokens) is list:  # a held corpus: one str per token text
        try:  # a list, not tuple(map()), which over-allocates; SentenceRecord makes the tuple
            tokens = [*map(shared.setdefault, tokens, tokens)]
        except TypeError:  # an unhashable token: SentenceRecord rejects the list as it is
            pass
    return SentenceRecord.__new__(SentenceRecord, obj.get("index"), tokens, obj.get("label"))


def _parse_annotation(
    obj: object, sentences: tuple[SentenceRecord, ...], shared: dict | None = None
) -> Annotation:
    if type(obj) is not dict:
        raise InvariantError("annotation must be an object")
    if not _ANNOTATION_KEYS.issuperset(obj):
        raise InvariantError(
            f"annotation: unknown keys {sorted(obj.keys() - _ANNOTATION_KEYS)}"
        )
    get = obj.get
    ann_id, name, events, comment = get("id"), get("tag"), get("events"), get("comment")
    sentence, start, end = get("sentence"), get("start"), get("end")
    if shared is not None:  # a held corpus: one str per id and comment text, as for tokens
        if type(ann_id) is str:
            ann_id = shared.setdefault(ann_id, ann_id)
        if type(comment) is str:
            comment = shared.setdefault(comment, comment)
    from_comment = False
    try:
        if type(name) is not str:
            raise InvariantError("tag must be a string")
        tag = TAG_BY_NAME.get(name) or resolve_tag(name)  # raises outside the tagset
        span = TokenSpan.__new__(TokenSpan, sentence, start, end)
        if shared is not None:  # only an accepted span: (True, 0, 1) == TokenSpan(1, 0, 1)
            span = shared.setdefault(span, span)
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
    return Annotation.__new__(
        Annotation, ann_id, tag, span, events, get("confidence"), comment, from_comment
    )


def _parse_document(obj: object, shared: dict | None) -> DocumentRecord:
    if type(obj) is not dict:
        raise InvariantError("record must be a JSON object")
    if not _DOC_KEYS.issuperset(obj):
        raise InvariantError(f"unknown record keys: {sorted(obj.keys() - _DOC_KEYS)}")
    labels = _parse_labels(obj.get("labels"))
    sentences_raw = obj.get("sentences", [])
    if type(sentences_raw) is not list:
        raise InvariantError("sentences must be an array")
    sentences = tuple([_parse_sentence(s, pos, shared) for pos, s in enumerate(sentences_raw)])
    annotations_raw = obj.get("annotations", [])
    if type(annotations_raw) is not list:
        raise InvariantError("annotations must be an array")
    annotations = tuple([_parse_annotation(a, sentences, shared) for a in annotations_raw])
    return DocumentRecord(obj.get("doc_id"), labels, sentences, annotations)


def _decode(line: str) -> object:
    """The JSON value of one line.  A ``\\u`` escape may make a string that
    UTF-8 cannot encode; the constructor of the field that keeps it rejects it."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise InvariantError(f"invalid JSON: {exc.msg}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise InvariantError("invalid JSON: integer literal too long") from None


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
    if type(doc_id) is not str or not utf8_encodable(doc_id):
        doc_id = None  # no raw JSON value names a document, nor a string UTF-8 cannot encode
    return ParseError(lineno, doc_id, exc.kind, str(exc))


def iter_corpus(lines: Iterable[bytes], errors: list[ParseError]) -> Iterator[DocumentRecord]:
    """Parse a corpus line by line, holding one document at a time.

    ``lines`` are raw byte lines, such as an open binary file yields; one
    trailing ``\\n`` is stripped from each.  Yields a DocumentRecord per
    well-formed line, in input order, and appends at least one ParseError
    per malformed line to ``errors`` before it reads the next line; errors
    carry 1-based line numbers.  Blank lines are skipped, and a repeated
    ``doc_id`` is a DUPLICATE_ID error.  Undecodable bytes raise
    CorpusDecodeError.  Equal token texts, annotation ids, comments and
    spans are not shared between documents.
    """
    return _documents(lines, errors, None)


def _documents(
    lines: Iterable[bytes], errors: list[ParseError], shared: dict | None
) -> Iterator[DocumentRecord]:
    """:func:`iter_corpus`, taking each token text, annotation id, comment
    and span from ``shared`` if given, and adding each one it has not seen."""
    seen_doc_ids: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        if raw.endswith(b"\n"):  # so a final line without one reads alike, JSON errors too
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
            doc = _parse_document(obj, shared)
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
    its lines, read one at a time, as ``(documents, parse errors)``, with
    one object per distinct token text, annotation id, comment and span."""
    errors: list[ParseError] = []
    return list(_documents(io.BytesIO(data), errors, {})), errors


# Closed vocabularies are quoted once.  DocumentLabels holds its labels in DOC_LABELS order.
_TAG_JSON = {tag: _json_string(tag.value) for tag in TagId}
_LABEL_JSON = [
    {label: f'"{key}":{_json_string(label.value)}' for label in vocab}
    for key, vocab in DOC_LABELS.items()
]
_SENTENCE_LABEL_JSON = {None: "", **{label: f',"label":{int(label)}' for label in SentenceLabel}}


# A corpus repeats a few event sets, so their texts are cached like _comment_events.
@lru_cache(maxsize=256)
def _events_json(events: frozenset[int], from_comment: bool) -> str:
    if from_comment:
        return _json_string(format_event_refs(events))
    return f"[{','.join(map(str, sorted(events)))}]"


def _annotation_json(ann: Annotation) -> str:
    ann_id, tag, (sentence, start, end), events, confidence, comment, from_comment = ann
    events_json = _events_json(events, from_comment)
    confidence_json = "" if confidence is None else f',"confidence":{confidence!r}'
    comment_json = "" if comment is None else f',"comment":{_json_string(comment)}'
    return (
        f'{{"id":{_json_string(ann_id)},"tag":{_TAG_JSON[tag]},"sentence":{sentence},'
        f'"start":{start},"end":{end},"events":{events_json}{confidence_json}{comment_json}}}'
    )


def _document_line(doc: DocumentRecord) -> bytes:
    """One document as a canonical UTF-8 JSON line, ending in LF."""
    doc_id, labels, sentences, annotations = doc
    labels_json = ",".join([
        texts[label] for texts, label in zip(_LABEL_JSON, labels) if label is not None
    ])
    sentences_json = ",".join([
        f'{{"index":{index},"tokens":[{",".join(map(_json_string, tokens))}]'
        f"{_SENTENCE_LABEL_JSON[label]}}}"
        for index, tokens, label in sentences
    ])
    annotations_json = ",".join(map(_annotation_json, annotations))
    return (
        f'{{"doc_id":{_json_string(doc_id)},"labels":{{{labels_json}}},'
        f'"sentences":[{sentences_json}],"annotations":[{annotations_json}]}}\n'
    ).encode("utf-8")


def serialize_corpus(docs: Iterable[DocumentRecord]) -> bytes:
    """Serialize documents to canonical UTF-8 JSON Lines."""
    return b"".join(map(_document_line, docs))


def load_corpus(path: str) -> tuple[list[DocumentRecord], list[ParseError]]:
    """Parse a whole corpus file, reading it line by line, as :func:`parse_corpus`
    does, with one object per distinct token text, annotation id, comment and span."""
    errors: list[ParseError] = []
    with open(path, "rb") as handle:
        return list(_documents(handle, errors, {})), errors


def save_corpus(path: str, docs: Iterable[DocumentRecord]) -> None:
    """Write documents as :func:`serialize_corpus` does, one line at a time.

    The lines go to a new file beside ``path`` that is synced and then
    replaces it, with the mode ``open(path, "wb")`` would leave; a symbolic
    link is written through, as that would.  So ``docs`` may stream from
    ``path`` itself, and an exception leaves ``path`` as it was and no new
    file.  ``path`` must be a regular file or not exist: anything else (a
    directory, a device, a pipe) raises ``ValueError`` before a file is made.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None  # a new file takes the umask's mode, as the temp file does
    else:
        if not stat.S_ISREG(mode):
            raise ValueError(f"not a regular file: {path!r}")
    temp = f"{path}.{os.urandom(6).hex()}.tmp"
    handle = open(temp, "xb")
    try:
        with handle:
            handle.writelines(map(_document_line, docs))
            handle.flush()
            os.fsync(handle.fileno())
        if mode is not None:  # writing over an existing file keeps its mode
            os.chmod(temp, mode & 0o7777)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise
