import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from randdocs import random_document

from glocon.io import _parse_annotation
from glocon.model import (
    DOC_LABELS,
    Annotation,
    DemandLabel,
    DocumentLabels,
    DocumentRecord,
    Focus,
    InvariantError,
    ParseErrorKind,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
    ViolenceLabel,
    annotation_sort_key,
    coterminous,
    label_text,
    overlaps,
    resolve_tag,
)


def test_focus_of_is_total():
    for tag in TagId:
        assert isinstance(tag.focus, Focus)


@pytest.mark.parametrize(
    "tag,focus",
    [
        (TagId.PARTICIPANT_IDEOLOGY, Focus.PARTICIPANT),
        (TagId.DEMONSTRATION, Focus.EVENT_SEMANTIC),
        (TagId.DOCUMENT_TITLE, Focus.DOC_INFO),
        (TagId.ORGANIZER_RELIGION, Focus.ORGANIZER),
        (TagId.TARGET_NAME, Focus.TARGET),
    ],
)
def test_focus_of_examples(tag, focus):
    assert tag.focus is focus


def test_focus_partition_sizes():
    by_focus = {}
    for tag in TagId:
        by_focus.setdefault(tag.focus, []).append(tag)
    assert len(by_focus[Focus.DOC_INFO]) == 3
    assert len(by_focus[Focus.EVENT]) == 8
    assert len(by_focus[Focus.EVENT_SEMANTIC]) == 6
    assert len(by_focus[Focus.PARTICIPANT]) == 8
    assert len(by_focus[Focus.PARTICIPANT_SEMANTIC]) == 11
    assert len(by_focus[Focus.ORGANIZER]) == 7
    assert len(by_focus[Focus.ORGANIZER_SEMANTIC]) == 7
    assert len(by_focus[Focus.TARGET]) == 2


def test_resolve_tag_aliases():
    assert resolve_tag("participant_SES") is TagId.PARTICIPANT_SES
    assert resolve_tag("organizer_SES") is TagId.ORGANIZER_SES
    assert resolve_tag("e_type") is TagId.EVENT_TYPE
    assert resolve_tag("org_name") is TagId.ORGANIZER_NAME
    assert resolve_tag("event_time") is TagId.EVENT_TIME


def test_resolve_tag_rejects_unknown():
    for name in ("sentiment", "EVENT_TYPE"):
        with pytest.raises(InvariantError) as raised:
            resolve_tag(name)
        assert raised.value.kind is ParseErrorKind.UNKNOWN_TAG


def test_overlaps_examples():
    assert overlaps(TokenSpan(0, 2, 5), TokenSpan(0, 4, 6))
    assert not overlaps(TokenSpan(0, 2, 5), TokenSpan(0, 5, 7))  # end exclusive
    assert not overlaps(TokenSpan(0, 2, 5), TokenSpan(1, 2, 5))  # other sentence


def test_coterminous_examples():
    assert coterminous(TokenSpan(0, 2, 5), TokenSpan(0, 2, 5))
    assert not coterminous(TokenSpan(0, 2, 5), TokenSpan(0, 2, 4))
    assert not coterminous(TokenSpan(1, 0, 1), TokenSpan(0, 0, 1))


@st.composite
def spans(draw):
    start = draw(st.integers(min_value=0, max_value=20))
    return TokenSpan(
        sentence=draw(st.integers(min_value=0, max_value=3)),
        start=start,
        end=start + draw(st.integers(min_value=1, max_value=5)),
    )


@given(spans(), spans())
def test_overlaps_symmetric(a, b):
    assert overlaps(a, b) == overlaps(b, a)


@given(spans())
def test_overlaps_reflexive_on_nonempty(a):
    assert overlaps(a, a)


@given(spans(), spans())
def test_coterminous_implies_overlap(a, b):
    if coterminous(a, b):
        assert overlaps(a, b)


def test_span_rejects_degenerate():
    with pytest.raises(InvariantError):
        TokenSpan(0, 3, 3)
    with pytest.raises(InvariantError):
        TokenSpan(0, 5, 2)
    with pytest.raises(InvariantError):
        TokenSpan(-1, 0, 1)


def test_span_is_its_tuple():
    span = TokenSpan(0, 1, 2)
    assert span == (0, 1, 2) and hash(span) == hash((0, 1, 2))
    assert repr(span) == "TokenSpan(sentence=0, start=1, end=2)"
    assert TokenSpan(0, 1, 3) < TokenSpan(0, 2, 3) < TokenSpan(1, 0, 1)
    assert type(pickle.loads(pickle.dumps(span))) is TokenSpan
    with pytest.raises(AttributeError):
        span.start = 0
    with pytest.raises(AttributeError):
        span.note = "x"


@pytest.mark.parametrize("sentence,start,end", [(0, 3, 3), (0, 5, 2), (-1, 0, 1)])
def test_make_and_replace_check_as_the_constructor_does(sentence, start, end):
    with pytest.raises(InvariantError) as built:
        TokenSpan(sentence, start, end)
    with pytest.raises(InvariantError) as made:
        TokenSpan._make((sentence, start, end))
    with pytest.raises(InvariantError) as replaced:
        TokenSpan(0, 0, 1)._replace(sentence=sentence, start=start, end=end)
    assert made.value.kind is replaced.value.kind is built.value.kind is ParseErrorKind.BAD_SPAN
    assert str(made.value) == str(replaced.value) == str(built.value)


def test_annotation_defaults_to_event_one():
    ann = Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1))
    assert ann.events == frozenset({1})
    assert ann.confidence is None and ann.comment is None
    assert ann.events_from_comment is False


def test_equal_event_lists_share_one_set_and_a_callers_set_is_kept():
    span = TokenSpan(0, 0, 1)
    first, second = (Annotation("x", TagId.EVENT_TYPE, span, events=[1]) for _ in range(2))
    assert first.events is second.events is Annotation("y", TagId.EVENT_TYPE, span).events
    own = frozenset({1})
    kept = Annotation("x", TagId.EVENT_TYPE, span, events=own)
    assert kept.events is own and kept == first


def test_annotation_is_its_tuple():
    ann = Annotation(
        id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), events=[2, 1], confidence=1,
        comment="c", events_from_comment=True,
    )
    as_tuple = ("x", TagId.EVENT_TYPE, (0, 0, 1), frozenset({1, 2}), 1.0, "c", True)
    assert ann == as_tuple and hash(ann) == hash(as_tuple)
    assert type(ann.events) is frozenset and type(ann.confidence) is float
    copy = pickle.loads(pickle.dumps(ann))
    assert type(copy) is Annotation and copy == ann
    assert type(copy.span) is TokenSpan
    with pytest.raises(AttributeError):
        ann.id = "y"
    with pytest.raises(AttributeError):
        ann.note = "x"


def test_sentence_record_is_its_tuple():
    sentence = SentenceRecord(index=0, tokens=["a", "b"], label=2)
    assert sentence == (0, ("a", "b"), 2) and hash(sentence) == hash((0, ("a", "b"), 2))
    assert sentence.label is SentenceLabel.PLANNED
    assert SentenceRecord(0, ("a",)).label is None
    copy = pickle.loads(pickle.dumps(sentence))
    assert type(copy) is SentenceRecord and copy == sentence
    assert copy.label is SentenceLabel.PLANNED
    with pytest.raises(AttributeError):
        sentence.index = 1
    with pytest.raises(AttributeError):
        sentence.note = "x"


_ANN = Annotation("x", TagId.EVENT_TYPE, TokenSpan(0, 0, 1))


@pytest.mark.parametrize(
    "changes",
    [
        {"id": ""},
        {"tag": "event_type"},
        {"events": frozenset()},
        {"events": [0]},
        {"events": [True]},
        {"events": [[1]]},
        {"events": [None]},
        {"events": [1, None]},
        {"events": [1.0]},
        {"confidence": 1.5},
        {"confidence": 0.1234567},
        {"confidence": 10**400},
        {"id": 7},
        {"confidence": "0.5"},
        {"comment": 5},
        {"events": None},
        {"events_from_comment": "yes"},
    ],
    ids=repr,
)
def test_annotation_make_and_replace_check_as_the_constructor_does(changes):
    kwargs = _ANN._asdict() | changes
    with pytest.raises(InvariantError) as built:
        Annotation(**kwargs)
    with pytest.raises(InvariantError) as made:
        Annotation._make(kwargs.values())
    with pytest.raises(InvariantError) as replaced:
        _ANN._replace(**changes)
    assert made.value.kind is replaced.value.kind is built.value.kind
    assert str(made.value) == str(replaced.value) == str(built.value)


@pytest.mark.parametrize(
    "changes",
    [
        {"tokens": ()}, {"tokens": ("ok", "")}, {"tokens": ("ok", 1)}, {"tokens": "Workers"},
        {"label": 5}, {"label": "1"}, {"label": True},
    ],
    ids=repr,
)
def test_sentence_record_make_and_replace_check_as_the_constructor_does(changes):
    sentence = SentenceRecord(0, ("a",))
    kwargs = sentence._asdict() | changes
    with pytest.raises(InvariantError) as built:
        SentenceRecord(**kwargs)
    with pytest.raises(InvariantError) as made:
        SentenceRecord._make(kwargs.values())
    with pytest.raises(InvariantError) as replaced:
        sentence._replace(**changes)
    assert made.value.kind is replaced.value.kind is built.value.kind
    assert str(made.value) == str(replaced.value) == str(built.value)


def _reference_sort_key(ann):
    return (ann.span, ann.tag, tuple(sorted(ann.events)), ann.id)


@given(st.integers(min_value=0, max_value=2**32))
def test_annotation_sort_key_orders_as_the_sorted_events_tuple(seed):
    doc = random_document(random.Random(seed), max_annotations=30)
    anns = list(doc.annotations)
    # on one span and tag, only the events and the id decide the order
    stacked = [ann._replace(span=anns[0].span, tag=anns[0].tag) for ann in anns]
    for group in (anns, stacked):
        random.Random(seed).shuffle(group)
        assert sorted(group, key=annotation_sort_key) == sorted(group, key=_reference_sort_key)


def test_annotation_rejects_bad_events():
    with pytest.raises(InvariantError):
        Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), events=frozenset())
    with pytest.raises(InvariantError):
        Annotation(
            id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), events=frozenset({0})
        )
    with pytest.raises(InvariantError):  # checked before hashing
        Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), events=[[1]])


def test_annotation_confidence_bounds():
    ok = Annotation(
        id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), confidence=0.25
    )
    assert ok.confidence == 0.25
    with pytest.raises(InvariantError):
        Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), confidence=1.5)
    with pytest.raises(InvariantError):
        # finer than the 6 fractional digits the format carries
        Annotation(
            id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), confidence=0.1234567
        )
    with pytest.raises(InvariantError):
        # past the float range
        Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), confidence=10**400)


def test_document_labels_dependency():
    DocumentLabels(protest=ProtestLabel.PROTEST, violent=ViolenceLabel.VIOLENT)
    with pytest.raises(InvariantError):
        DocumentLabels(violent=ViolenceLabel.VIOLENT)
    with pytest.raises(InvariantError):
        DocumentLabels(protest=ProtestLabel.NO_PROTEST, violent=ViolenceLabel.VIOLENT)


def test_doc_labels_are_the_document_label_fields():
    assert tuple(DOC_LABELS) == DocumentLabels._fields


def test_label_text():
    assert label_text(ProtestLabel.NO_PROTEST) == "no_protest"
    assert label_text(SentenceLabel.NON_EVENT) == "0"
    assert label_text(SentenceLabel.PLANNED) == "2"


def test_sentence_record_rejects_empty_tokens():
    with pytest.raises(InvariantError):
        SentenceRecord(index=0, tokens=())
    with pytest.raises(InvariantError):
        SentenceRecord(index=0, tokens=("ok", ""))


@pytest.mark.parametrize("label", [5, -1, "1"])
def test_sentence_record_rejects_a_label_outside_the_vocabulary(label):
    with pytest.raises(InvariantError) as raised:
        SentenceRecord(0, ("a",), label)
    got = f", got {label}" if type(label) is int else ""  # a line's message for its label
    assert str(raised.value) == f"sentence 0: label must be 0, 1 or 2{got}"
    assert raised.value.kind is ParseErrorKind.BAD_LABEL


def test_direct_construction_coerces_sequences_and_labels():
    sentence = SentenceRecord(0, ["a"], 1)
    assert type(sentence.tokens) is tuple and sentence.tokens == ("a",)
    assert sentence.label is SentenceLabel.EVENT
    doc = DocumentRecord("d", sentences=[sentence])
    assert type(doc.sentences) is tuple and doc.sentences == (sentence,)


def _one_sentence_doc(annotations):
    return DocumentRecord(
        doc_id="d",
        sentences=(SentenceRecord(index=0, tokens=("a", "b", "c")),),
        annotations=annotations,
    )


def test_document_rejects_out_of_range_span():
    good = Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 3))
    _one_sentence_doc((good,))
    with pytest.raises(InvariantError):
        _one_sentence_doc(
            (Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 4)),)
        )
    with pytest.raises(InvariantError):
        _one_sentence_doc(
            (Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(1, 0, 1)),)
        )


def test_document_rejects_duplicate_annotation_ids():
    a = Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1))
    b = Annotation(id="x", tag=TagId.EVENT_MENTION, span=TokenSpan(0, 1, 2))
    with pytest.raises(InvariantError):
        _one_sentence_doc((a, b))


def test_document_rejects_misindexed_sentences():
    with pytest.raises(InvariantError):
        DocumentRecord(
            doc_id="d",
            sentences=(SentenceRecord(index=1, tokens=("a",)),),
        )


_DOC = _one_sentence_doc(
    (
        Annotation("b", TagId.EVENT_MENTION, TokenSpan(0, 1, 2)),
        Annotation("a", TagId.EVENT_TYPE, TokenSpan(0, 0, 1)),
    )
)
_VIOLENT = DocumentLabels(ProtestLabel.PROTEST, ViolenceLabel.VIOLENT, DemandLabel.NON_ECONOMIC)


@pytest.mark.parametrize(
    "value, changes",
    [
        (_DOC, {"doc_id": ""}),
        (_DOC, {"sentences": (SentenceRecord(1, ("a",)),)}),
        (_DOC, {"annotations": (*_DOC.annotations, _DOC.annotations[0]._replace(tag=TagId.WORKER))}),
        (_DOC, {"annotations": (Annotation("x", TagId.EVENT_TYPE, TokenSpan(0, 2, 4)),)}),
        (_DOC, {"doc_id": 5}),
        (_DOC, {"sentences": (SentenceRecord(0.0, ("a", "b", "c")),)}),
        (_VIOLENT, {"protest": None, "demand": None}),
        (_VIOLENT, {"protest": ProtestLabel.NO_PROTEST, "violent": None}),
        (_VIOLENT, {"protest": "protest"}),
    ],
    ids=[
        "empty-doc-id", "sentence-out-of-position", "repeated-annotation-id",
        "span-past-its-sentence", "doc-id-not-a-string", "sentence-index-not-an-integer",
        "violent-without-protest", "demand-without-protest", "label-not-a-member",
    ],
)
def test_document_make_and_replace_check_as_the_constructor_does(value, changes):
    cls = type(value)
    kwargs = value._asdict() | changes
    with pytest.raises(InvariantError) as built:
        cls(**kwargs)
    with pytest.raises(InvariantError) as made:
        cls._make(kwargs.values())
    with pytest.raises(InvariantError) as replaced:
        value._replace(**changes)
    assert made.value.kind is replaced.value.kind is built.value.kind
    assert str(made.value) == str(replaced.value) == str(built.value)


def test_document_replace_and_any_iterable_keep_canonical_order():
    assert [ann.id for ann in _DOC.annotations] == ["a", "b"]
    for annotations in (_DOC.annotations[::-1], list(_DOC.annotations[::-1])):
        assert _DOC._replace(annotations=annotations).annotations == _DOC.annotations
    # read twice, to check and to sort: a one-shot iterator loses nothing
    rebuilt = _DOC._replace(annotations=iter(_DOC.annotations[::-1]))
    assert rebuilt == _DOC and type(rebuilt.annotations) is tuple


@pytest.mark.parametrize("value", [_DOC, _VIOLENT], ids=["document", "labels"])
def test_document_and_labels_are_their_tuples(value):
    as_tuple = tuple(value)
    assert value == as_tuple and hash(value) == hash(as_tuple)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    assert [type(field) for field in copy] == [type(field) for field in value]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.note = "x"


def test_span_text(bjp_doc):
    spans = {a.id: a.span for a in bjp_doc.annotations}
    assert bjp_doc.span_text(spans["t1"]) == "At noon"
    assert bjp_doc.span_text(spans["f2"]) == "at the train station"
    assert bjp_doc.span_text(spans["t2"]) == "last year's"


_SENTENCES = (SentenceRecord(0, ("a", "b", "c")),)
TOKENS = "sentence 0: tokens must be a non-empty list of non-empty strings"


def _parsed_annotation(**fields):
    return _parse_annotation(
        {"id": "a1", "tag": "event_type", "sentence": 0, "start": 0, "end": 1, **fields},
        _SENTENCES,
    )


@pytest.mark.parametrize(
    "build,kind,message",
    [
        (
            lambda: TokenSpan(0, 2, 2),
            ParseErrorKind.BAD_SPAN,
            "degenerate span [2, 2) in sentence 0",
        ),
        (
            lambda: _one_sentence_doc(
                (Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 2, 4)),)
            ),
            ParseErrorKind.BAD_SPAN,
            "annotation x: span [2, 4) in a 3-token sentence",
        ),
        (
            lambda: Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1), events=[0]),
            ParseErrorKind.BAD_EVENT_REF,
            "annotation x: events must be a non-empty list of positive integers",
        ),
        (
            lambda: _one_sentence_doc(
                (
                    Annotation(id="x", tag=TagId.EVENT_TYPE, span=TokenSpan(0, 0, 1)),
                    Annotation(id="x", tag=TagId.EVENT_MENTION, span=TokenSpan(0, 1, 2)),
                )
            ),
            ParseErrorKind.DUPLICATE_ID,
            "duplicate annotation id 'x'",
        ),
        (
            lambda: DocumentLabels(violent=ViolenceLabel.VIOLENT),
            ParseErrorKind.BAD_LABEL,
            "violence label requires protest = protest",
        ),
        (lambda: resolve_tag("mood"), ParseErrorKind.UNKNOWN_TAG, "unknown tag name: 'mood'"),
        (
            lambda: Annotation(id="x", tag="event_type", span=TokenSpan(0, 0, 1)),
            ParseErrorKind.MALFORMED_RECORD,
            "tag must be a TagId, got 'event_type'",
        ),
        (
            lambda: SentenceRecord(index=0, tokens=("",)),
            ParseErrorKind.MALFORMED_RECORD,
            "sentence 0: tokens must be a non-empty list of non-empty strings",
        ),
        # the parser prefixes the model's message with the annotation id
        (
            lambda: _parsed_annotation(tag="mood"),
            ParseErrorKind.UNKNOWN_TAG,
            "annotation a1: unknown tag name: 'mood'",
        ),
        (
            lambda: _parsed_annotation(start=2, end=2),
            ParseErrorKind.BAD_SPAN,
            "annotation a1: span [2, 2) in a 3-token sentence",
        ),
        (
            lambda: _parsed_annotation(events="Evnt 2"),
            ParseErrorKind.BAD_EVENT_REF,
            "annotation a1: not an event reference: 'Evnt 2'",
        ),
        # a value of the wrong type: the kind and message of the same field on a line
        (
            lambda: DocumentLabels("protest"),
            ParseErrorKind.BAD_LABEL,
            "bad protest label: 'protest'",
        ),
        (
            lambda: DocumentRecord(5),
            ParseErrorKind.MALFORMED_RECORD,
            "doc_id must be a non-empty string",
        ),
        (
            lambda: DocumentRecord("d", sentences=[SentenceRecord(0.0, ("a",))]),
            ParseErrorKind.MALFORMED_RECORD,
            "sentence 0: index must be an integer",
        ),
        (
            lambda: Annotation(7, TagId.EVENT_TYPE, TokenSpan(0, 0, 1)),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation id must be a non-empty string",
        ),
        (
            lambda: Annotation("x", TagId.EVENT_TYPE, TokenSpan(0, 0, 1), comment=5),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation x: comment must be a string",
        ),
        (
            lambda: Annotation("x", TagId.EVENT_TYPE, TokenSpan(0, 0, 1), confidence="0.5"),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation x: confidence must be a number",
        ),
        (
            lambda: TokenSpan(True, 0, 1),
            ParseErrorKind.MALFORMED_RECORD,
            "sentence must be an integer",
        ),
        (lambda: TokenSpan(0, 0.0, 1), ParseErrorKind.MALFORMED_RECORD, "start must be an integer"),
        (
            lambda: _parsed_annotation(end=True),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation a1: end must be an integer",
        ),
        (lambda: SentenceRecord(0, "Workers"), ParseErrorKind.MALFORMED_RECORD, TOKENS),
        (lambda: SentenceRecord(0, (t for t in ["a"])), ParseErrorKind.MALFORMED_RECORD, TOKENS),
        # a field that holds another model value takes only that type
        (
            lambda: DocumentRecord("d", labels="protest"),
            ParseErrorKind.MALFORMED_RECORD,
            "labels must be a DocumentLabels",
        ),
        (
            lambda: DocumentRecord("d", sentences=[(0, ("a",), None)]),
            ParseErrorKind.MALFORMED_RECORD,
            "sentence must be a SentenceRecord",
        ),
        (
            lambda: DocumentRecord(
                "d", sentences=[SentenceRecord(0, ("a",))], annotations=[("a", None, None)]
            ),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation must be an Annotation",
        ),
        (
            lambda: Annotation("a", TagId.EVENT_TYPE, (0, 0, 1)),
            ParseErrorKind.MALFORMED_RECORD,
            "annotation a: span must be a TokenSpan",
        ),
    ],
    ids=[
        "span", "span_in_document", "events", "duplicate_id", "labels", "tag", "tag_as_string",
        "tokens", "parsed_tag", "parsed_span", "parsed_event_comment", "doc_label_as_string",
        "doc_id_not_string", "index_not_integer", "annotation_id_not_string",
        "comment_not_string", "confidence_as_string", "span_sentence_bool", "span_start_float",
        "parsed_span_end_bool", "tokens_as_string", "tokens_as_generator",
        "labels_as_string", "sentence_as_tuple", "annotation_as_tuple", "span_as_tuple",
    ],
)
def test_invariant_errors_carry_their_parse_error_kind(build, kind, message):
    with pytest.raises(InvariantError) as raised:
        build()
    error = raised.value
    assert type(error) is InvariantError
    assert (error.kind, str(error), error.args) == (kind, message, (message,))
    copy = pickle.loads(pickle.dumps(error))  # as a worker process would return it
    assert type(copy) is InvariantError and (copy.kind, str(copy)) == (kind, message)
