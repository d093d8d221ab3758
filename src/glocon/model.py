"""Typed data model for the GLOCON annotation schema.

The schema describes protest-event annotation of news articles on three
levels: document labels (protest / violence / demand), sentence labels
(0 = non-event, 1 = event, 2 = planned) and token-level standoff
annotations drawn from a closed tagset organized into foci.

Every type in this module is immutable and checks, at construction
time, the type and the value of each field that a corpus line supplies;
the parser in :mod:`glocon.io` only decodes a line and passes its
values in.  Invalid values raise :class:`InvariantError` rather than
being repaired; the error's ``kind`` says which :class:`ParseErrorKind`
a corpus line that holds such a value is rejected as, and its message
is the one such a line gets.  So a document built with these
constructors, whatever values they accept, is written by
``save_corpus`` and read back equal by ``load_corpus``, provided its
strings encode as UTF-8 (a lone surrogate is rejected only by the
parser).
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat


class ParseErrorKind(str, enum.Enum):
    """Why a corpus line was rejected."""

    MALFORMED_RECORD = "malformed_record"
    UNKNOWN_TAG = "unknown_tag"
    BAD_SPAN = "bad_span"
    BAD_LABEL = "bad_label"
    BAD_EVENT_REF = "bad_event_ref"
    DUPLICATE_ID = "duplicate_id"


class InvariantError(ValueError):
    """A structural invariant of the data model was violated.

    ``kind`` is the parse error kind of a corpus line that breaks it;
    ``str()`` is the message alone.
    """

    def __init__(self, message: str, kind: ParseErrorKind = ParseErrorKind.MALFORMED_RECORD):
        super().__init__(message)  # kind is kept out of args, so str() is the message
        self.kind = kind


class Focus(str, enum.Enum):
    """Annotation focus a tag belongs to."""

    DOC_INFO = "doc_info"
    EVENT = "event"
    EVENT_SEMANTIC = "event_semantic"
    PARTICIPANT = "participant"
    PARTICIPANT_SEMANTIC = "participant_semantic"
    ORGANIZER = "organizer"
    ORGANIZER_SEMANTIC = "organizer_semantic"
    TARGET = "target"


class TagId(str, enum.Enum):
    """Closed enumeration of canonical tag names.

    Each member is declared with its focus, which ``tag.focus`` returns.
    """

    focus: Focus

    def __new__(cls, name: str, focus: Focus) -> TagId:
        tag = str.__new__(cls, name)
        tag._value_ = name
        tag.focus = focus
        return tag

    DOCUMENT_TITLE = "document_title", Focus.DOC_INFO
    EVENT_TIME_PUBLISHED = "event_time_published", Focus.DOC_INFO
    EVENT_PLACE_PUBLISHED = "event_place_published", Focus.DOC_INFO
    EVENT_TYPE = "event_type", Focus.EVENT
    EVENT_MENTION = "event_mention", Focus.EVENT
    EVENT_TIME = "event_time", Focus.EVENT
    EVENT_PLACE = "event_place", Focus.EVENT
    FACILITY_TYPE = "facility_type", Focus.EVENT
    FACILITY_NAME = "facility_name", Focus.EVENT
    URBAN_LOCATION_IDENTIFIER = "urban_location_identifier", Focus.EVENT
    RURAL_LOCATION_IDENTIFIER = "rural_location_identifier", Focus.EVENT
    DEMONSTRATION = "demonstration", Focus.EVENT_SEMANTIC
    INDUSTRIAL_ACTION = "industrial_action", Focus.EVENT_SEMANTIC
    GROUP_CLASH = "group_clash", Focus.EVENT_SEMANTIC
    ARMED_MILITANCY = "armed_militancy", Focus.EVENT_SEMANTIC
    ELECTORAL_POLITICS = "electoral_politics", Focus.EVENT_SEMANTIC
    OTHER_EVENT = "other_event", Focus.EVENT_SEMANTIC
    PARTICIPANT_TYPE = "participant_type", Focus.PARTICIPANT
    PARTICIPANT_NAME = "participant_name", Focus.PARTICIPANT
    PARTICIPANT_COUNT = "participant_count", Focus.PARTICIPANT
    PARTICIPANT_IDEOLOGY = "participant_ideology", Focus.PARTICIPANT
    PARTICIPANT_ETHNICITY = "participant_ethnicity", Focus.PARTICIPANT
    PARTICIPANT_RELIGION = "participant_religion", Focus.PARTICIPANT
    PARTICIPANT_CASTE = "participant_caste", Focus.PARTICIPANT
    PARTICIPANT_SES = "participant_ses", Focus.PARTICIPANT
    PEASANT = "peasant", Focus.PARTICIPANT_SEMANTIC
    WORKER = "worker", Focus.PARTICIPANT_SEMANTIC
    SMALL_PRODUCER = "small_producer", Focus.PARTICIPANT_SEMANTIC
    EMPLOYER_EXECUTIVE = "employer_executive", Focus.PARTICIPANT_SEMANTIC
    PROFESSIONAL = "professional", Focus.PARTICIPANT_SEMANTIC
    STUDENT = "student", Focus.PARTICIPANT_SEMANTIC
    POLITICIAN = "politician", Focus.PARTICIPANT_SEMANTIC
    ACTIVIST = "activist", Focus.PARTICIPANT_SEMANTIC
    MILITANT = "militant", Focus.PARTICIPANT_SEMANTIC
    PEOPLE = "people", Focus.PARTICIPANT_SEMANTIC
    OTHER_PARTICIPANT = "other_participant", Focus.PARTICIPANT_SEMANTIC
    ORGANIZER_TYPE = "organizer_type", Focus.ORGANIZER
    ORGANIZER_NAME = "organizer_name", Focus.ORGANIZER
    ORGANIZER_IDEOLOGY = "organizer_ideology", Focus.ORGANIZER
    ORGANIZER_ETHNICITY = "organizer_ethnicity", Focus.ORGANIZER
    ORGANIZER_RELIGION = "organizer_religion", Focus.ORGANIZER
    ORGANIZER_CASTE = "organizer_caste", Focus.ORGANIZER
    ORGANIZER_SES = "organizer_ses", Focus.ORGANIZER
    POLITICAL_PARTY = "political_party", Focus.ORGANIZER_SEMANTIC
    NGO = "ngo", Focus.ORGANIZER_SEMANTIC
    UNION = "union", Focus.ORGANIZER_SEMANTIC
    MILITANT_ARMED_ORGANIZATION = "militant_armed_organization", Focus.ORGANIZER_SEMANTIC
    CHAMBER_OF_PROFESSIONALS = "chamber_of_professionals", Focus.ORGANIZER_SEMANTIC
    PERSON = "person", Focus.ORGANIZER_SEMANTIC
    OTHER_ORGANIZER = "other_organizer", Focus.ORGANIZER_SEMANTIC
    TARGET_TYPE = "target_type", Focus.TARGET
    TARGET_NAME = "target_name", Focus.TARGET


# Alternative spellings that appear in annotation practice (upper-case SES,
# the abbreviated tag names used in worked examples).  The table is fixed:
# anything else is an unknown tag.
TAG_ALIASES: dict[str, TagId] = {
    "participant_SES": TagId.PARTICIPANT_SES,
    "organizer_SES": TagId.ORGANIZER_SES,
    "Organizer_ideology": TagId.ORGANIZER_IDEOLOGY,
    "e_type": TagId.EVENT_TYPE,
    "e_mention": TagId.EVENT_MENTION,
    "e_time": TagId.EVENT_TIME,
    "e_place": TagId.EVENT_PLACE,
    "f_type": TagId.FACILITY_TYPE,
    "f_name": TagId.FACILITY_NAME,
    "part_type": TagId.PARTICIPANT_TYPE,
    "part_name": TagId.PARTICIPANT_NAME,
    "org_type": TagId.ORGANIZER_TYPE,
    "org_name": TagId.ORGANIZER_NAME,
}

# Every accepted tag name, canonical or aliased.
TAG_BY_NAME: dict[str, TagId] = {tag.value: tag for tag in TagId} | TAG_ALIASES

TRIGGER_TAGS = frozenset({TagId.EVENT_TYPE, TagId.EVENT_MENTION})
# The tags that join an event record besides its triggers.  Semantic tags
# fold into their hosts and document information stays out of events, so
# neither is an argument.
ARGUMENT_TAGS = frozenset(
    tag for tag in TagId
    if tag.focus in (Focus.EVENT, Focus.PARTICIPANT, Focus.ORGANIZER, Focus.TARGET)
) - TRIGGER_TAGS
FACILITY_TAGS = frozenset({TagId.FACILITY_TYPE, TagId.FACILITY_NAME})
TARGET_TAGS = frozenset({TagId.TARGET_TYPE, TagId.TARGET_NAME})
LOCATION_IDENTIFIER_TAGS = frozenset(
    {TagId.URBAN_LOCATION_IDENTIFIER, TagId.RURAL_LOCATION_IDENTIFIER}
)


class Actor(namedtuple("Actor", "heads hosts attributes semantic")):
    """Tag roles of an actor focus: its type and name ``heads``, the ``hosts``
    among them that take the ``semantic`` focus's tag and hold the
    ``attributes`` inside them.  Other tags of the focus are plain arguments."""

    __slots__ = ()


# participant_count is a participant argument, never an attribute.
ACTORS: dict[Focus, Actor] = {
    Focus.PARTICIPANT: Actor(
        heads=frozenset({TagId.PARTICIPANT_TYPE, TagId.PARTICIPANT_NAME}),
        hosts=frozenset({TagId.PARTICIPANT_TYPE}),
        attributes=frozenset(
            {TagId.PARTICIPANT_IDEOLOGY, TagId.PARTICIPANT_ETHNICITY, TagId.PARTICIPANT_RELIGION,
             TagId.PARTICIPANT_CASTE, TagId.PARTICIPANT_SES}
        ),
        semantic=Focus.PARTICIPANT_SEMANTIC,
    ),
    Focus.ORGANIZER: Actor(
        heads=frozenset({TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME}),
        hosts=frozenset({TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME}),
        attributes=frozenset(
            {TagId.ORGANIZER_IDEOLOGY, TagId.ORGANIZER_ETHNICITY, TagId.ORGANIZER_RELIGION,
             TagId.ORGANIZER_CASTE, TagId.ORGANIZER_SES}
        ),
        semantic=Focus.ORGANIZER_SEMANTIC,
    ),
}
# The tags a semantic tag of each semantic focus sits on, coterminously.
# Only these hosts take a semantic category.
SEMANTIC_HOSTS: dict[Focus, frozenset[TagId]] = {
    Focus.EVENT_SEMANTIC: TRIGGER_TAGS,
    **{actor.semantic: actor.hosts for actor in ACTORS.values()},
}
# The semantic focus each host tag takes its semantic tag from.  The foci's
# host sets are disjoint, so every host takes exactly one focus.
HOSTED_FOCUS: dict[TagId, Focus] = {
    tag: focus for focus, hosts in SEMANTIC_HOSTS.items() for tag in hosts
}
# The heads that hold each attribute tag.
ATTRIBUTE_HOSTS: dict[TagId, frozenset[TagId]] = {
    tag: actor.hosts for actor in ACTORS.values() for tag in actor.attributes
}


def resolve_tag(name: str) -> TagId:
    """Map a raw tag name (canonical or aliased) to its TagId.

    Raises an UNKNOWN_TAG InvariantError for names outside the closed tagset.
    """
    try:
        return TAG_BY_NAME[name]
    except KeyError:
        raise InvariantError(f"unknown tag name: {name!r}", ParseErrorKind.UNKNOWN_TAG) from None


_EVENT_REF = re.compile(r"Event\s*([0-9]+)\Z")

# One shared set per event number.  A corpus repeats a few event sets
# thousands of times, so an annotation and a comment take theirs from here;
# keys are looked up only once validated, since (True,) and (1.0,) equal (1,).
_EVENT_SETS: dict[tuple, frozenset[int]] = {(n,): frozenset({n}) for n in range(1, 65)}

# Keyword is case-sensitive: "event 2" is not an event reference.
def parse_event_refs(raw: str | None) -> frozenset[int]:
    """Parse a FLAT-style event comment into a set of event numbers.

    Absent or empty input means event 1 (unnumbered tags belong to the
    first event).  Otherwise the string must be a comma-separated list
    of ``Event <positive integer>`` items, whitespace-insensitive.
    """
    if raw is None:
        return _EVENT_SETS[(1,)]
    text = raw.strip()
    if not text:
        return _EVENT_SETS[(1,)]
    numbers: set[int] = set()
    for part in text.split(","):
        m = _EVENT_REF.fullmatch(part.strip())
        if m is None:
            raise InvariantError(
                f"not an event reference: {part.strip()!r}", ParseErrorKind.BAD_EVENT_REF
            )
        try:
            n = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise InvariantError(
                f"event number of {len(m.group(1))} digits", ParseErrorKind.BAD_EVENT_REF
            ) from None
        if n < 1:
            raise InvariantError(f"event numbers start at 1, got {n}", ParseErrorKind.BAD_EVENT_REF)
        numbers.add(n)
    return _EVENT_SETS.get(tuple(numbers)) or frozenset(numbers)


def format_event_refs(events: Iterable[int]) -> str:
    """Canonical comment form of an event-number set: ``Event 1, Event 3``."""
    return ", ".join(f"Event {n}" for n in sorted(events))


class SentenceLabel(enum.IntEnum):
    """Sentence-level label: past/ongoing events are 1, planned 2, rest 0."""

    NON_EVENT = 0
    EVENT = 1
    PLANNED = 2


# a member hashes and equals as its int, so one lookup takes an int or a member
_SENTENCE_LABELS = {label: label for label in SentenceLabel}
_LABEL_TYPES = (int, SentenceLabel)  # not bool, though True == 1


class ProtestLabel(str, enum.Enum):
    PROTEST = "protest"
    NO_PROTEST = "no_protest"


class ViolenceLabel(str, enum.Enum):
    VIOLENT = "violent"
    NON_VIOLENT = "non_violent"


class DemandLabel(str, enum.Enum):
    NON_ECONOMIC = "non_economic"
    ECONOMIC_NON_WELFARE = "economic_non_welfare"
    ECONOMIC_WELFARE = "economic_welfare"


# Each DocumentLabels field with its vocabulary, in serialization order.
DOC_LABELS: dict[str, type[enum.Enum]] = {
    "protest": ProtestLabel,
    "violent": ViolenceLabel,
    "demand": DemandLabel,
}


class _Validated:
    """Base of the tuples that check their fields in ``__new__``: ``_make``,
    which ``_replace`` calls, builds through ``__new__`` too (namedtuple's
    own skips it)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class TokenSpan(_Validated, namedtuple("TokenSpan", "sentence start end")):
    """A contiguous token range within a single sentence.

    ``start`` is inclusive, ``end`` exclusive, both 0-based.  Spans never
    cross sentence boundaries by construction; the upper bound against the
    sentence's token count is enforced when a DocumentRecord is built.
    A span is the tuple ``(sentence, start, end)``: it equals, hashes and
    orders as that tuple, in C.  No glocon code mixes spans with plain tuples.
    """

    __slots__ = ()

    def __new__(cls, sentence: int, start: int, end: int) -> TokenSpan:
        if not type(sentence) is type(start) is type(end) is int:
            for key, value in zip(cls._fields, (sentence, start, end)):
                if type(value) is not int:
                    raise InvariantError(f"{key} must be an integer")
        if sentence < 0:
            raise InvariantError(f"negative sentence index: {sentence}", ParseErrorKind.BAD_SPAN)
        if not 0 <= start < end:
            raise InvariantError(
                f"degenerate span [{start}, {end}) in sentence {sentence}", ParseErrorKind.BAD_SPAN
            )
        return tuple.__new__(cls, (sentence, start, end))


def annotation_name(ann_id: object) -> str:
    """How a rejection names an annotation: by its id if that is a non-empty
    string, else not at all, so that no raw JSON value is quoted as a name."""
    return f"annotation {ann_id}" if type(ann_id) is str and ann_id else "annotation"


def span_error(
    ann_id: object, sentence: int, start: int, end: int, sentences: tuple[SentenceRecord, ...]
) -> InvariantError:
    """The BAD_SPAN error for an annotation whose span does not fit ``sentences``.

    It names the missing sentence if there is one, else the span and the
    sentence's length.
    """
    if not 0 <= sentence < len(sentences):
        where = f"sentence {sentence} of {len(sentences)}"
    else:
        where = f"span [{start}, {end}) in a {len(sentences[sentence].tokens)}-token sentence"
    return InvariantError(f"{annotation_name(ann_id)}: {where}", ParseErrorKind.BAD_SPAN)


def overlaps(a: TokenSpan, b: TokenSpan) -> bool:
    """True iff the spans are in the same sentence and their ranges intersect."""
    return a.sentence == b.sentence and a.start < b.end and b.start < a.end


def coterminous(a: TokenSpan, b: TokenSpan) -> bool:
    """True iff the spans cover exactly the same tokens of the same sentence."""
    return a == b


def span_contains(outer: TokenSpan, inner: TokenSpan) -> bool:
    """True iff ``inner`` lies entirely within ``outer`` (same sentence)."""
    return (
        outer.sentence == inner.sentence
        and outer.start <= inner.start
        and inner.end <= outer.end
    )


def holds_attribute(head: Annotation, attr: Annotation) -> bool:
    """Is ``attr`` an attribute inside ``head``, a head that holds it?  E030
    licenses exactly these overlaps, and assembly attaches exactly there."""
    return head.tag in ATTRIBUTE_HOSTS.get(attr.tag, ()) and span_contains(head.span, attr.span)


class Annotation(
    _Validated,
    namedtuple("Annotation", "id tag span events confidence comment events_from_comment"),
):
    """One tagged token span.

    ``events`` is a non-empty set of positive event numbers; annotations
    without an explicit number belong to event 1.  Equal ``events`` may be
    one shared object, so a held corpus keeps few sets.
    ``events_from_comment`` records that the numbers were supplied as an
    "Event N, ..." comment string rather than as plain integers, which
    matters for lint rule W122 and for faithful re-serialization.  An
    annotation is the tuple of its fields and equals and hashes as that
    tuple; tuple ``<`` is not the canonical order, :func:`annotation_sort_key`
    is.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        tag: TagId,
        span: TokenSpan,
        events: Iterable[int] = (1,),
        confidence: float | None = None,
        comment: str | None = None,
        events_from_comment: bool = False,
    ) -> Annotation:
        if type(id) is not str or not id:
            raise InvariantError("annotation id must be a non-empty string")
        if not isinstance(tag, TagId):
            raise InvariantError(f"tag must be a TagId, got {tag!r}")
        if not isinstance(span, TokenSpan):
            raise InvariantError(f"annotation {id}: span must be a TokenSpan")
        if type(events) is not frozenset:
            try:
                events = tuple(events)  # validated before hashing: a list may hold unhashables
            except TypeError:  # not iterable
                events = ()
        valid = len(events) > 0
        for n in events:
            if type(n) is not int or n < 1:
                valid = False
                break
        if not valid:
            raise InvariantError(
                f"annotation {id}: events must be a non-empty list of positive integers",
                ParseErrorKind.BAD_EVENT_REF,
            )
        if type(events) is tuple:
            events = _EVENT_SETS.get(events) or frozenset(events)
        if confidence is not None:
            if type(confidence) is not float and type(confidence) is not int:
                raise InvariantError(f"annotation {id}: confidence must be a number")
            try:
                confidence = float(confidence)
            except OverflowError:  # an integer past the float range
                raise InvariantError(f"annotation {id}: confidence outside [0, 1]") from None
            if not 0.0 <= confidence <= 1.0:
                raise InvariantError(f"annotation {id}: confidence {confidence} outside [0, 1]")
            # The corpus format carries at most 6 fractional digits.
            if round(confidence, 6) != confidence:
                raise InvariantError(
                    f"annotation {id}: confidence {confidence!r} has more than 6 fractional digits"
                )
        if comment is not None and type(comment) is not str:
            raise InvariantError(f"annotation {id}: comment must be a string")
        if events_from_comment is not True and events_from_comment is not False:
            raise InvariantError(f"annotation {id}: events_from_comment must be a bool")
        return tuple.__new__(cls, (id, tag, span, events, confidence, comment, events_from_comment))


def _sentence_name(index: object) -> str:
    """How a rejection names a sentence: by its index if that is an ``int``."""
    return f"sentence {index}" if type(index) is int else "sentence"


class SentenceRecord(_Validated, namedtuple("SentenceRecord", "index tokens label")):
    """One pre-tokenized sentence with an optional event label.

    ``tokens`` is a list or tuple of non-empty strings, kept as a tuple.
    ``index`` must be the integer of the sentence's position; the
    DocumentRecord that holds it checks that.  A sentence is the tuple
    ``(index, tokens, label)`` and equals and hashes as that tuple.
    """

    __slots__ = ()

    def __new__(
        cls, index: int, tokens: list[str] | tuple[str, ...], label: int | None = None
    ) -> SentenceRecord:
        if type(tokens) is list:
            tokens = tuple(tokens)
        if (
            type(tokens) is not tuple
            or not tokens
            or "" in tokens
            or not all(map(isinstance, tokens, repeat(str)))
        ):
            raise InvariantError(
                f"{_sentence_name(index)}: tokens must be a non-empty list of non-empty strings"
            )
        if label is not None:
            member = _SENTENCE_LABELS.get(label) if type(label) in _LABEL_TYPES else None
            if member is None:
                got = f", got {label}" if type(label) is int else ""
                raise InvariantError(
                    f"{_sentence_name(index)}: label must be 0, 1 or 2{got}",
                    ParseErrorKind.BAD_LABEL,
                )
            label = member
        return tuple.__new__(cls, (index, tokens, label))


class DocumentLabels(_Validated, namedtuple("DocumentLabels", "protest violent demand")):
    """Document-level labels.

    Each label is a member of its ``DOC_LABELS`` vocabulary or None.
    Violence and demand judgments presuppose the document contains a
    protest event, so either may be set only when ``protest`` is
    ``protest``.  A demand label holds exactly one category.  The labels
    are the tuple ``(protest, violent, demand)`` and equal and hash as it.
    """

    __slots__ = ()

    def __new__(
        cls,
        protest: ProtestLabel | None = None,
        violent: ViolenceLabel | None = None,
        demand: DemandLabel | None = None,
    ) -> DocumentLabels:
        labels = (protest, violent, demand)
        for (key, vocab), label in zip(DOC_LABELS.items(), labels):
            if label is not None and type(label) is not vocab:
                raise InvariantError(f"bad {key} label: {label!r}", ParseErrorKind.BAD_LABEL)
        if violent is not None and protest is not ProtestLabel.PROTEST:
            raise InvariantError(
                "violence label requires protest = protest", ParseErrorKind.BAD_LABEL
            )
        if demand is not None and protest is not ProtestLabel.PROTEST:
            raise InvariantError(
                "demand label requires protest = protest", ParseErrorKind.BAD_LABEL
            )
        return tuple.__new__(cls, labels)


EMPTY_LABELS = DocumentLabels()


def label_text(label: enum.Enum) -> str:
    """Text form of a document or sentence label: ``"protest"``, ``"1"``."""
    return str(label.value)


class DocumentRecord(
    _Validated, namedtuple("DocumentRecord", "doc_id labels sentences annotations")
):
    """One annotated news article.

    A document is the tuple of its four fields and equals and hashes as
    that tuple.  Its annotations are kept in canonical order.
    """

    __slots__ = ()

    def __new__(
        cls,
        doc_id: str,
        labels: DocumentLabels = EMPTY_LABELS,
        sentences: Iterable[SentenceRecord] = (),
        annotations: Iterable[Annotation] = (),
    ) -> DocumentRecord:
        if type(doc_id) is not str or not doc_id:
            raise InvariantError("doc_id must be a non-empty string")
        if not isinstance(labels, DocumentLabels):
            raise InvariantError("labels must be a DocumentLabels")
        if type(sentences) is not tuple:
            sentences = tuple(sentences)
        for pos, sent in enumerate(sentences):
            if not isinstance(sent, SentenceRecord):
                raise InvariantError("sentence must be a SentenceRecord")
            index = sent.index
            if index != pos or type(index) is not int:
                if type(index) is not int:
                    raise InvariantError(f"sentence {pos}: index must be an integer")
                raise InvariantError(f"sentence index {index} at position {pos}")
        if type(annotations) is not tuple:
            annotations = tuple(annotations)  # read twice: checked, then sorted
        # checked in input order, so the first offending annotation is reported
        n_sentences = len(sentences)
        seen: set[str] = set()
        for ann in annotations:
            if not isinstance(ann, Annotation):
                raise InvariantError("annotation must be an Annotation")
            span = ann.span
            if span.sentence >= n_sentences or span.end > len(sentences[span.sentence].tokens):
                raise span_error(ann.id, span.sentence, span.start, span.end, sentences)
            if ann.id in seen:
                raise InvariantError(
                    f"duplicate annotation id {ann.id!r}", ParseErrorKind.DUPLICATE_ID
                )
            seen.add(ann.id)
        # annotations are kept in canonical order so that documents have a
        # single representation and serialization round-trips exactly
        annotations = tuple(sorted(annotations, key=annotation_sort_key))
        return tuple.__new__(cls, (doc_id, labels, sentences, annotations))

    def span_text(self, span: TokenSpan) -> str:
        """Surface text of a span, tokens joined with single spaces."""
        return " ".join(self.sentences[span.sentence].tokens[span.start : span.end])


def annotation_sort_key(ann: Annotation) -> tuple:
    """Canonical ordering of annotations: (span, tag, events, id), where
    events compare as their sorted tuple."""
    events = ann.events  # a set of one, as nearly every annotation's is, needs no sort
    numbers = tuple(events) if len(events) == 1 else tuple(sorted(events))
    return (ann.span, ann.tag, numbers, ann.id)


class DocumentView:
    """A document's annotations routed by role, in canonical order: the
    ``triggers``, the ``arguments`` and, per semantic focus, its ``hosts``
    and ``semantics``.  Lint and event assembly both read it.

    ``partners`` maps each host id to the semantic tags of its focus that
    sit on it coterminously and share an event with it.  E021-E023 check
    these pairings; assembly takes a head's category in event *n* from its
    first partner carrying *n*.  ``in_title`` is the one title test.
    """

    def __init__(self, doc: DocumentRecord):
        self.doc = doc
        self.triggers: list[Annotation] = []
        self.arguments: list[Annotation] = []
        self.title_spans: list[TokenSpan] = []
        self.hosts: dict[Focus, list[Annotation]] = {focus: [] for focus in SEMANTIC_HOSTS}
        self.semantics: dict[Focus, list[Annotation]] = {focus: [] for focus in SEMANTIC_HOSTS}
        hosts, semantics = self.hosts, self.semantics
        title = TagId.DOCUMENT_TITLE  # bound once: enum member access is slow
        for ann in doc.annotations:  # already in canonical order
            tag = ann.tag
            if tag in TRIGGER_TAGS:
                self.triggers.append(ann)
            elif tag in ARGUMENT_TAGS:
                self.arguments.append(ann)
            elif tag is title:
                self.title_spans.append(ann.span)
                continue
            hosted = HOSTED_FOCUS.get(tag)
            if hosted is not None:
                hosts[hosted].append(ann)
            elif tag.focus in semantics:
                semantics[tag.focus].append(ann)
        self.partners: dict[str, list[Annotation]] = {}
        for focus, sems in semantics.items():
            at_span: dict[TokenSpan, list[Annotation]] = {}
            for sem in sems:
                at_span.setdefault(sem.span, []).append(sem)
            for host in hosts[focus]:
                found = at_span.get(host.span, ())
                self.partners[host.id] = [s for s in found if not s.events.isdisjoint(host.events)]

    def in_title(self, ann: Annotation) -> bool:
        """Does a document_title span contain ``ann``?  A title is never in the title."""
        if ann.tag is TagId.DOCUMENT_TITLE:
            return False
        span = ann.span
        return any(span_contains(title, span) for title in self.title_spans)
