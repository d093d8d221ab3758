"""Typed data model for the GLOCON annotation schema.

The schema describes protest-event annotation of news articles on three
levels: document labels (protest / violence / demand), sentence labels
(0 = non-event, 1 = event, 2 = planned) and token-level standoff
annotations drawn from a closed tagset organized into foci.

Every type in this module is immutable and validates its invariants at
construction time.  Invalid values raise :class:`InvariantError` rather
than being repaired.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable


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

    ``kind`` is the parse error kind of a corpus line that breaks it.
    """

    kind = ParseErrorKind.MALFORMED_RECORD


class UnknownTagError(InvariantError):
    """A tag name that is not part of the closed tagset (or its aliases)."""

    kind = ParseErrorKind.UNKNOWN_TAG


class LabelError(InvariantError):
    """A document or sentence label outside its vocabulary or dependencies."""

    kind = ParseErrorKind.BAD_LABEL


class SpanError(InvariantError):
    """A token span that is empty, reversed or outside its sentence."""

    kind = ParseErrorKind.BAD_SPAN


class EventRefError(InvariantError):
    """Event numbers that are not positive integers, or a FLAT comment string
    off the ``Event <n>`` grammar."""

    kind = ParseErrorKind.BAD_EVENT_REF


class DuplicateIdError(InvariantError):
    """Two annotations of one document share an id."""

    kind = ParseErrorKind.DUPLICATE_ID


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
    """Closed enumeration of canonical tag names."""

    # document information
    DOCUMENT_TITLE = "document_title"
    EVENT_TIME_PUBLISHED = "event_time_published"
    EVENT_PLACE_PUBLISHED = "event_place_published"
    # event references and event arguments
    EVENT_TYPE = "event_type"
    EVENT_MENTION = "event_mention"
    EVENT_TIME = "event_time"
    EVENT_PLACE = "event_place"
    FACILITY_TYPE = "facility_type"
    FACILITY_NAME = "facility_name"
    URBAN_LOCATION_IDENTIFIER = "urban_location_identifier"
    RURAL_LOCATION_IDENTIFIER = "rural_location_identifier"
    # semantic categories of events
    DEMONSTRATION = "demonstration"
    INDUSTRIAL_ACTION = "industrial_action"
    GROUP_CLASH = "group_clash"
    ARMED_MILITANCY = "armed_militancy"
    ELECTORAL_POLITICS = "electoral_politics"
    OTHER_EVENT = "other_event"
    # participants
    PARTICIPANT_TYPE = "participant_type"
    PARTICIPANT_NAME = "participant_name"
    PARTICIPANT_COUNT = "participant_count"
    PARTICIPANT_IDEOLOGY = "participant_ideology"
    PARTICIPANT_ETHNICITY = "participant_ethnicity"
    PARTICIPANT_RELIGION = "participant_religion"
    PARTICIPANT_CASTE = "participant_caste"
    PARTICIPANT_SES = "participant_ses"
    # semantic categories of participants
    PEASANT = "peasant"
    WORKER = "worker"
    SMALL_PRODUCER = "small_producer"
    EMPLOYER_EXECUTIVE = "employer_executive"
    PROFESSIONAL = "professional"
    STUDENT = "student"
    POLITICIAN = "politician"
    ACTIVIST = "activist"
    MILITANT = "militant"
    PEOPLE = "people"
    OTHER_PARTICIPANT = "other_participant"
    # organizers
    ORGANIZER_TYPE = "organizer_type"
    ORGANIZER_NAME = "organizer_name"
    ORGANIZER_IDEOLOGY = "organizer_ideology"
    ORGANIZER_ETHNICITY = "organizer_ethnicity"
    ORGANIZER_RELIGION = "organizer_religion"
    ORGANIZER_CASTE = "organizer_caste"
    ORGANIZER_SES = "organizer_ses"
    # semantic categories of organizers
    POLITICAL_PARTY = "political_party"
    NGO = "ngo"
    UNION = "union"
    MILITANT_ARMED_ORGANIZATION = "militant_armed_organization"
    CHAMBER_OF_PROFESSIONALS = "chamber_of_professionals"
    PERSON = "person"
    OTHER_ORGANIZER = "other_organizer"
    # targets
    TARGET_TYPE = "target_type"
    TARGET_NAME = "target_name"


_FOCUS_OF: dict[TagId, Focus] = {}
for _tag, _focus in [
    (TagId.DOCUMENT_TITLE, Focus.DOC_INFO),
    (TagId.EVENT_TIME_PUBLISHED, Focus.DOC_INFO),
    (TagId.EVENT_PLACE_PUBLISHED, Focus.DOC_INFO),
    (TagId.EVENT_TYPE, Focus.EVENT),
    (TagId.EVENT_MENTION, Focus.EVENT),
    (TagId.EVENT_TIME, Focus.EVENT),
    (TagId.EVENT_PLACE, Focus.EVENT),
    (TagId.FACILITY_TYPE, Focus.EVENT),
    (TagId.FACILITY_NAME, Focus.EVENT),
    (TagId.URBAN_LOCATION_IDENTIFIER, Focus.EVENT),
    (TagId.RURAL_LOCATION_IDENTIFIER, Focus.EVENT),
    (TagId.DEMONSTRATION, Focus.EVENT_SEMANTIC),
    (TagId.INDUSTRIAL_ACTION, Focus.EVENT_SEMANTIC),
    (TagId.GROUP_CLASH, Focus.EVENT_SEMANTIC),
    (TagId.ARMED_MILITANCY, Focus.EVENT_SEMANTIC),
    (TagId.ELECTORAL_POLITICS, Focus.EVENT_SEMANTIC),
    (TagId.OTHER_EVENT, Focus.EVENT_SEMANTIC),
    (TagId.PARTICIPANT_TYPE, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_NAME, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_COUNT, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_IDEOLOGY, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_ETHNICITY, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_RELIGION, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_CASTE, Focus.PARTICIPANT),
    (TagId.PARTICIPANT_SES, Focus.PARTICIPANT),
    (TagId.PEASANT, Focus.PARTICIPANT_SEMANTIC),
    (TagId.WORKER, Focus.PARTICIPANT_SEMANTIC),
    (TagId.SMALL_PRODUCER, Focus.PARTICIPANT_SEMANTIC),
    (TagId.EMPLOYER_EXECUTIVE, Focus.PARTICIPANT_SEMANTIC),
    (TagId.PROFESSIONAL, Focus.PARTICIPANT_SEMANTIC),
    (TagId.STUDENT, Focus.PARTICIPANT_SEMANTIC),
    (TagId.POLITICIAN, Focus.PARTICIPANT_SEMANTIC),
    (TagId.ACTIVIST, Focus.PARTICIPANT_SEMANTIC),
    (TagId.MILITANT, Focus.PARTICIPANT_SEMANTIC),
    (TagId.PEOPLE, Focus.PARTICIPANT_SEMANTIC),
    (TagId.OTHER_PARTICIPANT, Focus.PARTICIPANT_SEMANTIC),
    (TagId.ORGANIZER_TYPE, Focus.ORGANIZER),
    (TagId.ORGANIZER_NAME, Focus.ORGANIZER),
    (TagId.ORGANIZER_IDEOLOGY, Focus.ORGANIZER),
    (TagId.ORGANIZER_ETHNICITY, Focus.ORGANIZER),
    (TagId.ORGANIZER_RELIGION, Focus.ORGANIZER),
    (TagId.ORGANIZER_CASTE, Focus.ORGANIZER),
    (TagId.ORGANIZER_SES, Focus.ORGANIZER),
    (TagId.POLITICAL_PARTY, Focus.ORGANIZER_SEMANTIC),
    (TagId.NGO, Focus.ORGANIZER_SEMANTIC),
    (TagId.UNION, Focus.ORGANIZER_SEMANTIC),
    (TagId.MILITANT_ARMED_ORGANIZATION, Focus.ORGANIZER_SEMANTIC),
    (TagId.CHAMBER_OF_PROFESSIONALS, Focus.ORGANIZER_SEMANTIC),
    (TagId.PERSON, Focus.ORGANIZER_SEMANTIC),
    (TagId.OTHER_ORGANIZER, Focus.ORGANIZER_SEMANTIC),
    (TagId.TARGET_TYPE, Focus.TARGET),
    (TagId.TARGET_NAME, Focus.TARGET),
]:
    _FOCUS_OF[_tag] = _focus
del _tag, _focus

assert len(_FOCUS_OF) == len(TagId)

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
FACILITY_TAGS = frozenset({TagId.FACILITY_TYPE, TagId.FACILITY_NAME})
TARGET_TAGS = frozenset({TagId.TARGET_TYPE, TagId.TARGET_NAME})
LOCATION_IDENTIFIER_TAGS = frozenset(
    {TagId.URBAN_LOCATION_IDENTIFIER, TagId.RURAL_LOCATION_IDENTIFIER}
)
PARTICIPANT_ATTRIBUTE_TAGS = frozenset(
    {
        TagId.PARTICIPANT_IDEOLOGY,
        TagId.PARTICIPANT_ETHNICITY,
        TagId.PARTICIPANT_RELIGION,
        TagId.PARTICIPANT_CASTE,
        TagId.PARTICIPANT_SES,
    }
)
ORGANIZER_ATTRIBUTE_TAGS = frozenset(
    {
        TagId.ORGANIZER_IDEOLOGY,
        TagId.ORGANIZER_ETHNICITY,
        TagId.ORGANIZER_RELIGION,
        TagId.ORGANIZER_CASTE,
        TagId.ORGANIZER_SES,
    }
)
ORGANIZER_HEAD_TAGS = frozenset({TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME})
SEMANTIC_FOCI = frozenset(
    {Focus.EVENT_SEMANTIC, Focus.PARTICIPANT_SEMANTIC, Focus.ORGANIZER_SEMANTIC}
)


def focus_of(tag: TagId) -> Focus:
    """Return the unique focus of a tag.  Total over the enumeration."""
    return _FOCUS_OF[tag]


def resolve_tag(name: str) -> TagId:
    """Map a raw tag name (canonical or aliased) to its TagId.

    Raises UnknownTagError for names outside the closed tagset.
    """
    try:
        return TAG_BY_NAME[name]
    except KeyError:
        raise UnknownTagError(f"unknown tag name: {name!r}") from None


_EVENT_REF = re.compile(r"Event\s*([0-9]+)\Z")

# Keyword is case-sensitive: "event 2" is not an event reference.
def parse_event_refs(raw: str | None) -> frozenset[int]:
    """Parse a FLAT-style event comment into a set of event numbers.

    Absent or empty input means event 1 (unnumbered tags belong to the
    first event).  Otherwise the string must be a comma-separated list
    of ``Event <positive integer>`` items, whitespace-insensitive.
    """
    if raw is None:
        return frozenset({1})
    text = raw.strip()
    if not text:
        return frozenset({1})
    numbers: set[int] = set()
    for part in text.split(","):
        m = _EVENT_REF.fullmatch(part.strip())
        if m is None:
            raise EventRefError(f"not an event reference: {part.strip()!r}")
        try:
            n = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise EventRefError(f"event number of {len(m.group(1))} digits") from None
        if n < 1:
            raise EventRefError(f"event numbers start at 1, got {n}")
        numbers.add(n)
    return frozenset(numbers)


def format_event_refs(events: Iterable[int]) -> str:
    """Canonical comment form of an event-number set: ``Event 1, Event 3``."""
    return ", ".join(f"Event {n}" for n in sorted(events))


class SentenceLabel(enum.IntEnum):
    """Sentence-level label: past/ongoing events are 1, planned 2, rest 0."""

    NON_EVENT = 0
    EVENT = 1
    PLANNED = 2


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


@dataclass(frozen=True, order=True)
class TokenSpan:
    """A contiguous token range within a single sentence.

    ``start`` is inclusive, ``end`` exclusive, both 0-based.  Spans never
    cross sentence boundaries by construction; the upper bound against the
    sentence's token count is enforced when a DocumentRecord is built.
    """

    sentence: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.sentence < 0:
            raise SpanError(f"negative sentence index: {self.sentence}")
        if not 0 <= self.start < self.end:
            raise SpanError(
                f"degenerate span [{self.start}, {self.end}) in sentence {self.sentence}"
            )


def span_error(
    ann_id: str, sentence: int, start: int, end: int, sentences: tuple[SentenceRecord, ...]
) -> SpanError:
    """The error for an annotation whose span does not fit ``sentences``.

    It names the missing sentence if there is one, else the span and the
    sentence's length.
    """
    if not 0 <= sentence < len(sentences):
        return SpanError(f"annotation {ann_id}: sentence {sentence} of {len(sentences)}")
    n_tokens = len(sentences[sentence].tokens)
    return SpanError(
        f"annotation {ann_id}: span [{start}, {end}) in a {n_tokens}-token sentence"
    )


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


@dataclass(frozen=True)
class Annotation:
    """One tagged token span.

    ``events`` is a non-empty set of positive event numbers; annotations
    without an explicit number belong to event 1.  ``events_from_comment``
    records that the numbers were supplied as an "Event N, ..." comment
    string rather than as plain integers, which matters for lint rule W122
    and for faithful re-serialization.
    """

    id: str
    tag: TagId
    span: TokenSpan
    events: frozenset[int] = frozenset({1})
    confidence: float | None = None
    comment: str | None = None
    events_from_comment: bool = False

    def __post_init__(self) -> None:
        if not self.id:
            raise InvariantError("annotation id must be a non-empty string")
        if not isinstance(self.tag, TagId):
            raise InvariantError(f"tag must be a TagId, got {self.tag!r}")
        events = self.events
        if type(events) is not frozenset:
            # validate before hashing: a list may hold unhashable values
            events = tuple(events)
        if not events or not all(type(n) is int and n > 0 for n in events):
            raise EventRefError(
                f"annotation {self.id}: events must be a non-empty list of positive integers"
            )
        if type(events) is tuple:
            object.__setattr__(self, "events", frozenset(events))
        if self.confidence is not None:
            try:
                c = float(self.confidence)
            except OverflowError:  # an integer past the float range
                raise InvariantError(f"annotation {self.id}: confidence outside [0, 1]") from None
            if not 0.0 <= c <= 1.0:
                raise InvariantError(
                    f"annotation {self.id}: confidence {c} outside [0, 1]"
                )
            # The corpus format carries at most 6 fractional digits.
            if round(c, 6) != c:
                raise InvariantError(
                    f"annotation {self.id}: confidence {c!r} has more than 6 fractional digits"
                )
            object.__setattr__(self, "confidence", c)

    @property
    def focus(self) -> Focus:
        return _FOCUS_OF[self.tag]


@dataclass(frozen=True)
class SentenceRecord:
    """One pre-tokenized sentence with an optional event label.

    ``index`` must equal the sentence's position; the DocumentRecord that
    holds it checks that.
    """

    index: int
    tokens: tuple[str, ...]
    label: SentenceLabel | None = None

    def __post_init__(self) -> None:
        tokens = self.tokens
        if type(tokens) is not tuple:
            tokens = tuple(tokens)
            object.__setattr__(self, "tokens", tokens)
        if not tokens or "" in tokens or not all(map(isinstance, tokens, repeat(str))):
            raise InvariantError(
                f"sentence {self.index}: tokens must be a non-empty list of non-empty strings"
            )
        if self.label is not None and not isinstance(self.label, SentenceLabel):
            object.__setattr__(self, "label", SentenceLabel(self.label))


@dataclass(frozen=True)
class DocumentLabels:
    """Document-level labels.

    Violence and demand judgments presuppose the document contains a
    protest event, so either may be set only when ``protest`` is
    ``protest``.  A demand label holds exactly one category.
    """

    protest: ProtestLabel | None = None
    violent: ViolenceLabel | None = None
    demand: DemandLabel | None = None

    def __post_init__(self) -> None:
        if self.violent is not None and self.protest is not ProtestLabel.PROTEST:
            raise LabelError("violence label requires protest = protest")
        if self.demand is not None and self.protest is not ProtestLabel.PROTEST:
            raise LabelError("demand label requires protest = protest")


EMPTY_LABELS = DocumentLabels()


@dataclass(frozen=True)
class DocumentRecord:
    """One annotated news article."""

    doc_id: str
    labels: DocumentLabels = EMPTY_LABELS
    sentences: tuple[SentenceRecord, ...] = ()
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise InvariantError("doc_id must be a non-empty string")
        sentences = self.sentences
        if type(sentences) is not tuple:
            sentences = tuple(sentences)
            object.__setattr__(self, "sentences", sentences)
        for pos, sent in enumerate(sentences):
            if sent.index != pos:
                raise InvariantError(f"sentence index {sent.index} at position {pos}")
        # checked in input order, so the first offending annotation is reported
        n_sentences = len(sentences)
        seen: set[str] = set()
        for ann in self.annotations:
            span = ann.span
            if span.sentence >= n_sentences or span.end > len(sentences[span.sentence].tokens):
                raise span_error(ann.id, span.sentence, span.start, span.end, sentences)
            if ann.id in seen:
                raise DuplicateIdError(f"duplicate annotation id {ann.id!r}")
            seen.add(ann.id)
        # annotations are kept in canonical order so that documents have a
        # single representation and serialization round-trips exactly
        object.__setattr__(
            self, "annotations", tuple(sorted(self.annotations, key=annotation_sort_key))
        )

    def span_text(self, span: TokenSpan) -> str:
        """Surface text of a span, tokens joined with single spaces."""
        return " ".join(self.sentences[span.sentence].tokens[span.start : span.end])


def annotation_sort_key(ann: Annotation) -> tuple:
    """Canonical ordering of annotations: (sentence, start, end, tag, events, id)."""
    return (
        ann.span.sentence,
        ann.span.start,
        ann.span.end,
        ann.tag,
        tuple(sorted(ann.events)),
        ann.id,
    )
