"""Fold a document's annotations into normalized per-event records.

Every event number that carries at least one trigger or argument yields
one :class:`EventRecord`.  The triggers and arguments of the document's
:class:`~glocon.model.DocumentView` are routed once, into a slot of each
of their events by one tag-to-slot table; document-information tags stay
out of events entirely.  Each annotation's text and reference are built
once, so the records of a document may share equal ``ArgumentRef`` and
``TriggerRef`` objects.  A trigger or head takes as its semantic
category in event *n* its first semantic partner carrying *n*, the
pairing E021-E023 check, and a trigger's ``in_title`` is the view's
title test, the one E010 and E021 use.  An actor attribute attaches to
the one head that holds it (``holds_attribute``, the overlap E030
licenses); any other non-head tag of an actor focus stays in
``unattached_attributes``.  An annotation numbered for several events
contributes to each of their records.

Assembly is best-effort: documents with lint errors still produce
records (trigger-less events are flagged by :func:`check_separation`).
"""

from __future__ import annotations

import csv
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from json.encoder import encode_basestring as _json_string
from operator import attrgetter, itemgetter

from .model import (
    ACTORS,
    ARGUMENT_TAGS,
    DOC_LABELS,
    Annotation,
    DocumentRecord,
    DocumentView,
    FACILITY_TAGS,
    Focus,
    LOCATION_IDENTIFIER_TAGS,
    TagId,
    TARGET_TAGS,
    TokenSpan,
    TRIGGER_TAGS,
    holds_attribute,
    label_text,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

    from .lint import Diagnostic


class ArgumentRef(namedtuple("ArgumentRef", "tag span text")):
    """One argument annotation as it appears in an event record."""

    __slots__ = ()


TriggerRef = namedtuple("TriggerRef", "span text is_type in_title")


class ParticipantRecord(
    namedtuple("ParticipantRecord", "tag span text semantic attributes", defaults=(None, ()))
):
    """A participant or organizer head (type or name) with its semantic
    class and attributes."""

    __slots__ = ()


class EventRecord(
    namedtuple(
        "EventRecord",
        "doc_id event_number semantic_category triggers times places facilities"
        " urban_rural_markers targets participants organizers unattached_attributes"
        " doc_labels",
    )
):
    """One normalized protest event extracted from a document."""

    __slots__ = ()


# Slot of each event tag in an event's routing list: the arguments that join
# a record field as they are, the triggers, and per actor focus a slot for its
# heads and, right after it, one for its other tags.
_TIMES, _PLACES, _FACILITIES, _MARKERS, _TARGETS, _TRIGGERS = range(6)
_PARTICIPANT_HEADS, _ORGANIZER_HEADS = 6, 8
_ACTOR_SLOT = {Focus.PARTICIPANT: _PARTICIPANT_HEADS, Focus.ORGANIZER: _ORGANIZER_HEADS}
_SLOT_OF: dict[TagId, int] = {
    TagId.EVENT_TIME: _TIMES,
    TagId.EVENT_PLACE: _PLACES,
    **dict.fromkeys(FACILITY_TAGS, _FACILITIES),
    **dict.fromkeys(LOCATION_IDENTIFIER_TAGS, _MARKERS),
    **dict.fromkeys(TARGET_TAGS, _TARGETS),
    **dict.fromkeys(TRIGGER_TAGS, _TRIGGERS),
    **{
        tag: _ACTOR_SLOT[tag.focus] + (tag not in ACTORS[tag.focus].heads)
        for tag in ARGUMENT_TAGS if tag.focus in ACTORS
    },
}


def _semantic(partners: Sequence[Annotation], number: int) -> str | None:
    """The first of a trigger's or head's semantic ``partners`` carrying event
    ``number``, if any."""
    for sem in partners:
        if number in sem.events:
            return sem.tag._value_  # plain attribute: ``.value`` is a slow property
    return None


def _actors(heads: list, others: list, number: int, unattached: list) -> tuple:
    """One actor focus's ParticipantRecords in event ``number``, from its
    ``heads``, routed as ``(head, text, partners)``, and its ``others``, as
    ``(annotation, ref)``; an other that no single head holds goes to ``unattached``."""
    attached: dict[str, list[ArgumentRef]] = {}
    for ann, ref in others:
        containers = [head for head, _, _ in heads if holds_attribute(head, ann)]
        if len(containers) == 1:
            attached.setdefault(containers[0].id, []).append(ref)
        else:
            # no head holds it, or an ambiguous tie: keep at event level
            unattached.append(ref)
    return tuple([
        ParticipantRecord(
            head.tag, head.span, text, _semantic(partners, number),
            tuple(attached.get(head.id, ())),
        )
        for head, text, partners in heads
    ])


def assemble_events(doc: DocumentRecord) -> list[EventRecord]:
    """Build one EventRecord per realized event number, sorted by number."""
    view = DocumentView(doc)
    partners = view.partners
    sentences = doc.sentences
    # event number -> slot -> the items of its annotations, in canonical order;
    # each annotation's text and reference are built once, for all its events
    routed: dict[int, list[list]] = {}
    for ann in (*view.triggers, *view.arguments):
        tag, span = ann.tag, ann.span
        # DocumentRecord.span_text, inlined
        text = " ".join(sentences[span.sentence].tokens[span.start : span.end])
        slot = _SLOT_OF[tag]
        if slot < _TRIGGERS:
            item = ArgumentRef(tag, span, text)
        elif slot == _TRIGGERS:
            ref = TriggerRef(span, text, tag is TagId.EVENT_TYPE, view.in_title(ann))
            item = (ref, partners.get(ann.id, ()))
        elif slot == _PARTICIPANT_HEADS or slot == _ORGANIZER_HEADS:
            item = (ann, text, partners.get(ann.id, ()))
        else:
            item = (ann, ArgumentRef(tag, span, text))
        for number in ann.events:
            slots = routed.get(number)
            if slots is None:
                slots = routed[number] = [[], [], [], [], [], [], [], [], [], []]
            slots[slot].append(item)

    records: list[EventRecord] = []
    doc_id, labels = doc.doc_id, doc.labels
    for number in sorted(routed):
        (times, places, facilities, markers, targets, triggers,
         participant_heads, participant_others, organizer_heads, organizer_others) = routed[number]
        unattached: list[ArgumentRef] = []
        participants = organizers = ()
        if participant_heads or participant_others:
            participants = _actors(participant_heads, participant_others, number, unattached)
        if organizer_heads or organizer_others:
            organizers = _actors(organizer_heads, organizer_others, number, unattached)
        categories = {_semantic(sems, number) for _, sems in triggers}
        records.append(EventRecord(
            doc_id,
            number,
            # None unless every trigger carries the same category
            categories.pop() if len(categories) == 1 else None,
            tuple([ref for ref, _ in triggers]),
            tuple(times),
            tuple(places),
            tuple(facilities),
            tuple(markers),
            tuple(targets),
            participants,
            organizers,
            tuple(unattached),
            labels,
        ))
    return records


def _location(record: EventRecord) -> TokenSpan:
    """Where a record is reported: its first trigger, or else its first
    argument in canonical order, the annotation validate's E020 names."""
    if record.triggers:
        return record.triggers[0].span
    heads = (*record.participants, *record.organizers)
    arguments = (
        *record.times, *record.places, *record.facilities, *record.urban_rural_markers,
        *record.targets, *record.unattached_attributes,
        *heads, *(attr for head in heads for attr in head.attributes),
    )
    return min(a.span for a in arguments)


def _axes(record: EventRecord) -> tuple:
    """The five separation axes as comparable surface-text multisets."""
    actors = sorted(
        [p.text for p in record.participants] + [o.text for o in record.organizers]
    )
    return (
        sorted(t.text for t in record.times),
        sorted(p.text for p in record.places),
        sorted(f.text for f in record.facilities),
        actors,
        record.semantic_category,
    )


def check_separation(records: Sequence[EventRecord]) -> list[Diagnostic]:
    """Plausibility checks over one document's assembled events.

    Emits W140 for event pairs that are indistinguishable on all five
    separation axes (time, place, facility, actors, semantic category),
    and E020 + W141 for events realized without any trigger.
    """
    from .lint import CATALOG, Diagnostic  # here, so `glocon assemble` never loads lint

    diagnostics: list[Diagnostic] = []

    def emit(rule_id: str, record: EventRecord, message: str) -> None:
        span = _location(record)
        diagnostics.append(
            Diagnostic(
                rule_id, CATALOG[rule_id].severity, record.doc_id, span.sentence, span, (), message
            )
        )

    for record in records:
        if not record.triggers:
            number = record.event_number
            emit("E020", record, f"event {number} has arguments but no trigger annotation")
            emit("W141", record, f"event {number} was assembled without any trigger")
    axes = [_axes(record) for record in records]
    for i, first in enumerate(records):
        for j in range(i + 1, len(records)):
            if axes[j] == axes[i]:
                emit(
                    "W140",
                    records[j],
                    f"events {first.event_number} and {records[j].event_number} are "
                    "identical on time, place, facility, actors and semantic category",
                )
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics


EXPORT_COLUMNS = (
    "doc_id",
    "event_number",
    "semantic_category",
    "triggers",
    "times",
    "places",
    "facilities",
    "urban_rural",
    "participants",
    "participant_semantics",
    "organizers",
    "organizer_semantics",
    "targets",
    *(f"doc_{key}" for key in DOC_LABELS),
)
# One event as exported: a str cell per column.
ExportRow = namedtuple("ExportRow", EXPORT_COLUMNS)
_text = attrgetter("text")


def export_rows(records: Iterable[EventRecord]) -> list[ExportRow]:
    """Flatten event records into export rows, ordered by (doc_id, event_number).

    List-valued fields are joined with ``|``; optional fields render as
    empty strings.
    """
    rows = []
    labels = label_cells = None
    for record in sorted(records, key=itemgetter(0, 1)):
        (doc_id, number, category, triggers, times, places, facilities, markers, targets,
         participants, organizers, _, record_labels) = record
        if record_labels is not labels:  # a document's records share one DocumentLabels
            labels = record_labels
            # a DocumentLabels holds its labels in DOC_LABELS order, as the columns
            label_cells = tuple(["" if label is None else label_text(label) for label in labels])
        rows.append(ExportRow(
            doc_id,
            str(number),
            category or "",
            "|".join(map(_text, triggers)),
            "|".join(map(_text, times)),
            "|".join(map(_text, places)),
            "|".join(map(_text, facilities)),
            "|".join(map(_text, markers)),
            "|".join(map(_text, participants)),
            "|".join([p.semantic or "" for p in participants]),
            "|".join(map(_text, organizers)),
            "|".join([o.semantic or "" for o in organizers]),
            "|".join(map(_text, targets)),
            *label_cells,
        ))
    return rows


def assemble_rendered(
    docs: Iterable[DocumentRecord], render: Callable[[list[ExportRow]], str]
) -> tuple[dict[str, str], int, int]:
    """The one assemble loop: each document's export rows passed through
    ``render``, by doc_id (none for a document without events), the number
    of rows, and the number of documents.  A doc_id that repeats with rows
    raises ValueError."""
    held: dict[str, str] = {}
    events = documents = 0
    for doc in docs:
        documents += 1
        rows = export_rows(assemble_events(doc))
        if rows:
            if doc.doc_id in held:
                raise ValueError(f"doc_id {doc.doc_id!r} repeats")
            events += len(rows)
            held[doc.doc_id] = render(rows)
    return held, events, documents


def write_assembled(held: dict[str, str], header: str, out: TextIO) -> None:
    """The header, then the documents' rows in doc_id order: a corpus' doc_ids
    are unique and a document's rows come sorted by event number, so this is
    ``export_rows``' (doc_id, event_number) order."""
    out.write(header)
    out.writelines(held[doc_id] for doc_id in sorted(held))


# The header row as csv writes it: the column names need no quoting.
CSV_HEADER = ",".join(EXPORT_COLUMNS) + "\n"


class _LineOf:
    """A file whose ``write`` returns the text it is given, so that a csv
    writer's ``writerow`` returns the row's line."""

    write = staticmethod(str)


# csv quotes a cell only for the characters of its line terminator, so a
# "\n" writer would leave a lone "\r" bare; this writer quotes for both.
_CRLF_LINE = csv.writer(_LineOf(), lineterminator="\r\n")


def csv_rows(rows: Iterable[ExportRow]) -> str:
    """RFC 4180 CSV lines of export rows, without the header, each ending in
    "\n".  A cell is quoted if it holds a ``,``, a ``"``, a "\n" or a "\r"."""
    return "".join([_CRLF_LINE.writerow(row)[:-2] + "\n" for row in rows])


def rows_to_csv(rows: Iterable[ExportRow]) -> str:
    """RFC 4180 CSV with a header row (header-only for an empty export)."""
    return CSV_HEADER + csv_rows(rows)


# Each cell's '"column":' prefix, in column order: the names need no escaping.
_JSON_KEYS = [f'"{column}":' for column in EXPORT_COLUMNS]


def rows_to_jsonl(rows: Iterable[ExportRow]) -> str:
    """One JSON object per row, as ``json.dumps(row._asdict(), ensure_ascii=False,
    separators=(",", ":"))`` writes it, each cell through json's C string encoder."""
    return "".join([
        "{" + ",".join(map(str.__add__, _JSON_KEYS, map(_json_string, row))) + "}\n"
        for row in rows
    ])
