"""Fold a document's annotations into normalized per-event records.

Every event number that carries at least one trigger or argument yields
one :class:`EventRecord`.  The triggers and arguments of the document's
:class:`~glocon.model.DocumentView` are routed into record fields by one
tag-to-field table; document-information tags stay out of events
entirely.  A trigger or head takes as its semantic category in event *n*
its first semantic partner carrying *n*, the pairing E021-E023 check,
and a trigger's ``in_title`` is the view's title test, the one E010 and
E021 use.  An actor attribute attaches to the one head that holds it
(``holds_attribute``, the overlap E030 licenses); any other non-head tag
of an actor focus stays in ``unattached_attributes``.  An annotation
numbered for several events contributes to each of their records.

Assembly is best-effort: documents with lint errors still produce
records (trigger-less events are flagged by :func:`check_separation`).
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import (
    ACTORS,
    ARGUMENT_TAGS,
    DOC_LABELS,
    Annotation,
    DocumentLabels,
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

if TYPE_CHECKING:
    from .lint import Diagnostic


@dataclass(frozen=True)
class ArgumentRef:
    """One argument annotation as it appears in an event record."""

    tag: TagId
    span: TokenSpan
    text: str


@dataclass(frozen=True)
class TriggerRef:
    span: TokenSpan
    text: str
    is_type: bool
    in_title: bool


@dataclass(frozen=True)
class ParticipantRecord:
    """A participant or organizer head (type or name) with its semantic
    class and attributes."""

    tag: TagId
    span: TokenSpan
    text: str
    semantic: str | None = None
    attributes: tuple[ArgumentRef, ...] = ()


@dataclass(frozen=True)
class EventRecord:
    """One normalized protest event extracted from a document."""

    doc_id: str
    event_number: int
    semantic_category: str | None
    triggers: tuple[TriggerRef, ...]
    times: tuple[ArgumentRef, ...]
    places: tuple[ArgumentRef, ...]
    facilities: tuple[ArgumentRef, ...]
    urban_rural_markers: tuple[ArgumentRef, ...]
    targets: tuple[ArgumentRef, ...]
    participants: tuple[ParticipantRecord, ...]
    organizers: tuple[ParticipantRecord, ...]
    unattached_attributes: tuple[ArgumentRef, ...]
    doc_labels: DocumentLabels


# Record field of each event argument tag.
_ARGUMENT_FIELD: dict[TagId, str] = {
    TagId.EVENT_TIME: "times",
    TagId.EVENT_PLACE: "places",
    **dict.fromkeys(FACILITY_TAGS, "facilities"),
    **dict.fromkeys(LOCATION_IDENTIFIER_TAGS, "urban_rural_markers"),
    **dict.fromkeys(TARGET_TAGS, "targets"),
}
_ARGUMENT_FIELDS = frozenset(_ARGUMENT_FIELD.values())

# Record field of each actor focus (``ACTORS``); every tag of the focus goes into it.
_ACTOR_FIELD = {Focus.PARTICIPANT: "participants", Focus.ORGANIZER: "organizers"}

# Record field of every tag that goes into events, the triggers and the
# arguments; document-information and semantic tags go into none.
_FIELD_OF: dict[TagId, str] = {
    **dict.fromkeys(TRIGGER_TAGS, "triggers"),
    **{tag: _ARGUMENT_FIELD.get(tag) or _ACTOR_FIELD[tag.focus] for tag in ARGUMENT_TAGS},
}


def assemble_events(doc: DocumentRecord) -> list[EventRecord]:
    """Build one EventRecord per realized event number, sorted by number."""
    view = DocumentView(doc)
    # event number -> record field -> its annotations, in canonical order
    routed: dict[int, dict[str, list[Annotation]]] = defaultdict(lambda: defaultdict(list))
    for ann in (*view.triggers, *view.arguments):
        field = _FIELD_OF[ann.tag]
        for number in ann.events:
            routed[number][field].append(ann)

    def text_of(ann: Annotation) -> str:
        return doc.span_text(ann.span)

    def semantic_of(head: Annotation, number: int) -> str | None:
        """The first semantic partner of ``head`` carrying event ``number``, if any."""
        for sem in view.partners.get(head.id, ()):
            if number in sem.events:
                return sem.tag.value
        return None

    records: list[EventRecord] = []
    for number in sorted(routed):
        group = routed[number]
        fields = {
            field: tuple(ArgumentRef(a.tag, a.span, text_of(a)) for a in group[field])
            for field in _ARGUMENT_FIELDS
        }
        unattached: list[ArgumentRef] = []
        for actor_focus, field in _ACTOR_FIELD.items():
            actor = ACTORS[actor_focus]
            heads = [a for a in group[field] if a.tag in actor.heads]
            attached: dict[str, list[ArgumentRef]] = defaultdict(list)
            for attr in group[field]:
                if attr.tag in actor.heads:
                    continue
                ref = ArgumentRef(attr.tag, attr.span, text_of(attr))
                containers = [h for h in heads if holds_attribute(h, attr)]
                if len(containers) == 1:
                    attached[containers[0].id].append(ref)
                else:
                    # no head holds it, or an ambiguous tie: keep at event level
                    unattached.append(ref)
            fields[field] = tuple(
                ParticipantRecord(
                    tag=head.tag,
                    span=head.span,
                    text=text_of(head),
                    semantic=semantic_of(head, number),
                    attributes=tuple(attached[head.id]),
                )
                for head in heads
            )

        triggers = group["triggers"]
        categories = {semantic_of(t, number) for t in triggers}
        records.append(
            EventRecord(
                doc_id=doc.doc_id,
                event_number=number,
                # None unless every trigger carries the same category
                semantic_category=categories.pop() if len(categories) == 1 else None,
                triggers=tuple(
                    TriggerRef(
                        span=t.span,
                        text=text_of(t),
                        is_type=t.tag is TagId.EVENT_TYPE,
                        in_title=view.in_title(t),
                    )
                    for t in triggers
                ),
                unattached_attributes=tuple(unattached),
                doc_labels=doc.labels,
                **fields,
            )
        )
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
    from .lint import Diagnostic, diagnostic  # here, so `glocon assemble` never loads lint

    diagnostics: list[Diagnostic] = []

    def emit(rule_id: str, record: EventRecord, message: str) -> None:
        span = _location(record)
        diagnostics.append(diagnostic(rule_id, record.doc_id, (span.sentence, span, (), message)))

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


def export_rows(records: Iterable[EventRecord]) -> list[dict[str, str]]:
    """Flatten event records into export rows, ordered by (doc_id, event_number).

    List-valued fields are joined with ``|``; optional fields render as
    empty strings.
    """
    rows = []
    for record in sorted(records, key=lambda r: (r.doc_id, r.event_number)):
        row = {
            "doc_id": record.doc_id,
            "event_number": str(record.event_number),
            "semantic_category": record.semantic_category or "",
            "triggers": "|".join(t.text for t in record.triggers),
            "times": "|".join(t.text for t in record.times),
            "places": "|".join(p.text for p in record.places),
            "facilities": "|".join(f.text for f in record.facilities),
            "urban_rural": "|".join(m.text for m in record.urban_rural_markers),
            "participants": "|".join(p.text for p in record.participants),
            "participant_semantics": "|".join(p.semantic or "" for p in record.participants),
            "organizers": "|".join(o.text for o in record.organizers),
            "organizer_semantics": "|".join(o.semantic or "" for o in record.organizers),
            "targets": "|".join(t.text for t in record.targets),
        }
        for key in DOC_LABELS:
            label = getattr(record.doc_labels, key)
            row[f"doc_{key}"] = "" if label is None else label_text(label)
        rows.append(row)
    return rows


# The header row as csv writes it: the column names need no quoting.
CSV_HEADER = ",".join(EXPORT_COLUMNS) + "\n"


def csv_rows(rows: Iterable[dict[str, str]]) -> str:
    """RFC 4180 CSV lines of export rows, without the header."""
    buf = _stdio.StringIO()
    csv.DictWriter(buf, fieldnames=EXPORT_COLUMNS, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def rows_to_csv(rows: Iterable[dict[str, str]]) -> str:
    """RFC 4180 CSV with a header row (header-only for an empty export)."""
    return CSV_HEADER + csv_rows(rows)


def rows_to_jsonl(rows: Iterable[dict[str, str]]) -> str:
    return "".join(
        json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n" for row in rows
    )
