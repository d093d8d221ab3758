"""Fold a document's annotations into normalized per-event records.

Every event number that carries at least one trigger or argument yields
one :class:`EventRecord`.  Annotations are routed into record fields by
their tag's focus; semantic tags fold into the trigger, participant or
organizer they sit on, and document-information tags stay out of events
entirely.  An annotation numbered for several events contributes to each
of their records.

Assembly is best-effort: documents with lint errors still produce
records (trigger-less events are flagged by :func:`check_separation`).
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lint import Diagnostic, diagnostic
from .model import (
    Annotation,
    DocumentLabels,
    DocumentRecord,
    FACILITY_TAGS,
    Focus,
    LOCATION_IDENTIFIER_TAGS,
    ORGANIZER_ATTRIBUTE_TAGS,
    ORGANIZER_HEAD_TAGS,
    PARTICIPANT_ATTRIBUTE_TAGS,
    TagId,
    TARGET_TAGS,
    TokenSpan,
    TRIGGER_TAGS,
    focus_of,
    span_contains,
)


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


OrganizerRecord = ParticipantRecord


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
    organizers: tuple[OrganizerRecord, ...]
    unattached_attributes: tuple[ArgumentRef, ...]
    doc_labels: DocumentLabels


def _resolve_semantic(
    head: Annotation,
    number: int,
    semantics_by_span: dict[TokenSpan, list[Annotation]],
) -> str | None:
    for sem in semantics_by_span.get(head.span, ()):
        if number in sem.events:
            return sem.tag.value
    return None


def _attach_attributes(
    heads: list[Annotation],
    attributes: list[Annotation],
    text_of,
) -> tuple[dict[str, list[ArgumentRef]], list[ArgumentRef]]:
    """Attach attribute annotations to the unique head span containing them."""
    attached: dict[str, list[ArgumentRef]] = defaultdict(list)
    loose: list[ArgumentRef] = []
    for attr in attributes:
        containers = [h for h in heads if span_contains(h.span, attr.span)]
        ref = ArgumentRef(attr.tag, attr.span, text_of(attr))
        if len(containers) == 1:
            attached[containers[0].id].append(ref)
        else:
            # zero containers, or an ambiguous tie: keep at event level
            loose.append(ref)
    return attached, loose


def assemble_events(doc: DocumentRecord) -> list[EventRecord]:
    """Build one EventRecord per realized event number, sorted by number."""
    anns = doc.annotations  # already in canonical order

    title_spans = [a.span for a in anns if a.tag is TagId.DOCUMENT_TITLE]
    sem_by_span: dict[Focus, dict[TokenSpan, list[Annotation]]] = {
        Focus.EVENT_SEMANTIC: defaultdict(list),
        Focus.PARTICIPANT_SEMANTIC: defaultdict(list),
        Focus.ORGANIZER_SEMANTIC: defaultdict(list),
    }
    content_by_number: dict[int, list[Annotation]] = defaultdict(list)
    for ann in anns:
        focus = focus_of(ann.tag)
        if focus is Focus.DOC_INFO:
            continue
        if focus in sem_by_span:
            sem_by_span[focus][ann.span].append(ann)
            continue
        for number in ann.events:
            content_by_number[number].append(ann)

    def text_of(ann: Annotation) -> str:
        return doc.span_text(ann.span)

    records: list[EventRecord] = []
    for number in sorted(content_by_number):
        triggers: list[TriggerRef] = []
        trigger_anns: list[Annotation] = []
        times: list[ArgumentRef] = []
        places: list[ArgumentRef] = []
        facilities: list[ArgumentRef] = []
        markers: list[ArgumentRef] = []
        targets: list[ArgumentRef] = []
        p_heads: list[Annotation] = []
        p_attrs: list[Annotation] = []
        o_heads: list[Annotation] = []
        o_attrs: list[Annotation] = []

        for ann in content_by_number[number]:
            tag = ann.tag
            if tag in TRIGGER_TAGS:
                trigger_anns.append(ann)
                triggers.append(
                    TriggerRef(
                        span=ann.span,
                        text=text_of(ann),
                        is_type=tag is TagId.EVENT_TYPE,
                        in_title=any(span_contains(t, ann.span) for t in title_spans),
                    )
                )
            elif tag is TagId.EVENT_TIME:
                times.append(ArgumentRef(tag, ann.span, text_of(ann)))
            elif tag is TagId.EVENT_PLACE:
                places.append(ArgumentRef(tag, ann.span, text_of(ann)))
            elif tag in FACILITY_TAGS:
                facilities.append(ArgumentRef(tag, ann.span, text_of(ann)))
            elif tag in LOCATION_IDENTIFIER_TAGS:
                markers.append(ArgumentRef(tag, ann.span, text_of(ann)))
            elif tag in TARGET_TAGS:
                targets.append(ArgumentRef(tag, ann.span, text_of(ann)))
            elif tag in (TagId.PARTICIPANT_TYPE, TagId.PARTICIPANT_NAME):
                p_heads.append(ann)
            elif tag in PARTICIPANT_ATTRIBUTE_TAGS or tag is TagId.PARTICIPANT_COUNT:
                p_attrs.append(ann)
            elif tag in ORGANIZER_HEAD_TAGS:
                o_heads.append(ann)
            elif tag in ORGANIZER_ATTRIBUTE_TAGS:
                o_attrs.append(ann)

        p_attached, p_loose = _attach_attributes(
            [h for h in p_heads if h.tag is TagId.PARTICIPANT_TYPE], p_attrs, text_of
        )
        o_attached, o_loose = _attach_attributes(o_heads, o_attrs, text_of)

        participants = tuple(
            ParticipantRecord(
                tag=head.tag,
                span=head.span,
                text=text_of(head),
                semantic=(
                    _resolve_semantic(head, number, sem_by_span[Focus.PARTICIPANT_SEMANTIC])
                    if head.tag is TagId.PARTICIPANT_TYPE
                    else None
                ),
                attributes=tuple(p_attached.get(head.id, ())),
            )
            for head in p_heads
        )
        organizers = tuple(
            ParticipantRecord(
                tag=head.tag,
                span=head.span,
                text=text_of(head),
                semantic=_resolve_semantic(
                    head, number, sem_by_span[Focus.ORGANIZER_SEMANTIC]
                ),
                attributes=tuple(o_attached.get(head.id, ())),
            )
            for head in o_heads
        )

        categories = [
            _resolve_semantic(trig, number, sem_by_span[Focus.EVENT_SEMANTIC])
            for trig in trigger_anns
        ]
        if categories and categories[0] is not None and len(set(categories)) == 1:
            semantic_category = categories[0]
        else:
            semantic_category = None

        records.append(
            EventRecord(
                doc_id=doc.doc_id,
                event_number=number,
                semantic_category=semantic_category,
                triggers=tuple(triggers),
                times=tuple(times),
                places=tuple(places),
                facilities=tuple(facilities),
                urban_rural_markers=tuple(markers),
                targets=tuple(targets),
                participants=participants,
                organizers=organizers,
                unattached_attributes=tuple(p_loose + o_loose),
                doc_labels=doc.labels,
            )
        )
    return records


def _first_location(record: EventRecord) -> tuple[int, TokenSpan | None]:
    for group in (
        record.triggers,
        record.times,
        record.places,
        record.facilities,
        record.targets,
    ):
        for item in group:
            return item.span.sentence, item.span
    for head in (*record.participants, *record.organizers):
        return head.span.sentence, head.span
    for item in record.unattached_attributes:
        return item.span.sentence, item.span
    return 0, None


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
    diagnostics: list[Diagnostic] = []

    def emit(rule_id: str, record: EventRecord, message: str) -> None:
        sentence, span = _first_location(record)
        diagnostics.append(diagnostic(rule_id, record.doc_id, (sentence, span, (), message)))

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
    "doc_protest",
    "doc_violent",
    "doc_demand",
)


def export_rows(records: Iterable[EventRecord]) -> list[dict[str, str]]:
    """Flatten event records into export rows, ordered by (doc_id, event_number).

    List-valued fields are joined with ``|``; optional fields render as
    empty strings.
    """
    rows = []
    for record in sorted(records, key=lambda r: (r.doc_id, r.event_number)):
        labels = record.doc_labels
        rows.append(
            {
                "doc_id": record.doc_id,
                "event_number": str(record.event_number),
                "semantic_category": record.semantic_category or "",
                "triggers": "|".join(t.text for t in record.triggers),
                "times": "|".join(t.text for t in record.times),
                "places": "|".join(p.text for p in record.places),
                "facilities": "|".join(f.text for f in record.facilities),
                "urban_rural": "|".join(m.text for m in record.urban_rural_markers),
                "participants": "|".join(p.text for p in record.participants),
                "participant_semantics": "|".join(
                    p.semantic or "" for p in record.participants
                ),
                "organizers": "|".join(o.text for o in record.organizers),
                "organizer_semantics": "|".join(
                    o.semantic or "" for o in record.organizers
                ),
                "targets": "|".join(t.text for t in record.targets),
                "doc_protest": labels.protest.value if labels.protest else "",
                "doc_violent": labels.violent.value if labels.violent else "",
                "doc_demand": labels.demand.value if labels.demand else "",
            }
        )
    return rows


def rows_to_csv(rows: Iterable[dict[str, str]]) -> str:
    """RFC 4180 CSV with a header row (header-only for an empty export)."""
    buf = _stdio.StringIO()
    writer = csv.DictWriter(buf, fieldnames=EXPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def rows_to_jsonl(rows: Iterable[dict[str, str]]) -> str:
    return "".join(
        json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n" for row in rows
    )
