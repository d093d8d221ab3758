"""Independent brute-force checkers: overlap licensing (rule E030),
greedy span matching (token-level agreement), document pairing by doc_id
and event assembly, down to every field of every event record, and the
canonical JSON object of a document, which the corpus writer is held to.

This module deliberately re-states the licensing clauses one by one,
the matcher's two passes, pairing through a dict of the whole second
corpus, the manual's semantic pairing and attribute attachment and the
corpus format's keys, and never calls into glocon.lint, glocon.agreement,
glocon.assemble or glocon.io: it is the oracle those modules are compared
against.  Only the shared data model is imported.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

from glocon.model import Annotation, DocumentRecord, Focus, TagId

PARTICIPANT_ATTRIBUTES = {
    TagId.PARTICIPANT_IDEOLOGY,
    TagId.PARTICIPANT_ETHNICITY,
    TagId.PARTICIPANT_RELIGION,
    TagId.PARTICIPANT_CASTE,
    TagId.PARTICIPANT_SES,
}
ORGANIZER_ATTRIBUTES = {
    TagId.ORGANIZER_IDEOLOGY,
    TagId.ORGANIZER_ETHNICITY,
    TagId.ORGANIZER_RELIGION,
    TagId.ORGANIZER_CASTE,
    TagId.ORGANIZER_SES,
}
EVENT_SEMANTIC = {
    TagId.DEMONSTRATION,
    TagId.INDUSTRIAL_ACTION,
    TagId.GROUP_CLASH,
    TagId.ARMED_MILITANCY,
    TagId.ELECTORAL_POLITICS,
    TagId.OTHER_EVENT,
}
PARTICIPANT_SEMANTIC = {
    TagId.PEASANT,
    TagId.WORKER,
    TagId.SMALL_PRODUCER,
    TagId.EMPLOYER_EXECUTIVE,
    TagId.PROFESSIONAL,
    TagId.STUDENT,
    TagId.POLITICIAN,
    TagId.ACTIVIST,
    TagId.MILITANT,
    TagId.PEOPLE,
    TagId.OTHER_PARTICIPANT,
}
ORGANIZER_SEMANTIC = {
    TagId.POLITICAL_PARTY,
    TagId.NGO,
    TagId.UNION,
    TagId.MILITANT_ARMED_ORGANIZATION,
    TagId.CHAMBER_OF_PROFESSIONALS,
    TagId.PERSON,
    TagId.OTHER_ORGANIZER,
}
TRIGGERS = {TagId.EVENT_TYPE, TagId.EVENT_MENTION}
PARTICIPANT_HEADS = {TagId.PARTICIPANT_TYPE, TagId.PARTICIPANT_NAME}
ORGANIZER_HEADS = {TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME}
# The semantic tags each host tag takes; every other tag takes none.
SEMANTICS_OF_HOST = {
    TagId.EVENT_TYPE: EVENT_SEMANTIC,
    TagId.EVENT_MENTION: EVENT_SEMANTIC,
    TagId.PARTICIPANT_TYPE: PARTICIPANT_SEMANTIC,
    TagId.ORGANIZER_TYPE: ORGANIZER_SEMANTIC,
    TagId.ORGANIZER_NAME: ORGANIZER_SEMANTIC,
}
FACILITY = {TagId.FACILITY_TYPE, TagId.FACILITY_NAME}
TARGET = {TagId.TARGET_TYPE, TagId.TARGET_NAME}
LOCATION_IDENTIFIERS = {
    TagId.URBAN_LOCATION_IDENTIFIER,
    TagId.RURAL_LOCATION_IDENTIFIER,
}
# The tags that join event records: triggers and arguments, not document
# information or semantic tags.
EVENT_FOCI = {Focus.EVENT, Focus.PARTICIPANT, Focus.ORGANIZER, Focus.TARGET}
# The heads that hold each attribute tag: a participant attribute sits in a
# participant_type, an organizer attribute in an organizer_type or _name.
ATTRIBUTE_HOLDERS = {
    **{tag: {TagId.PARTICIPANT_TYPE} for tag in PARTICIPANT_ATTRIBUTES},
    **{tag: {TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME} for tag in ORGANIZER_ATTRIBUTES},
}


def spans_overlap(a: Annotation, b: Annotation) -> bool:
    return (
        a.span.sentence == b.span.sentence
        and a.span.start < b.span.end
        and b.span.start < a.span.end
    )


def _same_span(a: Annotation, b: Annotation) -> bool:
    return a.span == b.span


def _contained(inner: Annotation, outer: Annotation) -> bool:
    return (
        inner.span.sentence == outer.span.sentence
        and outer.span.start <= inner.span.start
        and inner.span.end <= outer.span.end
    )


def _name_exclusivity_violated(a: Annotation, b: Annotation) -> bool:
    pairs = [
        {TagId.PARTICIPANT_TYPE, TagId.PARTICIPANT_NAME},
        {TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME},
        {TagId.FACILITY_TYPE, TagId.FACILITY_NAME},
        {TagId.TARGET_TYPE, TagId.TARGET_NAME},
    ]
    return {a.tag, b.tag} in pairs


def _clause_i(a: Annotation, b: Annotation) -> bool:
    return TagId.DOCUMENT_TITLE in (a.tag, b.tag)


def _clause_ii(a: Annotation, b: Annotation) -> bool:
    if a.tag == TagId.PARTICIPANT_TYPE and b.tag in PARTICIPANT_ATTRIBUTES:
        return _contained(b, a)
    if b.tag == TagId.PARTICIPANT_TYPE and a.tag in PARTICIPANT_ATTRIBUTES:
        return _contained(a, b)
    return False


def _clause_iii(a: Annotation, b: Annotation) -> bool:
    heads = {TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME}
    if a.tag in heads and b.tag in ORGANIZER_ATTRIBUTES:
        return _contained(b, a)
    if b.tag in heads and a.tag in ORGANIZER_ATTRIBUTES:
        return _contained(a, b)
    return False


def _clause_iv(a: Annotation, b: Annotation) -> bool:
    def licensed(sem: Annotation, host: Annotation) -> bool:
        if sem.tag in EVENT_SEMANTIC:
            ok = host.tag in (TagId.EVENT_TYPE, TagId.EVENT_MENTION)
        elif sem.tag in PARTICIPANT_SEMANTIC:
            ok = host.tag == TagId.PARTICIPANT_TYPE
        elif sem.tag in ORGANIZER_SEMANTIC:
            ok = host.tag in (TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME)
        else:
            return False
        return ok and _same_span(sem, host)

    return licensed(a, b) or licensed(b, a)


def _clause_v(a: Annotation, b: Annotation) -> bool:
    return len(a.events & b.events) == 0


def _clause_vi(a: Annotation, b: Annotation) -> bool:
    return (a.tag in FACILITY and b.tag in TARGET) or (
        b.tag in FACILITY and a.tag in TARGET
    )


def overlap_is_licensed(a: Annotation, b: Annotation) -> bool:
    if _name_exclusivity_violated(a, b):
        return False
    return (
        _clause_i(a, b)
        or _clause_ii(a, b)
        or _clause_iii(a, b)
        or _clause_iv(a, b)
        or _clause_v(a, b)
        or _clause_vi(a, b)
    )


def brute_force_e030_pairs(doc: DocumentRecord) -> set[frozenset[str]]:
    """All unordered annotation-id pairs that should be reported by E030.

    Location-identifier/facility overlaps belong to the more specific
    facility-priority rule and are excluded here, mirroring the engine's
    rule split.
    """
    violations: set[frozenset[str]] = set()
    anns = list(doc.annotations)
    for i in range(len(anns)):
        for j in range(i + 1, len(anns)):
            a, b = anns[i], anns[j]
            if not spans_overlap(a, b):
                continue
            if (a.tag in LOCATION_IDENTIFIERS and b.tag in FACILITY) or (
                b.tag in LOCATION_IDENTIFIERS and a.tag in FACILITY
            ):
                continue
            if not overlap_is_licensed(a, b):
                violations.add(frozenset({a.id, b.id}))
    return violations


def brute_force_semantic(doc: DocumentRecord, head: Annotation, number: int) -> str | None:
    """The semantic category ``head`` takes in event ``number``.

    It is the first annotation, in canonical order, that is a semantic tag
    of the head's semantic focus, covers exactly the head's tokens and
    carries ``number``.  A head that hosts no semantic focus takes None.
    """
    semantic_tags = SEMANTICS_OF_HOST.get(head.tag, set())
    for sem in doc.annotations:
        if sem.tag in semantic_tags and _same_span(sem, head) and number in sem.events:
            return sem.tag.value
    return None


def brute_force_in_title(doc: DocumentRecord, ann: Annotation) -> bool:
    """Does some document_title span contain ``ann``?"""
    return any(
        title.tag == TagId.DOCUMENT_TITLE and _contained(ann, title) for title in doc.annotations
    )


def _text(doc: DocumentRecord, ann: Annotation) -> str:
    span = ann.span
    return " ".join(doc.sentences[span.sentence].tokens[span.start : span.end])


def brute_force_records(doc: DocumentRecord) -> list[dict]:
    """The event records of ``doc``, one dict of record fields per event number.

    Every number carried by a trigger or an argument makes one record, in
    number order.  Each field lists the event's annotations of its tags in
    canonical order: triggers as ``(span, text, is_type, in_title)``,
    arguments as ``(tag, span, text)`` and actor heads as ``(tag, span,
    text, semantic, attributes)``.  An attribute attaches to the single head
    of its event and focus that holds it and contains it; any other
    attribute, and every participant_count, goes to
    ``unattached_attributes``, participants' before organizers'.
    """
    numbers = sorted(
        {n for a in doc.annotations if a.tag.focus in EVENT_FOCI for n in a.events}
    )
    records = []
    for number in numbers:
        members = [a for a in doc.annotations if number in a.events]

        def refs(tags: set[TagId]) -> tuple:
            return tuple((a.tag, a.span, _text(doc, a)) for a in members if a.tag in tags)

        unattached = []

        def actors(focus: Focus, head_tags: set[TagId]) -> tuple:
            heads = [a for a in members if a.tag in head_tags]
            attached: dict[str, list] = {head.id: [] for head in heads}
            for a in members:
                if a.tag.focus is not focus or a.tag in head_tags:
                    continue
                holders = [
                    h for h in heads
                    if h.tag in ATTRIBUTE_HOLDERS.get(a.tag, ()) and _contained(a, h)
                ]
                ref = (a.tag, a.span, _text(doc, a))
                if len(holders) == 1:
                    attached[holders[0].id].append(ref)
                else:
                    unattached.append(ref)
            return tuple(
                (h.tag, h.span, _text(doc, h), brute_force_semantic(doc, h, number),
                 tuple(attached[h.id]))
                for h in heads
            )

        triggers = [a for a in members if a.tag in TRIGGERS]
        categories = {brute_force_semantic(doc, t, number) for t in triggers}
        participants = actors(Focus.PARTICIPANT, PARTICIPANT_HEADS)
        organizers = actors(Focus.ORGANIZER, ORGANIZER_HEADS)
        records.append({
            "doc_id": doc.doc_id,
            "event_number": number,
            "semantic_category": categories.pop() if len(categories) == 1 else None,
            "triggers": tuple(
                (t.span, _text(doc, t), t.tag == TagId.EVENT_TYPE, brute_force_in_title(doc, t))
                for t in triggers
            ),
            "times": refs({TagId.EVENT_TIME}),
            "places": refs({TagId.EVENT_PLACE}),
            "facilities": refs(FACILITY),
            "urban_rural_markers": refs(LOCATION_IDENTIFIERS),
            "targets": refs(TARGET),
            "participants": participants,
            "organizers": organizers,
            "unattached_attributes": tuple(unattached),
            "doc_labels": doc.labels,
        })
    return records


def greedy_span_match(
    hyp: Sequence[Annotation], ref: Sequence[Annotation], mode: str
) -> dict[str, tuple[int, int, int]]:
    """Per-tag ``(tp, fp, fn)`` of ``hyp`` scored against ``ref``.

    Both sides are in canonical order.  The first pass gives each
    hypothesis annotation, in order, the first unmatched reference with the
    same tag and the same span; in ``"lenient"`` mode a second pass does the
    same for the remaining ones with any token overlap.  Every pass scans
    every reference for every hypothesis annotation.
    """
    matched_hyp: set[int] = set()
    matched_ref: set[int] = set()
    tp: dict[str, int] = {}

    def one_pass(same: Callable[[Annotation, Annotation], bool]) -> None:
        for i, h in enumerate(hyp):
            if i in matched_hyp:
                continue
            for j, r in enumerate(ref):
                if j not in matched_ref and r.tag == h.tag and same(h, r):
                    matched_hyp.add(i)
                    matched_ref.add(j)
                    tp[h.tag.value] = tp.get(h.tag.value, 0) + 1
                    break

    one_pass(_same_span)
    if mode == "lenient":
        one_pass(spans_overlap)

    fp = Counter(h.tag.value for i, h in enumerate(hyp) if i not in matched_hyp)
    fn = Counter(r.tag.value for j, r in enumerate(ref) if j not in matched_ref)
    return {
        tag: (tp.get(tag, 0), fp[tag], fn[tag]) for tag in sorted(set(tp) | set(fp) | set(fn))
    }


def dict_pair_corpora(a: Sequence[DocumentRecord], b: Sequence[DocumentRecord]) -> tuple:
    """Documents of ``a`` and ``b`` paired by doc_id through a dict of all of ``b``.

    Returns the pairs with equal tokens (in ``a`` order), the unmatched ids
    of ``a`` and of ``b`` (each in its own order), and ``(doc_id, sentence)``
    for each pair whose tokens differ (in ``a`` order), naming the first
    sentence that differs or, when one side has fewer sentences, the first
    sentence it lacks.
    """
    b_by_id = {doc.doc_id: doc for doc in b}
    a_ids = {doc.doc_id for doc in a}
    pairs, mismatched = [], []
    for doc_a in a:
        doc_b = b_by_id.get(doc_a.doc_id)
        if doc_b is None:
            continue
        tokens_a = [sent.tokens for sent in doc_a.sentences]
        tokens_b = [sent.tokens for sent in doc_b.sentences]
        if tokens_a == tokens_b:
            pairs.append((doc_a, doc_b))
            continue
        differ = [i for i, (x, y) in enumerate(zip(tokens_a, tokens_b)) if x != y]
        mismatched.append(
            (doc_a.doc_id, differ[0] if differ else min(len(tokens_a), len(tokens_b)))
        )
    return (
        pairs,
        [doc.doc_id for doc in a if doc.doc_id not in b_by_id],
        [doc.doc_id for doc in b if doc.doc_id not in a_ids],
        mismatched,
    )


def canonical_obj(doc: DocumentRecord) -> dict:
    """The canonical JSON object of a document, restated key by key: the
    corpus format's key order, absent optional fields left out, comment
    events as their "Event N, ..." string and event lists sorted.  Its
    ``json.dumps`` with ``ensure_ascii=False`` and compact separators is the
    document's corpus line."""
    labels = {
        key: label.value
        for key, label in zip(("protest", "violent", "demand"), doc.labels)
        if label is not None
    }
    sentences = []
    for sent in doc.sentences:
        sentence = {"index": sent.index, "tokens": list(sent.tokens)}
        if sent.label is not None:
            sentence["label"] = int(sent.label)
        sentences.append(sentence)
    annotations = []
    for ann in doc.annotations:
        numbers = sorted(ann.events)
        annotation = {
            "id": ann.id,
            "tag": ann.tag.value,
            "sentence": ann.span.sentence,
            "start": ann.span.start,
            "end": ann.span.end,
            "events": (
                ", ".join(f"Event {n}" for n in numbers) if ann.events_from_comment else numbers
            ),
        }
        if ann.confidence is not None:
            annotation["confidence"] = ann.confidence
        if ann.comment is not None:
            annotation["comment"] = ann.comment
        annotations.append(annotation)
    return {
        "doc_id": doc.doc_id,
        "labels": labels,
        "sentences": sentences,
        "annotations": annotations,
    }
