"""Seeded random documents for oracle-equivalence and round-trip tests.

The generator is adversarial rather than realistic: it mixes uniformly
random spans with deliberately patterned constructs (coterminous
semantic pairs, contained attributes, facility/target twins, a document
title overlay) so that every licensing clause of the overlap rules gets
exercised on both the licensed and the unlicensed side.  ``HOSTILE_TEXT``
draws the strings a writer must escape, for the writers' hypothesis tests.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from glocon.model import (
    Annotation,
    DemandLabel,
    DocumentLabels,
    DocumentRecord,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
    ViolenceLabel,
)

# Characters JSON escapes or a writer might: the quote, the backslash, every
# control character, DEL, the two line separators JavaScript rejects in a
# string, and non-ASCII text in and beyond the Basic Multilingual Plane.
HOSTILE_TEXT = st.text(
    st.sampled_from(['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029",
                     "é", "示", "\U0001F600", "a"])
    | st.characters(codec="utf-8"),
    max_size=5,
)

_VOCAB = (
    "the a an workers strike march protest incident riot police city square "
    "monday over about union party India Brazil at in , . ' said more than "
    "köyü São gherao ñandú 示威"
).split()

_COMMENTS = ("unsure about the span", "second occurrence", "véase §4", "")

_ALL_TAGS = list(TagId)
_SEMANTIC_BY_HOST = {
    TagId.EVENT_TYPE: [TagId.DEMONSTRATION, TagId.INDUSTRIAL_ACTION, TagId.ARMED_MILITANCY],
    TagId.EVENT_MENTION: [TagId.DEMONSTRATION, TagId.GROUP_CLASH],
    TagId.PARTICIPANT_TYPE: [TagId.WORKER, TagId.PEOPLE, TagId.STUDENT],
    TagId.ORGANIZER_TYPE: [TagId.UNION, TagId.NGO],
    TagId.ORGANIZER_NAME: [TagId.POLITICAL_PARTY, TagId.PERSON],
}


def _random_span(rng: random.Random, sentences: list[SentenceRecord]) -> TokenSpan:
    sent = rng.choice(sentences)
    n = len(sent.tokens)
    start = rng.randrange(0, n)
    end = min(n, start + rng.randint(1, 4))
    if end <= start:
        end = start + 1
    return TokenSpan(sent.index, start, end)


def random_document(rng: random.Random, max_annotations: int = 12) -> DocumentRecord:
    n_sentences = rng.randint(1, 4)
    sentences = [
        SentenceRecord(
            index=i,
            tokens=tuple(rng.choice(_VOCAB) for _ in range(rng.randint(4, 12))),
            label=rng.choice([None, SentenceLabel.NON_EVENT, SentenceLabel.EVENT, SentenceLabel.PLANNED]),
        )
        for i in range(n_sentences)
    ]

    annotations: list[Annotation] = []
    serial = 0

    def add(tag: TagId, span: TokenSpan, events: frozenset[int] | None = None) -> None:
        nonlocal serial
        if len(annotations) >= max_annotations:
            return
        serial += 1
        annotations.append(
            Annotation(
                id=f"r{serial}",
                tag=tag,
                span=span,
                events=events or frozenset(rng.sample([1, 2, 3], rng.randint(1, 2))),
                events_from_comment=rng.random() < 0.15,
                confidence=round(rng.random(), 3) if rng.random() < 0.25 else None,
                comment=rng.choice(_COMMENTS) if rng.random() < 0.2 else None,
            )
        )

    # occasionally overlay sentence 0 with a document title
    if rng.random() < 0.3:
        add(TagId.DOCUMENT_TITLE, TokenSpan(0, 0, len(sentences[0].tokens)), frozenset({1}))

    while len(annotations) < max_annotations and rng.random() > 0.08:
        roll = rng.random()
        if roll < 0.25:
            # host + semantic tag, coterminous or deliberately skewed
            host_tag = rng.choice(list(_SEMANTIC_BY_HOST))
            span = _random_span(rng, sentences)
            events = frozenset(rng.sample([1, 2, 3], rng.randint(1, 2)))
            add(host_tag, span, events)
            sem_tag = rng.choice(_SEMANTIC_BY_HOST[host_tag])
            if rng.random() < 0.75:
                add(sem_tag, span, events if rng.random() < 0.8 else None)
            else:
                add(sem_tag, _random_span(rng, sentences), events)
        elif roll < 0.45:
            # head with a contained (or escaping) attribute
            head_tag = rng.choice(
                [TagId.PARTICIPANT_TYPE, TagId.ORGANIZER_TYPE, TagId.ORGANIZER_NAME]
            )
            sent = rng.choice(sentences)
            n = len(sent.tokens)
            start = rng.randrange(0, max(1, n - 2))
            end = min(n, start + rng.randint(2, 4))
            head_span = TokenSpan(sent.index, start, min(end, n) if end > start else start + 1)
            events = frozenset({rng.randint(1, 3)})
            add(head_tag, head_span, events)
            attrs = (
                [TagId.PARTICIPANT_IDEOLOGY, TagId.PARTICIPANT_SES, TagId.PARTICIPANT_COUNT]
                if head_tag is TagId.PARTICIPANT_TYPE
                else [TagId.ORGANIZER_IDEOLOGY, TagId.ORGANIZER_RELIGION]
            )
            inner_start = rng.randint(head_span.start, head_span.end - 1)
            inner_end = rng.randint(inner_start + 1, head_span.end)
            if rng.random() < 0.3:
                inner_end = min(n, inner_end + 2)  # escape the head span sometimes
            if inner_end > inner_start:
                add(
                    rng.choice(attrs),
                    TokenSpan(sent.index, inner_start, inner_end),
                    events if rng.random() < 0.8 else None,
                )
        elif roll < 0.6:
            # facility/target twins over (nearly) the same tokens
            span = _random_span(rng, sentences)
            events = frozenset({rng.randint(1, 3)})
            add(rng.choice([TagId.FACILITY_TYPE, TagId.FACILITY_NAME]), span, events)
            other = rng.choice(
                [TagId.TARGET_TYPE, TagId.TARGET_NAME, TagId.FACILITY_TYPE, TagId.FACILITY_NAME]
            )
            if rng.random() < 0.7:
                add(other, span, events)
            else:
                add(other, _random_span(rng, sentences), events)
        else:
            add(rng.choice(_ALL_TAGS), _random_span(rng, sentences))

    protest = rng.choice([None, ProtestLabel.PROTEST, ProtestLabel.NO_PROTEST])
    labels = DocumentLabels(
        protest=protest,
        violent=rng.choice([None, ViolenceLabel.VIOLENT, ViolenceLabel.NON_VIOLENT])
        if protest is ProtestLabel.PROTEST
        else None,
        demand=rng.choice([None, *DemandLabel])
        if protest is ProtestLabel.PROTEST
        else None,
    )
    return DocumentRecord(
        doc_id=f"rand-{rng.randrange(10**9)}",
        labels=labels,
        sentences=tuple(sentences),
        annotations=tuple(annotations),
    )


def random_corpus(n_docs: int, seed: int) -> list[DocumentRecord]:
    rng = random.Random(seed)
    docs = []
    used_ids: set[str] = set()
    for _ in range(n_docs):
        doc = random_document(rng)
        while doc.doc_id in used_ids:
            doc = random_document(rng)
        used_ids.add(doc.doc_id)
        docs.append(doc)
    return docs
