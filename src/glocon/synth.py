"""Deterministic synthetic corpora for benchmarks and round-trip tests.

Documents are built directly from the model types, so every one parses
and round-trips.  They roughly follow the shape of real annotated
articles: about 200 tokens, a handful of event sentences each anchored
by a trigger with a coterminous semantic tag, arguments sharing the
sentence's event number, and non-event filler sentences around them.

They are not lint-clean.  Arguments get random tags and spans, so they
overlap each other without a license (E030) and start with articles
(W102, W103).  On 10,000 documents of seed 42, ``validate_corpus`` finds
27,054 E030, 2,788 W102 and 1,385 W103 and nothing else.
"""

from __future__ import annotations

import random

from .model import (
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

_WORDS = (
    "workers teachers students farmers residents activists members police crowd "
    "union party association government minister court office factory school "
    "hospital station square street district city village town sabha morcha "
    "wages pension land rights justice monday tuesday yesterday morning noon "
    "hundreds thousands against during after near the a an in at on of and "
    "said demanded continued refused alleged reported stated announced met"
).split()

_TRIGGER_WORDS = ("marched", "rallied", "gathered", "demonstrated", "struck", "clashed")
_SEMANTIC_TAGS = (
    TagId.DEMONSTRATION,
    TagId.INDUSTRIAL_ACTION,
    TagId.GROUP_CLASH,
    TagId.ARMED_MILITANCY,
)
_ARGUMENT_CHOICES = (
    TagId.EVENT_TIME,
    TagId.EVENT_PLACE,
    TagId.FACILITY_TYPE,
    TagId.FACILITY_NAME,
    TagId.TARGET_TYPE,
    TagId.TARGET_NAME,
    TagId.PARTICIPANT_COUNT,
)

# Token and annotation budget of one document; both are approximate.
_TOKENS = 200
_ANNOTATIONS = 15


def synthetic_document(rng: random.Random, doc_id: str) -> DocumentRecord:
    # sentence plan: enough sentences to cover the token budget
    lengths: list[int] = []
    budget = _TOKENS
    while budget > 0:
        length = max(6, min(budget, rng.randint(8, 20)))
        lengths.append(length)
        budget -= length

    n_events = max(1, min(len(lengths), rng.randint(2, 4)))
    event_sentences = sorted(rng.sample(range(len(lengths)), n_events))

    sentences: list[SentenceRecord] = []
    annotations: list[Annotation] = []
    serial = 0

    def new_id() -> str:
        nonlocal serial
        serial += 1
        return f"a{serial}"

    # trigger + semantic pair per event, remainder spread as arguments
    args_left = max(0, _ANNOTATIONS - 2 * n_events)
    for index, length in enumerate(lengths):
        tokens = [rng.choice(_WORDS) for _ in range(length)]
        is_event = index in event_sentences
        if is_event:
            event = event_sentences.index(index) + 1
            trigger_pos = rng.randrange(1, length - 1)
            tokens[trigger_pos] = rng.choice(_TRIGGER_WORDS)
            span = TokenSpan(index, trigger_pos, trigger_pos + 1)
            events = frozenset({event})
            annotations.append(
                Annotation(id=new_id(), tag=TagId.EVENT_TYPE, span=span, events=events)
            )
            annotations.append(
                Annotation(
                    id=new_id(), tag=rng.choice(_SEMANTIC_TAGS), span=span, events=events
                )
            )
            n_args = min(args_left, (_ANNOTATIONS // n_events))
            for _ in range(n_args):
                start = rng.randrange(0, length - 1)
                end = min(length, start + rng.randint(1, 3))
                if start <= trigger_pos < end:
                    continue  # keep arguments off the trigger tokens
                annotations.append(
                    Annotation(
                        id=new_id(),
                        tag=rng.choice(_ARGUMENT_CHOICES),
                        span=TokenSpan(index, start, end),
                        events=events,
                    )
                )
                args_left -= 1
        sentences.append(
            SentenceRecord(
                index=index,
                tokens=tuple(tokens),
                label=SentenceLabel.EVENT if is_event else SentenceLabel.NON_EVENT,
            )
        )

    labels = DocumentLabels(
        protest=ProtestLabel.PROTEST,
        violent=rng.choice(tuple(ViolenceLabel)),
        demand=rng.choice(tuple(DemandLabel)),
    )
    return DocumentRecord(
        doc_id=doc_id,
        labels=labels,
        sentences=tuple(sentences),
        annotations=tuple(annotations),
    )


def synthetic_corpus(n_docs: int, seed: int = 0) -> list[DocumentRecord]:
    rng = random.Random(seed)
    return [synthetic_document(rng, doc_id=f"doc-{i:06d}") for i in range(n_docs)]
