"""Seeded benchmark inputs and the results the program must give on them.

The generator writes canonical corpus lines itself and imports nothing
from glocon, so a change to the program cannot move its inputs.  Every
expected value is derived here from what the generator put in, following
the rules the README documents:

* stats counts and the assembled ``(doc_id, event_number)`` keys;
* planted lint defects as ``(rule, doc, sentence)``: each defect is a
  small gadget added to an otherwise clean document, and clean documents
  must draw no diagnostic at all;
* planted bad lines as ``(line, kind)``, one per ``ParseErrorKind``;
* annotator B's copy ``B`` of ``A`` (shifted, dropped, added and retagged
  spans, relabeled sentences and documents), the strict tp/fp/fn it must
  score against ``A`` and the label pairs behind every kappa.

Workloads:

* ``bulk``: many short protest documents in the baseline shape (about
  200 tokens, 15 annotations, integer events) with about three
  diagnostics per document.  Parsing dominates every command.
* ``dense``: few long articles with 300-400 annotations each, most of
  their overlaps licensed (semantic tags on hosts, attributes inside
  heads, title overlays, disjoint events on shared tokens, facility and
  target twins).  Span matching and E030 do most of the work.
* ``flat``: an export from the annotation tool: mostly ``no_protest``
  documents with sentences only, protest documents with FLAT comment
  events (``"Event 2, Event 3"``), title annotations and non-ASCII
  tokens, and a few malformed lines of every kind.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

# Default severities of the README rule catalog.
SEVERITY = {
    **{r: "error" for r in ("E010", "E020", "E021", "E022", "E023", "E030", "E050")},
    **{
        r: "warning"
        for r in (
            "W101", "W102", "W103", "W110", "W111", "W112", "W120", "W121",
            "W122", "W130", "W131", "W140", "W142",
        )
    },
    "W141": "info",
    "I150": "info",
}
SEPARATION_RULES = ("W140", "W141")
PARSE_ERROR_KINDS = (
    "malformed_record", "unknown_tag", "bad_span", "bad_label", "bad_event_ref", "duplicate_id",
)

DOC_INFO = {"document_title", "event_time_published", "event_place_published"}
EVENT_SEM = (
    "demonstration", "industrial_action", "group_clash", "armed_militancy",
    "electoral_politics", "other_event",
)
PART_SEM = (
    "peasant", "worker", "small_producer", "employer_executive", "professional", "student",
    "politician", "activist", "militant", "people", "other_participant",
)
ORG_SEM = (
    "political_party", "ngo", "union", "militant_armed_organization",
    "chamber_of_professionals", "person", "other_organizer",
)
SEMANTIC = set(EVENT_SEM) | set(PART_SEM) | set(ORG_SEM)
# Tag families annotator B confuses with each other.
TAG_FAMILIES = (
    ("event_type", "event_mention"),
    EVENT_SEM,
    PART_SEM,
    ORG_SEM,
    ("event_time", "event_place", "facility_type", "facility_name", "urban_location_identifier"),
    ("participant_type", "participant_name", "participant_count", "participant_ideology",
     "participant_religion", "participant_ethnicity", "participant_caste", "participant_ses"),
    ("organizer_type", "organizer_name", "organizer_ideology", "organizer_religion"),
    ("target_type", "target_name"),
)
FAMILY_OF = {tag: fam for fam in TAG_FAMILIES for tag in fam}

TRIGGER_VERBS = ("marched", "rallied", "gathered", "demonstrated", "struck", "picketed",
                 "blockaded", "occupied", "clashed", "assembled")
TRIGGER_NOUNS = ("march", "rally", "strike", "sit-in", "blockade", "demonstration",
                 "walkout", "hartal", "bandh", "dharna")
TOKEN_EVENT_WORDS = ("incident", "event", "agitation")
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
MONTHS = ("January", "February", "March", "April", "May", "June", "July", "August",
          "September", "October", "November", "December")
PLACES = (("Mumbai",), ("Chennai",), ("Kolkata",), ("Patna",), ("Durban",), ("Soweto",),
          ("Pretoria",), ("Rosario",), ("Mendoza",), ("Recife",), ("Wuhan",), ("Shenzhen",),
          ("Porto", "Alegre"), ("Cape", "Town"), ("La", "Plata"))
PLACES_INTL = (("São", "Paulo"), ("Córdoba",), ("Neuquén",), ("Belém",), ("Tucumán",),
               ("Florianópolis",), ("深圳",), ("广州",), ("ಬೆಂಗಳೂರು",), ("Goiânia",))
COUNTRIES = (("India",), ("China",), ("South", "Africa"), ("Argentina",), ("Brazil",))
# Each participant surface always carries the same semantic tag (else I150).
PARTICIPANTS = {
    "workers": "worker", "students": "student", "farmers": "peasant",
    "teachers": "professional", "activists": "activist", "residents": "people",
    "traders": "small_producer", "employers": "employer_executive",
    "legislators": "politician", "villagers": "people",
}
PARTICIPANTS_INTL = {"trabalhadores": "worker", "estudiantes": "student",
                     "campesinos": "peasant", "农民工": "worker", "docentes": "professional"}
PART_ATTRS = (("participant_ideology", "leftist"), ("participant_religion", "Muslim"),
              ("participant_ethnicity", "Tamil"), ("participant_caste", "Dalit"),
              ("participant_ses", "landless"))
ORGANIZERS = ((("CITU",), "union"), (("COSATU",), "union"), (("CGT",), "union"),
              (("Congress", "Party"), "political_party"), (("Landless", "Movement"), "ngo"),
              (("Bar", "Council"), "chamber_of_professionals"), (("Medha", "Patkar"), "person"))
ORG_ATTRS = (("organizer_ideology", "Communist"), ("organizer_religion", "Sikh"),
             ("organizer_ethnicity", "Zulu"))
FACILITIES = (("facility_name", ("Azad", "Maidan")), ("facility_name", ("Plaza", "Mayo")),
              ("facility_type", ("factory",)), ("facility_type", ("school",)))
TARGETS = (("target_name", ("Tata", "Motors")), ("target_type", ("management",)),
           ("target_type", ("government",)))
COUNTS = (("hundreds",), ("thousands",), ("200",), ("5,000",))
FILLER = ("police officials said after during near local district city town morning "
          "according to also while had been were was will the a an of in at on and , . ;"
          ).split()
FILLER_INTL = FILLER + ["según", "após", "também", "región", "município", "«", "»", "—"]
TITLE_WORDS = ("Protesters", "Strike", "Huelga", "Greve", "Rally", "Police", "Workers")


class Ann:
    __slots__ = ("id", "tag", "sent", "start", "end", "events", "comment_form",
                 "confidence", "comment")

    def __init__(self, ann_id, tag, sent, start, end, events, comment_form=False,
                 confidence=None, comment=None):
        self.id = ann_id
        self.tag = tag
        self.sent = sent
        self.start = start
        self.end = end
        self.events = frozenset(events)
        self.comment_form = comment_form
        self.confidence = confidence
        self.comment = comment

    def key(self) -> tuple:
        """Canonical order: (sentence, start, end, tag, events, id)."""
        return (self.sent, self.start, self.end, self.tag, tuple(sorted(self.events)), self.id)

    def copy(self, **changes) -> "Ann":
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["ann_id"] = fields.pop("id")
        fields.update(changes)
        return Ann(**fields)

    def obj(self) -> dict:
        obj = {"id": self.id, "tag": self.tag, "sentence": self.sent,
               "start": self.start, "end": self.end}
        if self.comment_form:
            obj["events"] = ", ".join(f"Event {n}" for n in sorted(self.events))
        else:
            obj["events"] = sorted(self.events)
        if self.confidence is not None:
            obj["confidence"] = self.confidence
        if self.comment is not None:
            obj["comment"] = self.comment
        return obj


class Doc:
    """One document under construction, with the diagnostics it must draw."""

    def __init__(self, doc_id: str, labels: dict, comment_events: bool = False):
        self.doc_id = doc_id
        self.labels = labels
        self.tokens: list[list[str]] = []
        self.sent_labels: list[int | None] = []
        self.used: list[list[bool]] = []
        self.anns: list[Ann] = []
        self.comment_events = comment_events
        self.serial = 0
        self.lint: list[tuple[str, int]] = []  # (rule, sentence) validate must report
        self.separation: list[tuple[str, int]] = []  # (rule, sentence) check_separation reports
        self.event_sentence: dict[int, int] = {}  # event -> sentence of its body trigger
        self.title_events: set[int] = set()
        self.locked: set[int] = set()  # events a gadget may no longer touch
        self.touched: set[int] = set()  # events a gadget changed: no W140 source
        self.trigger_gadget: set[int] = set()
        self.body_types: Counter = Counter()  # event_type triggers outside the title
        self.fillers: list[int] = []  # annotation-free sentences a gadget may take
        self.category: dict[int, str] = {}  # event -> semantic category of its triggers
        self.attr_e030: Counter = Counter()  # event -> E030s its head attributes draw
        self.time_pool: list[tuple[str, ...]] = []  # unused time texts for gadgets

    def add_sentence(self, tokens: list[str], label: int | None) -> int:
        self.tokens.append(list(tokens))
        self.sent_labels.append(label)
        self.used.append([False] * len(tokens))
        return len(self.tokens) - 1

    def slot(self, rng: random.Random, sent: int, length: int) -> int | None:
        used = self.used[sent]
        starts = [i for i in range(len(used) - length + 1) if not any(used[i:i + length])]
        return rng.choice(starts) if starts else None

    def place(self, sent: int, start: int, words) -> tuple[int, int]:
        end = start + len(words)
        self.tokens[sent][start:end] = words
        self.used[sent][start:end] = [True] * len(words)
        return start, end

    def ann(self, tag: str, sent: int, start: int, end: int, events) -> Ann:
        self.serial += 1
        events = frozenset(events)
        comment_form = self.comment_events and events != {1}
        ann = Ann(f"a{self.serial}", tag, sent, start, end, events, comment_form)
        self.anns.append(ann)
        return ann

    def max_event(self) -> int:
        return max((n for a in self.anns for n in a.events), default=0)

    def obj(self) -> dict:
        labels = {k: self.labels[k] for k in ("protest", "violent", "demand") if self.labels.get(k)}
        sentences = []
        for index, (tokens, label) in enumerate(zip(self.tokens, self.sent_labels)):
            sent = {"index": index, "tokens": tokens}
            if label is not None:
                sent["label"] = label
            sentences.append(sent)
        return {"doc_id": self.doc_id, "labels": labels, "sentences": sentences,
                "annotations": [a.obj() for a in sorted(self.anns, key=Ann.key)]}


def dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# --------------------------------------------------------------------------
# clean documents


def _time_texts(rng: random.Random, n: int) -> list[tuple[str, ...]]:
    pool = [(d,) for d in WEEKDAYS] + [(m, str(d)) for m in MONTHS for d in range(1, 29)]
    return rng.sample(pool, n)


def _add_event(doc: Doc, rng: random.Random, sent: int, event: int, time_words, spec: dict,
               places, participants) -> None:
    """Trigger, semantic tag and arguments of one event in one sentence."""
    ev = {event}
    category = rng.choice(EVENT_SEM)
    if rng.random() < 0.6:
        trigger, words = "event_type", (rng.choice(TRIGGER_VERBS),)
        doc.body_types[event] += 1
    else:
        trigger, words = "event_mention", (rng.choice(TRIGGER_NOUNS),)
    start, end = doc.place(sent, doc.slot(rng, sent, 1), words)
    doc.ann(trigger, sent, start, end, ev)
    doc.ann(category, sent, start, end, ev)
    doc.event_sentence[event] = sent
    doc.category[event] = category

    def arg(tag, words, chance=1.0):
        if rng.random() >= chance:
            return None
        at = doc.slot(rng, sent, len(words))
        if at is None:
            return None
        start, end = doc.place(sent, at, list(words))
        return doc.ann(tag, sent, start, end, ev)

    arg("event_time", time_words)
    arg("event_place", rng.choice(places), spec["place"])
    for _ in range(spec["participants"]):
        if rng.random() >= spec["participant"]:
            continue
        word = rng.choice(sorted(participants))
        with_attr = rng.random() < spec["attr"]
        words = [rng.choice(PART_ATTRS)[1], word] if with_attr else [word]
        head = arg("participant_type", words)
        if head is None:
            continue
        doc.ann(participants[word], sent, head.start, head.end, ev)
        if with_attr:
            attr_tag = next(t for t, w in PART_ATTRS if w == words[0])
            doc.ann(attr_tag, sent, head.start, head.start + 1, ev)
            # attribute vs. the head's semantic tag: no licensing clause covers it
            doc.lint.append(("E030", sent))
            doc.attr_e030[event] += 1
    arg("participant_count", rng.choice(COUNTS), spec["count"])
    if rng.random() < spec["organizer"]:
        name, semantic = rng.choice(ORGANIZERS)
        with_attr = rng.random() < spec["attr"]
        attr_tag, attr_word = rng.choice(ORG_ATTRS)
        head = arg("organizer_name", ((attr_word,) if with_attr else ()) + name)
        if head is not None:
            doc.ann(semantic, sent, head.start, head.end, ev)
            if with_attr:
                doc.ann(attr_tag, sent, head.start, head.start + 1, ev)
                doc.lint.append(("E030", sent))
                doc.attr_e030[event] += 1
    if rng.random() < spec["facility"]:
        tag, words = rng.choice(FACILITIES)
        fac = arg(tag, words)
        if fac is not None and rng.random() < spec["twin"]:
            doc.ann(rng.choice(TARGETS)[0], sent, fac.start, fac.end, ev)  # facility+target twin
    if rng.random() < spec["target"]:
        tag, words = rng.choice(TARGETS)
        arg(tag, words)


def clean_protest_doc(rng: random.Random, doc_id: str, spec: dict) -> Doc:
    labels = {"protest": "protest"}
    if rng.random() < 0.8:
        labels["violent"] = rng.choice(("violent", "non_violent"))
    if rng.random() < 0.8:
        labels["demand"] = rng.choice(("non_economic", "economic_non_welfare", "economic_welfare"))
    doc = Doc(doc_id, labels, comment_events=spec["comment_events"])
    filler = FILLER_INTL if spec["intl"] else FILLER
    places = PLACES_INTL if spec["intl"] else PLACES
    participants = PARTICIPANTS_INTL if spec["intl"] else PARTICIPANTS

    n_sents = rng.randint(*spec["sentences"])
    n_events = min(rng.randint(*spec["events"]), n_sents - 1)
    title = spec["title"] and rng.random() < 0.7
    first = 1 if title else 0
    event_sents = sorted(rng.sample(range(first, n_sents), min(n_events, n_sents - first)))
    shared = spec["shared"]  # share of event sentences that host two events
    times = _time_texts(rng, 2 * len(event_sents) + 4)
    doc.time_pool = times[2 * len(event_sents):]
    event = 0
    for index in range(n_sents):
        if title and index == 0:
            length = rng.randint(6, 10)
            doc.add_sentence([rng.choice(TITLE_WORDS) for _ in range(length)], None)
            continue
        if index in event_sents:
            length = rng.randint(*spec["event_len"])
            sent = doc.add_sentence([rng.choice(filler) for _ in range(length)], 1)
            two = rng.random() < shared
            event += 1
            _add_event(doc, rng, sent, event, times[event - 1], spec, places, participants)
            if two:
                event += 1
                _add_event(doc, rng, sent, event, times[event - 1], spec, places,
                           participants)
                words = rng.choice(places)
                at = doc.slot(rng, sent, len(words))
                if at is not None:
                    start, end = doc.place(sent, at, list(words))
                    # the same tokens serve two disjoint events
                    doc.ann("event_place", sent, start, end, {event - 1})
                    doc.ann("event_place", sent, start, end, {event})
            if spec["multi"] and two and rng.random() < 0.8 and event - 1 >= 2:
                word = rng.choice(sorted(participants))
                at = doc.slot(rng, sent, 1)
                if at is not None:
                    start, end = doc.place(sent, at, [word])
                    doc.ann("participant_type", sent, start, end, {event - 1, event})
                    doc.ann(participants[word], sent, start, end, {event - 1, event})
        else:
            length = rng.randint(*spec["filler_len"])
            label = rng.choices((0, 2, None), spec["filler_labels"])[0]
            doc.fillers.append(doc.add_sentence([rng.choice(filler) for _ in range(length)], label))

    if title and event >= 1:
        # title overlay: document_title over the whole title, event 1's trigger,
        # semantic tag and place inside it
        length = len(doc.tokens[0])
        doc.ann("document_title", 0, 0, length, {1})
        start, end = doc.place(0, 1, [rng.choice(TRIGGER_VERBS)])
        doc.ann("event_type", 0, start, end, {1})
        doc.ann(doc.category[1], 0, start, end, {1})
        words = rng.choice(places)
        at = doc.slot(rng, 0, len(words))
        if at is not None:
            start, end = doc.place(0, at, list(words))
            doc.ann("event_place", 0, start, end, {1})
        doc.title_events.add(1)
    if spec["confidence"]:
        for ann in doc.anns:
            if rng.random() < spec["confidence"]:
                ann.confidence = rng.choice((0.5, 0.75, 0.8, 0.9, 1.0))
            if rng.random() < spec["confidence"] / 2:
                ann.comment = rng.choice(("revisar", "checked", "dúvida", "ok ✓"))
    return doc


def sentences_only_doc(rng: random.Random, doc_id: str, spec: dict) -> Doc:
    labels = {"protest": "no_protest"} if rng.random() < 0.93 else {}
    doc = Doc(doc_id, labels)
    filler = FILLER_INTL if spec["intl"] else FILLER
    for _ in range(rng.randint(*spec["sentences"])):
        length = rng.randint(*spec["filler_len"])
        label = rng.choices((0, 2, None), (0.8, 0.05, 0.15))[0]
        doc.fillers.append(doc.add_sentence([rng.choice(filler) for _ in range(length)], label))
    return doc


# --------------------------------------------------------------------------
# planted defects: each gadget adds exactly the diagnostics it records


def _event_gadget_target(doc: Doc, rng: random.Random, trigger: bool = False):
    events = [e for e in sorted(doc.event_sentence) if e not in doc.locked
              and not (trigger and e in doc.trigger_gadget)]
    return rng.choice(events) if events else None


def _arg_gadget(doc: Doc, rng: random.Random, rule: str) -> bool:
    """Gadgets that add arguments to an event in its own sentence."""
    event = _event_gadget_target(doc, rng)
    if event is None:
        return False
    sent = doc.event_sentence[event]
    ev = {event}
    if rule == "W101":
        words = [rng.choice(WEEKDAYS), ","]
        spans = [("event_time", 0, 2)]
    elif rule == "W102":
        words = rng.choice((["an", "overpass"], ["a", "highway"]))
        spans = [("event_place", 0, 2)]
    elif rule == "W103":
        words = rng.choice((["the", "square"], ["the", "capital"]))
        spans = [("event_place", 0, 2)]
    elif rule == "W130":
        words = list(rng.choice(COUNTRIES))
        spans = [("event_place", 0, len(words))]
    elif rule == "W131":
        words = list(rng.choice((("about", "300"), ("more", "than", "2,000"), ("nearly", "500"),
                                 ("as", "many", "as", "90"), ("over", "40"))))
        spans = [("participant_count", 0, len(words))]
    elif rule == "E021":
        words = [rng.choice(TRIGGER_NOUNS)]
        spans = [("event_mention", 0, 1)]  # trigger without a semantic tag
    elif rule == "E022":
        words = [rng.choice(("porters", "cleaners"))]
        spans = [("participant_type", 0, 1)]
    elif rule == "E023":
        words = ["Sangharsh", "Samiti"]
        spans = [("organizer_name", 0, 2)]
    elif rule == "E030":
        words = ["Gandhi", "Chowk"]
        spans = [("event_place", 0, 2), ("event_time", 1, 2)]
    elif rule == "W120":
        words = ["Town", "Hall"]
        spans = [("facility_name", 0, 2), ("urban_location_identifier", 0, 1)]
    else:  # I150: one surface, two participant semantic tags
        surfaces = {"pensioners", "retirees", "hawkers", "weavers", "miners"}
        surfaces -= {tok for toks in doc.tokens for tok in toks}
        if not surfaces:
            return False
        word = rng.choice(sorted(surfaces))
        first, second = rng.sample(("people", "worker", "activist", "peasant"), 2)
        at_a = doc.slot(rng, sent, 1)
        if at_a is None:
            return False
        doc.used[sent][at_a] = True
        at_b = doc.slot(rng, sent, 1)
        if at_b is None:
            doc.used[sent][at_a] = False
            return False
        for at, semantic in ((at_a, first), (at_b, second)):
            doc.place(sent, at, [word])
            doc.ann("participant_type", sent, at, at + 1, ev)
            doc.ann(semantic, sent, at, at + 1, ev)
        doc.lint.append(("I150", sent))
        doc.touched.add(event)
        return True
    at = doc.slot(rng, sent, len(words))
    if at is None:
        return False
    doc.place(sent, at, words)
    for tag, lo, hi in spans:
        doc.ann(tag, sent, at + lo, at + hi, ev)
    doc.lint.append((rule, sent))
    doc.touched.add(event)
    return True


def _trigger_gadget(doc: Doc, rng: random.Random, rule: str) -> bool:
    """Gadgets that add a trigger to an event (at most one per event)."""
    event = _event_gadget_target(doc, rng, trigger=True)
    if event is None:
        return False
    ev = {event}
    category = doc.category[event]
    if rule == "W111":
        fillers = [s for s in doc.fillers if doc.sent_labels[s] in (0, 2)]
        if not fillers:
            return False
        sent = rng.choice(fillers)
        doc.fillers.remove(sent)
        words, tag, semantic = [rng.choice(TRIGGER_NOUNS)], "event_mention", category
        location = sent
    else:
        sent = doc.event_sentence[event]
        if rule == "W112":
            if doc.body_types[event]:
                return False  # a second event_type outside the title would be E021
            words, tag, semantic = [rng.choice(TOKEN_EVENT_WORDS)], "event_type", category
            doc.body_types[event] += 1
            location = sent
        else:  # W142: a second trigger with another semantic category
            words, tag = [rng.choice(TRIGGER_NOUNS)], "event_mention"
            semantic = rng.choice([c for c in EVENT_SEM if c != category])
            # reported at the event's earliest categorized trigger
            location = 0 if event in doc.title_events else sent
    at = doc.slot(rng, sent, 1)
    if at is None:
        return False
    doc.place(sent, at, words)
    doc.ann(tag, sent, at, at + 1, ev)
    doc.ann(semantic, sent, at, at + 1, ev)
    doc.lint.append((rule, location))
    doc.trigger_gadget.add(event)
    doc.touched.add(event)
    return True


def _filler_gadget(doc: Doc, rng: random.Random, rule: str) -> bool:
    fillers = [s for s in doc.fillers if doc.sent_labels[s] in (0, 2)]
    if not fillers:
        return False
    sent = rng.choice(fillers)
    if rule == "W110":
        doc.sent_labels[sent] = 1  # labeled 1, no trigger
        doc.lint.append(("W110", sent))
    elif rule == "E010":
        event = _event_gadget_target(doc, rng)
        if event is None or not doc.time_pool:
            return False
        start, end = doc.place(sent, 0, list(doc.time_pool.pop()))
        doc.ann("event_time", sent, start, end, {event})
        doc.lint.append(("E010", sent))
        doc.touched.add(event)
    elif rule == "W141":
        if doc.max_event() != len(doc.event_sentence) or not doc.time_pool:
            return False  # keep event numbers contiguous
        event = doc.max_event() + 1
        start, end = doc.place(sent, 0, list(doc.time_pool.pop()))
        doc.ann("event_time", sent, start, end, {event})
        doc.lint += [("E010", sent), ("E020", sent)]
        doc.separation += [("E020", sent), ("W141", sent)]
        doc.locked.add(event)
    else:  # W140: a second event identical to an untouched one on every axis
        candidates = [
            e for e in sorted(doc.event_sentence)
            if e not in doc.locked | doc.touched | doc.title_events
            and all(a.sent == doc.event_sentence[e] and a.events == {e}
                    for a in doc.anns if e in a.events)
        ]
        if not candidates or doc.max_event() != len(doc.event_sentence):
            return False
        source = rng.choice(candidates)
        event = doc.max_event() + 1
        body = doc.event_sentence[source]
        doc.tokens[sent] = list(doc.tokens[body])
        doc.used[sent] = list(doc.used[body])
        doc.sent_labels[sent] = 1
        for ann in [a for a in doc.anns if source in a.events]:
            doc.ann(ann.tag, sent, ann.start, ann.end, {event})
        doc.lint += [("E030", sent)] * doc.attr_e030[source]
        doc.separation.append(("W140", sent))
        doc.event_sentence[event] = sent
        doc.locked |= {source, event}
    doc.fillers.remove(sent)
    return True


GADGETS = {
    **{r: _arg_gadget for r in ("W101", "W102", "W103", "W130", "W131", "E021", "E022",
                                "E023", "E030", "W120", "I150")},
    **{r: _trigger_gadget for r in ("W111", "W112", "W142")},
    **{r: _filler_gadget for r in ("W110", "E010", "W141", "W140")},
}
GADGET_RULES = sorted(GADGETS)


def plant_flat_numbering(doc: Doc, rng: random.Random) -> None:
    """W121 (a gap in the event numbers) or W122 (explicit 'Event 1')."""
    if rng.random() < 0.5:
        top = doc.max_event()
        if top < 2 or top != len(doc.event_sentence) or doc.separation:
            return
        moved = []
        for i, ann in enumerate(doc.anns):
            if top in ann.events:
                doc.anns[i] = ann.copy(events=(ann.events - {top}) | {top + 1},
                                       comment_form=True)
                moved.append(doc.anns[i])
        carrier = min((a for a in moved if a.tag not in DOC_INFO), key=Ann.key)
        doc.lint.append(("W121", carrier.sent))
    else:
        ones = [a for a in doc.anns if a.events == {1} and not a.comment_form]
        if ones:
            ann = rng.choice(ones)
            ann.comment_form = True
            doc.lint.append(("W122", ann.sent))


# --------------------------------------------------------------------------
# bad lines


def bad_line(rng: random.Random, kind: str, doc: Doc, earlier_id: str | None) -> str:
    obj = doc.obj()
    anns = obj["annotations"]
    if kind == "malformed_record":
        text = dumps(obj)
        return text[: len(text) // 2]
    if kind == "unknown_tag" and anns:
        rng.choice(anns)["tag"] = "riot_police"
    elif kind == "bad_span" and anns:
        ann = rng.choice(anns)
        ann["end"] = len(obj["sentences"][ann["sentence"]]["tokens"]) + 2
    elif kind == "bad_label":
        obj["labels"]["protest"] = "maybe"
    elif kind == "bad_event_ref" and anns:
        rng.choice(anns)["events"] = "Evnt 2"
    elif kind == "duplicate_id" and earlier_id is not None:
        obj["doc_id"] = earlier_id  # a later line repeating an accepted doc_id
    elif kind == "duplicate_id" and len(anns) >= 2:
        anns[1]["id"] = anns[0]["id"]
    else:
        raise ValueError(f"cannot plant {kind} in {doc.doc_id}")
    return dumps(obj)


# --------------------------------------------------------------------------
# annotator B


def perturb(doc: Doc, rng: random.Random, rate: float) -> Doc:
    """Annotator B's copy: same tokens, perturbed spans and labels."""
    labels = dict(doc.labels)
    if rng.random() < rate * 2:
        if labels.get("protest") == "protest":
            labels = {"protest": "no_protest"}
        else:
            labels = {"protest": "protest", "violent": rng.choice(("violent", "non_violent"))}
    elif labels.get("protest") == "protest" and rng.random() < rate * 2:
        labels["violent"] = rng.choice(("violent", "non_violent", None))
        labels["demand"] = rng.choice(("non_economic", "economic_welfare", None))
    b = Doc(doc.doc_id, labels)
    b.tokens = doc.tokens
    b.sent_labels = [
        rng.choice((0, 1, 2, None)) if rng.random() < rate else label for label in doc.sent_labels
    ]
    serial = 0
    for ann in doc.anns:
        r = rng.random()
        if r < rate:
            continue  # dropped
        n_tokens = len(doc.tokens[ann.sent])
        if r < 2 * rate:
            start, end = ann.start, ann.end
            move = rng.randrange(4)
            if move == 0 and start > 0:
                start -= 1
            elif move == 1 and end - start > 1:
                start += 1
            elif move == 2 and end < n_tokens:
                end += 1
            elif end - start > 1:
                end -= 1
            b.anns.append(ann.copy(start=start, end=end))
        elif r < 3 * rate and ann.tag in FAMILY_OF:
            tag = rng.choice([t for t in FAMILY_OF[ann.tag] if t != ann.tag])
            b.anns.append(ann.copy(tag=tag))
        else:
            b.anns.append(ann)
        if rng.random() < rate:
            sent = rng.randrange(len(doc.tokens))
            length = len(doc.tokens[sent])
            start = rng.randrange(length)
            end = min(length, start + rng.randint(1, 3))
            serial += 1
            fam = rng.choice(TAG_FAMILIES)
            b.anns.append(Ann(f"x{serial}", rng.choice(fam), sent, start, end, {1}))
    return b


# --------------------------------------------------------------------------
# expected results


def stats_of(docs: list[Doc]) -> dict:
    """What ``glocon stats --format json`` must print."""
    tags, protest, violent, demand, sentence = Counter(), Counter(), Counter(), Counter(), Counter()
    per_doc = {}
    for doc in docs:
        for label in doc.sent_labels:
            sentence["unlabeled" if label is None else str(label)] += 1
        protest[doc.labels.get("protest") or "unlabeled"] += 1
        violent[doc.labels.get("violent") or "unlabeled"] += 1
        demand[doc.labels.get("demand") or "unlabeled"] += 1
        events = set()
        for ann in doc.anns:
            tags[ann.tag] += 1
            events |= ann.events
        per_doc[doc.doc_id] = len(events)
    return {
        "documents": len(docs),
        "sentences": sum(len(d.tokens) for d in docs),
        "annotations": sum(len(d.anns) for d in docs),
        "events_total": sum(per_doc.values()),
        "tag_counts": dict(sorted(tags.items())),
        "protest_labels": dict(sorted(protest.items())),
        "violent_labels": dict(sorted(violent.items())),
        "demand_labels": dict(sorted(demand.items())),
        "sentence_labels": dict(sorted(sentence.items())),
        "events_per_doc": per_doc,
    }


def event_keys(docs: list[Doc]) -> list[list]:
    """(doc_id, event_number) of every assembled event, in export order."""
    keys = set()
    for doc in docs:
        for ann in doc.anns:
            if ann.tag not in DOC_INFO and ann.tag not in SEMANTIC:
                keys.update((doc.doc_id, n) for n in ann.events)
    return [list(k) for k in sorted(keys)]


def strict_counts(a_docs: list[Doc], b_docs: list[Doc]) -> dict:
    """Strict span tp/fp/fn of B against A: one-to-one coterminous matches."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for a, b in zip(a_docs, b_docs):
        ca = Counter((x.tag, x.sent, x.start, x.end) for x in a.anns)
        cb = Counter((x.tag, x.sent, x.start, x.end) for x in b.anns)
        for key in ca.keys() | cb.keys():
            hit = min(ca[key], cb[key])
            tp[key[0]] += hit
            fn[key[0]] += ca[key] - hit
            fp[key[0]] += cb[key] - hit
    tags = sorted(t for t in tp.keys() | fp.keys() | fn.keys() if tp[t] or fp[t] or fn[t])
    return {
        "per_tag": {t: [tp[t], fp[t], fn[t]] for t in tags},
        "micro": [sum(tp.values()), sum(fp.values()), sum(fn.values())],
        "a_counts": dict(Counter(x.tag for d in a_docs for x in d.anns)),
        "b_counts": dict(Counter(x.tag for d in b_docs for x in d.anns)),
    }


def label_pairs(a_docs: list[Doc], b_docs: list[Doc]) -> dict:
    pairs = {"doc_protest": [], "doc_violent": [], "doc_demand": [], "sentence": []}
    for a, b in zip(a_docs, b_docs):
        for key in ("protest", "violent", "demand"):
            pairs[f"doc_{key}"].append([a.labels.get(key), b.labels.get(key)])
        for la, lb in zip(a.sent_labels, b.sent_labels):
            pairs["sentence"].append([
                None if la is None else str(la), None if lb is None else str(lb)
            ])
    return pairs


# --------------------------------------------------------------------------
# workloads

_BASE_SPEC = dict(place=0.6, participants=1, participant=0.4, attr=0.0, count=0.2,
                   organizer=0.2, facility=0.1, twin=0.0, target=0.1, shared=0.0,
                   multi=False, title=False, intl=False, comment_events=False,
                   confidence=0.0, filler_labels=(0.85, 0.15, 0.0))

WORKLOADS = {
    "bulk": dict(
        _BASE_SPEC, docs=700, protest_share=1.0, sentences=(12, 16), events=(2, 4),
        event_len=(14, 20), filler_len=(8, 16), defect_docs=0.85, defects=(1, 6),
        bad_lines=0, agree_rate=0.04,
    ),
    "dense": dict(
        _BASE_SPEC, docs=60, protest_share=1.0, sentences=(24, 30), events=(19, 24),
        event_len=(30, 40), filler_len=(10, 20), place=0.9, participants=2, participant=0.8,
        attr=0.1, count=0.5, organizer=0.6, facility=0.5, twin=0.5, target=0.4,
        shared=0.25, title=True, filler_labels=(0.6, 0.2, 0.2), defect_docs=0.8,
        defects=(2, 6), bad_lines=0, agree_rate=0.06,
    ),
    "flat": dict(
        _BASE_SPEC, docs=1200, protest_share=0.3, sentences=(8, 14), events=(2, 4),
        event_len=(16, 24), filler_len=(8, 18), place=0.8, participants=1, participant=0.6,
        count=0.3, organizer=0.3, facility=0.2, target=0.2, shared=0.4, multi=True,
        title=True, intl=True, comment_events=True, confidence=0.1,
        filler_labels=(0.8, 0.1, 0.1), defect_docs=0.5, defects=(1, 3), bad_lines=0.02,
        agree_rate=0.05,
    ),
}


def generate(workload: str, seed: int) -> dict:
    """Build one workload: corpus A, annotator B's copy and the expected results.

    Returns a dict with ``a`` and ``b`` (corpus bytes) and ``expected``
    (a JSON-serializable record).
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    prefix = {"bulk": "b", "dense": "d", "flat": "f"}[workload]
    docs: list[Doc] = []
    protest = set(rng.sample(range(spec["docs"]), round(spec["protest_share"] * spec["docs"])))
    for i in range(spec["docs"]):
        doc_id = f"{prefix}-{seed % 1000:03d}-{i:06d}"
        if i in protest:
            doc = clean_protest_doc(rng, doc_id, spec)
            if rng.random() < spec["defect_docs"]:
                for _ in range(rng.randint(*spec["defects"])):
                    rule = rng.choice(GADGET_RULES)
                    GADGETS[rule](doc, rng, rule)
            if workload == "flat" and rng.random() < 0.3:
                plant_flat_numbering(doc, rng)
        else:
            doc = sentences_only_doc(rng, doc_id, spec)
            if doc.labels and rng.random() < 0.1:
                sent = rng.choice(doc.fillers)
                doc.sent_labels[sent] = 1
                doc.lint += [("E050", sent), ("W110", sent)]
        docs.append(doc)

    # bad lines: every parse error kind at least once, spread over the file
    lines = [dumps(d.obj()) for d in docs]
    good = list(range(len(docs)))
    bad: list[tuple[int, str]] = []  # (position in `lines`, kind)
    n_bad = round(spec["bad_lines"] * len(docs))
    if n_bad:
        kinds = list(PARSE_ERROR_KINDS) + [rng.choice(PARSE_ERROR_KINDS)
                                           for _ in range(max(0, n_bad - 6))]
        protest_idx = [i for i, d in enumerate(docs) if d.anns]
        victims = sorted(rng.sample(protest_idx, len(kinds)))
        for pos, kind in zip(victims, kinds):
            earlier = None
            if kind == "duplicate_id" and rng.random() < 0.5 and pos - 1 in good:
                earlier = docs[pos - 1].doc_id
            lines[pos] = bad_line(rng, kind, docs[pos], earlier)
            good.remove(pos)
            bad.append((pos + 1, kind))
    good_docs = [docs[i] for i in good]
    corpus_a = "".join(line + "\n" for line in lines).encode("utf-8")
    canonical = "".join(lines[i] + "\n" for i in good).encode("utf-8")

    b_docs = [perturb(d, rng, spec["agree_rate"]) for d in good_docs]
    corpus_b = "".join(dumps(d.obj()) + "\n" for d in b_docs).encode("utf-8")

    expected = {
        "workload": workload,
        "seed": seed,
        "bad_lines": [list(b) for b in bad],
        "stats": stats_of(good_docs),
        "event_keys": event_keys(good_docs),
        "lint": {d.doc_id: [list(x) for x in d.lint] for d in good_docs if d.lint},
        "separation": {d.doc_id: [list(x) for x in d.separation] for d in good_docs
                       if d.separation},
        "roundtrip_sha256": hashlib.sha256(canonical).hexdigest(),
        "agree": {
            "pairs": len(good_docs),
            "strict": strict_counts(good_docs, b_docs),
            "labels": label_pairs(good_docs, b_docs),
        },
    }
    return {"a": corpus_a, "b": corpus_b, "expected": expected}
