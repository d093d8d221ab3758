"""Rule engine that checks documents against the annotation manual's
machine-checkable rules.

CATALOG is the one rule registry: ``@rule(id, severity, title)`` enters
each check under its stable id, default severity and short description.
W140 and W141, which ``check_separation`` emits over assembled events,
are entries without a check.  A check yields findings over a shared
per-document index, and ``validate_document`` turns them into
diagnostics in one loop.  It is a pure function of the document and the
configuration; diagnostics come back in canonical order (sentence, span
start, rule id).

The index extends :class:`~glocon.model.DocumentView`, which event
assembly reads too, so the rules check the same semantic pairings and
title test that assembly uses.

Severities can be overridden and rules disabled per run through
:class:`LintConfig`.  The lexicons (articles, estimation qualifiers,
token event words, country gazetteer) default to the English lists and
can be replaced for other corpus languages.  ``LintConfig`` and
``Lexicons`` are namedtuples whose constructor, ``_make`` and ``_replace``
check every field; a config resolves its ``rules`` once.
"""

from __future__ import annotations

import enum
import json
import unicodedata
from collections import Counter, defaultdict, namedtuple
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string

from .io import TOO_DEEP, nests_too_deep
from .model import (
    ACTORS,
    Annotation,
    DocumentRecord,
    DocumentView,
    FACILITY_TAGS,
    Focus,
    LOCATION_IDENTIFIER_TAGS,
    ProtestLabel,
    SEMANTIC_HOSTS,
    SentenceLabel,
    TagId,
    TARGET_TAGS,
    TokenSpan,
    _Validated,
    coterminous,
    holds_attribute,
    overlaps,
)


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


_SEVERITY_ORDER = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


def count_at_or_above(totals: Mapping[Severity, int], threshold: Severity) -> int:
    """How many of the diagnostics tallied in ``totals`` (severity -> count)
    are at ``threshold`` or more severe."""
    floor = _SEVERITY_ORDER[threshold]
    return sum(n for sev, n in totals.items() if _SEVERITY_ORDER[sev] >= floor)


# check is None for a rule that validate_document does not run.
Rule = namedtuple("Rule", "id severity title check")


# What a rule yields: (sentence, span or None, annotation ids, message).
Finding = tuple[int, "TokenSpan | None", tuple[str, ...], str]
Check = Callable[["_DocIndex"], Iterable[Finding]]

# Filled by @rule in registration order; str-keyed so config files and
# diagnostics stay plain text.
CATALOG: dict[str, Rule] = {}


def rule(rule_id: str, severity: Severity, title: str) -> Callable[[Check | None], Check | None]:
    """The decorator that adds a document check to CATALOG as rule ``rule_id``."""

    def register(check: Check | None) -> Check | None:
        CATALOG[rule_id] = Rule(rule_id, severity, title, check)
        return check

    return register


class Diagnostic(
    namedtuple("Diagnostic", "rule severity doc_id sentence span annotation_ids message")
):
    """One rule violation at a resolvable position in a document."""

    __slots__ = ()

    def sort_key(self) -> tuple:
        start = self.span.start if self.span is not None else -1
        return (self.sentence, start, self.rule, self.annotation_ids)

    def render(self) -> str:
        if self.span is not None:
            where = f"{self.doc_id}:{self.sentence}:{self.span.start}-{self.span.end}"
        else:
            where = f"{self.doc_id}:{self.sentence}:-"
        return f"{where} {self.rule} {self.severity.value} {self.message}"

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "doc_id": self.doc_id,
            "sentence": self.sentence,
            "start": self.span.start if self.span else None,
            "end": self.span.end if self.span else None,
            "annotations": list(self.annotation_ids),
            "message": self.message,
        }

    def to_json(self) -> str:
        """``to_obj()`` as ``json.dumps(..., indent=2)`` lays it out as an
        element of a list: indented one level, without a separator.

        Strings go through the C string encoder; ``json.dumps`` with an
        indent runs the pure-Python encoder for everything.
        """
        q = _json_string
        span = self.span
        start, end = ("null", "null") if span is None else (span.start, span.end)
        anns = (
            "[\n      " + ",\n      ".join(map(q, self.annotation_ids)) + "\n    ]"
            if self.annotation_ids
            else "[]"
        )
        return (
            f'  {{\n    "rule": {q(self.rule)},\n    "severity": {q(self.severity.value)},'
            f'\n    "doc_id": {q(self.doc_id)},\n    "sentence": {self.sentence},'
            f'\n    "start": {start},\n    "end": {end},\n    "annotations": {anns},'
            f'\n    "message": {q(self.message)}\n  }}'
        )


DEFAULT_INDEFINITE_ARTICLES = frozenset({"a", "an"})
DEFAULT_DEFINITE_ARTICLES = frozenset({"the"})
DEFAULT_ESTIMATION_QUALIFIERS = ("more than", "nearly", "as many as", "about", "over")
DEFAULT_TOKEN_EVENT_WORDS = frozenset({"incident", "event", "protest", "agitation"})
# The corpus' focus countries; extend or replace via configuration.
DEFAULT_COUNTRIES = frozenset({"india", "china", "south africa", "argentina", "brazil"})


class ConfigError(ValueError):
    """A lint configuration references unknown rules or keys, or has ill-typed values."""


# What a word list or the disabled rules may come as: never a single str.
_COLLECTIONS = (list, tuple, set, frozenset)
_SEQUENCES = (list, tuple)  # for the estimation qualifiers, which W131 tries in order


class Lexicons(
    _Validated,
    namedtuple("Lexicons", "articles_indefinite articles_definite estimation_qualifiers "
               "token_event_words countries"),
):
    """Per-language word lists used by the span-shape rules; the field names
    are the keyword names and a config's lexicon keys."""

    __slots__ = ()

    def __new__(
        cls,
        articles_indefinite: Collection[str] = DEFAULT_INDEFINITE_ARTICLES,
        articles_definite: Collection[str] = DEFAULT_DEFINITE_ARTICLES,
        estimation_qualifiers: Sequence[str] = DEFAULT_ESTIMATION_QUALIFIERS,
        token_event_words: Collection[str] = DEFAULT_TOKEN_EVENT_WORDS,
        countries: Collection[str] = DEFAULT_COUNTRIES,
    ) -> Lexicons:
        given = (articles_indefinite, articles_definite, estimation_qualifiers,
                 token_event_words, countries)
        for key, words in zip(cls._fields, given):
            kinds = _SEQUENCES if key == "estimation_qualifiers" else _COLLECTIONS
            if not isinstance(words, kinds) or not all(type(w) is str and w.strip() for w in words):
                raise ConfigError(f"lexicon {key} must be a list of non-blank strings")
        return tuple.__new__(cls, (
            frozenset(w.casefold() for w in articles_indefinite),
            frozenset(articles_definite),
            tuple(estimation_qualifiers),
            frozenset(w.casefold() for w in token_event_words),
            frozenset(c.casefold() for c in countries),
        ))


class LintConfig(_Validated, namedtuple("LintConfig", "lexicons rules")):
    """Severity overrides, disabled rules and lexicons for one run.  ``rules``
    holds the (rule id, severity, check) of each rule it runs, in catalog
    order."""

    __slots__ = ()

    def __new__(
        cls,
        severity_overrides: Mapping[str, Severity | str] = {},  # read, never kept
        disabled_rules: Collection[str] = frozenset(),
        lexicons: Lexicons = Lexicons(),
    ) -> LintConfig:
        if not isinstance(severity_overrides, Mapping):
            raise ConfigError("severity_overrides must be a JSON object")
        overrides = {}
        for rule_id, sev in severity_overrides.items():
            try:
                overrides[rule_id] = Severity(sev)
            except ValueError:
                raise ConfigError(f"bad severity {sev!r} for rule {rule_id!r}") from None
        for rule_id in overrides:
            if rule_id not in CATALOG:
                raise ConfigError(f"severity override for unknown rule {rule_id!r}")
        if not isinstance(disabled_rules, _COLLECTIONS):
            raise ConfigError("disabled_rules must be a JSON list")
        if not all(type(rule_id) is str for rule_id in disabled_rules):
            raise ConfigError("disabled_rules must be a list of rule ids")
        for rule_id in disabled_rules:
            if rule_id not in CATALOG:
                raise ConfigError(f"cannot disable unknown rule {rule_id!r}")
        if not isinstance(lexicons, Lexicons):
            raise ConfigError("lexicons must be a Lexicons")
        rules = tuple(
            (rule_id, overrides.get(rule_id, severity), check)
            for rule_id, severity, _, check in CATALOG.values()
            if check is not None and rule_id not in disabled_rules
        )
        return tuple.__new__(cls, (lexicons, rules))

    @classmethod
    def _make(cls, iterable: Iterable) -> LintConfig:
        """Build through the constructor from the lexicons and the severities the rules name."""
        lexicons, rules = iterable
        if type(rules) is not tuple or not all(type(r) is tuple and len(r) == 3 for r in rules):
            raise ConfigError("rules must be a tuple of (rule id, severity, check) triples")
        overrides = {rule_id: sev for rule_id, sev, _ in rules if type(rule_id) is str}
        built = cls(overrides, CATALOG.keys() - overrides, lexicons)
        if built.rules != rules:  # the rules must come out as given
            raise ConfigError("rules must be the rules of a config, in catalog order")
        return built

    def __reduce__(self) -> tuple:
        return self._make, (tuple(self),)  # pickle and copy: __new__ does not take the fields

    @classmethod
    def from_obj(cls, obj: dict) -> "LintConfig":
        """Decode a config's JSON object, where null counts as absent; the
        constructors check the values."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {"severity_overrides", "disabled_rules", "lexicons"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        given = {key: value for key, value in obj.items() if value is not None}
        lex_obj = given.get("lexicons", {})
        if type(lex_obj) is not dict:
            raise ConfigError("lexicons must be a JSON object")
        unknown = set(lex_obj).difference(Lexicons._fields)
        if unknown:
            raise ConfigError(f"unknown lexicon keys: {sorted(unknown)}")
        given["lexicons"] = Lexicons(**lex_obj)
        return cls(**given)


def load_config(path: str) -> LintConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8: {exc}") from None
    if nests_too_deep(text):  # as for corpus lines, whatever the caller's stack depth
        raise ConfigError(TOO_DEEP)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # invalid JSON, an integer past int()'s digit limit, or nesting past the recursion limit
        raise ConfigError(str(exc)) from None
    return LintConfig.from_obj(obj)


@lru_cache(maxsize=65536)
def is_punctuation_token(token: str) -> bool:
    """All characters in Unicode punctuation/symbol categories (P*, S*)."""
    return bool(token) and all(unicodedata.category(ch)[0] in "PS" for ch in token)


# Per-focus *_type / *_name pairs that must never overlap each other.
_NAME_EXCLUSIVE_PAIRS = frozenset(
    {FACILITY_TAGS, TARGET_TAGS, *(actor.heads for actor in ACTORS.values())}
)


def allowed_overlap(a: Annotation, b: Annotation) -> bool:
    """Is an overlap of these two annotations licensed?

    Licensing clauses (any one suffices):
      i.   either annotation is the document title;
      ii.  a participant attribute tag contained in a participant_type span;
      iii. an organizer attribute tag contained in an organizer type/name span;
      iv.  a semantic tag coterminous with its host kind;
      v.   the annotations belong to disjoint event sets;
      vi.  a facility tag paired with a target tag.

    Named-entity exclusivity overrides everything: a *_type tag may never
    overlap the *_name tag of the same focus.
    """
    ta, tb = a.tag, b.tag
    if frozenset({ta, tb}) in _NAME_EXCLUSIVE_PAIRS:
        return False
    # i. document title overlays all event information in the title
    if ta is TagId.DOCUMENT_TITLE or tb is TagId.DOCUMENT_TITLE:
        return True
    for host, attr in ((a, b), (b, a)):
        # ii, iii. actor attributes inside the heads that hold them
        if holds_attribute(host, attr):
            return True
        # iv. semantic tags sit coterminously on their hosts
        hosts_for = SEMANTIC_HOSTS.get(attr.tag.focus)
        if hosts_for is not None and host.tag in hosts_for and coterminous(host.span, attr.span):
            return True
    # v. same tokens may serve different events
    if a.events.isdisjoint(b.events):
        return True
    # vi. a facility that is at the same time the target
    if (ta in FACILITY_TAGS and tb in TARGET_TAGS) or (
        tb in FACILITY_TAGS and ta in TARGET_TAGS
    ):
        return True
    return False


class _DocIndex(DocumentView):
    """The document view plus the lookups only the rules need."""

    def __init__(self, doc: DocumentRecord, lexicons: Lexicons):
        super().__init__(doc)
        self.lexicons = lexicons
        self.anns = doc.annotations  # already in canonical order
        self.by_sentence: dict[int, list[Annotation]] = defaultdict(list)
        # (annotation, first token, last token), for the span-shape rules
        self.edge_tokens: list[tuple[Annotation, str, str]] = []
        sentences = doc.sentences
        for ann in self.anns:
            span = ann.span
            self.by_sentence[span.sentence].append(ann)
            toks = sentences[span.sentence].tokens
            self.edge_tokens.append((ann, toks[span.start], toks[span.end - 1]))
        self.trigger_events_by_sentence: dict[int, set[int]] = defaultdict(set)
        for trig in self.triggers:
            self.trigger_events_by_sentence[trig.span.sentence] |= trig.events
        self.trigger_events: set[int] = set().union(*self.trigger_events_by_sentence.values())
        self.argument_events: set[int] = set().union(*(a.events for a in self.arguments))
        self.semantic_events: set[int] = set().union(
            *(sem.events for sems in self.semantics.values() for sem in sems)
        )

    def text(self, ann: Annotation) -> str:
        return self.doc.span_text(ann.span)

    def tokens(self, ann: Annotation) -> tuple[str, ...]:
        span = ann.span
        return self.doc.sentences[span.sentence].tokens[span.start : span.end]


def _at(ann: Annotation, message: str, ids: tuple[str, ...] | None = None) -> Finding:
    """A finding at ``ann``'s span naming ``ids`` (by default ``ann`` alone)."""
    return (ann.span.sentence, ann.span, (ann.id,) if ids is None else ids, message)


def _unpaired(idx: _DocIndex, focus: Focus, no_semantic: str, no_host: str) -> Iterator[Finding]:
    """Hosts of ``focus`` without a coterminous semantic tag, then semantic
    tags of ``focus`` without a host.

    ``no_semantic`` and ``no_host`` are messages; ``{tag}`` in them names
    the unpaired annotation's tag.
    """
    hosted: set[str] = set()
    for host in idx.hosts[focus]:
        sems = idx.partners[host.id]
        hosted.update(sem.id for sem in sems)
        if not sems:
            yield _at(host, no_semantic.format(tag=host.tag.value))
    for sem in idx.semantics[focus]:
        if sem.id not in hosted:
            yield _at(sem, no_host.format(tag=sem.tag.value))


@rule("E010", Severity.ERROR, "argument in a sentence without a trigger of a shared event")
def _argument_without_trigger(idx: _DocIndex) -> Iterator[Finding]:
    trig_by_sent = idx.trigger_events_by_sentence
    for ann in idx.arguments:
        if ann.events.isdisjoint(trig_by_sent.get(ann.span.sentence, ())):
            if idx.in_title(ann):
                continue  # title content is annotated without trigger discipline
            yield _at(
                ann,
                f"{ann.tag.value} argument in a sentence with no trigger of "
                f"event(s) {sorted(ann.events)}",
            )


@rule("E020", Severity.ERROR, "event number referenced by arguments but has no trigger")
def _event_without_trigger(idx: _DocIndex) -> Iterator[Finding]:
    for number in sorted(idx.argument_events - idx.trigger_events):
        first = next(ann for ann in idx.arguments if number in ann.events)
        yield _at(first, f"event {number} is referenced by arguments but has no trigger annotation")


@rule("E021", Severity.ERROR, "event trigger discipline violated")
def _trigger_discipline(idx: _DocIndex) -> Iterator[Finding]:
    # at most one event_type inside and one outside the title, per event
    typed_by_event: dict[int, list[Annotation]] = defaultdict(list)
    for trig in idx.triggers:
        if trig.tag is TagId.EVENT_TYPE:
            for n in trig.events:
                typed_by_event[n].append(trig)
    for number in sorted(typed_by_event):
        in_title = [t for t in typed_by_event[number] if idx.in_title(t)]
        in_body = [t for t in typed_by_event[number] if not idx.in_title(t)]
        for group, where in ((in_body, "outside the title"), (in_title, "in the title")):
            if len(group) > 1:
                yield _at(
                    group[1],
                    f"event {number} has {len(group)} event_type tags {where}",
                    tuple(t.id for t in group),
                )
    # semantic tags and triggers pair up coterminously, one tag per trigger
    for trig in idx.triggers:
        sems = idx.partners[trig.id]
        if len(sems) > 1:
            yield _at(
                trig,
                f"trigger {trig.tag.value} has {len(sems)} semantic category tags",
                (trig.id, *(sem.id for sem in sems)),
            )
    yield from _unpaired(
        idx,
        Focus.EVENT_SEMANTIC,
        "trigger {tag} has no coterminous semantic category tag",
        "semantic tag {tag} is not coterminous with a trigger of its event",
    )


@rule("E022", Severity.ERROR, "participant_type and participant semantic tag not paired")
def _participant_pairing(idx: _DocIndex) -> Iterator[Finding]:
    return _unpaired(
        idx,
        Focus.PARTICIPANT_SEMANTIC,
        "participant_type without a coterminous participant semantic tag",
        "participant semantic tag {tag} without a coterminous participant_type",
    )


@rule("E023", Severity.ERROR, "organizer type/name and organizer semantic tag not paired")
def _organizer_pairing(idx: _DocIndex) -> Iterator[Finding]:
    return _unpaired(
        idx,
        Focus.ORGANIZER_SEMANTIC,
        "{tag} without a coterminous organizer semantic tag",
        "organizer semantic tag {tag} without a coterminous organizer type/name",
    )


@rule("E030", Severity.ERROR, "overlapping annotations not licensed by the overlap rules")
def _unlicensed_overlap(idx: _DocIndex) -> Iterator[Finding]:
    for sent_anns in idx.by_sentence.values():
        count = len(sent_anns)
        for i in range(count):
            a = sent_anns[i]
            a_end = a.span.end
            for j in range(i + 1, count):
                b = sent_anns[j]
                if b.span.start >= a_end:
                    break  # sorted by start; nothing later overlaps a
                # location-identifier/facility overlaps are W120's case
                if (
                    a.tag in LOCATION_IDENTIFIER_TAGS
                    and b.tag in FACILITY_TAGS
                    or b.tag in LOCATION_IDENTIFIER_TAGS
                    and a.tag in FACILITY_TAGS
                ):
                    continue
                if not allowed_overlap(a, b):
                    yield _at(
                        a, f"unlicensed overlap of {a.tag.value} and {b.tag.value}", (a.id, b.id)
                    )


@rule("E050", Severity.ERROR, "event-level content in a document labeled no_protest")
def _no_protest_content(idx: _DocIndex) -> Iterator[Finding]:
    if idx.doc.labels.protest is ProtestLabel.NO_PROTEST:
        for sent in idx.doc.sentences:
            anns_here = idx.by_sentence.get(sent.index)
            if anns_here:
                yield (
                    sent.index,
                    None,
                    tuple(a.id for a in anns_here),
                    "token annotations in a document labeled no_protest",
                )
            if sent.label is SentenceLabel.EVENT:
                yield (sent.index, None, (), "sentence labeled 1 in a document labeled no_protest")


@rule("W101", Severity.WARNING, "span starts or ends with a punctuation-only token")
def _punctuation_edge(idx: _DocIndex) -> Iterator[Finding]:
    for ann, first, last in idx.edge_tokens:
        if is_punctuation_token(first) or is_punctuation_token(last):
            yield _at(ann, f"{ann.tag.value} span starts or ends with punctuation")


@rule("W102", Severity.WARNING, "span begins with an indefinite article")
def _indefinite_article(idx: _DocIndex) -> Iterator[Finding]:
    indefinite = idx.lexicons.articles_indefinite
    for ann, first, _ in idx.edge_tokens:
        if first.casefold() in indefinite:
            yield _at(ann, f"{ann.tag.value} span begins with an indefinite article")


@rule("W103", Severity.WARNING, "span begins with lowercase definite article")
def _definite_article(idx: _DocIndex) -> Iterator[Finding]:
    definite = idx.lexicons.articles_definite
    for ann, first, _ in idx.edge_tokens:
        if first in definite:
            yield _at(ann, f"{ann.tag.value} span begins with a lowercase definite article")


@rule("W110", Severity.WARNING, "sentence labeled 1 contains no trigger annotation")
def _event_sentence_without_trigger(idx: _DocIndex) -> Iterator[Finding]:
    for sent in idx.doc.sentences:
        if sent.label is SentenceLabel.EVENT and not idx.trigger_events_by_sentence.get(
            sent.index
        ):
            yield (sent.index, None, (), "sentence labeled 1 contains no event_type or event_mention")


@rule("W111", Severity.WARNING, "trigger annotation in a sentence labeled 0 or 2")
def _trigger_in_non_event_sentence(idx: _DocIndex) -> Iterator[Finding]:
    for trig in idx.triggers:
        label = idx.doc.sentences[trig.span.sentence].label
        if label in (SentenceLabel.NON_EVENT, SentenceLabel.PLANNED):
            yield _at(trig, f"{trig.tag.value} in a sentence labeled {int(label)}")


@rule("W112", Severity.WARNING, "token event word tagged event_type despite a descriptive trigger")
def _token_event_word_typed(idx: _DocIndex) -> Iterator[Finding]:
    token_words = idx.lexicons.token_event_words
    token_typed: list[Annotation] = []
    descriptive_events: set[int] = set()
    for trig in idx.triggers:
        if idx.text(trig).casefold() in token_words:
            if trig.tag is TagId.EVENT_TYPE:
                token_typed.append(trig)
        else:
            descriptive_events |= trig.events
    for trig in token_typed:
        if not trig.events.isdisjoint(descriptive_events):
            yield _at(
                trig,
                f"token event word {idx.text(trig)!r} tagged event_type while its "
                "event has a descriptive trigger",
            )


@rule("W120", Severity.WARNING, "location identifier overlaps a facility annotation")
def _identifier_on_facility(idx: _DocIndex) -> Iterator[Finding]:
    for sent_anns in idx.by_sentence.values():
        identifiers = [a for a in sent_anns if a.tag in LOCATION_IDENTIFIER_TAGS]
        if not identifiers:
            continue
        facilities = [a for a in sent_anns if a.tag in FACILITY_TAGS]
        for ident in identifiers:
            for fac in facilities:
                if overlaps(ident.span, fac.span):
                    yield _at(
                        ident,
                        f"{ident.tag.value} overlaps {fac.tag.value}; facility tags have priority",
                        (ident.id, fac.id),
                    )


@rule("W121", Severity.WARNING, "event numbers not contiguous from 1")
def _event_number_gap(idx: _DocIndex) -> Iterator[Finding]:
    used = idx.trigger_events | idx.argument_events | idx.semantic_events
    missing = set(range(1, max(used, default=0) + 1)) - used
    if missing:
        first_gap = min(missing)
        carrier = next(
            ann
            for ann in idx.anns
            if any(n > first_gap for n in ann.events) and ann.tag.focus is not Focus.DOC_INFO
        )
        yield _at(
            carrier,
            f"event numbers {sorted(used)} are not contiguous from 1 (missing {sorted(missing)})",
        )


@rule("W122", Severity.WARNING, "explicit 'Event 1' comment on a tag")
def _explicit_event_one(idx: _DocIndex) -> Iterator[Finding]:
    for ann in idx.anns:
        if ann.events_from_comment and 1 in ann.events:
            yield _at(ann, "explicit 'Event 1' comment; the first event is not numbered")


@rule("W130", Severity.WARNING, "country name tagged as event place")
def _country_as_place(idx: _DocIndex) -> Iterator[Finding]:
    countries = idx.lexicons.countries
    place = TagId.EVENT_PLACE  # bound once: enum member access is slow
    for ann in idx.anns:
        if ann.tag is place and idx.text(ann).casefold() in countries:
            yield _at(ann, f"country name {idx.text(ann)!r} tagged as event_place")


@rule("W131", Severity.WARNING, "participant_count span begins with an estimation qualifier")
def _estimated_count(idx: _DocIndex) -> Iterator[Finding]:
    qualifier_seqs = [tuple(q.casefold().split()) for q in idx.lexicons.estimation_qualifiers]
    count = TagId.PARTICIPANT_COUNT  # bound once: enum member access is slow
    for ann in idx.anns:
        if ann.tag is not count:
            continue
        toks = tuple(t.casefold() for t in idx.tokens(ann))
        for seq in qualifier_seqs:
            if toks[: len(seq)] == seq:
                yield _at(
                    ann, f"participant_count begins with estimation qualifier {' '.join(seq)!r}"
                )
                break


# check_separation (assemble.py) emits these over assembled events;
# validate_document does not run them.
rule("W140", Severity.WARNING, "two events indistinguishable on every separation axis")(None)
rule("W141", Severity.INFO, "event assembled without any trigger annotation")(None)


@rule("W142", Severity.WARNING, "triggers of one event carry differing semantic categories")
def _differing_trigger_categories(idx: _DocIndex) -> Iterator[Finding]:
    categories_by_event: dict[int, dict[str, Annotation]] = defaultdict(dict)
    for trig in idx.triggers:
        sems = idx.partners[trig.id]
        if len(sems) != 1:
            continue  # missing/stacked semantics are E021's case
        sem = sems[0]
        for n in trig.events & sem.events:
            categories_by_event[n].setdefault(sem.tag.value, trig)
    for number in sorted(categories_by_event):
        cats = categories_by_event[number]
        if len(cats) > 1:
            yield _at(
                next(iter(cats.values())),  # the first trigger in canonical order
                f"triggers of event {number} carry differing semantic categories: "
                f"{sorted(cats)}",
                tuple(sorted(t.id for t in cats.values())),
            )


@rule("I150", Severity.INFO, "same participant surface form with differing semantic tags")
def _participant_surface_variants(idx: _DocIndex) -> Iterator[Finding]:
    by_surface: dict[tuple[str, ...], dict[str, Annotation]] = defaultdict(dict)
    for head in idx.hosts[Focus.PARTICIPANT_SEMANTIC]:
        sems = idx.partners[head.id]
        if sems:
            surface = tuple(t.casefold() for t in idx.tokens(head))
            by_surface[surface].setdefault(sems[0].tag.value, head)
    for surface in sorted(by_surface):
        variants = by_surface[surface]
        if len(variants) > 1:
            heads = list(variants.values())  # in canonical order, as the hosts are
            yield _at(
                heads[1],
                f"participant surface {' '.join(surface)!r} carries differing "
                f"semantic tags: {sorted(variants)}",
                tuple(h.id for h in heads),
            )


# after the last @rule, so that it runs every registered check
DEFAULT_CONFIG = LintConfig()


def validate_document(
    doc: DocumentRecord, cfg: LintConfig = DEFAULT_CONFIG
) -> list[Diagnostic]:
    """Run each rule of ``cfg.rules`` against one document.

    Pure function: identical inputs yield identical diagnostics, ordered
    by (sentence, span start, rule id).
    """
    idx = _DocIndex(doc, cfg.lexicons)
    found = [
        Diagnostic(rule_id, severity, doc.doc_id, *finding)
        for rule_id, severity, check in cfg.rules
        for finding in check(idx)
    ]
    found.sort(key=Diagnostic.sort_key)
    return found


class CorpusReport(namedtuple("CorpusReport", "diagnostics totals documents")):
    """Diagnostics for a whole corpus plus severity totals."""

    __slots__ = ()


def validate_rendered(
    docs: Iterable[DocumentRecord], cfg: LintConfig, render: Callable[[list[Diagnostic]], object]
) -> tuple[list, Counter, int]:
    """The one validate loop, over documents in order: each document's
    diagnostics passed through ``render`` (none for a clean document),
    their severity totals, and the number of documents."""
    held = []
    totals: Counter = Counter()
    documents = 0
    for doc in docs:
        documents += 1
        diagnostics = validate_document(doc, cfg)
        if diagnostics:
            totals.update(d.severity for d in diagnostics)
            held.append(render(diagnostics))
    return held, totals, documents


def validate_corpus(
    docs: Iterable[DocumentRecord], cfg: LintConfig = DEFAULT_CONFIG
) -> CorpusReport:
    """Validate documents in order, one at a time, and tally severities."""
    held, totals, documents = validate_rendered(docs, cfg, tuple)
    for sev in Severity:
        totals.setdefault(sev, 0)
    return CorpusReport(
        diagnostics=tuple([d for ds in held for d in ds]), totals=dict(totals), documents=documents
    )
