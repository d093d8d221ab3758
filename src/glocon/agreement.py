"""Inter-annotator agreement between two parallel corpora.

Documents are paired by doc_id in a streaming join (``CorpusJoin``) that
holds only the documents still waiting for their partner; the scores
read each pair once, as it completes.

Label levels (document protest / violence / demand, sentence labels) are
scored with Cohen's kappa; the token-level span task is scored with
precision/recall/F1 under strict (coterminous span) or lenient (any
token overlap) matching.

Span matching is one-to-one and greedy in canonical span order; in
lenient mode coterminous matches are taken first so that every strict
true positive is also a lenient one.  Event numbers are ignored when
matching spans (annotators may number events differently).  Candidates
are limited to references with the same tag in the same sentence, which
gives the same greedy choice as a scan of the whole document.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter, itemgetter

from .model import (
    DOC_LABELS,
    Annotation,
    DocumentRecord,
    SentenceLabel,
    TagId,
    coterminous,
    label_text,
    overlaps,
)


class TokenMismatch(namedtuple("TokenMismatch", "doc_id sentence")):
    """A doc_id present in both corpora whose token sequences diverge."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"doc {self.doc_id}: tokenization diverges at sentence {self.sentence}"


class PairingResult(namedtuple("PairingResult", "pairs unmatched_a unmatched_b mismatched")):
    """A drained ``CorpusJoin``: its pairs, in the order they completed,
    and its unmatched ids and token mismatches."""

    __slots__ = ()


def _first_divergent_sentence(a: DocumentRecord, b: DocumentRecord) -> int | None:
    for i, (sa, sb) in enumerate(zip(a.sentences, b.sentences)):
        if sa.tokens != sb.tokens:
            return i
    if len(a.sentences) != len(b.sentences):
        return min(len(a.sentences), len(b.sentences))
    return None


class CorpusJoin:
    """Pair two document streams by doc_id as they are read.

    Iterating pulls a document from ``a``, then one from ``b``, in turn, and
    yields ``(doc_a, doc_b)`` the moment both halves of a pair have arrived,
    unless their tokens differ.  Only documents whose partner has not
    arrived yet are held, so two corpora in the same order cost about one
    document per side, and the worst case (``b`` reversed) one corpus.
    Once one side runs out, a document of the other that finds no partner
    waiting is unmatched at once and only its id is kept.

    When the iteration ends, ``paired`` counts the pairs yielded,
    ``unmatched_a`` and ``unmatched_b`` list the ids without a partner in
    ``a`` and ``b`` order, and ``mismatched`` lists the token mismatches in
    ``a`` order.  Each side is read once.  A doc_id repeated within one side
    raises ``ValueError``; with ``unique_ids`` the caller vouches that none
    repeats, as ``iter_corpus`` ensures, and the join keeps no set of ids.
    """

    def __init__(
        self, a: Iterable[DocumentRecord], b: Iterable[DocumentRecord], unique_ids: bool = False
    ) -> None:
        self._sides = (a, b)
        self._check_ids = not unique_ids
        self.paired = 0
        self.unmatched_a: tuple[str, ...] = ()
        self.unmatched_b: tuple[str, ...] = ()
        self.mismatched: tuple[TokenMismatch, ...] = ()

    def __iter__(self) -> Iterator[tuple[DocumentRecord, DocumentRecord]]:
        streams = [enumerate(side) for side in self._sides]
        # per side, in arrival order: doc_id -> (position in that side, document),
        # or -> None once the other side, the only one that looks it up, ran out
        waiting: tuple[dict[str, tuple[int, DocumentRecord] | None], ...] = ({}, {})
        seen: tuple[set[str], set[str]] = (set(), set())
        mismatched: list[tuple[int, TokenMismatch]] = []
        live = [0, 1]
        while live:
            for side in tuple(live):
                arrived = next(streams[side], None)
                if arrived is None:
                    live.remove(side)
                    continue
                doc_id = arrived[1].doc_id
                if self._check_ids:
                    if doc_id in seen[side]:
                        raise ValueError(f"doc_id {doc_id!r} repeats in corpus {'ab'[side]}")
                    seen[side].add(doc_id)
                partner = waiting[1 - side].pop(doc_id, None)
                if partner is None:
                    waiting[side][doc_id] = arrived if 1 - side in live else None
                    continue
                if side == 1:
                    arrived, partner = partner, arrived
                (position, doc_a), (_, doc_b) = arrived, partner
                divergent = _first_divergent_sentence(doc_a, doc_b)
                if divergent is None:
                    self.paired += 1
                    yield doc_a, doc_b
                else:
                    mismatched.append((position, TokenMismatch(doc_id, divergent)))
        self.unmatched_a = tuple(waiting[0])
        self.unmatched_b = tuple(waiting[1])
        self.mismatched = tuple(m for _, m in sorted(mismatched, key=itemgetter(0)))


def pair_corpora(a: Iterable[DocumentRecord], b: Iterable[DocumentRecord]) -> PairingResult:
    """Match documents by doc_id; reject pairs whose tokens differ."""
    join = CorpusJoin(a, b)
    pairs = tuple(join)
    return PairingResult(pairs, join.unmatched_a, join.unmatched_b, join.mismatched)


class AgreementLevel(str, enum.Enum):
    """A label level: ``doc_<key>`` for each ``DOC_LABELS`` key, then sentences."""

    DOC_PROTEST = "doc_protest"
    DOC_VIOLENT = "doc_violent"
    DOC_DEMAND = "doc_demand"
    SENTENCE = "sentence"


# The DOC_LABELS key each document level scores.
_DOC_LEVEL_KEY = {AgreementLevel(f"doc_{key}"): key for key in DOC_LABELS}
_LEVEL_CATEGORIES: dict[AgreementLevel, tuple[str, ...]] = {
    **{level: tuple(map(label_text, DOC_LABELS[key])) for level, key in _DOC_LEVEL_KEY.items()},
    AgreementLevel.SENTENCE: tuple(map(label_text, SentenceLabel)),
}


class KappaResult(namedtuple("KappaResult", "level kappa p_o p_e confusion n skipped")):
    """Cohen's kappa for one labeling level.

    ``confusion`` counts (label_a, label_b) pairs over the level's full
    category set.  ``skipped`` counts items left out because either side
    was unlabeled.  With ``n == 0`` the result is degenerate and kappa,
    p_o and p_e are NaN.
    """

    __slots__ = ()

    @property
    def degenerate(self) -> bool:
        return self.n == 0

    def to_obj(self) -> dict:
        return {
            "level": self.level.value,
            "kappa": None if math.isnan(self.kappa) else self.kappa,
            "p_o": None if math.isnan(self.p_o) else self.p_o,
            "p_e": None if math.isnan(self.p_e) else self.p_e,
            "n": self.n,
            "skipped": self.skipped,
            "confusion": {f"{a}|{b}": c for (a, b), c in sorted(self.confusion.items()) if c},
        }


def _labels(doc: DocumentRecord, level: AgreementLevel) -> Sequence:
    """The labels ``level`` scores in ``doc``, one per item (``None`` if unset)."""
    key = _DOC_LEVEL_KEY.get(level)
    if key is None:
        return [sent.label for sent in doc.sentences]
    return (getattr(doc.labels, key),)


def _kappa(level: AgreementLevel, counts: Counter, skipped: int) -> KappaResult:
    """Kappa from the count of each (label_a, label_b) pair."""
    categories = _LEVEL_CATEGORIES[level]
    confusion: dict[tuple[str, str], int] = {
        (x, y): 0 for x in categories for y in categories
    }
    for pair, count in counts.items():
        confusion[pair] += count
    n = sum(counts.values())
    if n == 0:
        nan = float("nan")
        return KappaResult(level, nan, nan, nan, confusion, 0, skipped)
    p_o = sum(confusion[(c, c)] for c in categories) / n
    # integer marginals and one division: float sum() rounds differently on 3.12+
    p_e = sum(
        sum(confusion[(c, y)] for y in categories) * sum(confusion[(x, c)] for x in categories)
        for c in categories
    ) / (n * n)
    if p_e == 1.0:
        # both annotators used one shared category throughout, so p_o is 1.0 too
        kappa = 1.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return KappaResult(level, kappa, p_o, p_e, confusion, n, skipped)


def label_kappas(
    pairs: Iterable[tuple[DocumentRecord, DocumentRecord]],
    levels: Sequence[AgreementLevel | str],
) -> list[KappaResult]:
    """Cohen's kappa over paired documents at each of ``levels`` (members or
    their values; any other value raises ValueError), reading ``pairs`` once.

    Items where either annotator left the label unset are skipped (and
    counted in the result).
    """
    levels = [AgreementLevel(level) for level in levels]
    counts = {level: Counter() for level in levels}
    skipped = dict.fromkeys(levels, 0)
    for doc_a, doc_b in pairs:
        for level in levels:
            for la, lb in zip(_labels(doc_a, level), _labels(doc_b, level)):
                if la is None or lb is None:
                    skipped[level] += 1
                else:
                    counts[level][label_text(la), label_text(lb)] += 1
    return [_kappa(level, counts[level], skipped[level]) for level in levels]


def label_kappa(
    pairs: Iterable[tuple[DocumentRecord, DocumentRecord]], level: AgreementLevel | str
) -> KappaResult:
    """Cohen's kappa over paired documents at the given level."""
    return label_kappas(pairs, (level,))[0]


class MatchMode(str, enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


TagScore = namedtuple("TagScore", "tp fp fn precision recall f1")


def _score(tp: int, fp: int, fn: int) -> TagScore:
    if tp + fp + fn == 0:
        # nothing to find and nothing predicted
        return TagScore(0, 0, 0, 1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return TagScore(tp, fp, fn, precision, recall, f1)


class PRFReport(namedtuple("PRFReport", "mode per_tag micro documents")):
    __slots__ = ()

    def to_obj(self) -> dict:
        return {
            "mode": self.mode.value,
            "reference": "a",  # the first corpus of each pair is the gold side
            "documents": self.documents,
            "micro": self.micro._asdict(),
            "per_tag": {tag: s._asdict() for tag, s in sorted(self.per_tag.items())},
        }


def _match_document(
    hyp: Sequence[Annotation],
    ref: Sequence[Annotation],
    mode: MatchMode,
    tp: dict[TagId, int],
    fp: dict[TagId, int],
    fn: dict[TagId, int],
) -> None:
    """Greedy one-to-one matching of two documents' annotations, each in
    canonical order (as ``DocumentRecord`` keeps them).

    Both match predicates need the same sentence, and tags must be equal,
    so a hypothesis annotation is compared only with the references of its
    ``(tag, sentence)`` bucket.  A bucket keeps canonical order, so its
    first unmatched match is the first one in the whole document.
    """
    buckets: dict[tuple[TagId, int], list[int]] = {}
    for j, r in enumerate(ref):
        buckets.setdefault((r.tag, r.span.sentence), []).append(j)
    matched_ref = [False] * len(ref)
    matched_hyp = [False] * len(hyp)

    def run_pass(predicate) -> None:
        for i, h in enumerate(hyp):
            if matched_hyp[i]:
                continue
            for j in buckets.get((h.tag, h.span.sentence), ()):
                if not matched_ref[j] and predicate(h.span, ref[j].span):
                    matched_ref[j] = matched_hyp[i] = True
                    tp[h.tag] = tp.get(h.tag, 0) + 1
                    break

    # exact matches first, so the strict TP set is a subset of the lenient one
    run_pass(coterminous)
    if mode is MatchMode.LENIENT:
        run_pass(overlaps)

    for h, matched in zip(hyp, matched_hyp):
        if not matched:
            fp[h.tag] = fp.get(h.tag, 0) + 1
    for r, matched in zip(ref, matched_ref):
        if not matched:
            fn[r.tag] = fn.get(r.tag, 0) + 1


def span_prf(
    pairs: Iterable[tuple[DocumentRecord, DocumentRecord]],
    mode: MatchMode | str = MatchMode.STRICT,
) -> PRFReport:
    """Span-level precision/recall/F1 of each pair's second document (the
    hypothesis) against its first (the reference), reading ``pairs`` once.
    ``mode`` may be given by value; any other value raises ValueError."""
    mode = MatchMode(mode)
    tp: dict[TagId, int] = {}
    fp: dict[TagId, int] = {}
    fn: dict[TagId, int] = {}
    documents = 0
    for ref_doc, hyp_doc in pairs:
        documents += 1
        _match_document(hyp_doc.annotations, ref_doc.annotations, mode, tp, fp, fn)

    tags = sorted(set(tp) | set(fp) | set(fn), key=attrgetter("value"))
    per_tag = {
        tag.value: _score(tp.get(tag, 0), fp.get(tag, 0), fn.get(tag, 0)) for tag in tags
    }
    micro = _score(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return PRFReport(mode=mode, per_tag=per_tag, micro=micro, documents=documents)
