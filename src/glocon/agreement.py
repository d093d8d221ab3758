"""Inter-annotator agreement between two parallel corpora.

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
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class TokenMismatch:
    """A doc_id present in both corpora whose token sequences diverge."""

    doc_id: str
    sentence: int

    def __str__(self) -> str:
        return f"doc {self.doc_id}: tokenization diverges at sentence {self.sentence}"


@dataclass(frozen=True)
class PairingResult:
    pairs: tuple[tuple[DocumentRecord, DocumentRecord], ...]
    unmatched_a: tuple[str, ...]
    unmatched_b: tuple[str, ...]
    mismatched: tuple[TokenMismatch, ...]


def _first_divergent_sentence(a: DocumentRecord, b: DocumentRecord) -> int | None:
    for i, (sa, sb) in enumerate(zip(a.sentences, b.sentences)):
        if sa.tokens != sb.tokens:
            return i
    if len(a.sentences) != len(b.sentences):
        return min(len(a.sentences), len(b.sentences))
    return None


def pair_corpora(
    a: Sequence[DocumentRecord], b: Sequence[DocumentRecord]
) -> PairingResult:
    """Match documents by doc_id; reject pairs whose tokens differ."""
    b_by_id = {doc.doc_id: doc for doc in b}
    a_ids = {doc.doc_id for doc in a}
    pairs = []
    mismatched = []
    for doc_a in a:
        doc_b = b_by_id.get(doc_a.doc_id)
        if doc_b is None:
            continue
        divergent = _first_divergent_sentence(doc_a, doc_b)
        if divergent is None:
            pairs.append((doc_a, doc_b))
        else:
            mismatched.append(TokenMismatch(doc_a.doc_id, divergent))
    return PairingResult(
        pairs=tuple(pairs),
        unmatched_a=tuple(doc.doc_id for doc in a if doc.doc_id not in b_by_id),
        unmatched_b=tuple(doc.doc_id for doc in b if doc.doc_id not in a_ids),
        mismatched=tuple(mismatched),
    )


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


@dataclass(frozen=True)
class KappaResult:
    """Cohen's kappa for one labeling level.

    ``confusion`` counts (label_a, label_b) pairs over the level's full
    category set.  ``skipped`` counts items left out because either side
    was unlabeled.  With ``n == 0`` the result is degenerate and kappa,
    p_o and p_e are NaN.
    """

    level: AgreementLevel
    kappa: float
    p_o: float
    p_e: float
    confusion: Mapping[tuple[str, str], int]
    n: int
    skipped: int

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


def cohen_kappa(
    level: AgreementLevel, labeled_pairs: Sequence[tuple[str, str]], skipped: int = 0
) -> KappaResult:
    """Kappa from a list of (annotator A label, annotator B label) pairs."""
    categories = _LEVEL_CATEGORIES[level]
    confusion: dict[tuple[str, str], int] = {
        (x, y): 0 for x in categories for y in categories
    }
    for la, lb in labeled_pairs:
        confusion[(la, lb)] += 1
    n = len(labeled_pairs)
    if n == 0:
        nan = float("nan")
        return KappaResult(level, nan, nan, nan, confusion, 0, skipped)
    p_o = sum(confusion[(c, c)] for c in categories) / n
    marg_a = {c: sum(confusion[(c, y)] for y in categories) / n for c in categories}
    marg_b = {c: sum(confusion[(x, c)] for x in categories) / n for c in categories}
    p_e = sum(marg_a[c] * marg_b[c] for c in categories)
    if p_e == 1.0:
        # both annotators used one shared category throughout, so p_o is 1.0 too
        kappa = 1.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return KappaResult(level, kappa, p_o, p_e, confusion, n, skipped)


def label_kappa(
    pairs: Sequence[tuple[DocumentRecord, DocumentRecord]], level: AgreementLevel
) -> KappaResult:
    """Cohen's kappa over paired documents at the given level.

    Items where either annotator left the label unset are skipped (and
    counted in the result).
    """
    items = [
        item for doc_a, doc_b in pairs for item in zip(_labels(doc_a, level), _labels(doc_b, level))
    ]
    labeled = [
        (label_text(la), label_text(lb)) for la, lb in items if la is not None and lb is not None
    ]
    return cohen_kappa(level, labeled, len(items) - len(labeled))


class MatchMode(str, enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True)
class TagScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def _score(tp: int, fp: int, fn: int) -> TagScore:
    if tp + fp + fn == 0:
        # nothing to find and nothing predicted
        return TagScore(0, 0, 0, 1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return TagScore(tp, fp, fn, precision, recall, f1)


@dataclass(frozen=True)
class PRFReport:
    mode: MatchMode
    per_tag: Mapping[str, TagScore]
    micro: TagScore
    documents: int

    def to_obj(self) -> dict:
        return {
            "mode": self.mode.value,
            "reference": "a",  # the first corpus of each pair is the gold side
            "documents": self.documents,
            "micro": asdict(self.micro),
            "per_tag": {tag: asdict(s) for tag, s in sorted(self.per_tag.items())},
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
    pairs: Sequence[tuple[DocumentRecord, DocumentRecord]],
    mode: MatchMode = MatchMode.STRICT,
) -> PRFReport:
    """Span-level precision/recall/F1 of each pair's second document (the
    hypothesis) against its first (the reference)."""
    tp: dict[TagId, int] = {}
    fp: dict[TagId, int] = {}
    fn: dict[TagId, int] = {}
    for ref_doc, hyp_doc in pairs:
        _match_document(hyp_doc.annotations, ref_doc.annotations, mode, tp, fp, fn)

    tags = sorted(set(tp) | set(fp) | set(fn), key=attrgetter("value"))
    per_tag = {
        tag.value: _score(tp.get(tag, 0), fp.get(tag, 0), fn.get(tag, 0)) for tag in tags
    }
    micro = _score(sum(tp.values()), sum(fp.values()), sum(fn.values()))
    return PRFReport(mode=mode, per_tag=per_tag, micro=micro, documents=len(pairs))
