import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from glocon.agreement import (
    AgreementLevel,
    CorpusJoin,
    MatchMode,
    _kappa,
    label_kappa,
    label_kappas,
    pair_corpora,
    span_prf,
)
from glocon.io import ParseErrorKind, iter_corpus, serialize_corpus
from glocon.model import (
    DOC_LABELS,
    Annotation,
    DocumentLabels,
    DocumentRecord,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
)
from golden_docs import ann, sent
from oracle import dict_pair_corpora, greedy_span_match
from randdocs import random_corpus, random_document


def _kappa_of(level, labeled_pairs):
    """Kappa from (annotator A label, annotator B label) pairs."""
    return _kappa(level, Counter(labeled_pairs), 0)


def _labeled_doc(doc_id, protest=None, sentence_labels=()):
    sentences = tuple(
        SentenceRecord(index=i, tokens=("w", "x", "y"), label=label)
        for i, label in enumerate(sentence_labels or [None])
    )
    return DocumentRecord(
        doc_id=doc_id,
        labels=DocumentLabels(protest=protest),
        sentences=sentences,
    )


class TestPairing:
    def test_identical_corpora(self):
        docs = random_corpus(3, seed=1)
        result = pair_corpora(docs, docs)
        assert len(result.pairs) == 3
        assert result.unmatched_a == () and result.unmatched_b == ()
        assert result.mismatched == ()

    def test_partial_overlap(self):
        a = [_labeled_doc("1"), _labeled_doc("2")]
        b = [_labeled_doc("2"), _labeled_doc("3")]
        result = pair_corpora(a, b)
        assert [pa.doc_id for pa, _ in result.pairs] == ["2"]
        assert result.unmatched_a == ("1",)
        assert result.unmatched_b == ("3",)

    def test_token_mismatch_names_first_divergent_sentence(self):
        a = DocumentRecord(
            doc_id="d",
            sentences=(
                SentenceRecord(0, ("same", "tokens")),
                SentenceRecord(1, ("but", "here", "differs")),
            ),
        )
        b = DocumentRecord(
            doc_id="d",
            sentences=(
                SentenceRecord(0, ("same", "tokens")),
                SentenceRecord(1, ("but", "it", "differs")),
            ),
        )
        result = pair_corpora([a], [b])
        assert result.pairs == ()
        assert len(result.mismatched) == 1
        assert result.mismatched[0].sentence == 1

    def test_sentence_count_mismatch(self):
        a = DocumentRecord(doc_id="d", sentences=(SentenceRecord(0, ("x",)),))
        b = DocumentRecord(
            doc_id="d",
            sentences=(SentenceRecord(0, ("x",)), SentenceRecord(1, ("y",))),
        )
        result = pair_corpora([a], [b])
        assert result.mismatched[0].sentence == 1

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_repeated_doc_id_raises(self, side):
        # the first copy is paired and dropped before the second arrives
        repeated = [_labeled_doc("1"), _labeled_doc("2"), _labeled_doc("1")]
        once = [_labeled_doc("1"), _labeled_doc("2")]
        a, b = (repeated, once) if side == "a" else (once, repeated)
        with pytest.raises(ValueError, match=f"doc_id '1' repeats in corpus {side}"):
            pair_corpora(a, b)

    def test_unique_ids_leaves_the_check_to_iter_corpus(self):
        # iter_corpus drops the repeat as a duplicate_id parse error, so a join
        # told its sides are unique pairs the first copy and never raises
        first = _labeled_doc("1", ProtestLabel.PROTEST)
        data = serialize_corpus([first, _labeled_doc("2"), _labeled_doc("1")])
        errors = []
        join = CorpusJoin(iter_corpus(data.splitlines(True), errors), [first], unique_ids=True)
        assert list(join) == [(first, first)]
        assert [(e.line, e.kind) for e in errors] == [(3, ParseErrorKind.DUPLICATE_ID)]
        assert (join.unmatched_a, join.unmatched_b) == (("2",), ())

    @staticmethod
    def _annotator_b(doc, rng):
        """Another annotator's copy of ``doc``: other labels, some spans dropped."""
        return DocumentRecord(
            doc.doc_id,
            DocumentLabels(protest=rng.choice([None, *ProtestLabel])),
            tuple(
                SentenceRecord(s.index, s.tokens, rng.choice([None, *SentenceLabel]))
                for s in doc.sentences
            ),
            tuple(a for a in doc.annotations if rng.random() < 0.7),
        )

    @staticmethod
    def _diverged(doc, rng):
        """``doc`` with one token changed, or with its last sentence dropped."""
        sentences = list(doc.sentences)
        if len(sentences) > 1 and rng.random() < 0.3:
            last = len(sentences) - 1
            annotations = tuple(a for a in doc.annotations if a.span.sentence != last)
            return DocumentRecord(doc.doc_id, doc.labels, tuple(sentences[:last]), annotations)
        i = rng.randrange(len(sentences))
        sentences[i] = SentenceRecord(i, ("diverged", *sentences[i].tokens[1:]))
        return DocumentRecord(doc.doc_id, doc.labels, tuple(sentences), doc.annotations)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "arrangement", ["same", "shuffled", "reversed", "a_missing", "b_missing", "twins", "all"]
    )
    def test_join_matches_the_dict_oracle(self, arrangement, seed):
        rng = random.Random(seed)
        a = random_corpus(40, seed=seed)
        b = [self._annotator_b(doc, rng) for doc in a]
        if arrangement in ("twins", "all"):
            b = [self._diverged(doc, rng) if rng.random() < 0.25 else doc for doc in b]
        if arrangement in ("a_missing", "all"):
            a = [doc for doc in a if rng.random() < 0.7]
        if arrangement in ("b_missing", "all"):
            b = [doc for doc in b if rng.random() < 0.7]
        if arrangement in ("shuffled", "all"):
            rng.shuffle(b)
        if arrangement == "reversed":
            b.reverse()
        pairs, unmatched_a, unmatched_b, mismatched = dict_pair_corpora(a, b)

        result = pair_corpora(iter(a), iter(b))
        assert len(result.pairs) == len(pairs)
        assert {(id(x), id(y)) for x, y in result.pairs} == {(id(x), id(y)) for x, y in pairs}
        assert result.unmatched_a == tuple(unmatched_a)
        assert result.unmatched_b == tuple(unmatched_b)
        assert [(m.doc_id, m.sentence) for m in result.mismatched] == mismatched
        trusted = CorpusJoin(iter(a), iter(b), unique_ids=True)
        assert [(id(x), id(y)) for x, y in trusted] == [(id(x), id(y)) for x, y in result.pairs]
        assert (trusted.paired, trusted.unmatched_a, trusted.unmatched_b, trusted.mismatched) == (
            len(result.pairs), result.unmatched_a, result.unmatched_b, result.mismatched
        )
        for mode in MatchMode:
            assert span_prf(CorpusJoin(iter(a), iter(b)), mode) == span_prf(tuple(pairs), mode)
        levels = list(AgreementLevel)
        streamed = label_kappas(CorpusJoin(iter(a), iter(b)), levels)
        for level, kappa in zip(levels, streamed):
            assert kappa.to_obj() == label_kappa(tuple(pairs), level).to_obj()
            assert label_kappa(CorpusJoin(iter(a), iter(b)), level).to_obj() == kappa.to_obj()


class TestKappa:
    def test_level_given_as_its_value(self):
        docs = [_labeled_doc(str(i), protest=list(ProtestLabel)[i % 2]) for i in range(4)]
        pairs = pair_corpora(docs, docs).pairs
        for level in AgreementLevel:
            result = label_kappa(pairs, level.value)
            assert result.level is level
            assert result.to_obj() == label_kappa(pairs, level).to_obj()
        [doc, sentence] = label_kappas(pairs, ["doc_protest", "sentence"])
        assert (doc.level, sentence.level) == (AgreementLevel.DOC_PROTEST, AgreementLevel.SENTENCE)

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="'doc_mood' is not a valid AgreementLevel"):
            label_kappa((), "doc_mood")
        with pytest.raises(ValueError, match="'protest' is not a valid AgreementLevel"):
            label_kappas((), [AgreementLevel.SENTENCE, "protest"])

    def test_identical_labelings(self):
        docs = [
            _labeled_doc(str(i), protest=ProtestLabel.PROTEST if i < 6 else ProtestLabel.NO_PROTEST)
            for i in range(10)
        ]
        result = label_kappa(pair_corpora(docs, docs).pairs, AgreementLevel.DOC_PROTEST)
        assert result.kappa == 1.0
        assert result.p_o == 1.0
        assert result.n == 10

    def test_hand_derived_kappa(self):
        # marginals P(protest) = 0.6 vs 0.5 with observed agreement 0.8:
        # 9 both-protest, 3 protest/no, 1 no/protest, 7 both-no (n = 20)
        cells = [("p", "p")] * 9 + [("p", "n")] * 3 + [("n", "p")] * 1 + [("n", "n")] * 7
        a_docs = []
        b_docs = []
        for i, (la, lb) in enumerate(cells):
            a_docs.append(
                _labeled_doc(
                    f"d{i}",
                    protest=ProtestLabel.PROTEST if la == "p" else ProtestLabel.NO_PROTEST,
                )
            )
            b_docs.append(
                _labeled_doc(
                    f"d{i}",
                    protest=ProtestLabel.PROTEST if lb == "p" else ProtestLabel.NO_PROTEST,
                )
            )
        result = label_kappa(pair_corpora(a_docs, b_docs).pairs, AgreementLevel.DOC_PROTEST)
        assert result.p_o == pytest.approx(0.8, abs=1e-15)
        assert result.p_e == pytest.approx(0.5, abs=1e-15)
        assert result.kappa == pytest.approx(0.6, abs=1e-12)

    def test_complete_disagreement_balanced(self):
        a_docs = []
        b_docs = []
        for i in range(10):
            flip = i % 2 == 0
            a_docs.append(
                _labeled_doc(
                    f"d{i}", protest=ProtestLabel.PROTEST if flip else ProtestLabel.NO_PROTEST
                )
            )
            b_docs.append(
                _labeled_doc(
                    f"d{i}", protest=ProtestLabel.NO_PROTEST if flip else ProtestLabel.PROTEST
                )
            )
        result = label_kappa(pair_corpora(a_docs, b_docs).pairs, AgreementLevel.DOC_PROTEST)
        assert result.kappa == -1.0

    def test_unlabeled_items_skipped_and_counted(self):
        a_docs = [
            _labeled_doc("1", protest=ProtestLabel.PROTEST),
            _labeled_doc("2", protest=None),
        ]
        b_docs = [
            _labeled_doc("1", protest=ProtestLabel.PROTEST),
            _labeled_doc("2", protest=ProtestLabel.PROTEST),
        ]
        result = label_kappa(pair_corpora(a_docs, b_docs).pairs, AgreementLevel.DOC_PROTEST)
        assert result.n == 1
        assert result.skipped == 1

    def test_degenerate_input(self):
        result = label_kappa((), AgreementLevel.DOC_PROTEST)
        assert result.degenerate
        assert math.isnan(result.kappa)

    def test_chance_agreement_is_the_exact_ratio_correctly_rounded(self):
        # 5 protest/protest and 1 no_protest/no_protest: p_e = 26/36 = 13/18;
        # a float sum of the marginal products gave 0.7222222222222223 on 3.11
        counts = Counter({("protest", "protest"): 5, ("no_protest", "no_protest"): 1})
        assert _kappa(AgreementLevel.DOC_PROTEST, counts, 0).p_e == 0.7222222222222222
        rng = random.Random(23)
        for level in AgreementLevel:
            categories = sorted({la for la, _ in _kappa_of(level, []).confusion})
            for _ in range(200):
                counts = Counter()
                for _ in range(rng.randint(1, 12)):
                    counts[rng.choice(categories), rng.choice(categories)] += rng.randint(1, 10**6)
                n = sum(counts.values())
                rows, cols = Counter(), Counter()
                for (la, lb), count in counts.items():
                    rows[la] += count
                    cols[lb] += count
                result = _kappa(level, counts, 0)
                chance = Fraction(sum(rows[c] * cols[c] for c in categories), n * n)
                assert result.p_e == float(chance), counts
                assert result.p_o == float(Fraction(sum(counts[c, c] for c in categories), n))

    def test_one_shared_category_is_perfect_agreement(self):
        result = _kappa_of(AgreementLevel.DOC_PROTEST, [("protest", "protest")] * 7)
        assert (result.kappa, result.p_o, result.p_e) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("level", list(AgreementLevel))
    def test_no_labeling_gives_nan(self, level):
        categories = sorted({la for la, _ in _kappa_of(level, []).confusion})
        cells = list(itertools.product(categories, repeat=2))
        for n in (1, 2, 3):
            for labeled in itertools.product(cells, repeat=n):
                assert not math.isnan(_kappa_of(level, labeled).kappa), labeled

    def test_sentence_level(self):
        labels = [SentenceLabel.EVENT, SentenceLabel.NON_EVENT, SentenceLabel.PLANNED]
        doc_a = _labeled_doc("d", sentence_labels=labels)
        doc_b = _labeled_doc("d", sentence_labels=labels)
        result = label_kappa(pair_corpora([doc_a], [doc_b]).pairs, AgreementLevel.SENTENCE)
        assert result.kappa == 1.0
        assert result.n == 3

    def test_symmetry_on_random_labelings(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 30)
            labels_a = [rng.choice(["protest", "no_protest"]) for _ in range(n)]
            labels_b = [rng.choice(["protest", "no_protest"]) for _ in range(n)]
            fwd = _kappa_of(AgreementLevel.DOC_PROTEST, list(zip(labels_a, labels_b)))
            rev = _kappa_of(AgreementLevel.DOC_PROTEST, list(zip(labels_b, labels_a)))
            assert fwd.p_o == rev.p_o
            assert fwd.p_e == pytest.approx(rev.p_e, abs=1e-15)
            if not math.isnan(fwd.kappa):
                assert fwd.kappa == pytest.approx(rev.kappa, abs=1e-12)

    def test_random_label_calibration(self):
        rng = random.Random(99)
        pairs = [
            (rng.choice(["protest", "no_protest"]), rng.choice(["protest", "no_protest"]))
            for _ in range(10_000)
        ]
        result = _kappa_of(AgreementLevel.DOC_PROTEST, pairs)
        assert abs(result.kappa) < 0.05


def _span_doc(doc_id, annotations):
    return DocumentRecord(
        doc_id=doc_id,
        sentences=(sent(0, "w0 w1 w2 w3 w4 w5 w6 w7"),),
        annotations=tuple(annotations),
    )


class TestSpanPRF:
    def test_identical_sets_are_perfect(self):
        doc = _span_doc(
            "d",
            [
                ann("a", TagId.EVENT_TYPE, 0, 1, 2),
                ann("b", TagId.EVENT_PLACE, 0, 3, 4),
            ],
        )
        report = span_prf(pair_corpora([doc], [doc]).pairs, MatchMode.STRICT)
        assert report.micro.f1 == 1.0
        for score in report.per_tag.values():
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_pairs_without_annotations_are_perfect(self):
        docs = [_span_doc("d", []), _span_doc("e", [])]
        report = span_prf(pair_corpora(docs, docs).pairs, MatchMode.LENIENT)
        assert report.per_tag == {}
        m = report.micro
        assert (m.tp, m.fp, m.fn, m.precision, m.recall, m.f1) == (0, 0, 0, 1.0, 1.0, 1.0)

    def test_partial_recall(self):
        refs = _span_doc(
            "d",
            [
                ann("r1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("r2", TagId.EVENT_TYPE, 0, 5, 6),
            ],
        )
        hyp = _span_doc("d", [ann("h1", TagId.EVENT_TYPE, 0, 1, 2)])
        report = span_prf(pair_corpora([refs], [hyp]).pairs, MatchMode.STRICT)
        score = report.per_tag["event_type"]
        assert score.precision == 1.0
        assert score.recall == 0.5
        assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_strict_vs_lenient_on_shifted_span(self):
        refs = _span_doc("d", [ann("r1", TagId.EVENT_TYPE, 0, 3, 6)])
        hyp = _span_doc("d", [ann("h1", TagId.EVENT_TYPE, 0, 2, 5)])
        pairs = pair_corpora([refs], [hyp]).pairs
        strict = span_prf(pairs, MatchMode.STRICT).per_tag["event_type"]
        assert (strict.tp, strict.fp, strict.fn) == (0, 1, 1)
        lenient = span_prf(pairs, MatchMode.LENIENT).per_tag["event_type"]
        assert (lenient.tp, lenient.fp, lenient.fn) == (1, 0, 0)

    def test_mode_given_as_its_value(self):
        refs = _span_doc("d", [ann("r1", TagId.EVENT_TYPE, 0, 3, 6)])
        hyp = _span_doc("d", [ann("h1", TagId.EVENT_TYPE, 0, 2, 5)])
        pairs = pair_corpora([refs], [hyp]).pairs
        for mode in MatchMode:
            assert span_prf(pairs, mode.value) == span_prf(pairs, mode)
        report = span_prf(pairs, "lenient")
        assert report.mode is MatchMode.LENIENT
        assert report.micro.tp == 1

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid MatchMode"):
            span_prf((), "bogus")

    def test_tag_must_match_even_when_spans_align(self):
        refs = _span_doc("d", [ann("r1", TagId.EVENT_TYPE, 0, 3, 6)])
        hyp = _span_doc("d", [ann("h1", TagId.EVENT_MENTION, 0, 3, 6)])
        report = span_prf(pair_corpora([refs], [hyp]).pairs, MatchMode.LENIENT)
        assert report.micro.tp == 0

    def test_event_numbers_ignored_in_matching(self):
        refs = _span_doc("d", [ann("r1", TagId.EVENT_TYPE, 0, 1, 2, events={1})])
        hyp = _span_doc("d", [ann("h1", TagId.EVENT_TYPE, 0, 1, 2, events={2})])
        report = span_prf(pair_corpora([refs], [hyp]).pairs, MatchMode.STRICT)
        assert report.micro.f1 == 1.0

    def test_one_to_one_matching(self):
        # two identical hypothesis spans can consume only one reference
        refs = _span_doc("d", [ann("r1", TagId.EVENT_TYPE, 0, 1, 2)])
        hyp = _span_doc(
            "d",
            [
                ann("h1", TagId.EVENT_TYPE, 0, 1, 2, events={1}),
                ann("h2", TagId.EVENT_TYPE, 0, 1, 2, events={2}),
            ],
        )
        score = span_prf(pair_corpora([refs], [hyp]).pairs, MatchMode.LENIENT).per_tag[
            "event_type"
        ]
        assert (score.tp, score.fp, score.fn) == (1, 1, 0)

    def test_strict_tp_subset_of_lenient(self):
        for seed in range(60):
            base = random_document(random.Random(seed))
            other = random_document(random.Random(seed + 10_000))
            # re-home the other document's annotations onto base's sentences
            remapped = []
            for i, a in enumerate(other.annotations):
                s = a.span.sentence % len(base.sentences)
                n = len(base.sentences[s].tokens)
                start = a.span.start % n
                end = min(n, start + (a.span.end - a.span.start))
                if end <= start:
                    continue
                remapped.append(
                    Annotation(
                        id=f"m{i}", tag=a.tag, span=TokenSpan(s, start, end), events=a.events
                    )
                )
            twin = DocumentRecord(
                doc_id=base.doc_id,
                labels=base.labels,
                sentences=base.sentences,
                annotations=tuple(remapped),
            )
            for pairs in ([(base, twin)], [(twin, base)]):  # each side as the reference
                strict = span_prf(pairs, MatchMode.STRICT)
                lenient = span_prf(pairs, MatchMode.LENIENT)
                assert lenient.micro.tp >= strict.micro.tp
                assert lenient.micro.f1 >= strict.micro.f1
                for tag, s_score in strict.per_tag.items():
                    assert lenient.per_tag[tag].tp >= s_score.tp

    def test_self_agreement_on_random_corpora(self):
        docs = random_corpus(10, seed=3)
        pairs = pair_corpora(docs, docs).pairs
        for mode in MatchMode:
            report = span_prf(pairs, mode)
            assert report.micro.f1 == 1.0
        for level in AgreementLevel:
            result = label_kappa(pairs, level)
            if result.n:
                assert result.kappa == 1.0


def _perturbed_twin(doc: DocumentRecord, rng: random.Random) -> DocumentRecord:
    """``doc`` with its spans shifted by one token, dropped, duplicated and
    retagged; some spans also get a copy widened by a token on each side,
    which competes with the original for one reference; and several extra
    same-tag spans are crowded into one sentence."""
    anns: list[Annotation] = []

    def add(tag: TagId, span: TokenSpan) -> None:
        anns.append(Annotation(id=f"t{len(anns)}", tag=tag, span=span, events=frozenset({1})))

    def clipped(sentence: int, start: int, end: int) -> TokenSpan | None:
        n = len(doc.sentences[sentence].tokens)
        start, end = max(0, start), min(n, end)
        return TokenSpan(sentence, start, end) if start < end else None

    for a in doc.annotations:
        s = a.span
        roll = rng.random()
        if roll < 0.15:
            continue  # dropped
        if roll < 0.35:
            shift = rng.choice((-1, 1))
            span = clipped(s.sentence, s.start + shift, s.end + shift) or s
            add(a.tag, span)
        elif roll < 0.45:
            add(rng.choice(list(TagId)), s)
        elif roll < 0.55:
            add(a.tag, s)
            add(a.tag, s)  # duplicated
        elif roll < 0.65:
            add(a.tag, s)
            add(a.tag, clipped(s.sentence, s.start - 1, s.end + 1) or s)
        else:
            add(a.tag, s)

    # crowd one bucket: several same-tag candidates in one sentence
    tag = rng.choice([a.tag for a in doc.annotations] or list(TagId))
    sentence = rng.randrange(len(doc.sentences))
    n = len(doc.sentences[sentence].tokens)
    for _ in range(rng.randint(2, 5)):
        start = rng.randrange(n)
        add(tag, TokenSpan(sentence, start, min(n, start + rng.randint(1, 3))))
    return DocumentRecord(
        doc_id=doc.doc_id, labels=doc.labels, sentences=doc.sentences, annotations=tuple(anns)
    )


def _counts(report) -> dict[str, tuple[int, int, int]]:
    return {tag: (s.tp, s.fp, s.fn) for tag, s in report.per_tag.items()}


class TestGreedyMatcherOracle:
    """``span_prf`` against the quadratic two-pass scan of ``oracle.py``."""

    def test_random_perturbed_pairs(self):
        crowded = overlap_only = 0
        for seed in range(200):
            rng = random.Random(seed)
            base = random_document(rng)
            twin = _perturbed_twin(base, rng)
            for mode in MatchMode:
                for ref, hyp in ((base, twin), (twin, base)):
                    report = span_prf([(ref, hyp)], mode)
                    expected = greedy_span_match(hyp.annotations, ref.annotations, mode.value)
                    assert _counts(report) == expected, (seed, mode, ref is base)
            strict = span_prf([(base, twin)], MatchMode.STRICT).micro
            lenient = span_prf([(base, twin)], MatchMode.LENIENT).micro
            overlap_only += lenient.tp > strict.tp
            keys = [(a.tag, a.span.sentence) for a in twin.annotations]
            crowded += len(keys) - len(set(keys)) >= 2
        # the perturbations reach both passes and crowded buckets
        assert overlap_only >= 100 and crowded >= 150

    def test_exact_pass_takes_the_reference_first(self):
        # h1 overlaps both references and comes first in canonical order; an
        # overlap-only scan would give it r1 and leave h2 (= r1) unmatched
        refs = _span_doc(
            "d", [ann("r1", TagId.EVENT_TYPE, 0, 1, 2), ann("r2", TagId.EVENT_TYPE, 0, 2, 3)]
        )
        hyp = _span_doc(
            "d", [ann("h1", TagId.EVENT_TYPE, 0, 0, 4), ann("h2", TagId.EVENT_TYPE, 0, 1, 2)]
        )
        report = span_prf([(refs, hyp)], MatchMode.LENIENT)
        assert _counts(report) == {"event_type": (2, 0, 0)}
        assert greedy_span_match(hyp.annotations, refs.annotations, "lenient") == {
            "event_type": (2, 0, 0)
        }


def test_document_levels_are_the_doc_labels():
    doc_levels = [level.value for level in AgreementLevel if level is not AgreementLevel.SENTENCE]
    assert doc_levels == [f"doc_{key}" for key in DOC_LABELS]
