"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
with ``pytest -s`` or ``-rA``):

  1. golden two-event worked example validates clean and assembles exactly;
  2. golden plural-reference example yields three events with their places;
  3. every catalog rule has an isolating fixture and a clean sibling;
  4. engine E030 equals the brute-force clause checker on 1,000 seeded docs;
  5. parse/serialize round-trip on a 500-document randomized corpus,
     byte-identical second serialization;
  6. agreement calibration: exact self-agreement, near-zero kappa on
     independent uniform labels, and the hand-derived kappa fixture;
  7. validate + assemble of the benchmark generator's ``bulk`` seeds 1-15
     (10,500 documents) in < 5 s, reporting exactly the diagnostics the
     generator planted in them (a silent rule fails it).
"""

import gc
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from glocon.agreement import AgreementLevel, MatchMode, _kappa, label_kappa, pair_corpora, span_prf
from glocon.assemble import assemble_events
from glocon.io import parse_corpus, serialize_corpus
from glocon.lint import Severity, validate_corpus, validate_document
from glocon.model import ProtestLabel

import checks
from golden_docs import bjp_square_doc, karnataka_doc
from oracle import brute_force_e030_pairs
from randdocs import random_corpus, random_document
from rule_fixtures import CATALOG_FIXTURE_RULES, RULE_FIXTURES
from test_agreement import _labeled_doc


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_golden_two_event_example():
    with criterion("golden two-event worked example"):
        doc = bjp_square_doc()
        diagnostics = validate_document(doc)
        assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
        assert diagnostics == []

        records = assemble_events(doc)
        assert len(records) == 2
        first, second = records

        assert first.event_number == 1
        assert [t.text for t in first.times] == ["At noon"]
        assert [(o.text, o.semantic) for o in first.organizers] == [("BJP", "political_party")]
        assert [(p.text, p.semantic) for p in first.participants] == [("workers", "people")]
        assert [(t.text, t.is_type) for t in first.triggers] == [
            ("gathered", True),
            ("shouted slogans", False),
        ]
        assert first.semantic_category == "demonstration"
        assert [f.text for f in first.facilities] == ["in the square"]
        assert [t.text for t in first.targets] == ["Union Government"]

        assert second.event_number == 2
        assert [t.text for t in second.times] == ["last year's"]
        assert [(t.text, t.is_type) for t in second.triggers] == [
            ("attack", True),
            ("killed", False),
        ]
        assert second.semantic_category == "armed_militancy"
        assert [f.text for f in second.facilities] == ["at the train station"]
        assert [p.text for p in second.participants] == ["militants"]


def test_golden_plural_reference_example():
    with criterion("golden plural-reference example"):
        doc = karnataka_doc()
        assert validate_document(doc) == []
        records = assemble_events(doc)
        assert [r.event_number for r in records] == [1, 2, 3]
        assert [[p.text for p in r.places] for r in records] == [
            ["Karnataka"],
            ["Bangalore"],
            ["Mysore"],
        ]


def test_negative_goldens_cover_the_catalog():
    with criterion("negative goldens for every catalog rule"):
        assert len(CATALOG_FIXTURE_RULES) == 19
        passed = 0
        for rule_id in CATALOG_FIXTURE_RULES:
            bad, fixed = RULE_FIXTURES[rule_id]
            assert {d.rule for d in validate_document(bad)} == {rule_id}, rule_id
            assert validate_document(fixed) == [], rule_id
            passed += 1
        assert passed == len(CATALOG_FIXTURE_RULES)


def test_overlap_oracle_equivalence():
    with criterion("overlap oracle equivalence on 1,000 seeded documents"):
        agreements = 0
        for seed in range(1_000):
            doc = random_document(random.Random(seed), max_annotations=12)
            assert len(doc.annotations) <= 12
            engine = {
                frozenset(d.annotation_ids)
                for d in validate_document(doc)
                if d.rule == "E030"
            }
            assert engine == brute_force_e030_pairs(doc), f"seed {seed}"
            agreements += 1
        assert agreements == 1_000


def test_round_trip_on_randomized_corpus():
    with criterion("round-trip identity on a 500-document corpus"):
        docs = random_corpus(500, seed=2024)
        first_bytes = serialize_corpus(docs)
        parsed, errors = parse_corpus(first_bytes)
        assert errors == []
        assert parsed == docs  # field-by-field equality
        second_bytes = serialize_corpus(parsed)
        assert second_bytes == first_bytes  # byte-identical


def test_agreement_calibration():
    with criterion("agreement calibration"):
        # self-agreement is exact at every level
        docs = random_corpus(50, seed=7)
        pairs = pair_corpora(docs, docs).pairs
        for level in AgreementLevel:
            result = label_kappa(pairs, level)
            if result.n:
                assert result.kappa == 1.0
        for mode in MatchMode:
            assert span_prf(pairs, mode).micro.f1 == 1.0

        # independent uniform labels stay near zero
        rng = random.Random(20_240_817)
        uniform = [
            (rng.choice(["protest", "no_protest"]), rng.choice(["protest", "no_protest"]))
            for _ in range(10_000)
        ]
        result = _kappa(AgreementLevel.DOC_PROTEST, Counter(uniform), 0)
        assert abs(result.kappa) < 0.05

        # hand-derived fixture: p_o = 0.8 with marginals 0.6 / 0.5 gives 0.6
        cells = [("p", "p")] * 9 + [("p", "n")] * 3 + [("n", "p")] * 1 + [("n", "n")] * 7
        a_docs = [
            _labeled_doc(f"d{i}", protest=ProtestLabel.PROTEST if la == "p" else ProtestLabel.NO_PROTEST)
            for i, (la, _) in enumerate(cells)
        ]
        b_docs = [
            _labeled_doc(f"d{i}", protest=ProtestLabel.PROTEST if lb == "p" else ProtestLabel.NO_PROTEST)
            for i, (_, lb) in enumerate(cells)
        ]
        result = label_kappa(pair_corpora(a_docs, b_docs).pairs, AgreementLevel.DOC_PROTEST)
        assert result.kappa == pytest.approx(0.6, abs=1e-12)


def test_performance_budget(workload):
    with criterion("validate + assemble 10,500 documents in under 5 s"):
        docs, expected = [], {"lint": {}, "separation": {}}
        enabled = gc.isenabled()
        gc.disable()  # no cycles to find while the corpus grows, only time to spend
        try:
            for seed in range(1, 16):
                bulk = workload("bulk", seed)
                parsed, errors = parse_corpus(bulk["a"])
                assert errors == []
                docs += parsed
                for key in expected:
                    expected[key].update(bulk["expected"][key])
        finally:
            if enabled:
                gc.enable()
        planted = sum(len(diags) for diags in expected["lint"].values())
        assert len(docs) >= 10_000 and planted >= 29_000
        timings = []
        for _ in range(2):
            gc.collect()
            started = time.perf_counter()
            report = validate_corpus(docs)
            for doc in docs:
                assemble_events(doc)
            timings.append(time.perf_counter() - started)
        best = min(timings)
        print(
            f"validate+assemble {len(docs)} docs, {len(report.diagnostics)} diagnostics: "
            f"{best:.2f}s (runs: {[f'{t:.2f}' for t in timings]})"
        )
        # every planted diagnostic and nothing else; the W140/W141 plants that
        # only check_separation reports are counted as missed, not as problems
        problems, _ = checks.diagnostics([d.to_obj() for d in report.diagnostics], expected)
        assert problems == []
        assert best < 5.0
