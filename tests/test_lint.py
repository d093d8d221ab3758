import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocon.lint import (
    CATALOG,
    DEFAULT_CONFIG,
    ConfigError,
    LintConfig,
    Lexicons,
    Severity,
    allowed_overlap,
    count_at_or_above,
    is_punctuation_token,
    load_config,
    validate_corpus,
    validate_document,
)
from glocon.model import (
    Annotation,
    DocumentLabels,
    DocumentRecord,
    ProtestLabel,
    SentenceLabel,
    SentenceRecord,
    TagId,
    TokenSpan,
)
from golden_docs import ann, bjp_square_doc, karnataka_doc, sent
from oracle import brute_force_e030_pairs
from randdocs import random_corpus, random_document
from rule_fixtures import RULE_FIXTURES


def _doc(doc_id, sentences, annotations, labels=DocumentLabels()):
    return DocumentRecord(
        doc_id=doc_id, labels=labels, sentences=tuple(sentences), annotations=tuple(annotations)
    )


class TestAllowedOverlap:
    def _pair(self, tag_a, span_a, tag_b, span_b, events_a={1}, events_b={1}):
        a = Annotation(id="a", tag=tag_a, span=span_a, events=frozenset(events_a))
        b = Annotation(id="b", tag=tag_b, span=span_b, events=frozenset(events_b))
        return a, b

    def test_participant_attribute_coterminous(self):
        # [Maoists] = participant_type + participant_ideology
        a, b = self._pair(
            TagId.PARTICIPANT_TYPE, TokenSpan(0, 4, 5), TagId.PARTICIPANT_IDEOLOGY, TokenSpan(0, 4, 5)
        )
        assert allowed_overlap(a, b) and allowed_overlap(b, a)

    def test_facility_name_with_target_name(self):
        # "at the Office of Traffic Monitoring": facility and target share tokens
        a, b = self._pair(
            TagId.FACILITY_NAME, TokenSpan(0, 3, 8), TagId.TARGET_NAME, TokenSpan(0, 5, 8)
        )
        assert allowed_overlap(a, b)

    def test_type_inside_name_never_licensed(self):
        # "Hospital" may not take facility_type inside "Safdarjung Hospital"
        a, b = self._pair(
            TagId.FACILITY_TYPE, TokenSpan(0, 2, 3), TagId.FACILITY_NAME, TokenSpan(0, 1, 3)
        )
        assert not allowed_overlap(a, b)
        # not even for disjoint event sets
        a, b = self._pair(
            TagId.FACILITY_TYPE,
            TokenSpan(0, 2, 3),
            TagId.FACILITY_NAME,
            TokenSpan(0, 1, 3),
            events_a={1},
            events_b={2},
        )
        assert not allowed_overlap(a, b)

    def test_unrelated_tags_same_event_not_licensed(self):
        a, b = self._pair(
            TagId.EVENT_TYPE, TokenSpan(0, 1, 2), TagId.PARTICIPANT_TYPE, TokenSpan(0, 1, 2)
        )
        assert not allowed_overlap(a, b)

    def test_different_events_licensed(self):
        a, b = self._pair(
            TagId.PARTICIPANT_TYPE,
            TokenSpan(0, 1, 2),
            TagId.TARGET_TYPE,
            TokenSpan(0, 1, 2),
            events_a={1},
            events_b={2},
        )
        assert allowed_overlap(a, b)

    def test_document_title_licenses_anything(self):
        a, b = self._pair(
            TagId.DOCUMENT_TITLE, TokenSpan(0, 0, 6), TagId.EVENT_TYPE, TokenSpan(0, 2, 3)
        )
        assert allowed_overlap(a, b)

    def test_organizer_attribute_contained_in_name(self):
        # [Communist Party of India (Marxist)] = organizer_name, [Communist] = organizer_ideology
        a, b = self._pair(
            TagId.ORGANIZER_NAME, TokenSpan(0, 0, 6), TagId.ORGANIZER_IDEOLOGY, TokenSpan(0, 0, 1)
        )
        assert allowed_overlap(a, b)

    def test_semantic_requires_coterminosity(self):
        a, b = self._pair(
            TagId.EVENT_TYPE, TokenSpan(0, 1, 3), TagId.DEMONSTRATION, TokenSpan(0, 1, 2)
        )
        assert not allowed_overlap(a, b)

    def test_participant_semantic_not_licensed_on_name(self):
        a, b = self._pair(
            TagId.PARTICIPANT_NAME, TokenSpan(0, 1, 2), TagId.WORKER, TokenSpan(0, 1, 2)
        )
        assert not allowed_overlap(a, b)


class TestTriggerDiscipline:
    def test_second_body_event_type_flagged(self):
        doc = _doc(
            "two-types",
            [sent(0, "Protesters marched and rallied .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("e2", TagId.EVENT_TYPE, 0, 3, 4),
                ann("e2s", TagId.DEMONSTRATION, 0, 3, 4),
            ],
        )
        assert {d.rule for d in validate_document(doc)} == {"E021"}

    def test_title_and_body_event_type_both_allowed(self):
        doc = _doc(
            "title-and-body",
            [sent(0, "March in Delhi"), sent(1, "Protesters marched today .")],
            [
                ann("title", TagId.DOCUMENT_TITLE, 0, 0, 3),
                ann("te", TagId.EVENT_TYPE, 0, 0, 1),
                ann("tes", TagId.DEMONSTRATION, 0, 0, 1),
                ann("e1", TagId.EVENT_TYPE, 1, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 1, 1, 2),
            ],
        )
        assert validate_document(doc) == []

    def test_multi_event_trigger_counts_for_each_event(self):
        # a trigger numbered {1, 2} is the event_type of both its events
        doc = _doc(
            "multi-number",
            [sent(0, "Protesters marched and rallied .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2, events={1, 2}),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2, events={1, 2}),
                ann("e2", TagId.EVENT_TYPE, 0, 3, 4, events={2}),
                ann("e2s", TagId.DEMONSTRATION, 0, 3, 4, events={2}),
            ],
        )
        diags = validate_document(doc)
        assert [d.rule for d in diags] == ["E021"]
        assert "event 2" in diags[0].message

    def test_trigger_with_two_semantics_flagged(self):
        doc = _doc(
            "two-sems",
            [sent(0, "Protesters marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("s1", TagId.DEMONSTRATION, 0, 1, 2),
                ann("s2", TagId.INDUSTRIAL_ACTION, 0, 1, 2),
            ],
        )
        rules = {d.rule for d in validate_document(doc)}
        # the stacked semantic tags also overlap each other without a license
        assert rules == {"E021", "E030"}


class TestRuleDetails:
    def test_doc_info_exempt_from_trigger_sentence_rule(self):
        doc = _doc(
            "pub-info",
            [sent(0, "Sep 8 , 2001 , 23:34 IST"), sent(1, "Protesters marched .")],
            [
                ann("pub", TagId.EVENT_TIME_PUBLISHED, 0, 0, 7),
                ann("e1", TagId.EVENT_TYPE, 1, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 1, 1, 2),
            ],
        )
        assert validate_document(doc) == []

    def test_i150_names_the_heads_in_canonical_order(self):
        # ids and category names both sort against the canonical order
        semantics = [TagId.WORKER, TagId.STUDENT, TagId.PROFESSIONAL, TagId.WORKER]
        doc = _doc(
            "three-variants",
            [sent(n, "Teachers marched .") for n in range(4)],
            [
                annotation
                for n, (head, semantic) in enumerate(zip(["p3", "p1", "p2", "p0"], semantics))
                for annotation in (
                    ann(f"e{n}", TagId.EVENT_TYPE, n, 1, 2),
                    ann(f"e{n}s", TagId.DEMONSTRATION, n, 1, 2),
                    ann(head, TagId.PARTICIPANT_TYPE, n, 0, 1),
                    ann(f"{head}s", semantic, n, 0, 1),
                )
            ],
        )
        [diag] = [d for d in validate_document(doc) if d.rule == "I150"]
        assert (diag.span, diag.annotation_ids) == (TokenSpan(1, 0, 1), ("p3", "p1", "p2"))
        assert diag.message.endswith("semantic tags: ['professional', 'student', 'worker']")

    def test_capitalized_the_not_flagged(self):
        doc = _doc(
            "official-the",
            [sent(0, "Protesters marched to The Supreme Court .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("f1", TagId.FACILITY_NAME, 0, 3, 6),
            ],
        )
        assert validate_document(doc) == []

    def test_w120_pair_not_double_reported_as_e030(self):
        doc = _doc(
            "locid",
            [sent(0, "Protesters marched in the square .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("f1", TagId.FACILITY_TYPE, 0, 2, 5),
                ann("u1", TagId.URBAN_LOCATION_IDENTIFIER, 0, 4, 5),
            ],
        )
        assert {d.rule for d in validate_document(doc)} == {"W120"}
        # the split is unconditional: disabling W120 does not revive E030
        cfg = LintConfig(disabled_rules=frozenset({"W120"}))
        assert validate_document(doc, cfg) == []

    def test_semantic_tag_on_an_argument_is_not_reported_again(self):
        doc = _doc(
            "d",
            [sent(0, "Protesters marched ."), sent(1, "Workers were angry .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("p1", TagId.PARTICIPANT_TYPE, 1, 0, 1),
                ann("p1s", TagId.WORKER, 1, 0, 1),
            ],
        )
        e010 = [d for d in validate_document(doc) if d.rule == "E010"]
        assert [d.annotation_ids for d in e010] == [("p1",)]

    def test_event_only_on_a_semantic_tag_is_not_an_e020(self):
        doc = _doc(
            "d",
            [sent(0, "Workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("w2", TagId.WORKER, 0, 0, 1, events={2}),
            ],
        )
        found = [(d.rule, d.annotation_ids) for d in validate_document(doc)]
        assert found == [("E022", ("w2",))]

    def test_w121_counts_event_numbers_of_semantic_tags(self):
        doc = _doc(
            "d",
            [sent(0, "Workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("w3", TagId.WORKER, 0, 0, 1, events={3}),
            ],
        )
        w121 = [d for d in validate_document(doc) if d.rule == "W121"]
        assert [d.annotation_ids for d in w121] == [("w3",)]
        assert "[1, 3]" in w121[0].message

    def test_w121_message_names_missing_numbers(self):
        doc = _doc(
            "gap",
            [sent(0, "Protesters marched ."), sent(1, "Workers rallied .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("e2", TagId.EVENT_TYPE, 1, 1, 2, events={4}),
                ann("e2s", TagId.DEMONSTRATION, 1, 1, 2, events={4}),
            ],
        )
        diags = [d for d in validate_document(doc) if d.rule == "W121"]
        assert len(diags) == 1
        assert "[2, 3]" in diags[0].message

    def test_w121_skips_document_info_carriers(self):
        # e1 comes first and the title carries event 3 before t3 does, but
        # W121 is located at the first carrier that is not document info
        doc = _doc(
            "d",
            [sent(0, "March in Delhi"), sent(1, "Protesters marched today .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 0, 1),
                ann("e1s", TagId.DEMONSTRATION, 0, 0, 1),
                ann("title", TagId.DOCUMENT_TITLE, 0, 0, 3, events={3}),
                ann("t3", TagId.EVENT_TIME, 1, 2, 3, events={3}),
            ],
        )
        w121 = [d for d in validate_document(doc) if d.rule == "W121"]
        assert [d.annotation_ids for d in w121] == [("t3",)]

    def test_punctuation_token_class(self):
        assert is_punctuation_token(",")
        assert is_punctuation_token("...")
        assert is_punctuation_token("$+")
        assert not is_punctuation_token("a.")
        assert not is_punctuation_token("3")
        assert not is_punctuation_token("word")


class TestConfig:
    def test_severity_override(self):
        doc = _doc(
            "override",
            [sent(0, "Protesters marched against the government .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("g1", TagId.TARGET_TYPE, 0, 3, 5),
            ],
        )
        cfg = LintConfig(severity_overrides={"W103": Severity.ERROR})
        diags = validate_document(doc, cfg)
        assert [d.severity for d in diags if d.rule == "W103"] == [Severity.ERROR]

    def test_severity_override_given_as_a_string(self):
        bad, _ = RULE_FIXTURES["W103"]
        cfg = LintConfig(severity_overrides={"W103": "error"})
        [diag] = validate_document(bad, cfg)
        assert diag.severity is Severity.ERROR
        assert " W103 error " in diag.render()
        assert count_at_or_above(validate_corpus([bad], cfg).totals, Severity.ERROR) == 1

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigError):
            LintConfig(severity_overrides={"W103": "bogus"})

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            LintConfig(severity_overrides={"E999": Severity.ERROR})
        with pytest.raises(ConfigError):
            LintConfig(disabled_rules=frozenset({"X001"}))

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "lint.json"
        path.write_text(
            json.dumps(
                {
                    "severity_overrides": {"W101": "error"},
                    "disabled_rules": ["W103"],
                    "lexicons": {
                        "articles_indefinite": ["un", "una"],
                        "countries": ["Argentina"],
                    },
                }
            )
        )
        cfg = load_config(str(path))
        severity = {rule_id: sev for rule_id, sev, _ in cfg.rules}
        assert severity["W101"] is Severity.ERROR
        assert "W103" not in severity
        assert cfg.lexicons.articles_indefinite == {"un", "una"}
        assert "india" not in cfg.lexicons.countries

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Lexicons(countries="brazil"), "lexicon countries must be a list"),
            (lambda: Lexicons(estimation_qualifiers={"more", "more than"}),
             "lexicon estimation_qualifiers must be a list"),
            (lambda: LintConfig(severity_overrides=["W103"]),
             "severity_overrides must be a JSON object"),
            (lambda: Lexicons(countries=[1]), "lexicon countries must be a list"),
            (lambda: LintConfig(disabled_rules="W103"), "disabled_rules must be a JSON list"),
            (lambda: LintConfig(lexicons={}), "lexicons must be a Lexicons"),
        ],
        ids=["str-word-list", "qualifier-set", "overrides-list", "non-string-word",
             "str-disabled-rules", "dict-lexicons"],
    )
    def test_constructors_check_what_from_obj_checks(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "lint.json"
        path.write_text(json.dumps({"rules": []}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_overlapping_qualifiers_give_one_w131(self):
        doc = _doc(
            "qualifiers",
            [sent(0, "more than 500 workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 4, 5),
                ann("e1s", TagId.DEMONSTRATION, 0, 4, 5),
                ann("c1", TagId.PARTICIPANT_COUNT, 0, 0, 3),
            ],
        )
        cfg = LintConfig(lexicons=Lexicons(estimation_qualifiers=("more", "more than")))
        w131 = [d for d in validate_document(doc, cfg) if d.rule == "W131"]
        assert [d.message for d in w131] == [
            "participant_count begins with estimation qualifier 'more'"
        ]
        # the first qualifier in each config's own order wins, whichever config ran last
        longest_first = LintConfig(lexicons=Lexicons(estimation_qualifiers=("more than", "more")))
        replaced = cfg._replace(lexicons=cfg.lexicons._replace(
            estimation_qualifiers=("more than", "more")))
        for config, qualifier in [(longest_first, "more than"), (cfg, "more"),
                                  (replaced, "more than"), (cfg, "more")]:
            assert [d.message for d in validate_document(doc, config) if d.rule == "W131"] == [
                f"participant_count begins with estimation qualifier {qualifier!r}"
            ]

    def test_custom_lexicon_drives_w130(self):
        doc = _doc(
            "custom-gazetteer",
            [sent(0, "Farmers marched across Wakanda .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("pl", TagId.EVENT_PLACE, 0, 3, 4),
            ],
        )
        assert validate_document(doc) == []
        cfg = LintConfig(lexicons=Lexicons(countries=frozenset({"Wakanda"})))
        assert {d.rule for d in validate_document(doc, cfg)} == {"W130"}


def _check_of(rule_id):
    return CATALOG[rule_id].check


_EXAMPLE_CONFIG = LintConfig(
    severity_overrides={"W101": "error"},
    disabled_rules=["W103"],
    lexicons=Lexicons(countries=["Wakanda"], estimation_qualifiers=["more", "more than"]),
)


class TestFrozenConfig:
    @pytest.mark.parametrize(
        "assign",
        [
            lambda: setattr(LintConfig(), "lexicons", {}),
            lambda: setattr(LintConfig(), "rules", 5),
            lambda: setattr(Lexicons(), "estimation_qualifiers", ("more",)),
        ],
        ids=["lexicons", "rules", "estimation_qualifiers"],
    )
    def test_a_field_cannot_be_assigned(self, assign):
        with pytest.raises(AttributeError):
            assign()

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"lexicons": {}}, "lexicons must be a Lexicons"),
            ({"rules": list(_EXAMPLE_CONFIG.rules)}, "rules must be"),
            ({"rules": (5,)}, "rules must be"),
            ({"rules": ((),)}, "rules must be"),
            ({"rules": (([], Severity.ERROR, _check_of("W101")),)}, "rules must be"),
            ({"rules": (("Z999", Severity.ERROR, _check_of("W101")),)},
             "severity override for unknown rule 'Z999'"),
            ({"rules": (("W101", Severity.WARNING, _check_of("W103")),)}, "rules must be"),
            ({"rules": _EXAMPLE_CONFIG.rules[::-1]}, "rules must be"),
            ({"rules": (("W101", "bogus", _check_of("W101")),)}, "bad severity 'bogus'"),
        ],
        ids=["dict-lexicons", "list-rules", "int-rule", "empty-rule", "unhashable-id",
             "unknown-id", "wrong-check", "reversed-rules", "bad-severity"],
    )
    def test_replace_checks_what_the_constructor_checks(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            _EXAMPLE_CONFIG._replace(**fields)

    def test_replace_builds_what_the_constructor_builds(self):
        lexicons = Lexicons(articles_definite=["la"])
        replaced = _EXAMPLE_CONFIG._replace(lexicons=lexicons)
        assert replaced == LintConfig({"W101": "error"}, ["W103"], lexicons)
        assert replaced._replace(rules=DEFAULT_CONFIG.rules) == LintConfig(lexicons=lexicons)
        assert _EXAMPLE_CONFIG.lexicons._replace(countries=["Wakanda"]) == _EXAMPLE_CONFIG.lexicons
        with pytest.raises(ConfigError, match="lexicon countries must be a list"):
            _EXAMPLE_CONFIG.lexicons._replace(countries="Wakanda")

    @pytest.mark.parametrize(
        "copier",
        [lambda cfg: pickle.loads(pickle.dumps(cfg)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_copy_equals_and_hashes_as_the_original(self, copier):
        for cfg in (_EXAMPLE_CONFIG, DEFAULT_CONFIG):
            again = copier(cfg)
            assert again == cfg and hash(again) == hash(cfg)
            bad, _ = RULE_FIXTURES["W101"]
            assert validate_document(bad, again) == validate_document(bad, cfg)


_rule_id = st.sampled_from([*CATALOG, "Z999"])
_word = st.sampled_from(["the", "a", "more than", "India", " ", ""]) | st.text(max_size=4)
_json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | _rule_id | st.sampled_from(list(Severity))
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _or_any(valid):
    """Mostly a well-formed value, sometimes any JSON value."""
    return st.one_of(valid, valid, _json_value)


def _collection(elements):
    """A list, tuple, set or frozenset of ``elements``."""
    items = st.lists(elements, max_size=3)
    return st.one_of(items, items.map(tuple), items.map(set), items.map(frozenset))


_severities = st.sampled_from(["error", "warning", "info", "bogus", *Severity])
_lexicons_obj = st.fixed_dictionaries(
    {}, optional={key: _or_any(st.lists(_word, max_size=3)) for key in Lexicons._fields}
)
_config_obj = st.fixed_dictionaries(
    {},
    optional={
        "severity_overrides": _or_any(st.dictionaries(_rule_id, _severities, max_size=3)),
        "disabled_rules": _or_any(st.lists(_rule_id, max_size=4)),
        "lexicons": _or_any(_lexicons_obj),
    },
)
# keyword arguments of Lexicons and of LintConfig, as a library caller may pass them
_lexicons_kwargs = st.fixed_dictionaries(
    {}, optional={key: _or_any(_collection(_word)) for key in Lexicons._fields}
)
_config_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "severity_overrides": _or_any(st.dictionaries(_rule_id, _severities, max_size=3)),
        "disabled_rules": _or_any(_collection(_rule_id)),
        "lexicons": _json_value,
    },
)


def _check_fixtures(cfg):
    """Validate every rule fixture under ``cfg``; no exception may come out."""
    for bad, fixed in RULE_FIXTURES.values():
        for diag in [*validate_document(bad, cfg), *validate_document(fixed, cfg)]:
            assert diag.severity in Severity


class TestConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(_config_obj | _json_value)
    def test_from_obj_builds_a_config_or_raises_config_error(self, obj):
        try:
            cfg = LintConfig.from_obj(obj)
        except ConfigError:
            return
        _check_fixtures(cfg)

    @settings(max_examples=300, deadline=None)
    @given(_config_kwargs, st.none() | _lexicons_kwargs)
    def test_the_constructors_build_a_config_or_raise_config_error(self, kwargs, lexicons):
        try:
            if lexicons is not None:
                kwargs["lexicons"] = Lexicons(**lexicons)
            cfg = LintConfig(**kwargs)
        except ConfigError:
            return
        _check_fixtures(cfg)

    @settings(max_examples=200, deadline=None)
    @given(_config_obj)
    def test_an_accepted_config_is_a_fixed_point_of_make_and_pickle(self, obj):
        try:
            cfg = LintConfig.from_obj(obj)
        except ConfigError:
            return
        assert Lexicons._make(cfg.lexicons) == cfg.lexicons
        built_again = LintConfig.from_obj(json.loads(json.dumps(obj)))
        for again in (LintConfig._make(cfg), pickle.loads(pickle.dumps(cfg)), built_again):
            assert again == cfg and hash(again) == hash(cfg)

    def test_default_config_runs_every_check_in_catalog_order(self):
        assert DEFAULT_CONFIG.rules == tuple(
            (r.id, r.severity, r.check) for r in CATALOG.values() if r.check is not None
        )

    @pytest.mark.parametrize("rule_id", [r.id for r in CATALOG.values() if r.check is not None])
    def test_a_config_with_one_rule_left_runs_exactly_that_rule(self, rule_id):
        # built as the traced benchmark builds its single-rule configs
        cfg = LintConfig(disabled_rules=frozenset(CATALOG) - {rule_id})
        assert [r for r, _, _ in cfg.rules] == [rule_id]
        for seed in range(20):
            doc = random_document(random.Random(seed))
            assert validate_document(doc, cfg) == [
                d for d in validate_document(doc) if d.rule == rule_id
            ]

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_a_severity_override_reaches_the_diagnostic(self, rule_id):
        bad, _ = RULE_FIXTURES[rule_id]
        for sev in Severity:
            cfg = LintConfig(severity_overrides={rule_id: sev.value})
            diags = validate_document(bad, cfg)
            assert diags and all(d.severity is sev for d in diags)


class TestEngineProperties:
    def test_determinism(self):
        for seed in range(20):
            doc = random_document(random.Random(seed))
            assert validate_document(doc) == validate_document(doc)

    def test_canonical_ordering(self):
        for seed in range(50):
            doc = random_document(random.Random(seed))
            diags = validate_document(doc)
            keys = [d.sort_key() for d in diags]
            assert keys == sorted(keys)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_disabling_a_rule_removes_exactly_its_diagnostics(self, seed):
        doc = random_document(random.Random(seed))
        base = validate_document(doc)
        for rule_id in {d.rule for d in base} | {"E030", "W101"}:
            cfg = LintConfig(disabled_rules=frozenset({rule_id}))
            assert validate_document(doc, cfg) == [d for d in base if d.rule != rule_id]
            # an override changes that rule's severity and nothing else
            other = Severity.ERROR if CATALOG[rule_id].severity is Severity.INFO else Severity.INFO
            cfg = LintConfig(severity_overrides={rule_id: other})
            assert validate_document(doc, cfg) == [
                d._replace(severity=other) if d.rule == rule_id else d for d in base
            ]

    def test_oracle_equivalence_small(self):
        for seed in range(200):
            doc = random_document(random.Random(seed))
            engine = {
                frozenset(d.annotation_ids)
                for d in validate_document(doc)
                if d.rule == "E030"
            }
            assert engine == brute_force_e030_pairs(doc), f"seed {seed}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=2**30))
    def test_locality_of_added_annotation(self, seed, ann_seed):
        # adding an annotation to sentence k only moves diagnostics in
        # sentences sharing an event number with it (W121 contiguity and the
        # cross-sentence I150 consistency check are inherently non-local)
        doc = random_document(random.Random(seed), max_annotations=8)
        rng = random.Random(ann_seed)
        sentence = rng.randrange(len(doc.sentences))
        n_tokens = len(doc.sentences[sentence].tokens)
        start = rng.randrange(n_tokens)
        end = min(n_tokens, start + rng.randint(1, 3))
        extra = Annotation(
            id="added",
            tag=rng.choice(list(TagId)),
            span=TokenSpan(sentence, start, end),
            events=frozenset({rng.randint(1, 3)}),
        )
        grown = DocumentRecord(
            doc_id=doc.doc_id,
            labels=doc.labels,
            sentences=doc.sentences,
            annotations=doc.annotations + (extra,),
        )
        before = {d for d in validate_document(doc) if d.rule not in ("W121", "I150")}
        after = {d for d in validate_document(grown) if d.rule not in ("W121", "I150")}

        sentences_sharing = {sentence}
        for old in doc.annotations:
            if not old.events.isdisjoint(extra.events):
                sentences_sharing.add(old.span.sentence)
        for diag in before.symmetric_difference(after):
            assert diag.sentence in sentences_sharing, diag

    def test_corpus_totals_match_recount(self):
        docs = random_corpus(30, seed=7)
        report = validate_corpus(docs)
        recount = {}
        for doc in docs:
            for diag in validate_document(doc):
                recount[diag.severity] = recount.get(diag.severity, 0) + 1
        for sev in Severity:
            recount.setdefault(sev, 0)
        assert dict(report.totals) == recount
        assert list(report.diagnostics) == [
            d for doc in docs for d in validate_document(doc)
        ]

    def test_empty_corpus_report(self):
        report = validate_corpus([])
        assert report.diagnostics == ()
        assert all(v == 0 for v in report.totals.values())

    def test_clean_corpus_yields_nothing(self):
        report = validate_corpus([bjp_square_doc(), karnataka_doc()])
        assert report.diagnostics == ()

    def test_no_protest_document_without_content_is_clean(self):
        doc = DocumentRecord(
            doc_id="quiet",
            labels=DocumentLabels(protest=ProtestLabel.NO_PROTEST),
            sentences=tuple(
                SentenceRecord(index=i, tokens=("just", "news"), label=SentenceLabel.NON_EVENT)
                for i in range(3)
            ),
        )
        assert validate_document(doc) == []
