import csv
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glocon.assemble import (
    assemble_events,
    assemble_rendered,
    check_separation,
    csv_rows,
    export_rows,
    rows_to_csv,
    rows_to_jsonl,
    EXPORT_COLUMNS,
    ExportRow,
)
from glocon.io import parse_corpus, serialize_corpus
from glocon.lint import validate_document
from glocon.model import (
    ARGUMENT_TAGS,
    DocumentLabels,
    DocumentRecord,
    Focus,
    TagId,
)
from golden_docs import ann, sent
from oracle import (
    ORGANIZER_HEADS,
    PARTICIPANT_HEADS,
    TRIGGERS,
    brute_force_in_title,
    brute_force_records,
    brute_force_semantic,
)
from randdocs import HOSTILE_TEXT, random_document


def _doc(doc_id, sentences, annotations, labels=DocumentLabels()):
    return DocumentRecord(
        doc_id=doc_id, labels=labels, sentences=tuple(sentences), annotations=tuple(annotations)
    )


class TestGoldenAssembly:
    def test_bjp_two_records(self, bjp_doc):
        records = assemble_events(bjp_doc)
        assert [r.event_number for r in records] == [1, 2]
        first, second = records

        assert [t.text for t in first.times] == ["At noon"]
        assert [(o.text, o.semantic) for o in first.organizers] == [
            ("BJP", "political_party")
        ]
        assert [(p.text, p.semantic) for p in first.participants] == [
            ("workers", "people")
        ]
        assert [(t.text, t.is_type) for t in first.triggers] == [
            ("gathered", True),
            ("shouted slogans", False),
        ]
        assert first.semantic_category == "demonstration"
        assert [f.text for f in first.facilities] == ["in the square"]
        assert [t.text for t in first.targets] == ["Union Government"]
        assert first.places == ()

        assert [t.text for t in second.times] == ["last year's"]
        assert [(t.text, t.is_type) for t in second.triggers] == [
            ("attack", True),
            ("killed", False),
        ]
        assert second.semantic_category == "armed_militancy"
        assert [f.text for f in second.facilities] == ["at the train station"]
        assert [(p.text, p.semantic) for p in second.participants] == [
            ("militants", "militant")
        ]
        assert second.organizers == () and second.targets == ()

    def test_karnataka_three_records(self, karnataka):
        records = assemble_events(karnataka)
        assert [r.event_number for r in records] == [1, 2, 3]
        assert [[p.text for p in r.places] for r in records] == [
            ["Karnataka"],
            ["Bangalore"],
            ["Mysore"],
        ]
        assert records[0].organizers[0].semantic == "union"
        assert all(r.semantic_category == "demonstration" for r in records)

    def test_goldens_pass_separation_checks(self, bjp_doc, karnataka):
        assert check_separation(assemble_events(bjp_doc)) == []
        assert check_separation(assemble_events(karnataka)) == []


class TestAssemblyRules:
    def test_single_unnumbered_event(self):
        doc = _doc(
            "single",
            [sent(0, "Workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("p1", TagId.PARTICIPANT_TYPE, 0, 0, 1),
                ann("p1s", TagId.WORKER, 0, 0, 1),
            ],
        )
        records = assemble_events(doc)
        assert len(records) == 1
        assert records[0].event_number == 1

    def test_multi_numbered_annotation_in_both_records(self):
        doc = _doc(
            "shared",
            [sent(0, "Protesters marched in Delhi and Agra .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2, events={1, 2}),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2, events={1, 2}),
                ann("pl1", TagId.EVENT_PLACE, 0, 3, 4, events={1}),
                ann("pl2", TagId.EVENT_PLACE, 0, 5, 6, events={2}),
            ],
        )
        records = assemble_events(doc)
        assert [r.event_number for r in records] == [1, 2]
        assert all(t.text == "marched" for r in records for t in r.triggers)
        assert [p.text for p in records[0].places] == ["Delhi"]
        assert [p.text for p in records[1].places] == ["Agra"]

    def test_title_trigger_marked(self):
        doc = _doc(
            "title",
            [sent(0, "March in Delhi"), sent(1, "Protesters marched today .")],
            [
                ann("title", TagId.DOCUMENT_TITLE, 0, 0, 3),
                ann("te", TagId.EVENT_TYPE, 0, 0, 1),
                ann("tes", TagId.DEMONSTRATION, 0, 0, 1),
                ann("e1", TagId.EVENT_MENTION, 1, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 1, 1, 2),
            ],
        )
        records = assemble_events(doc)
        flags = {t.text: t.in_title for t in records[0].triggers}
        assert flags == {"March": True, "marched": False}

    def test_attribute_attachment_by_containment(self):
        doc = _doc(
            "attrs",
            [sent(0, "Hundreds of angry Maoist workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 5, 6),
                ann("e1s", TagId.DEMONSTRATION, 0, 5, 6),
                ann("p1", TagId.PARTICIPANT_TYPE, 0, 3, 5),  # "Maoist workers"
                ann("p1s", TagId.WORKER, 0, 3, 5),
                ann("id1", TagId.PARTICIPANT_IDEOLOGY, 0, 3, 4),  # inside the head
                ann("c1", TagId.PARTICIPANT_COUNT, 0, 0, 1),  # outside any head
            ],
        )
        record = assemble_events(doc)[0]
        participant = record.participants[0]
        assert [a.text for a in participant.attributes] == ["Maoist"]
        assert [a.text for a in record.unattached_attributes] == ["Hundreds"]

    def test_actor_heads_hosts_and_attributes(self):
        doc = _doc(
            "actors",
            [
                sent(0, "Hindu Mahasabha members protested ."),
                sent(1, "Maoist Rebels and Dalit farm workers marched ."),
            ],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 3, 4),
                ann("e1s", TagId.DEMONSTRATION, 0, 3, 4),
                # an organizer attribute inside an organizer_name head
                ann("o1", TagId.ORGANIZER_NAME, 0, 0, 2),
                ann("o1s", TagId.POLITICAL_PARTY, 0, 0, 2),
                ann("o1r", TagId.ORGANIZER_RELIGION, 0, 0, 1),
                ann("e2", TagId.EVENT_MENTION, 1, 6, 7),
                ann("e2s", TagId.DEMONSTRATION, 1, 6, 7),
                # participant_name hosts neither a semantic tag nor attributes
                ann("p1", TagId.PARTICIPANT_NAME, 1, 0, 2),
                ann("p1s", TagId.MILITANT, 1, 0, 2),
                ann("p1i", TagId.PARTICIPANT_IDEOLOGY, 1, 0, 1),
                # an attribute inside two participant_type heads
                ann("p2", TagId.PARTICIPANT_TYPE, 1, 3, 5),
                ann("p2s", TagId.PEASANT, 1, 3, 5),
                ann("p3", TagId.PARTICIPANT_TYPE, 1, 3, 6),
                ann("p3s", TagId.WORKER, 1, 3, 6),
                ann("p2c", TagId.PARTICIPANT_CASTE, 1, 3, 4),
            ],
        )
        [record] = assemble_events(doc)
        assert [
            (o.tag, o.text, o.semantic, [a.text for a in o.attributes])
            for o in record.organizers
        ] == [(TagId.ORGANIZER_NAME, "Hindu Mahasabha", "political_party", ["Hindu"])]
        assert [
            (p.tag, p.text, p.semantic, [a.text for a in p.attributes])
            for p in record.participants
        ] == [
            (TagId.PARTICIPANT_NAME, "Maoist Rebels", None, []),
            (TagId.PARTICIPANT_TYPE, "Dalit farm", "peasant", []),
            (TagId.PARTICIPANT_TYPE, "Dalit farm workers", "worker", []),
        ]
        assert [a.text for a in record.unattached_attributes] == ["Maoist", "Dalit"]

    def test_count_inside_head_is_not_an_attribute(self):
        # participant_count is a participant argument, not an attribute: its
        # overlap with the head is unlicensed, and it never attaches to it
        doc = _doc(
            "count",
            [sent(0, "Hundreds of workers marched .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 3, 4),
                ann("e1s", TagId.DEMONSTRATION, 0, 3, 4),
                ann("p1", TagId.PARTICIPANT_TYPE, 0, 0, 3),
                ann("p1s", TagId.WORKER, 0, 0, 3),
                ann("c1", TagId.PARTICIPANT_COUNT, 0, 0, 1),
            ],
        )
        assert [d.render() for d in validate_document(doc)] == [
            "count:0:0-1 E030 error unlicensed overlap of participant_count and participant_type",
            "count:0:0-1 E030 error unlicensed overlap of participant_count and worker",
        ]
        [record] = assemble_events(doc)
        [head] = record.participants
        assert head.attributes == ()
        assert [a.text for a in record.unattached_attributes] == ["Hundreds"]

    def test_doc_info_tags_stay_out_of_events(self):
        doc = _doc(
            "pub",
            [sent(0, "Sep 8 , 2001"), sent(1, "Protesters marched .")],
            [
                ann("pub", TagId.EVENT_TIME_PUBLISHED, 0, 0, 4),
                ann("e1", TagId.EVENT_TYPE, 1, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 1, 1, 2),
            ],
        )
        record = assemble_events(doc)[0]
        assert record.times == ()

    def test_disagreeing_trigger_categories_yield_no_category(self):
        doc = _doc(
            "disagree",
            [sent(0, "Protesters marched and struck .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("e2", TagId.EVENT_MENTION, 0, 3, 4),
                ann("e2s", TagId.INDUSTRIAL_ACTION, 0, 3, 4),
            ],
        )
        assert assemble_events(doc)[0].semantic_category is None


class TestSeparation:
    def _twin_doc(self, second_place=None):
        annotations = [
            ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
            ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
            ann("e2", TagId.EVENT_TYPE, 1, 1, 2, events={2}),
            ann("e2s", TagId.DEMONSTRATION, 1, 1, 2, events={2}),
        ]
        if second_place:
            annotations.append(ann("pl2", TagId.EVENT_PLACE, 1, 3, 4, events={2}))
        return _doc(
            "twins",
            [sent(0, "Protesters marched downtown ."), sent(1, "Protesters marched in Agra .")],
            annotations,
        )

    def test_identical_events_flagged(self):
        records = assemble_events(self._twin_doc())
        diags = check_separation(records)
        assert [d.rule for d in diags] == ["W140"]
        assert "events 1 and 2" in diags[0].message

    def test_any_axis_difference_suppresses_w140(self):
        records = assemble_events(self._twin_doc(second_place=True))
        assert check_separation(records) == []

    def test_dangling_event_number(self):
        doc = _doc(
            "dangling",
            [sent(0, "Protesters marched on Monday .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("t1", TagId.EVENT_TIME, 0, 2, 4, events={3}),
            ],
        )
        records = assemble_events(doc)
        assert [r.event_number for r in records] == [1, 3]
        rules = [d.rule for d in check_separation(records)]
        assert "E020" in rules and "W141" in rules

    def test_identifier_only_event_located_at_its_identifier(self):
        doc = _doc(
            "d",
            [sent(0, "Farmers protested ."), sent(1, "They gathered near the rural outskirts .")],
            [ann("r1", TagId.RURAL_LOCATION_IDENTIFIER, 1, 4, 5)],
        )

        def located(diags):
            return [d.render().split(" ", 2)[:2] for d in diags]

        separation = located(check_separation(assemble_events(doc)))
        assert separation == [["d:1:4-5", "E020"], ["d:1:4-5", "W141"]]
        assert ["d:1:4-5", "E020"] in located(validate_document(doc))

    def test_trigger_less_event_located_at_its_first_argument(self):
        # field order would put the time first; canonical order puts the place first
        doc = _doc(
            "d",
            [sent(0, "They met in Agra ."), sent(1, "It was on Monday .")],
            [ann("p1", TagId.EVENT_PLACE, 0, 3, 4), ann("t1", TagId.EVENT_TIME, 1, 3, 4)],
        )
        separation = [d.render().split(" ", 2)[:2] for d in check_separation(assemble_events(doc))]
        assert separation == [["d:0:3-4", "E020"], ["d:0:3-4", "W141"]]
        e020 = [d for d in validate_document(doc) if d.rule == "E020"]
        assert [d.render().split(" ", 1)[0] for d in e020] == ["d:0:3-4"]

    @staticmethod
    def _trigger_less(diags, rule_id):
        """(event, sentence, span) of each ``rule_id`` diagnostic about a trigger-less event."""
        return {
            (int(d.message.split()[1]), d.sentence, d.span) for d in diags if d.rule == rule_id
        }

    def test_validate_and_separation_agree_on_trigger_less_events(self):
        for seed in range(2_000):
            doc = random_document(random.Random(seed))
            found = validate_document(doc)
            separation = check_separation(assemble_events(doc))
            e020 = self._trigger_less(found, "E020")
            assert self._trigger_less(separation, "E020") == e020, f"seed {seed}"
            assert self._trigger_less(separation, "W141") == e020, f"seed {seed}"
            tags = {a.id: a.tag for a in doc.annotations}
            for d in found:
                if d.rule == "E010":
                    assert tags[d.annotation_ids[0]] in ARGUMENT_TAGS, f"seed {seed}"


class TestExport:
    def test_bjp_rows(self, bjp_doc):
        rows = export_rows(assemble_events(bjp_doc))
        assert len(rows) == 2
        first, second = rows
        assert first.triggers == "gathered|shouted slogans"
        assert first.times == "At noon"
        assert first.organizers == "BJP"
        assert first.organizer_semantics == "political_party"
        assert first.participants == "workers"
        assert first.participant_semantics == "people"
        assert first.targets == "Union Government"
        assert first.doc_protest == "protest"
        assert first.doc_violent == "violent"
        assert first.doc_demand == ""
        assert second.times == "last year's"
        assert second.facilities == "at the train station"
        assert second.semantic_category == "armed_militancy"

    def test_empty_export_is_header_only(self):
        assert rows_to_csv([]) == ",".join(EXPORT_COLUMNS) + "\n"
        assert rows_to_jsonl([]) == ""

    def test_multi_numbered_text_in_both_rows(self):
        doc = _doc(
            "both-rows",
            [sent(0, "Protesters marched in Delhi and Agra .")],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2, events={1, 2}),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2, events={1, 2}),
                ann("pl1", TagId.EVENT_PLACE, 0, 3, 4, events={1}),
                ann("pl2", TagId.EVENT_PLACE, 0, 5, 6, events={2}),
            ],
        )
        rows = export_rows(assemble_events(doc))
        assert [row.triggers for row in rows] == ["marched", "marched"]

    def test_rows_sorted_by_doc_and_event(self, bjp_doc, karnataka):
        records = assemble_events(karnataka) + assemble_events(bjp_doc)
        rows = export_rows(records)
        keys = [(row.doc_id, int(row.event_number)) for row in rows]
        assert keys == sorted(keys)

    def test_csv_quoting_round_trip(self):
        doc = _doc(
            "quoting",
            [sent(0, 'Protesters marched , shouting " enough " .')],
            [
                ann("e1", TagId.EVENT_TYPE, 0, 1, 2),
                ann("e1s", TagId.DEMONSTRATION, 0, 1, 2),
                ann("e2", TagId.EVENT_MENTION, 0, 3, 7),
                ann("e2s", TagId.DEMONSTRATION, 0, 3, 7),
            ],
        )
        text = rows_to_csv(export_rows(assemble_events(doc)))
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["triggers"] == 'marched|shouting " enough "'

    def test_rows_are_export_rows_of_the_columns(self, bjp_doc):
        rows = export_rows(assemble_events(bjp_doc))
        assert rows and all(type(row) is ExportRow for row in rows)
        assert ExportRow._fields == EXPORT_COLUMNS
        assert all(type(cell) is str for row in rows for cell in row)

    def test_a_repeated_doc_id_with_rows_raises(self, bjp_doc):
        held, events, documents = assemble_rendered([bjp_doc], csv_rows)
        assert (list(held), events, documents) == (["bjp-square"], 2, 1)
        with pytest.raises(ValueError, match="doc_id 'bjp-square' repeats"):
            assemble_rendered([bjp_doc, bjp_doc], csv_rows)
        # a document without rows adds nothing, so its repeat changes nothing
        empty = _doc("empty", [sent(0, "Nothing happened .")], [])
        assert assemble_rendered([empty, empty], csv_rows) == ({}, 0, 2)


def _reference_csv(rows):
    """CSV lines of export rows as ``csv.DictWriter`` writes their dicts with
    the line terminator "\r\n", which has it quote a cell holding a "\r" as
    well as one holding a "\n", each line then ending in "\n"."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.DictWriter(buf, fieldnames=EXPORT_COLUMNS, lineterminator="\r\n").writerow(
            row._asdict()
        )
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def _reference_jsonl(rows):
    return "".join(
        json.dumps(row._asdict(), ensure_ascii=False, separators=(",", ":")) + "\n"
        for row in rows
    )


def _assert_reference_bytes(rows):
    assert csv_rows(rows) == _reference_csv(rows)
    assert rows_to_csv(rows) == ",".join(EXPORT_COLUMNS) + "\n" + _reference_csv(rows)
    assert rows_to_jsonl(rows) == _reference_jsonl(rows)


class TestExportBytes:
    """The writers print exactly what ``csv.DictWriter`` and ``json.dumps`` print
    for the rows' ``_asdict()``."""

    @pytest.mark.parametrize("token", ["mar\rched", "mar\nched", "mar\r\nched", "\r", "a,\rb"])
    def test_csv_reads_back_the_jsonl_cells_when_a_token_breaks_a_line(self, bjp_doc, token):
        sentences = tuple(
            s._replace(tokens=[token if t == "gathered" else t for t in s.tokens])
            for s in bjp_doc.sentences
        )
        rows = export_rows(assemble_events(bjp_doc._replace(sentences=sentences)))
        assert any(token in cell for row in rows for cell in row)
        with_csv = list(csv.reader(io.StringIO(rows_to_csv(rows), newline="")))
        with_jsonl = [list(json.loads(line).values()) for line in rows_to_jsonl(rows).splitlines()]
        assert with_csv == [list(EXPORT_COLUMNS), *with_jsonl]

    @pytest.mark.parametrize("name", ["bulk", "dense", "flat"])
    def test_bench_rows(self, workload, name):
        docs, _ = parse_corpus(workload(name, 1)["a"])
        rows = export_rows([r for doc in docs for r in assemble_events(doc)])
        assert rows
        _assert_reference_bytes(rows)

    def test_random_rows_with_csv_and_json_specials(self):
        specials = (
            ",", '"', "|", "\r", "\n", "a,b", 'say "no"', "x|y", "\r\n", "köyü", "示威", "é\u2028",
        )
        for seed in range(300):
            rng = random.Random(seed)
            doc = random_document(rng)
            sentences = tuple(
                s._replace(tokens=[rng.choice(specials + s.tokens) for _ in s.tokens])
                for s in doc.sentences
            )
            rows = export_rows(assemble_events(doc._replace(sentences=sentences)))
            _assert_reference_bytes(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(HOSTILE_TEXT.filter(bool), min_size=1, max_size=6),
           HOSTILE_TEXT.filter(bool))
    def test_hostile_strings(self, seed, hostile, doc_id):
        rng = random.Random(seed)
        doc = random_document(rng)
        sentences = tuple(
            s._replace(tokens=[rng.choice(hostile + [token]) for token in s.tokens])
            for s in doc.sentences
        )
        rows = export_rows(assemble_events(doc._replace(doc_id=doc_id, sentences=sentences)))
        _assert_reference_bytes(rows)


class TestAssemblyProperties:
    def _content_contributions(self, doc):
        total = 0
        for a in doc.annotations:
            focus = a.tag.focus
            if focus is Focus.DOC_INFO or focus in (
                Focus.EVENT_SEMANTIC,
                Focus.PARTICIPANT_SEMANTIC,
                Focus.ORGANIZER_SEMANTIC,
            ):
                continue
            total += len(a.events)
        return total

    def _record_population(self, record):
        return (
            len(record.triggers)
            + len(record.times)
            + len(record.places)
            + len(record.facilities)
            + len(record.urban_rural_markers)
            + len(record.targets)
            + len(record.participants)
            + len(record.organizers)
            + sum(len(p.attributes) for p in record.participants)
            + sum(len(o.attributes) for o in record.organizers)
            + len(record.unattached_attributes)
        )

    def test_count_conservation_on_random_docs(self):
        for seed in range(150):
            doc = random_document(random.Random(seed))
            records = assemble_events(doc)
            placed = sum(self._record_population(r) for r in records)
            assert placed == self._content_contributions(doc), f"seed {seed}"

    def test_semantics_and_title_flags_match_the_oracle(self):
        """Every head's and trigger's semantic category is the first
        coterminous semantic tag of its focus carrying the event, and a
        trigger is in the title iff a document_title span contains it."""
        for seed in range(2_000):
            doc = random_document(random.Random(seed))
            for record in assemble_events(doc):
                number = record.event_number
                members = [a for a in doc.annotations if number in a.events]
                triggers = [a for a in members if a.tag in TRIGGERS]
                assert [t.span for t in record.triggers] == [a.span for a in triggers]
                assert [t.in_title for t in record.triggers] == [
                    brute_force_in_title(doc, a) for a in triggers
                ], f"seed {seed}"
                categories = {brute_force_semantic(doc, a, number) for a in triggers}
                expected = categories.pop() if len(categories) == 1 else None
                assert record.semantic_category == expected, f"seed {seed}"
                for head_tags, records in (
                    (PARTICIPANT_HEADS, record.participants),
                    (ORGANIZER_HEADS, record.organizers),
                ):
                    heads = [a for a in members if a.tag in head_tags]
                    assert [(p.tag, p.span) for p in records] == [(a.tag, a.span) for a in heads]
                    assert [p.semantic for p in records] == [
                        brute_force_semantic(doc, a, number) for a in heads
                    ], f"seed {seed}"

    def test_records_match_the_oracle(self):
        """Every field of every record: routing by tag, attachment of
        attributes, texts, categories and title flags."""
        for seed in range(2_000):
            doc = random_document(random.Random(seed))
            records = [r._asdict() for r in assemble_events(doc)]
            assert records == brute_force_records(doc), f"seed {seed}"

    def test_records_strictly_sorted(self):
        for seed in range(50):
            doc = random_document(random.Random(seed))
            numbers = [r.event_number for r in assemble_events(doc)]
            assert numbers == sorted(set(numbers))

    def test_idempotent_through_serialization(self):
        for seed in range(50):
            doc = random_document(random.Random(seed))
            reparsed, errors = parse_corpus(serialize_corpus([doc]))
            assert errors == []
            assert assemble_events(reparsed[0]) == assemble_events(doc)
