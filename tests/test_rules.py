"""Negative goldens: each catalog rule fires on its fixture and only there."""

import re
from pathlib import Path

import pytest

from glocon.lint import CATALOG, validate_document
from rule_fixtures import RULE_FIXTURES


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_fixture_triggers_exactly_its_rule(rule_id):
    bad, _ = RULE_FIXTURES[rule_id]
    fired = {d.rule for d in validate_document(bad)}
    assert fired == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_fixed_sibling_is_clean(rule_id):
    _, fixed = RULE_FIXTURES[rule_id]
    assert validate_document(fixed) == []


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_diagnostics_carry_default_severity(rule_id):
    bad, _ = RULE_FIXTURES[rule_id]
    for diag in validate_document(bad):
        assert diag.rule in CATALOG
        assert diag.severity == CATALOG[diag.rule].severity


def test_every_lint_rule_has_a_fixture():
    lint_rules = {r.id for r in CATALOG.values() if r.check is not None}
    assert lint_rules == set(RULE_FIXTURES)


def test_catalog_is_the_rule_registry():
    # validate_document runs every catalog rule but the separation rules,
    # which only check_separation emits and which have no check
    assert all(entry.id == rule_id for rule_id, entry in CATALOG.items())
    assert [r.id for r in CATALOG.values() if r.check is None] == ["W140", "W141"]


def test_readme_rule_table_lists_the_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| ([EWI]\d{3}) \| (\w+) \| (.*) \|$", readme, re.M)
    assert [(rule_id, sev) for rule_id, sev, _ in rows] == [
        (r.id, r.severity.value) for r in CATALOG.values()
    ]
    # a row says "library only" exactly when validate_document does not run its rule
    assert [rule_id for rule_id, _, checks in rows if "library only" in checks] == [
        r.id for r in CATALOG.values() if r.check is None
    ]
