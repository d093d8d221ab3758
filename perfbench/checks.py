"""Output checks against the generator's expected-results record.

Each check takes what one operation produced and returns a list of
problems; an empty list means the output is correct.  Nothing here
imports glocon: the expected values come from ``gen.generate``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from collections import Counter

from gen import SEPARATION_RULES, SEVERITY

EXPORT_COLUMNS = [
    "doc_id", "event_number", "semantic_category", "triggers", "times", "places",
    "facilities", "urban_rural", "participants", "participant_semantics", "organizers",
    "organizer_semantics", "targets", "doc_protest", "doc_violent", "doc_demand",
]
KAPPA_CATEGORIES = {
    "doc_protest": ("protest", "no_protest"),
    "doc_violent": ("violent", "non_violent"),
    "doc_demand": ("non_economic", "economic_non_welfare", "economic_welfare"),
    "sentence": ("0", "1", "2"),
}
_REJECT = re.compile(r"^glocon: (.*): line (\d+) \[[^\]]*\] (\w+): ", re.M)


def _load_json(stdout: bytes, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def rejected_lines(stderr: str, path: str, expected: dict) -> list[str]:
    """stderr names exactly the planted bad lines of ``path`` with their kinds."""
    got = sorted((int(line), kind) for p, line, kind in _REJECT.findall(stderr) if p == path)
    want = sorted((line, kind) for line, kind in expected["bad_lines"])
    if got != want:
        return [f"{path}: rejected lines {got[:5]}... != planted {want[:5]}..."]
    return []


def stats(stdout: bytes, expected: dict) -> list[str]:
    problems: list[str] = []
    got = _load_json(stdout, problems)
    if got is not None and got != expected["stats"]:
        want = expected["stats"]
        diff = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
        problems.append(f"stats differ in {diff}")
    return problems


def assemble_csv(stdout: bytes, expected: dict) -> list[str]:
    """The export has the documented header and one row per expected event, in order."""
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"), newline="")))
    if not rows or rows[0] != EXPORT_COLUMNS:
        return [f"assemble header {rows[:1]} != {EXPORT_COLUMNS}"]
    keys = [[row[0], int(row[1])] for row in rows[1:]]
    want = expected["event_keys"]
    if keys != want:
        first = next((i for i, (a, b) in enumerate(zip(keys, want)) if a != b),
                     min(len(keys), len(want)))
        return [f"assemble keys: {len(keys)} rows for {len(want)} events,"
                f" first difference at row {first}"]
    return []


def diagnostics(found: list[dict], expected: dict) -> tuple[list[str], Counter]:
    """Compare diagnostics with the planted ones, document by document.

    Every planted defect must be reported by its rule at its sentence and
    nothing else may be reported.  W140/W141 come from the separation
    check, which ``validate`` may or may not run: reporting a planted one
    is correct, and each planted one not reported is counted as missed.
    """
    problems: list[str] = []
    got: dict[str, Counter] = {}
    for diag in found:
        if diag["severity"] != SEVERITY.get(diag["rule"]):
            problems.append(f"{diag['rule']} reported as {diag['severity']}")
        got.setdefault(diag["doc_id"], Counter())[(diag["rule"], diag["sentence"])] += 1
    missed: Counter = Counter()
    for doc_id in got.keys() | expected["lint"].keys() | expected["separation"].keys():
        want = Counter(tuple(x) for x in expected["lint"].get(doc_id, ()))
        planted = Counter(tuple(x) for x in expected["separation"].get(doc_id, ())
                          if x[0] in SEPARATION_RULES)
        have = got.get(doc_id, Counter())
        separation = Counter({k: n for k, n in have.items() if k[0] in SEPARATION_RULES})
        if (have - separation) != want or separation - planted:
            problems.append(
                f"{doc_id}: reported {sorted(have.elements())}, planted {sorted(want.elements())}"
            )
        missed.update(k[0] for k in (planted - separation).elements())
    return problems, missed


def validate_json(stdout: bytes, expected: dict) -> tuple[list[str], Counter]:
    problems: list[str] = []
    found = _load_json(stdout, problems)
    if found is None:
        return problems, Counter()
    more, missed = diagnostics(found, expected)
    return problems + more[:5] + ([f"... {len(more) - 5} more"] if len(more) > 5 else []), missed


def separation(found: dict[str, list[tuple[str, int]]], expected: dict) -> list[str]:
    """``check_separation`` diagnostics per document, as (rule, sentence)."""
    problems = []
    for doc_id in found.keys() | expected["separation"].keys():
        want = sorted(tuple(x) for x in expected["separation"].get(doc_id, ()))
        if sorted(found.get(doc_id, ())) != want:
            problems.append(f"{doc_id}: separation {sorted(found.get(doc_id, ()))} != {want}")
    return problems[:5]


def roundtrip(data: bytes, expected: dict) -> list[str]:
    if hashlib.sha256(data).hexdigest() != expected["roundtrip_sha256"]:
        return ["round-trip bytes differ from the input minus its bad lines"]
    return []


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def span_agreement(stdout: bytes, expected: dict, mode: str) -> list[str]:
    """Strict scores equal the generator's; lenient ones are consistent with them."""
    problems: list[str] = []
    got = _load_json(stdout, problems)
    if got is None:
        return problems
    exp = expected["agree"]
    if (got.get("mode"), got.get("reference"), got.get("documents")) != (mode, "a", exp["pairs"]):
        problems.append(f"agree header {got.get('mode')}/{got.get('documents')}")
    scores = dict(got.get("per_tag", {}), micro=got.get("micro", {}))
    for name, s in scores.items():
        if not all(_close(x, y) for x, y in zip(
                _prf(s["tp"], s["fp"], s["fn"]), (s["precision"], s["recall"], s["f1"]))):
            problems.append(f"{mode} {name}: P/R/F1 inconsistent with tp/fp/fn")
    strict = exp["strict"]
    if mode == "strict":
        want = dict(strict["per_tag"], micro=strict["micro"])
        have = {name: [s["tp"], s["fp"], s["fn"]] for name, s in scores.items()}
        if have != want:
            bad = sorted(k for k in want.keys() | have.keys() if have.get(k) != want.get(k))
            problems.append(f"strict tp/fp/fn differ for {bad[:8]}")
        return problems
    for tag, s in scores.items():
        n_a = sum(strict["a_counts"].values()) if tag == "micro" else strict["a_counts"].get(tag, 0)
        n_b = sum(strict["b_counts"].values()) if tag == "micro" else strict["b_counts"].get(tag, 0)
        floor = strict["micro"][0] if tag == "micro" else strict["per_tag"].get(tag, [0])[0]
        if s["tp"] + s["fn"] != n_a or s["tp"] + s["fp"] != n_b or s["tp"] < floor:
            problems.append(f"lenient {tag}: tp/fp/fn {s['tp']}/{s['fp']}/{s['fn']} inconsistent")
    return problems


def kappa_of(level: str, pairs: list) -> dict:
    """Cohen's kappa of label pairs, computed independently of glocon."""
    cats = KAPPA_CATEGORIES[level]
    labeled = [(a, b) for a, b in pairs if a is not None and b is not None]
    n = len(labeled)
    confusion = Counter(labeled)
    out = {"level": level, "n": n, "skipped": len(pairs) - n,
           "confusion": {f"{a}|{b}": c for (a, b), c in sorted(confusion.items())}}
    if n == 0:
        return dict(out, kappa=None, p_o=None, p_e=None)
    p_o = sum(confusion[(c, c)] for c in cats) / n
    p_e = sum(sum(confusion[(c, y)] for y in cats) / n * sum(confusion[(x, c)] for x in cats) / n
              for c in cats)
    if p_e == 1.0:
        kappa = 1.0 if p_o == 1.0 else None
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return dict(out, kappa=kappa, p_o=p_o, p_e=p_e)


def kappas(got_list, expected: dict, levels: list[str]) -> list[str]:
    problems: list[str] = []
    if not isinstance(got_list, list) or len(got_list) != len(levels):
        return [f"kappa output has {len(got_list) if isinstance(got_list, list) else '?'} levels"]
    for got, level in zip(got_list, levels):
        want = kappa_of(level, expected["agree"]["labels"][level])
        for key in ("level", "n", "skipped", "confusion"):
            if got.get(key) != want[key]:
                problems.append(f"kappa {level}: {key} {got.get(key)} != {want[key]}")
        for key in ("kappa", "p_o", "p_e"):
            if not _close(got.get(key), want[key]):
                problems.append(f"kappa {level}: {key} {got.get(key)} != {want[key]}")
    return problems


def kappa_json(stdout: bytes, expected: dict, levels: list[str]) -> list[str]:
    problems: list[str] = []
    got = _load_json(stdout, problems)
    return problems or kappas(got, expected, levels)
