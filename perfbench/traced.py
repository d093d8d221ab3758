"""The traced run: per-layer metrics from spans around glocon's public calls.

Each pass reads and parses the workload, then calls the public functions
of every module on it inside a span (name, start, end, parent, workload,
seed), and runs every CLI command in-process through ``cli.run``.  Spans
stay in memory and are written when the run ends; every per-layer
metric is the median of a span's durations over the passes (or a
difference of such medians), or a count.  Outputs of the first pass are
checked against the generator's expected results.

The untraced end-to-end times come from separate runs.  This run also
times each CLI command once as a child process, and a bare
``import glocon.cli`` child, so that ``trace.overhead_ratio`` compares
the in-process ``cli.<op>.run_s`` with the child's time minus start-up.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import checks
import ops
from gen import PARSE_ERROR_KINDS, SEPARATION_RULES, SEVERITY

CLI_OPS = ("validate", "assemble", "stats", "agree_strict", "agree_lenient")
RULES = sorted(SEVERITY)
LINT_RULES = [r for r in RULES if r not in SEPARATION_RULES]  # what validate_document runs
KAPPA_DOC = ("doc_protest", "doc_violent", "doc_demand")
STARTUP_REPS = 3


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self.open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name, "parent": self.open[-1] if self.open else None,
                "workload": self.workload, "seed": self.seed}
        self.spans.append(span)
        self.open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self.open.pop()

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for span in self.spans:
            out[span["name"]].append(span["end"] - span["start"])
        return out


def _json_floor(data: bytes) -> None:
    """stdlib ``json.loads`` of every line: the floor no parser change beats."""
    for line in data.decode("utf-8").split("\n"):
        if line.strip():
            try:
                json.loads(line)
            except ValueError:
                pass


def run(workload: str, seed: int, seconds: float, paths: ops.Paths, expected: dict, root: str,
        launcher) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from glocon import cli
    from glocon.agreement import AgreementLevel, MatchMode, label_kappa, pair_corpora, span_prf
    from glocon.assemble import (assemble_events, check_separation, export_rows, rows_to_csv,
                                 rows_to_jsonl)
    from glocon.io import parse_corpus, serialize_corpus
    from glocon.lint import LintConfig, validate_corpus
    from glocon.model import (Annotation, DocumentLabels, DocumentRecord, SentenceRecord,
                              TokenSpan)

    def rebuild(doc):
        """The document again, through the public constructors."""
        return DocumentRecord(
            doc_id=doc.doc_id,
            labels=DocumentLabels(doc.labels.protest, doc.labels.violent, doc.labels.demand),
            sentences=tuple(SentenceRecord(s.index, s.tokens, s.label) for s in doc.sentences),
            annotations=tuple(
                Annotation(a.id, a.tag, TokenSpan(a.span.sentence, a.span.start, a.span.end),
                           a.events, a.confidence, a.comment, a.events_from_comment)
                for a in doc.annotations
            ),
        )

    index_only = LintConfig(disabled_rules=frozenset(RULES))
    single = {r: LintConfig(disabled_rules=frozenset(RULES) - {r}) for r in LINT_RULES}
    tracer = Tracer(workload, seed)
    span = tracer.span
    counts: dict[str, float] = {}
    problems: list[str] = []
    attempted = failed = 0

    def verify(what: str, found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(f"{what}: {p}" for p in found)

    passes = 0
    pass_s = 0.0
    started = time.perf_counter()
    # start another pass while it would end closer to `seconds` than stopping now
    while passes < 1 or time.perf_counter() - started + pass_s / 2 < seconds:
        pass_started = time.perf_counter()
        first = passes == 0
        with span("pass"):
            with span("io.read"):
                with open(paths.a, "rb") as handle:
                    data = handle.read()
            with span("io.json_floor"):
                _json_floor(data)
            with span("io.parse"):
                docs, errors = parse_corpus(data)
            with span("io.read_b"):
                with open(paths.b, "rb") as handle:
                    data_b = handle.read()
            with span("io.parse_b"):
                docs_b, errors_b = parse_corpus(data_b)
            with span("io.serialize"):
                canonical = serialize_corpus(docs)
            with span("model.rebuild"):
                rebuilt = [rebuild(doc) for doc in docs]
            with span("lint.validate"):
                report = validate_corpus(docs)
            with span("lint.index"):
                validate_corpus(docs, index_only)
            for rule in LINT_RULES:
                with span(f"lint.rule.{rule}"):
                    validate_corpus(docs, single[rule])
            with span("assemble.events"):
                per_doc = [assemble_events(doc) for doc in docs]
            with span("assemble.separation"):
                separation = [check_separation(records) for records in per_doc]
            records = [r for doc_records in per_doc for r in doc_records]
            with span("assemble.export_rows"):
                rows = export_rows(records)
            with span("assemble.csv"):
                csv_text = rows_to_csv(rows)
            with span("assemble.jsonl"):
                rows_to_jsonl(rows)
            with span("cli.corpus_stats"):
                stats = cli.corpus_stats(docs)
            with span("agreement.pair"):
                pairing = pair_corpora(docs, docs_b)
            with span("agreement.kappa_doc"):
                kappa_doc = [label_kappa(pairing.pairs, AgreementLevel(l)) for l in KAPPA_DOC]
            with span("agreement.kappa_sentence"):
                kappa_sentence = label_kappa(pairing.pairs, AgreementLevel.SENTENCE)
            with span("agreement.prf_strict"):
                strict = span_prf(pairing.pairs, MatchMode.STRICT)
            with span("agreement.prf_lenient"):
                lenient = span_prf(pairing.pairs, MatchMode.LENIENT)
        if first:
            verify("io.parse", [] if sorted((e.line, e.kind.value) for e in errors) == sorted(
                map(tuple, expected["bad_lines"])) and not errors_b else ["rejected lines differ"])
            verify("io.serialize", checks.roundtrip(canonical, expected))
            verify("model.rebuild", [] if rebuilt == docs else ["rebuilt documents differ"])
            found, missed = checks.diagnostics([d.to_obj() for d in report.diagnostics], expected)
            verify("lint.validate", found[:5])
            verify("assemble.separation", checks.separation(
                {doc.doc_id: [(d.rule, d.sentence) for d in diags]
                 for doc, diags in zip(docs, separation) if diags}, expected))
            verify("assemble.csv", checks.assemble_csv(csv_text.encode("utf-8"), expected))
            verify("cli.corpus_stats", checks.stats(json.dumps(stats.to_obj()).encode(), expected))
            verify("agreement.pair", [] if len(pairing.pairs) == expected["agree"]["pairs"]
                   else ["pair count differs"])
            verify("agreement.kappa", checks.kappas(
                [k.to_obj() for k in (*kappa_doc, kappa_sentence)], expected,
                [*KAPPA_DOC, "sentence"]))
            for mode, prf in (("strict", strict), ("lenient", lenient)):
                verify(f"agreement.prf_{mode}", checks.span_agreement(
                    json.dumps(prf.to_obj()).encode(), expected, mode))

            lines = sum(1 for line in data.split(b"\n") if line.strip())
            counts["io.accept_ratio"] = len(docs) / lines
            kinds = Counter(e.kind.value for e in errors)
            for kind in PARSE_ERROR_KINDS:
                counts[f"io.parse_errors.{kind}"] = kinds[kind]
            fired = Counter(d.rule for d in report.diagnostics)
            for rule in RULES:
                counts[f"lint.rule.{rule}.count"] = fired[rule]
            for rule in SEPARATION_RULES:
                counts[f"lint.missed.{rule}"] = missed[rule]
            counts["assemble.events"] = len(records)
            sep = Counter(d.rule for diags in separation for d in diags)
            for rule in ("W140", "W141", "E020"):
                counts[f"assemble.separation.{rule}"] = sep[rule]
            counts["agreement.pairs"] = len(pairing.pairs)
            for mode, prf in (("strict", strict), ("lenient", lenient)):
                for key in ("tp", "fp", "fn"):
                    counts[f"agreement.{mode}.{key}"] = getattr(prf.micro, key)
        # the commands run on a heap without the layers' results, as in a child
        del docs, docs_b, rebuilt, report, per_doc, separation, records, rows, pairing
        gc.collect()
        with span("pass.cli"):
            for op in CLI_OPS:
                argv = ops.argv(op, paths)[2:]
                with open(paths.stdout, "w", encoding="utf-8") as out, \
                        open(paths.stderr, "w", encoding="utf-8") as err, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with span(f"cli.{op}.run"):
                        code = cli.run(argv)
                if first:
                    verify(f"cli.{op}", ops.check(op, paths, code, expected, Counter()))
        passes += 1
        pass_s = time.perf_counter() - pass_started
    measured = time.perf_counter() - started

    # untraced children of the same commands, for the tracing overhead
    child_s = {}
    for op in CLI_OPS:
        wall, code, *_ = launcher.run(ops.argv(op, paths), paths.stdout, paths.stderr)
        verify(f"child.{op}", ops.check(op, paths, code, expected, Counter()))
        child_s[op] = wall
    startup = statistics.median(
        launcher.run(["-c", "import glocon.cli"], paths.stdout, paths.stderr)[0]
        for _ in range(STARTUP_REPS))
    return {
        "durations": tracer.durations(), "counts": counts, "spans": tracer.spans,
        "passes": passes, "measured_s": measured, "child_s": child_s, "startup_s": startup,
        "attempted": attempted, "failed": failed,
        "problems": problems,
    }


# (op, layer spans the CLI command runs on the same input)
SELF_MINUS = {
    "validate": ("io.read", "io.parse", "lint.validate"),
    "assemble": ("io.read", "io.parse", "assemble.events", "assemble.export_rows",
                 "assemble.csv"),
    "stats": ("io.read", "io.parse", "cli.corpus_stats"),
    "agree_strict": ("io.read", "io.parse", "io.read_b", "io.parse_b", "agreement.pair",
                     "agreement.prf_strict"),
    "agree_lenient": ("io.read", "io.parse", "io.read_b", "io.parse_b", "agreement.pair",
                      "agreement.prf_lenient"),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [("io.read_s", "s"), ("io.json_floor_s", "s"), ("io.parse_s", "s"),
             ("io.serialize_s", "s"), ("io.accept_ratio", "ratio")]
    names += [(f"io.parse_errors.{k}", "count") for k in PARSE_ERROR_KINDS]
    names += [("model.rebuild_s", "s"), ("lint.validate_s", "s"), ("lint.index_s", "s")]
    names += [(f"lint.rule.{r}_s", "s") for r in LINT_RULES]
    names += [(f"lint.rule.{r}.count", "count") for r in RULES]
    names += [(f"lint.missed.{r}", "count") for r in SEPARATION_RULES]
    names += [(f"assemble.{n}_s", "s") for n in ("events", "separation", "export_rows", "csv",
                                                 "jsonl")]
    names += [("assemble.events", "count")]
    names += [(f"assemble.separation.{r}", "count") for r in ("W140", "W141", "E020")]
    names += [(f"agreement.{n}_s", "s") for n in ("pair", "kappa_doc", "kappa_sentence",
                                                  "prf_strict", "prf_lenient")]
    names += [("agreement.pairs", "count")]
    names += [(f"agreement.{m}.{k}", "count") for m in ("strict", "lenient")
              for k in ("tp", "fp", "fn")]
    for op in CLI_OPS:
        names += [(f"cli.{op}.run_s", "s"), (f"cli.{op}.self_s", "s")]
    names += [("cli.startup_s", "s"), ("trace.overhead_ratio", "ratio")]
    return names


def report(result: dict) -> tuple[dict, list[str]]:
    med = {name: statistics.median(values) for name, values in result["durations"].items()}
    values = dict(result["counts"])
    for name in med:
        if not name.startswith("pass"):
            values[f"{name}_s"] = med[name]
    for rule in LINT_RULES:
        values[f"lint.rule.{rule}_s"] = med[f"lint.rule.{rule}"] - med["lint.index"]
    for op, minus in SELF_MINUS.items():
        values[f"cli.{op}.self_s"] = med[f"cli.{op}.run"] - sum(med[m] for m in minus)
    values["cli.startup_s"] = result["startup_s"]
    values["trace.overhead_ratio"] = sum(med[f"cli.{op}.run"] for op in CLI_OPS) / sum(
        result["child_s"][op] - result["startup_s"] for op in CLI_OPS)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}
    lines = [f"{result['passes']} traced passes in {result['measured_s']:.1f} s"]
    lines += [f"{name:<34} {unit:<6} {values[name]:.6g}" for name, unit in per_layer_metrics()]
    lines.append("tracing overhead: in-process cli.<op>.run_s vs the untraced child minus start-up:"
                 + ", ".join(f" {op} {med[f'cli.{op}.run']:.3f}/"
                             f"{result['child_s'][op] - result['startup_s']:.3f} s"
                             for op in CLI_OPS))
    return metrics, lines
