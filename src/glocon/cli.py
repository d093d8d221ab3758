"""Command-line front end.

Subcommands::

    glocon validate <corpus> [--config FILE] [--format text|json] [--fail-on error|warning]
    glocon assemble <corpus> [--out FILE] [--format csv|jsonl]
    glocon agree <a> <b> [--level doc|sentence|token] [--mode strict|lenient] [--format text|json]
    glocon stats <corpus> [--format text|json]

Exit codes: 0 success, 1 diagnostics at or above the --fail-on
threshold, 2 usage error, 3 I/O or parse failure or a closed stdout.
Stdout is UTF-8; in JSON mode it carries only the payload, summaries go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .io import CorpusDecodeError, ParseError, iter_corpus
from .model import DOC_LABELS, DocumentRecord, label_text

# lint, assemble and agreement are imported inside the functions of the
# commands that run them: each command is a fresh process, and a module-level
# import would make every command, `stats` too, compile all three.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

    from .agreement import KappaResult, PRFReport
    from .lint import Diagnostic

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3


class Stats(
    namedtuple("Stats", "documents sentences annotations tag_counts doc_labels "
               "sentence_labels events_total events_per_doc")
):
    """Corpus-level counts: tags, labels, events.  Each count dict is in key
    order, and ``doc_labels`` maps each DOC_LABELS key to one."""

    __slots__ = ()

    def to_obj(self) -> dict:
        return {
            "documents": self.documents,
            "sentences": self.sentences,
            "annotations": self.annotations,
            "events_total": self.events_total,
            "tag_counts": self.tag_counts,
            **{f"{key}_labels": counts for key, counts in self.doc_labels.items()},
            "sentence_labels": self.sentence_labels,
            "events_per_doc": self.events_per_doc,
        }


def _by_text(counts: Counter) -> dict[str, int]:
    """Label counts keyed by label text ("unlabeled" for None), in key order."""
    return dict(sorted(("unlabeled" if label is None else label_text(label), n)
                       for label, n in counts.items()))


def corpus_stats(docs: Iterable[DocumentRecord]) -> Stats:
    """Deterministic counts over a corpus; a repeated doc_id raises ValueError."""
    sentences = annotations = 0
    events_per_doc: dict[str, int] = {}
    # counted by member, then named once per member: enum .value is slow
    sentence_labels, tags = Counter(), Counter()
    doc_labels = {key: Counter() for key in DOC_LABELS}
    for doc in docs:
        if doc.doc_id in events_per_doc:
            raise ValueError(f"doc_id {doc.doc_id!r} repeats")
        sentences += len(doc.sentences)
        annotations += len(doc.annotations)
        sentence_labels.update(sent.label for sent in doc.sentences)
        for key, counts in doc_labels.items():
            counts[getattr(doc.labels, key)] += 1
        events = set()
        for ann in doc.annotations:
            tags[ann.tag] += 1
            events |= ann.events
        events_per_doc[doc.doc_id] = len(events)
    return Stats(
        documents=len(events_per_doc),
        sentences=sentences,
        annotations=annotations,
        tag_counts=dict(sorted((tag.value, n) for tag, n in tags.items())),
        doc_labels={key: _by_text(counts) for key, counts in doc_labels.items()},
        sentence_labels=_by_text(sentence_labels),
        events_total=sum(events_per_doc.values()),
        events_per_doc=events_per_doc,
    )


class _CorpusStream:
    """The documents of one corpus file, read as they are iterated (once).

    A read or decode failure ends the stream and is kept as its message
    instead of raised; ``report`` prints it, or else the file's parse errors.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.errors: list[ParseError] = []
        self.failure: str | None = None

    def __iter__(self) -> Iterator[DocumentRecord]:
        try:
            with open(self.path, "rb") as handle:
                yield from iter_corpus(handle, self.errors)
        except OSError as exc:
            self.failure = f"glocon: cannot read {self.path}: {exc}"
        except CorpusDecodeError as exc:
            self.failure = f"glocon: {self.path}: {exc}"

    def report(self) -> None:
        """After the stream is used up: print its failure alone and exit with
        EXIT_IO, or else print its parse errors."""
        if self.failure is not None:
            print(self.failure, file=sys.stderr)
            raise SystemExit(EXIT_IO)
        for err in self.errors:
            print(f"glocon: {self.path}: {err}", file=sys.stderr)


def _render_text(diagnostics: list[Diagnostic]) -> str:
    return "".join(d.render() + "\n" for d in diagnostics)


def _render_json(diagnostics: list[Diagnostic]) -> str:
    return ",\n".join(d.to_json() for d in diagnostics)


def write_json_array(items: Iterable[str], out: TextIO) -> None:
    """Write array elements rendered by ``Diagnostic.to_json`` (several to a
    piece, joined by ",\\n") as ``json.dump(..., indent=2)`` writes the list."""
    opening = "[\n"
    for item in items:
        out.write(opening)
        out.write(item)
        opening = ",\n"
    out.write("[]" if opening == "[\n" else "\n]")


def _cmd_validate(args: argparse.Namespace) -> int:
    from .lint import (DEFAULT_CONFIG, ConfigError, Severity, count_at_or_above, load_config,
                       validate_rendered)

    cfg = DEFAULT_CONFIG
    if args.config:
        try:
            cfg = load_config(args.config)
        except OSError as exc:
            print(f"glocon: cannot read config {args.config}: {exc}", file=sys.stderr)
            return EXIT_IO
        except ConfigError as exc:
            print(f"glocon: bad config {args.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    render = _render_json if args.format == "json" else _render_text
    corpus = _CorpusStream(args.corpus)
    held, totals, documents = validate_rendered(corpus, cfg, render)
    corpus.report()

    summary = (
        f"{documents} documents: "
        f"{totals[Severity.ERROR]} errors, {totals[Severity.WARNING]} warnings, "
        f"{totals[Severity.INFO]} info"
    )
    if args.format == "json":
        write_json_array(held, sys.stdout)
        sys.stdout.write("\n")
        print(summary, file=sys.stderr)
    else:
        sys.stdout.writelines(held)
        print(summary)

    if corpus.errors:
        return EXIT_IO
    if count_at_or_above(totals, Severity(args.fail_on)) > 0:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_assemble(args: argparse.Namespace) -> int:
    from .assemble import CSV_HEADER, assemble_rendered, csv_rows, rows_to_jsonl, write_assembled

    render, header = (csv_rows, CSV_HEADER) if args.format == "csv" else (rows_to_jsonl, "")
    corpus = _CorpusStream(args.corpus)
    held, events, documents = assemble_rendered(corpus, render)
    corpus.report()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                write_assembled(held, header, handle)
        except OSError as exc:
            print(f"glocon: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        write_assembled(held, header, sys.stdout)
    print(f"{events} events from {documents} documents", file=sys.stderr)
    return EXIT_IO if corpus.errors else EXIT_OK


def _format_kappa_table(results: Sequence[KappaResult]) -> str:
    lines = ["level         kappa      p_o      p_e        n  skipped"]
    for res in results:
        if res.degenerate:
            lines.append(
                f"{res.level.value:<12} {'n/a':>6} {'n/a':>8} {'n/a':>8} {res.n:>8}  {res.skipped}"
            )
        else:
            lines.append(
                f"{res.level.value:<12} {res.kappa:>6.4f} {res.p_o:>8.4f} "
                f"{res.p_e:>8.4f} {res.n:>8}  {res.skipped}"
            )
    return "\n".join(lines)


def _format_prf_table(report: PRFReport) -> str:
    lines = [
        f"span agreement: mode={report.mode.value} reference=a "
        "(one-to-one greedy matching in canonical span order, exact matches first)",
        f"{'tag':<28} {'P':>7} {'R':>7} {'F1':>7} {'tp':>6} {'fp':>6} {'fn':>6}",
    ]
    for tag, s in sorted(report.per_tag.items()):
        lines.append(
            f"{tag:<28} {s.precision:>7.4f} {s.recall:>7.4f} {s.f1:>7.4f} "
            f"{s.tp:>6} {s.fp:>6} {s.fn:>6}"
        )
    m = report.micro
    lines.append(
        f"{'micro':<28} {m.precision:>7.4f} {m.recall:>7.4f} {m.f1:>7.4f} "
        f"{m.tp:>6} {m.fp:>6} {m.fn:>6}"
    )
    return "\n".join(lines)


def _cmd_agree(args: argparse.Namespace) -> int:
    from .agreement import AgreementLevel, CorpusJoin, MatchMode, label_kappas, span_prf

    corpus_a, corpus_b = _CorpusStream(args.corpus_a), _CorpusStream(args.corpus_b)
    join = CorpusJoin(corpus_a, corpus_b, unique_ids=True)  # iter_corpus drops repeated ids
    results: list[KappaResult] = []
    if args.level == "token":
        report = span_prf(join, MatchMode(args.mode))
        payload_obj: object = report.to_obj()
        text = _format_prf_table(report)
    else:
        levels = (
            [AgreementLevel.SENTENCE]
            if args.level == "sentence"
            else [level for level in AgreementLevel if level is not AgreementLevel.SENTENCE]
        )
        results = label_kappas(join, levels)
        payload_obj = [r.to_obj() for r in results]
        text = _format_kappa_table(results)
    corpus_a.report()
    corpus_b.report()

    for mismatch in join.mismatched:
        print(f"glocon: {mismatch}", file=sys.stderr)
    for res in results:
        if res.degenerate:
            print(
                f"glocon: no items labeled on both sides at level {res.level.value}",
                file=sys.stderr,
            )
    pairing_note = (
        f"{join.paired} pairs, unmatched a={list(join.unmatched_a)}, "
        f"b={list(join.unmatched_b)}, token mismatches={len(join.mismatched)}"
    )
    if args.format == "json":
        json.dump(payload_obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
        print(pairing_note, file=sys.stderr)
    else:
        print(text)
        print(pairing_note)
    return EXIT_IO if (corpus_a.errors or corpus_b.errors) else EXIT_OK


def _format_stats_text(stats: Stats) -> str:
    lines = [
        f"documents:   {stats.documents}",
        f"sentences:   {stats.sentences}",
        f"annotations: {stats.annotations}",
        f"events:      {stats.events_total}",
        "sentence labels: " + ", ".join(f"{k}={v}" for k, v in stats.sentence_labels.items()),
        *(
            f"{key + ':':<8} " + ", ".join(f"{k}={v}" for k, v in counts.items())
            for key, counts in stats.doc_labels.items()
        ),
        "tag counts:",
    ]
    for tag, count in stats.tag_counts.items():
        lines.append(f"  {tag:<28} {count}")
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = _CorpusStream(args.corpus)
    stats = corpus_stats(corpus)
    corpus.report()
    if args.format == "json":
        json.dump(stats.to_obj(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(_format_stats_text(stats))
    return EXIT_IO if corpus.errors else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glocon",
        description="Validate, assemble and score GLOCON-style protest event corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="lint a corpus against the manual rules")
    p_validate.add_argument("corpus")
    p_validate.add_argument("--config", help="lint configuration JSON file")
    p_validate.add_argument("--format", choices=("text", "json"), default="text")
    p_validate.add_argument("--fail-on", choices=("error", "warning"), default="error")
    p_validate.set_defaults(func=_cmd_validate)

    p_assemble = sub.add_parser("assemble", help="export normalized event records")
    p_assemble.add_argument("corpus")
    p_assemble.add_argument("--out", help="output file (default: stdout)")
    p_assemble.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_assemble.set_defaults(func=_cmd_assemble)

    p_agree = sub.add_parser("agree", help="inter-annotator agreement of two corpora")
    p_agree.add_argument("corpus_a")
    p_agree.add_argument("corpus_b")
    p_agree.add_argument("--level", choices=("doc", "sentence", "token"), default="doc")
    p_agree.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p_agree.add_argument("--format", choices=("text", "json"), default="text")
    p_agree.set_defaults(func=_cmd_agree)

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("corpus")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and execute a subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; a corpus report exits EXIT_IO
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def main() -> None:
    gc.disable()  # no command builds a cycle, so a collection would only walk live documents
    sys.stdout.reconfigure(encoding="utf-8")  # the same bytes as --out writes
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    main()
