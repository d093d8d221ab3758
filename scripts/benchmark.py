#!/usr/bin/env python3
"""Time the single-threaded pipeline on a synthetic corpus.

Example:
    python scripts/benchmark.py --docs 10000
"""

import argparse
import gc
import sys
import time

from glocon.assemble import assemble_events
from glocon.io import parse_corpus, serialize_corpus
from glocon.lint import validate_corpus
from glocon.synth import synthetic_corpus


def timed(label: str, fn):
    gc.collect()
    started = time.perf_counter()
    result = fn()
    print(f"{label:<12} {time.perf_counter() - started:6.2f}s")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    docs = timed("generate", lambda: synthetic_corpus(args.docs, seed=args.seed))
    data = timed("serialize", lambda: serialize_corpus(docs))
    print(f"{'corpus size':<12} {len(data) / 1e6:6.2f} MB")
    docs, errors = timed("parse", lambda: parse_corpus(data))
    if errors:
        sys.exit(f"benchmark: {len(errors)} parse errors in the synthetic corpus: {errors[0]}")
    report = timed("validate", lambda: validate_corpus(docs))
    records = timed(
        "assemble", lambda: [r for doc in docs for r in assemble_events(doc)]
    )
    print(f"{'diagnostics':<12} {len(report.diagnostics):>7}")
    print(f"{'events':<12} {len(records):>7}")


if __name__ == "__main__":
    main()
