#!/usr/bin/env python3
"""Generate a synthetic corpus file for benchmarks and demos.

Example:
    python scripts/make_synthetic_corpus.py --docs 1000 --seed 7 --out bench.glocon.jsonl
"""

import argparse

from glocon.io import save_corpus
from glocon.synth import synthetic_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    docs = synthetic_corpus(args.docs, seed=args.seed)
    save_corpus(args.out, docs)
    print(f"wrote {len(docs)} documents to {args.out}")


if __name__ == "__main__":
    main()
