"""The recorded bytes of every CLI command on fixed corpora, as SHA-256 digests.

``golden/output_digests.json`` holds, for a fixed matrix of commands, the
SHA-256 of stdout and of stderr and the exit code, plus the SHA-256 of the
file that ``save_corpus(load_corpus(...))`` writes.  The matrix runs on the
seed-1 ``bulk``, ``dense`` and ``flat`` corpora of ``perfbench/gen.py``
(annotator A and B), the three golden corpora and the worked examples:

- every corpus but a generated B corpus: ``validate`` (text and json,
  each with ``--fail-on error`` and ``warning``), ``assemble`` (csv and
  jsonl), ``stats`` (text and json) and the load -> save round trip;
- every pair in ``PAIRS``: ``agree`` at doc and sentence level and at
  token level in strict and lenient mode, each as text and json.

Commands run in-process through ``glocon.cli.run``; stdout is taken as the
UTF-8 bytes the console script writes.  stderr names each corpus by its
path, which is replaced by ``<name>`` before hashing.  The digest of each
input is stored beside its outputs, so a generator that writes other bytes
is told apart from a glocon that prints other bytes.

A change that alters output on purpose regenerates the file::

    python tests/output_digests.py

and CHANGES.md names the entries that changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from glocon import cli  # noqa: E402
from glocon.io import load_corpus, save_corpus  # noqa: E402

DIGESTS = ROOT / "tests" / "golden" / "output_digests.json"
WORKLOADS = ("bulk", "dense", "flat")
FIXED = {
    "labels_a": ROOT / "tests" / "golden" / "labels_a.glocon.jsonl",
    "labels_b": ROOT / "tests" / "golden" / "labels_b.glocon.jsonl",
    "spans_b": ROOT / "tests" / "golden" / "spans_b.glocon.jsonl",
    "worked": ROOT / "data" / "worked_examples.glocon.jsonl",
}
# the inputs come in groups: the A and B corpora of each workload, and the fixed files
GROUPS = (*WORKLOADS, "fixed")
PAIRS = {
    **{w: ((f"{w}_a", f"{w}_b"),) for w in WORKLOADS},
    "fixed": (("labels_a", "labels_b"), ("labels_a", "spans_b"), ("worked", "worked")),
}
SINGLE = {
    **{
        f"validate {fmt} {fail_on}": ["validate", "{0}", "--format", fmt, "--fail-on", fail_on]
        for fmt in ("text", "json")
        for fail_on in ("error", "warning")
    },
    "assemble csv": ["assemble", "{0}", "--format", "csv"],
    "assemble jsonl": ["assemble", "{0}", "--format", "jsonl"],
    "stats text": ["stats", "{0}", "--format", "text"],
    "stats json": ["stats", "{0}", "--format", "json"],
}
AGREE = {
    f"agree {level} {fmt}": ["agree", "{0}", "{1}", *options, "--format", fmt]
    for level, options in (
        ("doc", ["--level", "doc"]),
        ("sentence", ["--level", "sentence"]),
        ("token-strict", ["--level", "token", "--mode", "strict"]),
        ("token-lenient", ["--level", "token", "--mode", "lenient"]),
    )
    for fmt in ("text", "json")
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(group: str, directory: Path, generate=gen.generate) -> dict[str, Path]:
    """The group's input files by name; generated corpora are written to ``directory``."""
    if group == "fixed":
        return dict(FIXED)
    generated = generate(group, 1)
    paths = {}
    for side in ("a", "b"):
        paths[f"{group}_{side}"] = path = directory / f"{group}_{side}.glocon.jsonl"
        path.write_bytes(generated[side])
    return paths


def digest(code: int, stdout: str, stderr: str, paths: dict[str, Path]) -> dict:
    """The exit code and the digests of one command's stdout and stderr."""
    for name, path in paths.items():
        stderr = stderr.replace(str(path), f"<{name}>")
    return {
        "exit": code,
        "stdout": sha256(stdout.encode("utf-8")),
        "stderr": sha256(stderr.encode("utf-8", "backslashreplace")),
    }


def run_command(argv: list[str], paths: dict[str, Path]) -> dict:
    """:func:`digest` of one command, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return digest(code, out.getvalue(), err.getvalue(), paths)


# The entry of each operation of perfbench/ops.py, which test_differential.py
# runs on a workload's A corpus (and B, for agree) and checks against the file.
BENCH_OPS = {
    "validate": "validate json error",
    "assemble": "assemble csv",
    "stats": "stats json",
    "roundtrip": "roundtrip",
    "agree_strict": "agree token-strict json",
    "agree_lenient": "agree token-lenient json",
    "agree_doc": "agree doc json",
    "agree_sentence": "agree sentence json",
}


def bench_key(op: str, workload: str) -> str:
    """The entry of a benchmark operation on a workload's corpora."""
    inputs = f"{workload}_a {workload}_b" if op.startswith("agree") else f"{workload}_a"
    return f"{BENCH_OPS[op]} {inputs}"


def group_digests(group: str, directory: Path, generate=gen.generate, skip=frozenset()) -> dict:
    """The digests of one group: its inputs, then each command's outputs but
    those named in ``skip``.  A generated B corpus is an input of ``agree`` only."""
    paths = write_inputs(group, directory, generate)
    result: dict = {"inputs": {name: sha256(path.read_bytes()) for name, path in paths.items()}}
    outputs = result["outputs"] = {}
    singles = [name for name in paths if group == "fixed" or name.endswith("_a")]
    for name in singles:
        path = str(paths[name])
        for command, template in SINGLE.items():
            if f"{command} {name}" not in skip:
                argv = [arg.format(path) for arg in template]
                outputs[f"{command} {name}"] = run_command(argv, paths)
        if f"roundtrip {name}" not in skip:
            saved = directory / f"{name}.saved.glocon.jsonl"
            save_corpus(str(saved), load_corpus(path)[0])
            outputs[f"roundtrip {name}"] = {"saved": sha256(saved.read_bytes())}
    for a, b in PAIRS[group]:
        for command, template in AGREE.items():
            if f"{command} {a} {b}" not in skip:
                argv = [arg.format(str(paths[a]), str(paths[b])) for arg in template]
                outputs[f"{command} {a} {b}"] = run_command(argv, paths)
    return result


def recorded() -> dict:
    """The committed digests, by group."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = {group: group_digests(group, Path(work)) for group in GROUPS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
