"""The library and CLI against the benchmark generator's planted ground truth.

``perfbench/gen.py`` writes clean documents with one planted gadget per
rule, bad lines of every parse-error kind and annotator B's perturbed
copy, and derives every expected result without importing glocon.  Each
benchmark operation runs here in-process, as ``perfbench/traced.py``
runs it, and ``ops.check`` compares its output with that record.  Its
bytes are compared with their entry in ``golden/output_digests.json``
(see ``output_digests.py``).
"""

from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from glocon import cli
from glocon.assemble import assemble_events, check_separation
from glocon.io import load_corpus, save_corpus

import checks
import ops
from output_digests import bench_key, digest, recorded, sha256


@pytest.mark.parametrize("name", ["bulk", "dense", "flat"])
def test_every_operation_gives_the_planted_results(workload, tmp_path, name):
    generated = workload(name, 1)
    expected = generated["expected"]
    paths = ops.Paths(str(tmp_path))
    with open(paths.a, "wb") as a, open(paths.b, "wb") as b:
        a.write(generated["a"])
        b.write(generated["b"])
    inputs = {f"{name}_a": paths.a, f"{name}_b": paths.b}
    digests = recorded()[name]["outputs"]

    for op in ops.TIMED + ops.KAPPA:
        with open(paths.stdout, "w", encoding="utf-8") as out, \
                open(paths.stderr, "w", encoding="utf-8") as err, \
                redirect_stdout(out), redirect_stderr(err):
            if op == "roundtrip":
                save_corpus(paths.out, load_corpus(paths.a)[0])
                code = 0
            else:
                code = cli.run(ops.argv(op, paths)[2:])
        # validate runs no separation check: its W140/W141 plants count as missed
        assert ops.check(op, paths, code, expected, Counter()) == [], op
        if op == "roundtrip":
            found = {"saved": sha256(Path(paths.out).read_bytes())}
        else:
            stdout, stderr = (Path(p).read_bytes().decode() for p in (paths.stdout, paths.stderr))
            found = digest(code, stdout, stderr, inputs)
        assert found == digests[bench_key(op, name)], op

    separation = {}
    for doc in load_corpus(paths.a)[0]:
        diagnostics = check_separation(assemble_events(doc))
        if diagnostics:
            separation[doc.doc_id] = [(d.rule, d.sentence) for d in diagnostics]
    assert checks.separation(separation, expected) == []
