import functools
import os
import sys
from pathlib import Path

import pytest

# make the test-support modules (golden_docs, oracle, randdocs, rule_fixtures)
# and the benchmark's generator and checks importable regardless of how
# pytest was invoked
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import gen  # noqa: E402
from golden_docs import bjp_square_doc, karnataka_doc  # noqa: E402


@pytest.fixture(scope="session")
def workload():
    """``gen.generate(name, seed)``, built once per session and shared read-only:
    corpus bytes ``a`` and ``b`` and the ``expected`` results the generator
    derives without glocon."""
    return functools.cache(gen.generate)


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports glocon from this
    checkout's ``src``, as ``sys.executable -m glocon.cli`` needs it."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


@pytest.fixture
def qualifiers_config(tmp_path):
    """The path of a lint config whose estimation qualifiers overlap ("more"
    begins "more than"), so the one W131 names depends on the order it tries them."""
    path = tmp_path / "qualifiers.json"
    path.write_text('{"lexicons": {"estimation_qualifiers": ["more", "more than", "about"]}}')
    return str(path)


@pytest.fixture
def bjp_doc():
    return bjp_square_doc()


@pytest.fixture
def karnataka():
    return karnataka_doc()


@pytest.fixture
def corpus_file(tmp_path):
    """Write documents to a temp .glocon.jsonl file and return its path."""
    from glocon.io import save_corpus

    def write(docs, name="corpus.glocon.jsonl"):
        path = tmp_path / name
        save_corpus(str(path), docs)
        return str(path)

    return write
