"""Every command of the digest matrix prints the recorded bytes.

``output_digests.py`` describes the matrix and regenerates
``golden/output_digests.json``.  The benchmark operations on the generated
corpora are checked by ``test_differential.py`` on the runs it makes anyway;
this test runs the rest.
"""

import ops
import pytest
from output_digests import GROUPS, WORKLOADS, bench_key, group_digests, recorded

CHECKED_BY_DIFFERENTIAL = frozenset(
    bench_key(op, name) for name in WORKLOADS for op in ops.TIMED + ops.KAPPA
)


@pytest.mark.parametrize("group", GROUPS)
def test_every_command_prints_the_recorded_bytes(group, workload, tmp_path):
    want = recorded()[group]
    found = group_digests(group, tmp_path, workload, skip=CHECKED_BY_DIFFERENTIAL)
    assert found["inputs"] == want["inputs"], "the inputs differ, so the outputs cannot be compared"
    assert sorted(found["outputs"]) == sorted(want["outputs"].keys() - CHECKED_BY_DIFFERENTIAL)
    outputs = found["outputs"]
    assert [key for key in sorted(outputs) if outputs[key] != want["outputs"][key]] == []
