"""The benchmark's answers on its default seed match the recorded digests.

Each perfbench workload runs the ops its digest covers (a few seconds in
all) with no time budget, and the SHA-256 over their checked answers must
equal the one in perfbench/digests.json.  A speed-up that changes any
answer fails here, before a benchmark run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_answers_match_recorded_digest(name):
    w = WORKLOADS[name]
    result = run.run_untraced(name, DEFAULT_SEED, 0, max_ops=w.digest_ops, setup=False)
    assert result["failed"] == 0
    assert result["digest"] == run.recorded_digest(name, DEFAULT_SEED)
