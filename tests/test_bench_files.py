"""Shape of the committed benchmark records (BENCH_*.json at the repo root).

Each file holds the harness's final JSON lines for a performance change:
runs of the parent commit and of the change, each labelled, correct and
without failed ops, with both sides run on every seed the file lists.  A
file may cover several workloads; then ``workload`` is a list and every run
names its own.
"""

import glob
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
SHA = re.compile(r"[0-9a-f]{40}")


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_shape(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    workloads = data["workload"]
    if isinstance(workloads, str):
        workloads = [workloads]
    assert workloads and all(isinstance(w, str) and w for w in workloads)
    for side in ("parent", "change"):
        assert SHA.fullmatch(data[side]), f"{side} is not a 40-hex SHA"
    assert data["parent"] != data["change"]

    sides: dict[tuple[str, int], set[str]] = {}
    assert data["runs"]
    for run in data["runs"]:
        assert run["label"] in ("parent", "change")
        if "sha" in run:
            assert run["sha"] == data[run["label"]]
        workload = run.get("workload", workloads[0] if len(workloads) == 1 else None)
        assert workload in workloads
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
        sides.setdefault((workload, run["seed"]), set()).add(run["label"])
    for (workload, seed), labels in sorted(sides.items()):
        assert labels == {"parent", "change"}, f"{workload} seed {seed} has only {labels}"
