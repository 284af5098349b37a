"""Fast smoke test of the benchmark: every workload at 10^3 samples.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced.  The test checks that every
metric named in BENCHMARK.json is emitted with its unit, that no check fails,
and that in the span file each span's self time plus the union of its child
spans equals its duration.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, out_dir: Path) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
        "--samples", "1000", "--depth", "1", "--setup-runs", "1", "--out-dir", str(out_dir),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def union(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload(workload, trace, tmp_path):
    result = run(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return

    payload = json.loads(next(tmp_path.glob("spans-*.json")).read_text())
    assert payload["absent"] == []
    spans = payload["spans"]
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert span["pass"] == parent["pass"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        else:
            assert span["name"] == "pass"
    for i, span in enumerate(spans):
        covered = union(children.get(i, []))
        assert span["self"] >= -1e-12
        assert span["self"] + covered == pytest.approx(span["end"] - span["start"], abs=1e-9)
