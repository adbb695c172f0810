"""Smoke test of the benchmark at toy size.

Checks that every metric BENCHMARK.json names prints with its unit, that the
traced per-layer self times match the written spans and sum to the traced
step time, and that tracing leaves the loss trace bit-identical. Run from
the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def read_spans(path: Path):
    rows = path.read_text().splitlines()[1:]
    return [(int(i), int(p), int(s), n, float(a), float(b))
            for i, p, s, n, a, b in (r.split("\t") for r in rows)]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_at_toy_size(workload):
    hashes = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        report, result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert all(report["checks"].values()), report["checks"]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        hashes.append(report["loss_trace_sha256"])
    assert hashes[0] == hashes[1]

    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spans = read_spans(ROOT / report["spans"])
    loop = [s for s in spans if s[2] >= 0]
    roots = [s for s in loop if s[1] == -1]
    assert {s[3] for s in roots} == {"bench.step"}
    child = defaultdict(float)
    for _, parent, _, _, start, end in loop:
        child[parent] += end - start
    self_ms = defaultdict(float)
    for sid, _, _, name, start, end in loop:
        self_ms[name] += (end - start - child[sid]) * 1e3 / len(roots)
    for name, ms in self_ms.items():
        assert metrics[f"{name}.ms"] == pytest.approx(ms, rel=1e-6, abs=1e-9)
    step_ms = sum((end - start) for *_, start, end in roots) * 1e3 / len(roots)
    assert sum(metrics[f"{name}.ms"] for name in self_ms) == pytest.approx(step_ms, rel=1e-6)
    assert metrics["trace.step_ms"] == pytest.approx(step_ms, rel=1e-6)
