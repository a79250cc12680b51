"""Smoke test of the benchmark itself: every workload at tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the printed result against BENCHMARK.json (metric names and units),
that every job ran every correctness check and passed, and that the
benchmark refuses to run without the library source next to it.
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2

# The checks every job of a workload must report (untraced, traced only).
CHECKS = {
    "kolp-desk": ({"vertices_recovered"}, {"matches_kolp_run"}),
    "kolp-wide": ({"vertices_recovered"}, {"matches_kolp_run"}),
    "hull-audit": (
        {"validate", "audit_passed", "audit_displacement", "hausdorff_within_eps", "envelopes_recovered"},
        {"matches_hausdorff_learn"},
    ),
    "separation": (
        {
            "rsh_bound_segment", "rsh_bound_sphere",
            "far_separated_exact", "far_separated_noisy",
            "inside_softened_exact", "inside_softened_noisy",
            "needle_log_complete", "needles_consistent", "needles_separated",
        },
        set(),
    ),
}


def _run(cwd: Path, workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--tiny", "--out", str(out),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_tiny_run(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    record = json.loads((tmp_path / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    base, traced_only = CHECKS[workload]
    kinds = set()
    for job in record["jobs"]:
        kinds.add(job["kind"])
        assert "error" not in job, job["error"]
        expected = base | traced_only if job["kind"] == "traced" else base
        assert set(job["checks"]) == expected
        assert all(job["checks"].values()), job["checks"]
    assert kinds == ({"plain", "traced"} if trace else {"plain"})
    assert record["environment"]["nproc"] >= 1


def test_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "kolp-desk", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
