"""The benchmark's own correctness checks, run on the library at tiny size.

``perfbench/test_smoke.py`` runs every workload through the benchmark's
command line but sits outside the default suite.  This loads the benchmark's
modules without writing anything next to them and runs every workload's jobs
untraced, so a change that breaks one of their checks (vertex recovery after
the SVD projection, the needle log, the noisy answers) fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
        return module

    return load


@pytest.mark.parametrize("name", ["kolp-desk", "kolp-wide", "separation", "hull-audit"])
def test_tiny_workload_passes_its_checks(perfbench, name):
    workload, tr = perfbench("workloads").WORKLOADS[name], perfbench("run").NoTrace()
    jobs = workload.setup(1, workload.tiny, tr)
    assert jobs
    for i, job in enumerate(jobs):
        checks = workload.check(job, workload.run(job, tr), None, False)
        assert checks and all(checks.values()), (i, checks)
