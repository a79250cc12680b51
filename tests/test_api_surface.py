"""Every ``polylearn`` name the benchmark and the demos use must resolve.

The benchmark's smoke test is outside the default suite, so this guard reads
their sources instead of running them: a trimmed public API shows up here.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import polylearn

ROOT = Path(__file__).resolve().parents[1]


def _package_names(path: Path) -> set[str]:
    """Attribute names taken from ``pl`` or ``polylearn`` in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("pl", "polylearn")
    }


def test_benchmark_and_demo_names_resolve():
    files = sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("demos/*.py"))
    used = {(f.relative_to(ROOT).as_posix(), name) for f in files for name in _package_names(f)}
    assert len({f for f, _ in used}) >= 8  # workloads.py and the seven demos
    assert sorted((f, name) for f, name in used if not hasattr(polylearn, name)) == []


def test_package_all_is_the_union_of_submodule_alls():
    # The CLI is the command-line layer, not part of the library's namespace.
    modules = [m.name for m in pkgutil.iter_modules(polylearn.__path__) if m.name != "cli"]
    union = set()
    for name in modules:
        union |= set(importlib.import_module(f"polylearn.{name}").__all__)
    assert sorted(polylearn.__all__) == sorted(union)


def test_package_binds_no_public_name_outside_all():
    assert len(set(polylearn.__all__)) == len(polylearn.__all__)
    submodules = {m.name for m in pkgutil.iter_modules(polylearn.__path__)}
    public = {name for name in vars(polylearn) if not name.startswith("_")}
    assert sorted(public - set(polylearn.__all__) - submodules) == []


def test_import_loads_no_scipy():
    # scipy is imported only inside the functions that use it.
    code = "import sys, polylearn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(polylearn.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
