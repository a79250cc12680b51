"""Every ``polylearn`` name the benchmark and the demos use must resolve.

The benchmark's smoke test is outside the default suite, so this guard reads
their sources instead of running them: a trimmed public API shows up here.
"""

import ast
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
