"""Every library name the benchmark's modules import or read exists.

The benchmark imports names from `kgdialog` and reads attributes off the
`kgdialog` modules it imports; a library change that drops one would show
only as a failed benchmark run.  This parses `bench/*.py` and looks each
name up, without running the benchmark.
"""

import ast
import importlib

from conftest import REPO


def _references(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of each name imported from ``kgdialog``, and of
    each attribute read off a ``kgdialog`` module imported by name."""
    found: set[tuple[str, str]] = set()
    modules: dict[str, str] = {}  # local name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kgdialog":
            for alias in node.names:
                found.add((node.module, alias.name))
                if node.module == "kgdialog":
                    modules[alias.asname or alias.name] = f"kgdialog.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.add((modules[node.value.id], node.attr))
    return found


def _exists(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_library_name_the_bench_reads_exists():
    references = {
        (path.name, module, name)
        for path in sorted((REPO / "bench").glob("*.py"))
        for module, name in _references(ast.parse(path.read_text(encoding="utf-8")))
    }
    # the workloads read the store type and the pipeline entry points
    assert ("workloads.py", "kgdialog.kg_store", "KgStore") in references
    assert ("workloads.py", "kgdialog.dataset_pipeline", "split_corpus") in references
    missing = [f"{path}: {module}.{name}" for path, module, name in sorted(references) if not _exists(module, name)]
    assert not missing


def test_a_dropped_name_is_reported():
    tree = ast.parse("from kgdialog import kg_store as ks\nfrom kgdialog.kg_store import gone\nks.also_gone\n")
    references = _references(tree)
    assert references == {
        ("kgdialog", "kg_store"),
        ("kgdialog.kg_store", "gone"),
        ("kgdialog.kg_store", "also_gone"),
    }
    assert [ref for ref in sorted(references) if not _exists(*ref)] == [
        ("kgdialog.kg_store", "also_gone"),
        ("kgdialog.kg_store", "gone"),
    ]
