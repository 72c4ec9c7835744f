"""Every module-level import in ``src/memchar`` is used or re-exported, and
only ``topology.py`` reads a topology's raw ``caches`` sizes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "memchar"
# The package's re-exports are its public surface, not imports to be used.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_scan_sees_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom typing import Optional\n__all__ = ['Optional']\n"
    assert unused_imports(source) == ["line 1: os"]


def caches_reads(source: str) -> list[int]:
    """Lines that read an attribute named ``caches``."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == "caches"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "topology.py"),
    ids=lambda p: p.name,
)
def test_cache_sizes_read_only_through_the_topology(path):
    # Sizes come from TopologyGraph.cache_bytes, the one KiB/MiB conversion.
    assert caches_reads(path.read_text()) == []


def test_scan_flags_a_caches_read():
    assert caches_reads("x = 1\nkib = graph.caches['l1_kib']\n") == [2]
