"""Every function and method the benchmark's span tracer patches by name
still exists, so a rename cannot crash a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def patch_targets(source: str) -> list[tuple[str, str, str]]:
    """(kind, owner, attr) of every ``patch_function(_, module, "attr", ...)``
    and ``patch_method(_, module.Class, "attr", ...)`` call.  An attr that is
    a loop variable over a tuple of strings yields one target per string."""
    tree = ast.parse(source)
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops[node.target.id] = [ast.literal_eval(e) for e in node.iter.elts]
    targets = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("patch_function", "patch_method")):
            continue
        owner, attr = node.args[1], node.args[2]
        attrs = loops[attr.id] if isinstance(attr, ast.Name) else [ast.literal_eval(attr)]
        for name in attrs:
            targets.append((node.func.id, ast.unparse(owner), name))
    return targets


def _owner(dotted: str):
    module, _, cls = dotted.partition(".")
    mod = importlib.import_module(f"memchar.{module}")
    return getattr(mod, cls) if cls else mod


@pytest.mark.skipif(not SPANS.is_file(), reason="no bench/ directory")
def test_every_patched_name_exists():
    targets = patch_targets(SPANS.read_text())
    assert len(targets) >= 20
    missing = []
    for kind, owner, attr in targets:
        obj = _owner(owner)
        found = attr in vars(obj) if kind == "patch_method" else hasattr(obj, attr)
        if not found:
            missing.append(f"{kind} {owner}.{attr}")
    assert missing == []


def test_scan_reads_loops_and_methods():
    source = (
        "patch_method(t, backends.SimulatedBackend, 'run_point', 'x')\n"
        "for cmd in ('cmd_a', 'cmd_b'):\n"
        "    patch_function(t, cli, cmd, 'y')\n"
    )
    assert patch_targets(source) == [
        ("patch_method", "backends.SimulatedBackend", "run_point"),
        ("patch_function", "cli", "cmd_a"),
        ("patch_function", "cli", "cmd_b"),
    ]

