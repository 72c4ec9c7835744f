"""Every function and method the benchmark's span tracer patches by name
still exists, so a rename cannot crash a traced benchmark run; and the
line and data-member accounting of ``tools/traffic_lines.py`` is exact on
toy modules."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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



TOY = """\
def called(n):
    total = 0
    for i in range(n):
        total += i
    return total + sum([i * i for i in range(n)])


def uncalled(x):
    if x:
        return 1
    return (lambda: 2)()


twice = lambda x: 2 * x
unused = lambda x: x - 1
"""


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_lines_accounts_a_toy_module(tmp_path, monkeypatch):
    traffic = _tool("traffic_lines")
    path = tmp_path / "toy_traffic.py"
    path.write_text(TOY)
    # The def lines are left out; comprehension and lambda lines count
    # toward the function that holds them, and a module-level lambda is
    # its own entry, named after its line, which is its body.
    assert traffic.executable_lines(path) == {
        "called": (1, {2, 3, 4, 5}), "uncalled": (8, {9, 10, 11}),
        "<lambda>:14": (14, {14}), "<lambda>:15": (15, {15}),
    }
    monkeypatch.syspath_prepend(str(tmp_path))
    before = sys.gettrace()
    with traffic.LineRecorder(tmp_path) as recorder:
        import toy_traffic

        assert toy_traffic.called(3) == 8
        assert toy_traffic.twice(2) == 4
    sys.modules.pop("toy_traffic")
    # Line 15 runs at import, but the lambda it defines never does.
    report, counts = traffic.unrun_report([path], recorder.ran)
    assert report == [f"{tmp_path.name}/toy_traffic.py:8 uncalled: NEVER (3 lines)",
                      f"{tmp_path.name}/toy_traffic.py:15 <lambda>:15: NEVER (1 lines)"]
    assert counts == {"functions": 4, "never": 2, "lines": 9, "unrun": 4}
    assert sys.gettrace() is before


TOY_MEMBERS = """\
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Point:
    x: int
    unread_field: int

    def norm(self):
        return self.x


class Box:
    def __init__(self):
        self.size = 1
        self.unread_attr = 2


class Colour(Enum):
    RED = 1


class Oops(ValueError):
    code: int = 2
"""


def test_traffic_lines_reports_unread_data_members(tmp_path, monkeypatch):
    traffic = _tool("traffic_lines")
    path = tmp_path / "toy_members.py"
    path.write_text(TOY_MEMBERS)
    monkeypatch.syspath_prepend(str(tmp_path))
    import toy_members

    try:
        classes = traffic.member_classes(toy_members)
        assert {cls.__name__ for cls in classes} == {"Point", "Box"}
        point, box = toy_members.Point(1, 2), toy_members.Box()
        with traffic.AttributeRecorder(classes) as recorder:
            assert point.norm() == 1 and box.size == 1
        assert box.unread_attr == 2  # read after recording stopped
        assert {("Point", "x"), ("Point", "norm"), ("Box", "size")} <= recorder.reads
        assert "__getattribute__" not in vars(toy_members.Point)
        assert traffic.unread_members([toy_members], recorder.reads) == [
            "toy_members.py: Point.unread_field", "toy_members.py: Box.unread_attr"]
    finally:
        sys.modules.pop("toy_members")


TOY_C = """\
/* A block comment
 * over two lines. */
int a; /* a trailing comment */
// a line comment

const char *s = "/* not a comment */";
char c = '/'; /* one */ /* and one that
ends */ int b;
    /* only */  // comments
"""


def test_sloc_counts_c_code_lines(tmp_path, capsys):
    sloc = _tool("sloc")
    # Code stands on lines 3, 6, 7 and 8; the string holds no comment.
    assert sloc.c_sloc(TOY_C) == 4
    (tmp_path / "toy.py").write_text('"""Docstring."""\n\nx = 1  # comment\n')
    (tmp_path / "native_src").mkdir()
    (tmp_path / "native_src" / "kernels.c").write_text(TOY_C)
    assert sloc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "     1 toy.py\n     1 total\n     4 native_src/kernels.c (C, not in the total)\n"
    )
