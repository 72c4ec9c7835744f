"""Executable lines and data members of ``src/memchar`` that the benchmark's
traffic never runs or reads.

The traffic is what ``bench/workload.py`` runs: for each of its workloads,
``Workload.setup()`` and one pass of ``run_op`` over the workload's ops,
then both native probes.  Each runs in a child process under
``sys.settrace`` and ``threading.settrace``, in its own temporary work
directory and ``XDG_CACHE_HOME``; nothing under ``bench/`` is written.  The
report lists, per function of ``src/memchar``, the executable lines that no
run reached, marks a function none of whose lines ran ``NEVER``, and ends
with a summary line.  Then it lists each data member that no run read,
and their count.

    python tools/traffic_lines.py             # seed 1
    python tools/traffic_lines.py --seed 7

A comprehension, generator expression or lambda counts toward the function
that holds it; one outside any function (a lambda in a module-level table)
is reported on its own, named after its line.  A line counts as run when a
trace ``line`` event of a function's frame reports it; module and class
bodies, which run at import, are not traced.

A data member is an annotated field of a class, or a ``self.`` attribute
its ``__init__`` sets; dunder names are left out.  The classes are the
module-level classes of ``src/memchar`` that are neither Enums nor
exceptions.  A member counts as read when an instance of its class, or of
a subclass, looks the name up.
"""

from __future__ import annotations

import argparse
import ast
import dis
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from enum import Enum
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "memchar"
WORKLOADS = ("latency-near", "latency-far", "bandwidth-sim", "native-host")
PROBES = ("probe-latency", "probe-read")


def executable_lines(path: Path) -> dict[str, tuple[int, set[int]]]:
    """``{qualified name: (def line, executable lines)}`` of each function
    and method defined in the file at ``path``, and of each lambda or
    generator expression outside any function, named ``<lambda>:LINE``.
    The ``def`` line itself is left out: a call reaches it before any line
    of the body runs.  A lambda has no ``def`` line, so its first line is
    its body; lambdas that share a line share one entry."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    functions: dict[str, tuple[int, set[int]]] = {}

    def walk(co: types.CodeType, owner: str | None) -> None:
        name = None  # a module or class body, which runs at import
        if co.co_flags & inspect.CO_OPTIMIZED:
            anonymous = co.co_name.startswith("<")
            if anonymous and owner is not None:
                name = owner  # a comprehension or lambda: lines of its function
            else:
                name = f"{co.co_qualname}:{co.co_firstlineno}" if anonymous else co.co_qualname
                functions.setdefault(name, (co.co_firstlineno, set()))
            functions[name][1].update(
                line for _, line in dis.findlinestarts(co)
                if line is not None and (anonymous or line != co.co_firstlineno))
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, name)

    walk(code, None)
    return functions


class LineRecorder:
    """Records ``(file, line)`` of every line run in a function's frame, in
    this thread and in threads started while it records, of code under
    ``prefix``.  Module and class bodies are left out: a module-level
    lambda's line runs at import whether or not the lambda is called."""

    def __init__(self, prefix: Path):
        self.prefix = str(prefix)
        self.ran: set[tuple[str, int]] = set()
        self._wanted: dict[str, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        wanted = self._wanted.get(code.co_filename)
        if wanted is None:
            wanted = self._wanted[code.co_filename] = code.co_filename.startswith(self.prefix)
        return self._local if wanted and code.co_flags & inspect.CO_OPTIMIZED else None

    def __enter__(self) -> "LineRecorder":
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])


class AttributeRecorder:
    """Records ``(class name, attribute)`` of every attribute an instance of
    ``classes``, or of a subclass, looks up, by wrapping each class's
    ``__getattribute__`` while it records."""

    def __init__(self, classes):
        self.classes = set(classes)
        self.reads: set[tuple[str, str]] = set()

    def __enter__(self) -> "AttributeRecorder":
        classes, reads = self.classes, self.reads

        def getattribute(obj, name, get=object.__getattribute__):
            for cls in type(obj).__mro__:
                if cls in classes:
                    reads.add((cls.__name__, name))
            return get(obj, name)

        for cls in classes:
            cls.__getattribute__ = getattribute
        return self

    def __exit__(self, *exc) -> None:
        for cls in self.classes:
            del cls.__getattribute__


def member_classes(module: types.ModuleType) -> list[type]:
    """The classes ``module`` defines at module level that are neither Enums
    nor exceptions."""
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and not issubclass(obj, (Enum, BaseException))
    ]


def data_members(path: Path) -> dict[str, list[str]]:
    """``{class name: data members}`` of the module-level classes of the
    file at ``path``: annotated fields, then the ``self.`` attributes that
    ``__init__`` sets, without dunder names."""
    out = {}
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.append(stmt.target.id)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                names += [
                    n.attr for n in ast.walk(stmt)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                ]
        out[cls.name] = [n for n in dict.fromkeys(names) if not n.startswith("__")]
    return out


def unread_members(modules: list[types.ModuleType], reads: set[tuple[str, str]]) -> list[str]:
    """``file: Class.member`` of each data member of the classes of
    ``modules`` that :func:`member_classes` keeps and ``reads`` lacks."""
    out = []
    for module in modules:
        path = Path(module.__file__)
        members = data_members(path)
        for cls in member_classes(module):
            out += [f"{path.name}: {cls.__name__}.{name}"
                    for name in members.get(cls.__name__, ())
                    if (cls.__name__, name) not in reads]
    return out


def package_modules() -> list[types.ModuleType]:
    """The modules of ``src/memchar``, imported."""
    sys.path.insert(0, str(ROOT / "src"))
    return [importlib.import_module(f"memchar.{p.stem}")
            for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]


def unrun_report(files: list[Path], ran: set[tuple[str, int]]) -> tuple[list[str], dict]:
    """Report lines for each function of ``files`` with a line not in
    ``ran``, and the counts of the summary."""
    out = []
    counts = {"functions": 0, "never": 0, "lines": 0, "unrun": 0}
    for path in files:
        for name, (first, lines) in sorted(executable_lines(path).items(),
                                           key=lambda item: item[1][0]):
            missing = sorted(line for line in lines if (str(path), line) not in ran)
            counts["functions"] += 1
            counts["lines"] += len(lines)
            counts["unrun"] += len(missing)
            if not missing:
                continue
            where = f"{path.relative_to(path.parent.parent)}:{first} {name}"
            if len(missing) == len(lines):
                counts["never"] += 1
                out.append(f"{where}: NEVER ({len(lines)} lines)")
            else:
                out.append(f"{where}: {_ranges(missing)}")
    return out, counts


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_unit(unit: str, seed: int, work: Path) -> tuple[set, set]:
    """The lines one workload or probe runs, and the data members it reads,
    in this process."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workload

    classes = [cls for module in package_modules() for cls in member_classes(module)]
    with LineRecorder(PACKAGE) as recorder, AttributeRecorder(classes) as attributes:
        if unit in PROBES:
            code = workload.probe(ROOT, unit, work)
            if code:
                print(f"{unit}: exit {code}", file=sys.stderr)
        else:
            w = workload.Workload(ROOT, unit, seed, work, None)
            w.setup()
            for index, op in enumerate(w.ops):
                w.run_op(index, op)
            if w.failed:
                print(f"{unit}: {w.failed} of {w.attempted} ops failed: {w.failures}",
                      file=sys.stderr)
    return recorder.ran, attributes.reads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--unit", choices=WORKLOADS + PROBES, help=argparse.SUPPRESS)
    ap.add_argument("--lines-out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.unit:
        ran, reads = run_unit(args.unit, args.seed, Path.cwd())
        args.lines_out.write_text(json.dumps({"lines": sorted(ran), "reads": sorted(reads)}))
        return 0
    ran: set[tuple[str, int]] = set()
    reads: set[tuple[str, str]] = set()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for unit in WORKLOADS + PROBES:
            work = Path(tmp) / unit
            (work / "cache").mkdir(parents=True)
            lines_out = work / "lines.json"
            env = {**os.environ, "XDG_CACHE_HOME": str(work / "cache")}
            proc = subprocess.run(
                [sys.executable, __file__, "--unit", unit, "--seed", str(args.seed),
                 "--lines-out", str(lines_out)], cwd=work, env=env)
            if proc.returncode != 0 or not lines_out.exists():
                failed.append(f"{unit} (exit {proc.returncode})")
                continue
            unit_out = json.loads(lines_out.read_text())
            ran.update((f, line) for f, line in unit_out["lines"])
            reads.update((cls, name) for cls, name in unit_out["reads"])
    lines, counts = unrun_report(sorted(PACKAGE.glob("*.py")), ran)
    print("\n".join(lines))
    print(f"{counts['unrun']} of {counts['lines']} executable lines in "
          f"{counts['functions']} functions never ran; {counts['never']} functions "
          f"never ran at all" + (f"; failed: {', '.join(failed)}" if failed else ""))
    unread = unread_members(package_modules(), reads)
    print("\n".join(unread))
    print(f"{len(unread)} data members never read")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
