"""Executable lines of ``src/memchar`` that the benchmark's traffic never runs.

The traffic is what ``bench/workload.py`` runs: for each of its workloads,
``Workload.setup()`` and one pass of ``run_op`` over the workload's ops,
then both native probes.  Each runs in a child process under
``sys.settrace`` and ``threading.settrace``, in its own temporary work
directory and ``XDG_CACHE_HOME``; nothing under ``bench/`` is written.  The
report lists, per function of ``src/memchar``, the executable lines that no
run reached, marks a function none of whose lines ran ``NEVER``, and ends
with a summary line.

    python tools/traffic_lines.py             # seed 1
    python tools/traffic_lines.py --seed 7

A comprehension, generator expression or lambda counts toward the function
that holds it; one outside any function (a lambda in a module-level table)
is reported on its own, named after its line.  A line counts as run when a
trace ``line`` event of a function's frame reports it; module and class
bodies, which run at import, are not traced.
"""

from __future__ import annotations

import argparse
import dis
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
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


def run_unit(unit: str, seed: int, work: Path) -> set[tuple[str, int]]:
    """The lines one workload or probe runs, in this process."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workload

    with LineRecorder(PACKAGE) as recorder:
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
    return recorder.ran


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--unit", choices=WORKLOADS + PROBES, help=argparse.SUPPRESS)
    ap.add_argument("--lines-out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.unit:
        ran = run_unit(args.unit, args.seed, Path.cwd())
        args.lines_out.write_text(json.dumps(sorted(ran)))
        return 0
    ran: set[tuple[str, int]] = set()
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
            ran.update((f, line) for f, line in json.loads(lines_out.read_text()))
    lines, counts = unrun_report(sorted(PACKAGE.glob("*.py")), ran)
    print("\n".join(lines))
    print(f"{counts['unrun']} of {counts['lines']} executable lines in "
          f"{counts['functions']} functions never ran; {counts['never']} functions "
          f"never ran at all" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
