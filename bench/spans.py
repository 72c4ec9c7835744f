"""In-memory span tracer for the benchmark's traced runs.

A traced run wraps memchar's public functions at the attribute each caller
looks up (a module global, or a class attribute for methods), so the
program itself is unchanged and an untraced run executes it unmodified.
Every call of a wrapped function records one span: name, start, end, parent
span, optional work counts and whether it raised.  Spans stay in memory and
are written out once, when the traced process ends.

``summarize`` turns a span list into per-name busy time, self time (a
span's duration minus the time its child spans cover), call counts, failure
counts and summed work counts.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Span record layout: [name, start, end, parent index, counts dict|None, failed]
NAME, START, END, PARENT, COUNTS, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def suspended(self) -> "_Suspended":
        """Context in which wrapped functions run without recording, so the
        benchmark's own output checks do not count as program work."""
        return _Suspended(self)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.record = None

    def __enter__(self):
        t = self.tracer
        if not t.active:
            return self
        parent = t._stack[-1] if t._stack else -1
        self.record = [self.name, time.perf_counter(), 0.0, parent, None, False]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        return self

    def count(self, **counts) -> None:
        if self.record is not None:
            self.record[COUNTS] = counts

    def __exit__(self, exc_type, exc, tb):
        if self.record is not None:
            self.record[END] = time.perf_counter()
            self.record[FAILED] = exc_type is not None
            self.tracer._stack.pop()
        return False


class _Suspended:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.saved = self.tracer.active
        self.tracer.active = False

    def __exit__(self, *exc):
        self.tracer.active = self.saved
        return False


def wrap(tracer: Tracer, name: str, fn, counts=None):
    """``fn`` recording one span per call; ``counts(args, kwargs, result)``
    returns the work counts stored on the span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.count(**counts(args, kwargs, result))
            return result

    return traced


def patch_function(tracer: Tracer, module, attr: str, name: str, counts=None) -> None:
    """Replace ``module.attr`` in every memchar module that bound it by name."""
    original = getattr(module, attr)
    traced = wrap(tracer, name, original, counts)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "memchar" or mod_name.startswith("memchar.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def patch_method(tracer: Tracer, cls, attr: str, name: str, counts=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(tracer, name, raw.__func__, counts)))
    else:
        setattr(cls, attr, wrap(tracer, name, raw, counts))


def install(tracer: Tracer) -> None:
    """Wrap the public functions that mark memchar's layer boundaries."""
    from memchar import (
        backends, bandwidth, chain, cli, coherence, harness, model, native,
        plots, results, topology,
    )

    def ret_len(key):
        return lambda a, k, r: {key: len(r)}

    patch_function(tracer, chain, "generate_chain", "chain.generate",
                   lambda a, k, r: {"elements": r.element_count})
    patch_function(tracer, coherence, "plan_state", "coherence.plan")
    patch_method(tracer, backends.SimulatedBackend, "prepare", "backends.prepare")
    patch_method(tracer, backends.SimulatedBackend, "run_point", "backends.run_point")
    patch_method(tracer, model.LatencyModel, "predict", "model.predict")
    patch_function(tracer, model, "fit", "model.fit")
    patch_function(tracer, harness, "measure_latency", "harness.measure",
                   lambda a, k, r: {"samples": len(r.samples)})
    patch_method(tracer, results.ResultSet, "to_csv", "results.write",
                 lambda a, k, r: {"rows": len(a[0].records),
                                  "bytes": os.path.getsize(a[1])})
    patch_method(tracer, results.ResultSet, "from_csv", "results.read",
                 lambda a, k, r: {"rows": len(r.records)})
    patch_function(tracer, topology, "load_topology", "topology.load")
    patch_function(tracer, topology, "load_topology_file", "topology.load")
    patch_function(tracer, topology, "enumerate_placements", "topology.enumerate",
                   ret_len("placements"))
    patch_function(tracer, topology, "enumerate_triples", "topology.enumerate",
                   ret_len("placements"))
    patch_function(tracer, bandwidth, "run_throughput", "bandwidth.read")
    patch_function(tracer, bandwidth, "run_triad", "bandwidth.triad",
                   lambda a, k, r: {"bytes": 3 * a[0]})
    patch_function(tracer, bandwidth, "verify_triad", "bandwidth.verify")
    patch_function(tracer, plots, "emit_plot", "plots.emit", ret_len("files"))
    patch_function(tracer, cli, "cmd_replay", "cli.replay")
    # Bounds the subcommand a replay re-runs, so cli.replay self time is the
    # replay's own work.
    for cmd in ("cmd_latency", "cmd_bandwidth", "cmd_triad", "cmd_model_fit", "cmd_report"):
        patch_function(tracer, cli, cmd, "cli.command")
    patch_function(tracer, native, "build_kernels", "native.build")
    patch_method(tracer, native.NativeBackend, "__init__", "native.init")
    patch_method(tracer, native.NativeBandwidthBackend, "__init__", "native.init")
    patch_method(tracer, native.NativeBackend, "materialize_chain", "native.materialize",
                 lambda a, k, r: {"elements": a[1].element_count})
    patch_method(tracer, native.NativeBandwidthBackend, "run_triad", "native.triad",
                 lambda a, k, r: {"ticks": r.elapsed_cycles, "bytes": 3 * a[1]})

    # Argument parsing: building the parser and parsing argv, per CLI call.
    build_parser = cli.build_parser

    def traced_build_parser():
        with tracer.span("cli.parse"):
            parser = build_parser()
        parse_args = parser.parse_args

        def traced_parse_args(*args, **kwargs):
            with tracer.span("cli.parse"):
                return parse_args(*args, **kwargs)

        parser.parse_args = traced_parse_args
        return parser

    cli.build_parser = traced_build_parser


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def summarize(spans: list, root: str | None = None) -> dict[str, dict]:
    """Per span name: ``busy_s`` (duration of outermost spans of that name),
    ``self_s`` (durations minus time covered by child spans), ``calls`` and
    ``failed`` (outermost spans), and summed work counts.

    With ``root`` given, only spans under a top-level span of that name
    count.
    """
    n = len(spans)
    top = [0] * n
    children: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for i, sp in enumerate(spans):
        parent = sp[PARENT]
        top[i] = i if parent < 0 else top[parent]
        if parent >= 0:
            children[parent].append((sp[START], sp[END]))
    out: dict[str, dict] = {}
    for i, sp in enumerate(spans):
        if root is not None and spans[top[i]][NAME] != root:
            continue
        name = sp[NAME]
        agg = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
        duration = sp[END] - sp[START]
        agg["self_s"] += duration - _covered(children[i])
        outermost = True
        parent = sp[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                outermost = False
                break
            parent = spans[parent][PARENT]
        if not outermost:
            continue
        agg["busy_s"] += duration
        agg["calls"] += 1
        agg["failed"] += 1 if sp[FAILED] else 0
        for key, value in (sp[COUNTS] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
