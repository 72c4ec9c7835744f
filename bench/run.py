"""memchar benchmark: one command for every workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes (``bench/workload.py``); this process
only starts them one at a time, waits for them and reports.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the workload untraced and then traced, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host as hostmod
import ops as opsmod
import spans as spansmod
from workload import MIN_PASSES, REF_NOMINAL_S, normalize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
# Fresh processes set up per run: the median of these and the workload
# process's own set-up is setup_s.
SETUP_SAMPLES = 4
DEADLINE_S = 175.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
MAX_FAILURE_LINES = 10


class BenchError(Exception):
    pass


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND of ``n``
    ops ranked above it (nearest rank); None if there is none."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return None


def tail(values: list[float], n_min: int) -> tuple[float, str]:
    """Op time at the tail percentile of a run of ``n_min`` ops, the fewest
    a run makes, so the percentile does not depend on how many passes the
    time allowed; and that percentile's name."""
    ordered = sorted(values)
    p = tail_percentile(n_min)
    if p is None:
        return ordered[-1], "max"
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1], f"p{p:g}"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.monotonic()
        self.children = 0

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def _run_child(self, mode: str, trace: int = 0) -> tuple[subprocess.CompletedProcess, Path, float]:
        self.children += 1
        tag = f"{mode}-{self.children}"
        work = self.work / tag
        result_path = self.work / f"{tag}.json"
        # A cache directory of the run's own: a cold kernel build, and no
        # user or stale ~/.cache/memchar kernel is loaded.
        env = dict(os.environ, XDG_CACHE_HOME=str(work / "cache"))
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", repr(self.seconds), "--mode", mode, "--trace", str(trace),
               "--work", str(work), "--result", str(result_path)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} process did not finish in time") from None
        return proc, result_path, spawned

    def spawn(self, mode: str, trace: int = 0) -> tuple[dict, float]:
        """Run one workload process; its result, and its set-up seconds from
        process start at reference speed."""
        proc, result_path, spawned = self._run_child(mode, trace)
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{mode} process ended with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        # The reference is timed once the interpreter is up and again after
        # set-up.
        setup_s = (result["setup_done"] - spawned) * REF_NOMINAL_S / result["setup_ref"]
        return result, setup_s

    def probe(self, kind: str) -> tuple[str, str]:
        """How a native probe process ended: ok, exception or signal, and a
        note."""
        proc, _, _ = self._run_child(f"probe-{kind}")
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        if proc.returncode == 0:
            return "ok", ""
        if proc.returncode < 0:
            return "signal", f"signal {-proc.returncode}"
        return "exception", f"exit {proc.returncode}: {last}"


def ranked_op_times(times: list[float], failed: list[int]) -> list[float]:
    """Op times for the latency percentiles.  A failed op misses any latency
    limit, so it ranks above every completed op: it counts as taking the
    whole run's op time."""
    failed = set(failed)
    done = [t for i, t in enumerate(times) if i not in failed]
    return done + [sum(times)] * len(failed)


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    raw = result["op_times"]
    times = normalize(raw, result["ref_times"])
    busy = sum(times)
    ranked = ranked_op_times(times, result["failed_ops"])
    tail_value, tail_name = tail(ranked, MIN_PASSES * result["ops_per_pass"])
    attempted, failed = result["attempted"], result["failed"]
    values = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "points_per_s": (result["points"] / busy, "1/s",
                         f"{result['points']} checked records / {busy:.3f} s of op time; "
                         f"raw wall {sum(raw):.3f} s"),
        "op_s.p50": (statistics.median(ranked), "s",
                     f"{len(times)} ops; raw wall median {statistics.median(raw):.6g} s"),
        "op_s.tail": (tail_value, "s", f"{tail_name} of {len(times)} ops"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB", "ru_maxrss of the workload process"),
        "failed_frac": (failed / attempted, "ratio", f"{failed}/{attempted} ops failed"),
        "ok_frac": (1.0 - failed / attempted, "ratio", "1 - failed_frac"),
    }
    lines = [f"  {name:<14} {v:<14.6g} {unit:<6} ({note})" for name, (v, unit, note) in values.items()]
    return {name: v for name, (v, _, _) in values.items()}, lines


PER_PASS = {
    # metric: (span name, aggregate key)
    "chain.generate_s": ("chain.generate", "busy_s"),
    "chain.generate_calls": ("chain.generate", "calls"),
    "chain.elements": ("chain.generate", "elements"),
    "coherence.plan_s": ("coherence.plan", "busy_s"),
    "coherence.plans": ("coherence.plan", "calls"),
    "backends.prepare_s": ("backends.prepare", "busy_s"),
    "backends.prepares": ("backends.prepare", "calls"),
    "backends.prepare_failures": ("backends.prepare", "failed"),
    "backends.run_point_self_s": ("backends.run_point", "self_s"),
    "model.predict_s": ("model.predict", "busy_s"),
    "model.predicts": ("model.predict", "calls"),
    "model.fit_s": ("model.fit", "busy_s"),
    "model.fits": ("model.fit", "calls"),
    "harness.measure_self_s": ("harness.measure", "self_s"),
    "harness.points": ("harness.measure", "calls"),
    "harness.samples": ("harness.measure", "samples"),
    "results.write_s": ("results.write", "busy_s"),
    "results.rows_written": ("results.write", "rows"),
    "results.bytes_written": ("results.write", "bytes"),
    "results.read_s": ("results.read", "busy_s"),
    "results.rows_read": ("results.read", "rows"),
    "topology.load_s": ("topology.load", "busy_s"),
    "topology.loads": ("topology.load", "calls"),
    "topology.enumerate_s": ("topology.enumerate", "busy_s"),
    "topology.placements": ("topology.enumerate", "placements"),
    "cli.parse_s": ("cli.parse", "busy_s"),
    "cli.replay_s": ("cli.replay", "self_s"),
    "bandwidth.read_s": ("bandwidth.read", "busy_s"),
    "bandwidth.read_points": ("bandwidth.read", "calls"),
    "bandwidth.triad_s": ("bandwidth.triad", "busy_s"),
    "bandwidth.triad_bytes": ("bandwidth.triad", "bytes"),
    "bandwidth.verify_s": ("bandwidth.verify", "busy_s"),
    "plots.emit_s": ("plots.emit", "busy_s"),
    "plots.files": ("plots.emit", "files"),
    "native.materialize_s": ("native.materialize", "busy_s"),
    "native.materialize_elements": ("native.materialize", "elements"),
    "native.triad_s": ("native.triad", "busy_s"),
    "native.triad_kernel_ticks": ("native.triad", "ticks"),
}
PROBE_CODES = {"ok": 1, "exception": 2, "signal": 3}


def per_layer(result: dict, spans: list, untraced: dict, traced: dict,
              probes: dict[str, str]) -> dict:
    """Per-layer metrics of a traced run; work inside ops is per pass."""
    passes = result["passes"]
    in_ops = spansmod.summarize(spans, root="op")
    in_setup = spansmod.summarize(spans, root="setup")
    metrics = {m: in_ops.get(name, {}).get(key, 0) / passes for m, (name, key) in PER_PASS.items()}
    op_busy = in_ops.get("op", {}).get("busy_s", 0.0)
    metrics["chain.generate_share"] = (
        in_ops.get("chain.generate", {}).get("busy_s", 0.0) / op_busy if op_busy else 0.0)
    cli_workload = result["workload"] != "native-host"
    metrics["cli.ops"] = result["attempted"] / passes if cli_workload else 0.0
    metrics["cli.failed_ops"] = result["failed"] / passes if cli_workload else 0.0
    metrics["native.build_s"] = in_setup.get("native.build", {}).get("busy_s", 0.0)
    metrics["native.init_s"] = in_setup.get("native.init", {}).get("self_s", 0.0)
    ticks = result["calibrate_ticks"]
    metrics["native.calibrate_ticks"] = statistics.median(ticks) if ticks else 0.0
    tri = in_ops.get("native.triad", {})
    metrics["native.triad_bytes_per_tick"] = (
        tri.get("bytes", 0) / tri["ticks"] if tri.get("ticks") else 0.0)
    metrics["native.affinity_leaks"] = result["affinity_leaks"] / passes
    metrics["native.latency_probe"] = PROBE_CODES[probes["latency"]]
    metrics["native.read_probe"] = PROBE_CODES[probes["read"]]
    metrics["trace.overhead_op_p50"] = traced["op_s.p50"] / untraced["op_s.p50"] - 1.0
    metrics["trace.overhead_points_per_s"] = 1.0 - traced["points_per_s"] / untraced["points_per_s"]
    return metrics


def report_head(runner: Runner, result: dict, trace: int) -> list[str]:
    lines = [f"workload {runner.workload}  seed {runner.seed}  seconds {runner.seconds:g}  "
             f"trace {trace}",
             f"  why: {WHY.get(runner.workload, '')}",
             f"  {result['passes']} passes x {result['ops_per_pass']} ops; attempted "
             f"{result['attempted']}, failed {result['failed']}, outputs rejected "
             f"{result['rejected']}"]
    info = result.get("info", {})
    if "sizes" in info:
        sizes = info["sizes"]
        lines.append(f"  host caches from {info['caches_source']}")
        for level, nbytes in sizes["chain"].items():
            lines.append(f"  chain {nbytes} B targets {level}")
        for level, nbytes in sizes["triad"].items():
            lines.append(f"  triad 3 x {nbytes} B arrays target {level}")
        lines.append("  no beyond-LLC triad: 3 arrays of 4 x LLC each, plus numpy "
                     "temporaries, do not fit the memory budget")
    failures = result["failures"]
    for label, msg, count in failures[:MAX_FAILURE_LINES]:
        lines.append(f"  failed x{count}: {label}: {msg}")
    if len(failures) > MAX_FAILURE_LINES:
        lines.append(f"  ... and {len(failures) - MAX_FAILURE_LINES} more failing ops")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    runner = Runner(workload, seed, seconds, work)
    if trace == 0:
        setups = [runner.spawn("setup")[1] for _ in range(SETUP_SAMPLES)]
        result, setup_s = runner.spawn("run")
        result["workload"] = workload
        values, lines = end_to_end(result, setups + [setup_s])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        lines = report_head(runner, result, trace) + lines
    else:
        base, base_setup = runner.spawn("run")
        result, traced_setup = runner.spawn("run", trace=1)
        result["workload"] = workload
        untraced, _ = end_to_end(base, [base_setup])
        traced, _ = end_to_end(result, [traced_setup])
        probes, notes = {}, {}
        for kind in ("latency", "read"):
            probes[kind], notes[kind] = runner.probe(kind)
        spans = json.loads(Path(result["spans"]).read_text())
        values = per_layer(result, spans, untraced, traced, probes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        lines = report_head(runner, result, trace)
        lines.append("  tracing overhead (traced - untraced):")
        for name in traced:
            lines.append(f"    {name:<14} {traced[name] - untraced[name]:+.6g}  "
                         f"(untraced {untraced[name]:.6g}, traced {traced[name]:.6g})")
        for kind in probes:
            lines.append(f"  native {kind} probe: {probes[kind]} {notes[kind]}")
        lines.append("  per layer (work inside ops is per pass):")
        lines += [f"    {m:<30} {v['value']:<14.6g} {v['unit']}" for m, v in metrics.items()]
    print("\n".join(lines))
    return {"correct": result["rejected"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}



def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="memchar benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + opsmod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "memchar" / "__init__.py").is_file():
        print(f"error: no memchar source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = opsmod.WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    results = {}
    try:
        print(f"host {json.dumps(hostmod.fingerprint(ROOT), sort_keys=True)}")
        for name in workloads:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         work / name)
            if len(workloads) > 1:
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
