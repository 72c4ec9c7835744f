"""One workload process of the benchmark.

Started by ``run.py`` in a fresh interpreter.  It imports memchar from the
checkout's ``src``, sets up (fixtures and models; on ``native-host`` also a
cold kernel build into the run's own cache and backend init), then runs
whole passes of the workload's op list until ``--seconds`` have passed and
at least three passes are done.  Every op's output is checked.  The result,
and with ``--trace 1`` the span list, are written as JSON to ``--result``.

Modes ``probe-latency`` and ``probe-read`` each make one native call that
may crash the process; ``run.py`` reads how the process ended.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import host as hostmod
import ops as opsmod
import spans as spansmod

MIN_PASSES = 3
# No pass starts once this much run time is gone, so a run ends in time.
MAX_RUN_S = 120.0
SAMPLED_SLOTS = 64
FIT_PARAMS = ("base_ram_cycles", "if_switch_ns")  # the ram_hops template
# Used when /sys lists no cache sizes.
FALLBACK_CACHES = {"L1": 32 << 10, "L2": 512 << 10, "L3": 16 << 20}


def _import_memchar(root: Path):
    sys.path.insert(0, str(root / "src"))
    import memchar.cli
    import memchar.native  # noqa: F401  (patched by the tracer)

    return memchar


def host_topology_doc(caches: dict[str, int]) -> dict:
    """The single-core fixture with this host's cache sizes."""
    from memchar.topology import fixture_path

    doc = json.loads(fixture_path("single_core.json").read_text())
    doc["name"] = "host"
    doc["caches"] = {"l1_kib": caches["L1"] / 1024, "l2_kib": caches["L2"] / 1024,
                     "l3_mib": caches["L3"] / (1 << 20)}
    return doc


def host_caches() -> tuple[dict[str, int], str]:
    try:
        return hostmod.level_bytes(hostmod.cache_geometry()), "/sys"
    except KeyError:
        return dict(FALLBACK_CACHES), "fallback (no cache sizes under /sys)"


# Host-speed reference.  On a shared host the CPU's speed can move by up to
# 2x over tens of seconds as other tenants load it; on a 2-vCPU KVM guest,
# raw wall times of identical 15 s runs spread by 15-30%.  A fixed,
# benchmark-owned kernel is timed right after every op, and an op's time is
# scaled by REF_NOMINAL_S over the mean of the reference times on either
# side of it.  The kernel does the same kind of interpreter work as
# memchar's hot paths (integer shifts and masks, list swaps); timed next to
# them, their times moved with its time at a log-log slope of 0.92-0.98.
REF_NOMINAL_S = 1e-3


def reference_time() -> float:
    """Seconds taken by one run of the reference kernel."""
    gc_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    perm = list(range(1024))
    s = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    for _ in range(3):
        i = len(perm) - 1
        while i > 0:
            s = (s ^ (s << 13)) & mask
            s ^= s >> 7
            s = (s ^ (s << 17)) & mask
            j = s % i
            perm[i], perm[j] = perm[j], perm[i]
            i -= 1
    elapsed = time.perf_counter() - start
    if gc_enabled:
        gc.enable()
    return elapsed


def host_speed_sample(span_s: float) -> float:
    """Median reference time over at least three runs, and about 5% of
    ``span_s`` worth of runs."""
    count = max(3, min(50, round(0.05 * span_s / REF_NOMINAL_S)))
    return statistics.median(reference_time() for _ in range(count))


def normalize(op_times: list[float], ref_times: list[float]) -> list[float]:
    """Op times at reference speed; ``ref_times[i]`` and ``ref_times[i+1]``
    were taken just before and just after op ``i``."""
    return [t * 2 * REF_NOMINAL_S / (ref_times[i] + ref_times[i + 1])
            for i, t in enumerate(op_times)]


class Workload:
    def __init__(self, root: Path, name: str, seed: int, work: Path, tracer):
        self.root = root
        self.name = name
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.rng = random.Random(f"checks:{name}:{seed}")
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.points = 0
        self.op_times: list[float] = []
        self.failed_ops: list[int] = []  # indices into op_times
        self.ref_times: list[float] = []
        self.failures: dict[str, list] = {}
        self.affinity_leaks = 0
        self.calibrate_ticks: list[float] = []
        self.chains: dict = {}
        self.walked: set = set()
        self.fit_outputs: dict = {}
        self.placement_counts: dict = {}
        self.info: dict = {}

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _suspended(self):
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        mc = _import_memchar(self.root)
        if self.tracer:
            spansmod.install(self.tracer)
        from memchar import model, topology

        self.fixtures = Path(topology.fixture_path("rome_2s.json")).parent
        with self._span("setup"):
            if self.name in ("latency-near", "latency-far"):
                self.models = {t: model.load_fixture_model(t) for t in ("rome_2s", "clx_2s")}
                self.ops = opsmod.build_ops(self.name, self.seed)
            elif self.name == "bandwidth-sim":
                self.graphs = {t: topology.load_topology_file(topology.fixture_path(f"{t}.json"))
                               for t in ("rome_2s", "clx_2s")}
                self.ops = opsmod.build_ops(self.name, self.seed, graphs=self.graphs)
            else:
                self._setup_native(mc)
        self.cli = mc.cli

    def _setup_native(self, mc) -> None:
        from memchar import native, topology

        caches, source = host_caches()
        cpus = hostmod.cpus()
        self.host = {"caches": caches, "cpus": cpus, "nodes": hostmod.numa_nodes(cpus)}
        self.info["caches_source"] = source
        self.info["sizes"] = opsmod.native_sizes(caches)
        cache_root = Path(os.environ["XDG_CACHE_HOME"]).resolve()
        so_path = Path(native.build_kernels()).resolve()
        if cache_root not in so_path.parents:
            raise RuntimeError(f"kernels built outside the run's cache: {so_path}")
        graph = topology.load_topology(host_topology_doc(caches))
        self.nb = self._guarded(native.NativeBackend, graph)
        self.bw = self._guarded(native.NativeBandwidthBackend, graph)
        self.ops = opsmod.build_ops(self.name, self.seed, host=self.host)

    def _restore_affinity(self, before: set) -> None:
        """Count and undo a change a native call made to the process
        affinity."""
        if os.sched_getaffinity(0) != before:
            self.affinity_leaks += 1
            os.sched_setaffinity(0, before)

    def _guarded(self, fn, *args):
        before = os.sched_getaffinity(0)
        try:
            return fn(*args)
        finally:
            self._restore_affinity(before)

    # -- ops ------------------------------------------------------------------

    def _call(self, op: opsmod.Op, out: Path):
        """(zero-argument call doing the program's work, output check)."""
        if op.kind == "cli":
            src = str(self.work / "ops" / str(op.params.get("src", "")))
            argv = [a.replace("{src}", src).replace("{fixtures}", str(self.fixtures))
                    for a in op.argv]
            if "--out" not in argv:
                argv += ["--out", str(out)]
            return (lambda: self.cli.main(argv)), (lambda rc: self._check_cli(op, out, src))
        from memchar import chain, harness

        p = op.params
        if op.kind == "generate":
            return ((lambda: chain.generate_chain(p["bytes"], opsmod.CHAIN_ALIGNMENT,
                                                  p["seed"], True)),
                    (lambda c: self._check_generated(p, c)))
        if op.kind == "materialize":
            ch = self.chains.get(p["level"])
            return ((lambda: self.nb.materialize_chain(ch, p["home"])),
                    (lambda region: self._check_region(p["level"], ch, region)))
        if op.kind == "calibrate":
            return (lambda: harness.calibrate_overhead(self.nb)), self._check_calibration
        if op.kind == "triad":
            return ((lambda: self.bw.run_triad(p["bytes"], [p["core"]], p["nt"])),
                    (lambda rec: self._check_native_triad(p, rec)))
        raise ValueError(f"unknown op kind {op.kind!r}")

    def run_op(self, index: int, op: opsmod.Op) -> None:
        from memchar.bandwidth import TriadVerificationError
        from memchar.cli import EXIT_VERIFY

        out = self.work / "ops" / str(index)
        call, check = self._call(op, out)
        failure = None
        result = None
        captured = io.StringIO()
        before = os.sched_getaffinity(0)
        start = time.perf_counter()
        try:
            with self._span("op"), contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                result = call()
        except (Exception, SystemExit) as exc:  # a program failure fails the op
            failure = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, TriadVerificationError):
                self.rejected += 1
        self.op_times.append(time.perf_counter() - start)
        if op.kind != "cli":
            self._restore_affinity(before)
        self.ref_times.append(host_speed_sample(self.op_times[-1]))
        if failure is None and op.kind == "cli" and result != 0:
            lines = captured.getvalue().strip().splitlines()
            failure = f"exit {result}: {lines[-1] if lines else ''}"
            if result == EXIT_VERIFY:
                self.rejected += 1
        if failure is None:
            try:
                with self._suspended():
                    self.points += check(result)
            except checks.CheckError as exc:
                failure = f"output rejected: {exc}"
                self.rejected += 1
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failed_ops.append(len(self.op_times) - 1)
            entry = self.failures.setdefault(op.label, [failure, 0])
            entry[1] += 1

    def _placements(self, topo: str, scope) -> int:
        from memchar import topology

        key = (topo, scope)
        if key not in self.placement_counts:
            graph = self.models[topo].graph
            self.placement_counts[key] = len(
                topology.enumerate_triples(graph) if scope is None
                else topology.enumerate_placements(graph, scope))
        return self.placement_counts[key]

    def _check_cli(self, op: opsmod.Op, out: Path, src: str) -> int:
        p = op.params
        if op.check == "latency":
            return checks.check_latency(
                out / "results.csv", self.models[p["topology"]],
                self._placements(p["topology"], p["scope"]), p["state"], p["level"], p["seed"])
        if op.check == "bandwidth":
            return checks.check_bandwidth(out / "bandwidth.csv",
                                          self.graphs[p["topology"]].caches,
                                          p["kernel"], p["level"], p["cores"])
        if op.check == "triad":
            return checks.check_triad(out / "bandwidth.csv", p["bytes"], p["nt"], p["cores"])
        if op.check == "replay":
            return checks.check_replay(Path(src) / "bandwidth.csv", out / "bandwidth.csv")
        if op.check == "report":
            return checks.check_report(Path(src) / "fig.txt", Path(src) / "fig.svg",
                                       Path(src) / "bandwidth.csv")
        if op.check == "fit":
            text = checks.check_fit(out, FIT_PARAMS)
            first = self.fit_outputs.setdefault(p["input"], text)
            if text != first:
                raise checks.CheckError("fit output differs from this run's first fit")
            return 0
        raise ValueError(f"unknown check {op.check!r}")

    def _check_generated(self, p: dict, chain) -> int:
        n = p["bytes"] // opsmod.CHAIN_ALIGNMENT
        if chain.element_count != n or len(chain.successors) != n:
            raise checks.CheckError(f"chain has {chain.element_count} elements, expected {n}")
        self.chains[p["level"]] = chain
        return 0

    def _check_region(self, level: str, chain, region) -> int:
        """Sampled slots on every materialization; the full walk once per
        chain size per run."""
        import numpy as np

        try:
            if region.nbytes != chain.total_bytes:
                raise checks.CheckError(f"region of {region.nbytes} B for a "
                                        f"{chain.total_bytes} B chain")
            align = chain.stride_alignment
            n = chain.element_count
            words = np.ctypeslib.as_array(
                (ctypes.c_uint64 * (region.nbytes // 8)).from_address(region.addr))
            slots = words[:: align // 8][:n]
            sample = self.rng.sample(range(n), min(n, SAMPLED_SLOTS))
            checks.check_chain_words(slots, region.addr, align, chain.successors, sample)
            if level not in self.walked:
                checks.walk_chain(slots, region.addr, align, n)
                self.walked.add(level)
            del words, slots
        finally:
            region.close()
        return 1

    def _check_calibration(self, ticks) -> int:
        if not (isinstance(ticks, float) and math.isfinite(ticks) and ticks >= 0):
            raise checks.CheckError(f"calibrated overhead {ticks!r}")
        self.calibrate_ticks.append(ticks)
        return 0

    def _check_native_triad(self, p: dict, rec) -> int:
        row = {"bytes_moved": rec.bytes_moved, "elapsed_cycles": rec.elapsed_cycles,
               "bytes_per_cycle": rec.bytes_per_cycle, "bandwidth_gbps": rec.bandwidth_gbps,
               "freq_mhz": rec.frequency_mhz}
        checks.check_record_relations(row)
        want = "triad-nt" if p["nt"] else "triad"
        if rec.kernel != want or rec.bytes_moved != 3 * p["bytes"]:
            raise checks.CheckError(f"{rec.kernel} moving {rec.bytes_moved} B, expected "
                                    f"{want} moving {3 * p['bytes']} B")
        return 1

    # -- run --------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        self.ref_times.append(host_speed_sample(0.0))
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for index, op in enumerate(self.ops):
                self.run_op(index, op)
            self.passes += 1
            now = time.perf_counter()
            if self.passes >= MIN_PASSES and (
                now - start >= seconds or (now - start) + (now - pass_start) > MAX_RUN_S
            ):
                break

    def summary(self) -> dict:
        return {
            "passes": self.passes,
            "ops_per_pass": len(self.ops),
            "attempted": self.attempted,
            "failed": self.failed,
            "rejected": self.rejected,
            "points": self.points,
            "op_times": self.op_times,
            "ref_times": self.ref_times,
            "failed_ops": self.failed_ops,
            "failures": [[label, msg, count] for label, (msg, count) in self.failures.items()],
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "affinity_leaks": self.affinity_leaks,
            "calibrate_ticks": self.calibrate_ticks,
            "info": self.info,
        }


# -- native probes ---------------------------------------------------------------


def probe(root: Path, mode: str, work: Path) -> int:
    """One native call that may crash the process: a native latency point,
    or a native streaming read."""
    mc = _import_memchar(root)
    from memchar import native, topology

    caches, _ = host_caches()
    doc = host_topology_doc(caches)
    if mode == "probe-latency":
        topo_file = work / "host_topology.json"
        topo_file.write_text(json.dumps(doc))
        # The model only supplies the protocol; the native path measures.
        return mc.cli.main([
            "latency", "--backend", "native", "--topology", str(topo_file),
            "--model", "rome_2s_latency_model", "--scope", "local", "--state", "M",
            "--level", "L1", "--outer", "1", "--inner", "1", "--sizes", "1",
            "--out", str(work / "probe-latency"),
        ])
    bw = native.NativeBandwidthBackend(topology.load_topology(doc))
    bw.run_read("read256", 16 << 10, [hostmod.cpus()[0]])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=opsmod.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "probe-latency", "probe-read"),
                    default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode.startswith("probe"):
        return probe(args.root, args.mode, args.work)

    tracer = spansmod.Tracer() if args.trace else None
    w = Workload(args.root, args.workload, args.seed, args.work, tracer)
    speed_before = host_speed_sample(0.0)
    w.setup()
    result = {"setup_done": time.monotonic(),
              "setup_ref": (speed_before + host_speed_sample(0.0)) / 2}
    if args.mode == "run":
        w.run(args.seconds)
        result.update(w.summary())
    if tracer is not None:
        spans_path = args.work / "spans.json"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
