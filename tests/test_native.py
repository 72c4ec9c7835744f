"""Native backend pieces that need no quiet x86 host, so they run ungated;
tests that need the compiled kernels skip where they cannot be built."""

import ctypes
import ctypes.util
import errno
import json
import mmap
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from memchar import native
from memchar.backends import PinningError
from memchar.bandwidth import (
    TRIAD_SCALAR, BandwidthError, SimBandwidthBackend, TriadVerificationError,
)
from memchar.chain import chain_spec
from memchar.cli import main
from memchar.coherence import plan_state
from memchar.harness import MeasurementPolicy, measure_latency
from memchar.topology import Placement, fixture_path, load_topology_file
from oracles import triad_operands

C_TYPES = {
    "uint64_t": ctypes.c_uint64,
    "int": ctypes.c_int,
    "double": ctypes.c_double,
    "char": ctypes.c_char,
    "void": None,
}


def _ctype(decl: str):
    """ctypes type of one C declaration such as ``const char *buf``."""
    if "*" in decl:
        return ctypes.c_void_p
    return C_TYPES[decl.split()[-2]]


def exported_kernels() -> dict:
    """name -> (restype, argtypes) of every non-static ``mc_*`` definition."""
    src = native._SRC.read_text()
    found = {}
    for m in re.finditer(r"^(?!static)([\w ]+?)\s*\b(mc_\w+)\(([^)]*)\)\s*\{", src, re.M):
        ret, name, params = m.groups()
        params = " ".join(params.split())
        args = () if params in ("", "void") else tuple(
            _ctype(p) for p in params.split(",")
        )
        found[name] = (C_TYPES[ret.split()[-1]], args)
    return found


@pytest.fixture(autouse=True)
def idle_mappings(monkeypatch):
    """Each test starts from an empty idle list of bound mappings and leaves
    none behind: what its regions hand back is unmapped when it ends."""
    idle = {}
    monkeypatch.setattr(native, "_idle", idle)
    yield idle
    for mappings in idle.values():
        for mapping in mappings:
            mapping.mm.close()


class TestKernelTable:
    def test_every_exported_kernel_is_declared_as_defined(self):
        exported = exported_kernels()
        assert {"mc_chase", "mc_touch", "mc_write_touch", "mc_triad"} <= set(exported)
        assert exported == {
            name: (restype, tuple(argtypes))
            for name, (restype, argtypes) in native.KERNEL_SIGNATURES.items()
        }


def _kernels_or_skip():
    try:
        return native.load_kernels()
    except native.BackendUnavailable as exc:
        pytest.skip(f"native kernels unavailable: {exc}")


class TestLoader:
    def test_one_library_per_process(self):
        assert _kernels_or_skip() is native.load_kernels()

    def test_failed_build_is_not_cached(self, tmp_path, monkeypatch):
        builds = []

        def not_a_library(force=False):
            builds.append(force)
            path = tmp_path / "kernels.so"
            path.write_text("not an ELF file\n")
            return path

        native.load_kernels.cache_clear()
        monkeypatch.setattr(native, "build_kernels", not_a_library)
        for _ in range(2):
            with pytest.raises(native.BackendUnavailable):
                native.load_kernels()
        assert len(builds) == 2

    def test_a_missing_kernel_is_a_backend_error(self, tmp_path, monkeypatch, capsys):
        """A library that lacks a declared kernel exits 4, naming it."""
        _kernels_or_skip()
        src = tmp_path / "kernels.c"
        src.write_text("".join(f"void {name}(void) {{}}\n" for name in native.KERNEL_SIGNATURES
                               if name != "mc_read256"))
        monkeypatch.setattr(native, "_SRC", src)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        native.load_kernels.cache_clear()
        with pytest.raises(native.BackendUnavailable, match="lack mc_read256$"):
            native.load_kernels()
        assert main(["latency", "--backend", "native", "--topology", "single_core",
                     "--scope", "local", "--level", "L1", "--freq", "1000",
                     "--out", str(tmp_path / "run")]) == 4
        assert capsys.readouterr().err == "backend error: the native kernels lack mc_read256\n"

    def test_one_compiler_call_builds_the_kernels(self, tmp_path, monkeypatch):
        _kernels_or_skip()
        runs, run = [], subprocess.run

        def spy(cmd, **kwargs):
            runs.append(cmd)
            return run(cmd, **kwargs)

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(subprocess, "run", spy)
        native.build_kernels()
        cc = runs[0][0]
        assert runs == [[cc, "--version"],
                        [cc, *native._CFLAGS, str(native._SRC), "-o", runs[1][-1]]]


class TestTscRate:
    def test_backends_share_one_measurement(self, monkeypatch):
        reads = []

        class Kernels:
            def mc_tsc(self):
                reads.append(True)
                return 1000 * len(reads)

            def mc_cpu_has_avx(self):
                return 1

        kernels = Kernels()
        monkeypatch.setattr(native, "load_kernels", lambda: kernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: None)
        graph = load_topology_file(fixture_path("single_core.json"))
        latency = native.NativeBackend(graph)
        bandwidth = native.NativeBandwidthBackend(graph)
        assert len(reads) == 2  # one measurement: a start and an end read
        assert latency.frequency_mhz == bandwidth.frequency_mhz > 0
        # An operator-set frequency still wins, and measures nothing.
        assert native.NativeBackend(graph, frequency_mhz=2500.0).frequency_mhz == 2500.0
        assert native.NativeBandwidthBackend(graph, frequency_mhz=2600.0).frequency_mhz == 2600.0
        assert len(reads) == 2


class TestLibnuma:
    def test_two_backends_load_it_once(self, monkeypatch):
        lookups = []

        def find_library(name):
            lookups.append(name)
            return None

        monkeypatch.setattr(ctypes.util, "find_library", find_library)
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        graph = load_topology_file(fixture_path("single_core.json"))
        native._load_libnuma.cache_clear()
        try:
            latency = native.NativeBackend(graph, frequency_mhz=1000.0)
            bandwidth = native.NativeBandwidthBackend(graph, frequency_mhz=1000.0)
        finally:
            native._load_libnuma.cache_clear()
        assert lookups == ["numa"]
        assert latency.libnuma is bandwidth.libnuma is None


class TestMaterialize:
    @pytest.mark.parametrize("align", [64, 512])
    def test_every_slot_points_at_its_successor_and_gaps_stay_zero(self, align):
        _kernels_or_skip()
        graph = load_topology_file(fixture_path("single_core.json"))
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        chain = chain_spec(1 << 16, align, seed=5, huge_pages=False)
        region = backend.materialize_chain(chain, home_node=0)
        try:
            words = np.ctypeslib.as_array(
                (ctypes.c_uint64 * (region.nbytes // 8)).from_address(region.addr)
            ).copy()
        finally:
            region.close()
        slots = np.arange(chain.element_count) * (align // 8)
        expected = [region.addr + s * align for s in chain.successors]
        assert words[slots].tolist() == expected
        words[slots] = 0
        assert not words.any()

    @staticmethod
    def bound_backend():
        """A backend on the real kernels whose libnuma binds every mapping,
        so closed regions are recycled."""
        _kernels_or_skip()
        backend = native.NativeBackend(load_topology_file(fixture_path("single_core.json")),
                                       frequency_mhz=1000.0)
        backend.libnuma = FakeNuma(0)
        return backend

    @pytest.mark.parametrize("align", [64, 512])
    def test_recycled_region_reads_fresh_and_the_mapping_past_it_is_untouched(self, align):
        backend = self.bound_backend()
        idle = native._Region(256 << 10, 0, backend.libnuma, False)
        ctypes.memset(idle.addr, 0xFF, idle.nbytes)
        idle.close()
        chain = chain_spec(64 << 10, align, seed=5, huge_pages=False)
        region = backend.materialize_chain(chain, home_node=0)
        try:
            assert (region.holds, region.addr) == (None, idle.addr)
            _assert_reads_fresh(region, chain)
            past = ctypes.string_at(region.addr + region.nbytes, idle.nbytes - region.nbytes)
            assert past == b"\xff" * (idle.nbytes - region.nbytes)
        finally:
            region.close()

    @pytest.mark.parametrize("align", [64, 512])
    def test_chain_recycled_onto_itself_after_a_measured_point_reads_fresh(
            self, align, monkeypatch, idle_mappings):
        backend = self.bound_backend()
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        chain = chain_spec(64 << 10, align, seed=5, huge_pages=False)
        policy = MeasurementPolicy(
            inner_repeats=1, outer_repeats=1, sizes_per_level=1, flush_levels=frozenset()
        )
        point = (plan_state("M", "MOESI", owner=0, requester=0, level="L1"),
                 Placement(0, 0, 0, label="local"))
        backend.run_sweep([chain], [point], policy)  # its mc_write_touch dirties every element
        [used] = idle_mappings[(0, False)]
        region = backend.materialize_chain(chain, home_node=0)
        try:
            assert region.addr == used.addr
            assert region.holds == ("chain", align, chain.element_count)
            _assert_reads_fresh(region, chain)
        finally:
            region.close()


class TestFlushLevels:
    @pytest.mark.parametrize("levels, swept", [
        (frozenset(), None),
        (frozenset({"L1"}), 2 * 32 * 1024),
    ], ids=["none", "L1"])
    def test_policy_levels_size_the_scratch_sweep(self, levels, swept):
        _kernels_or_skip()
        graph = load_topology_file(fixture_path("single_core.json"))
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        policy = MeasurementPolicy(
            inner_repeats=1, outer_repeats=1, sizes_per_level=1, flush_levels=levels
        )
        script = plan_state("M", "MOESI", owner=0, requester=0, level="L1")
        chain = chain_spec(16 << 10, 512, seed=1, huge_pages=False)
        measure_latency([chain], script, Placement(0, 0, 0, label="local"), policy, backend)
        scratch = backend._scratch
        assert (None if scratch is None else scratch.nbytes) == swept

    @pytest.mark.native
    @pytest.mark.skipif(
        os.environ.get("MEMCHAR_NATIVE_TESTS") != "1",
        reason="hardware-gated: set MEMCHAR_NATIVE_TESTS=1 on a quiet x86-64 host",
    )
    def test_flush_slows_a_warm_l1_chain(self):
        """A chase of a warm 16 KiB chain after ``_flush({"L1", "L2"})``
        takes more than 1.25 times the ticks it takes with no flush, minimum
        against minimum over 15 repeats each."""
        backend = native.NativeBackend(load_topology_file(fixture_path("single_core.json")),
                                       frequency_mhz=1000.0)
        chain = chain_spec(16 << 10, 64, seed=3, huge_pages=False)
        region = backend.materialize_chain(chain, home_node=0)

        def fastest(flush):
            ticks = []
            for _ in range(15):
                backend.lib.mc_touch(region.addr, region.nbytes, 64)
                backend._chase(region, chain.element_count)  # warm
                if flush:
                    backend._flush({"L1", "L2"})
                ticks.append(backend._chase(region, chain.element_count))
            return min(ticks)

        core = min(os.sched_getaffinity(0))
        try:
            [(warm, flushed)] = native._on_cores(
                [(core, lambda: (fastest(False), fastest(True)))])
        finally:
            region.close()
        assert flushed > 1.25 * warm, (warm, flushed)

    def test_every_scratch_page_is_resident_after_the_first_flush(self):
        """The scratch is written when it is mapped.  A page only ever read
        maps the kernel's shared zero page, which ``Rss`` does not count,
        and a sweep over it evicts nothing."""
        _kernels_or_skip()
        backend = native.NativeBackend(load_topology_file(fixture_path("single_core.json")),
                                       frequency_mhz=1000.0)
        backend._flush({"L1", "L2"})
        scratch = backend._scratch
        try:
            # A flag of its own keeps the kernel from merging the scratch
            # with a neighbouring mapping, so its smaps entry is its alone.
            scratch.mapping.mm.madvise(mmap.MADV_DONTFORK)
            lo, hi, kb = _smaps_entry(scratch.addr)
            assert (lo, hi) == (scratch.addr, scratch.addr + scratch.nbytes)
            assert kb["Rss"] * 1024 == scratch.nbytes
        finally:
            scratch.close()


# The compiled library's loader, taken before any test replaces it.
_real_kernels = native.load_kernels


class FakeKernels:
    """Kernel table stand-in: every kernel returns at once, except that a
    chain is written by the shipped ``mc_chain_write`` and the triad's
    operands by the shipped ``mc_triad_init``."""

    def mc_chain_write(self, base, succ, n, stride, span):
        _real_kernels().mc_chain_write(base, succ, n, stride, span)

    def mc_triad_init(self, a, b, c, n, operands):
        _real_kernels().mc_triad_init(a, b, c, n, operands)

    def mc_timer_overhead(self):
        return 10

    def mc_touch(self, addr, nbytes, stride):
        return 0

    def mc_write_touch(self, addr, nbytes, stride, value):
        pass

    def mc_clflush(self, addr, nbytes, stride):
        pass

    def mc_chase(self, addr, count, sink):
        return 1000

    def mc_cpu_has_avx(self):
        return 1

    def mc_read256(self, addr, nbytes, reps, check):
        return 1000


class TestFrequencyFlag:
    @pytest.mark.parametrize("freq", ["0", "-1"])
    def test_non_positive_frequency_is_config_error(self, freq, monkeypatch, tmp_path, capsys):
        """A ``--freq`` that is not positive is refused, not replaced by the
        measured TSC rate nor recorded."""
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: None)
        code = main(["latency", "--backend", "native", "--topology", "single_core",
                     "--scope", "local", "--level", "L1", "--freq", freq,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: frequency must be a positive number of MHz, got {float(freq)}\n"
        )
        assert not (tmp_path / "run" / "results.csv").exists()


class TestPreflight:
    def test_point_larger_than_available_memory_exits_2_before_mapping(
            self, monkeypatch, tmp_path, capsys):
        """A 1 PiB L3 makes the RAM chain 16 PiB, beyond any host."""
        doc = json.loads(Path(fixture_path("single_core.json")).read_text())
        doc["caches"]["l3_mib"] = 1 << 30
        topo = tmp_path / "huge_l3.json"
        topo.write_text(json.dumps(doc))

        def refused(*args, **kwargs):
            raise AssertionError("nothing is built or mapped for a refused point")

        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: None)
        monkeypatch.setattr(native, "_Mapping", refused)
        monkeypatch.setattr("memchar.chain._sattolo", refused)
        code = main(["latency", "--backend", "native", "--topology", str(topo),
                     "--scope", "local", "--level", "RAM", "--sizes", "1", "--freq", "1000",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"config error: a native point maps 17179869184\.0 MiB of chains and a "
            r"\d+\.\d MiB flush scratch, more than the host's MemAvailable of \d+\.\d MiB\n",
            err), err
        assert not (tmp_path / "run" / "results.csv").exists()


class TestReadLevel:
    def test_labels_match_the_simulator(self, monkeypatch):
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        graph = load_topology_file(fixture_path("rome_2s.json"))
        native_bw = native.NativeBandwidthBackend(graph, frequency_mhz=1000.0)
        sim_bw = SimBandwidthBackend(graph)
        # One core's 8 MiB fits a 16 MiB L3 domain; four cores' copies do not.
        cases = {((8 << 20), (0,)): "L3", ((8 << 20), (0, 1, 2, 3)): "RAM",
                 ((256 << 10), (0, 1)): "L2"}
        for (nbytes, cores), level in cases.items():
            assert native_bw.run_read("read256", nbytes, cores).level == level
            assert sim_bw.run_read("read256", nbytes, cores).level == level


class TestReadKernel:
    """A native read runs the widest kernel the CPU runs at or below the
    request, and flags a narrower one, as the simulator does."""

    @staticmethod
    def read(monkeypatch, kernels, kernel):
        monkeypatch.setattr(native, "load_kernels", kernels)
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        backend = native.NativeBandwidthBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        return backend, backend.run_read(kernel, 16 << 10, [0])

    def test_cpu_without_avx_degrades_read256_to_read128(self, monkeypatch):
        class NoAvx(FakeKernels):
            """The kernels on a CPU without AVX, where ``mc_read256`` would
            die with SIGILL."""

            def mc_cpu_has_avx(self):
                return 0

            def mc_read128(self, addr, nbytes, reps, check):
                return 1000

            def mc_read256(self, addr, nbytes, reps, check):
                raise AssertionError("mc_read256 runs only where the CPU has AVX")

        backend, rec = self.read(monkeypatch, NoAvx, "read256")
        assert (rec.kernel, rec.degraded_from, rec.flags) == (
            "read128", "read256", ("width_degraded",)
        )
        assert backend.supported == ("read128",)

    def test_read512_resolves_to_read256_on_the_declared_table(self, monkeypatch):
        class Declared(FakeKernels):
            """Every kernel of KERNEL_SIGNATURES, each returning at once."""

        for name in native.KERNEL_SIGNATURES:
            if not hasattr(Declared, name):
                setattr(Declared, name, lambda self, *args: 1000)
        backend, rec = self.read(monkeypatch, Declared, "read512")
        assert (rec.kernel, rec.degraded_from, rec.flags) == (
            "read256", "read512", ("width_degraded",)
        )
        assert backend.supported == ("read256", "read128")  # mc_cpu_has_avx gives 1

    def test_dataset_is_a_whole_number_of_bursts(self, monkeypatch):
        """The kernel skips a tail shorter than its burst, so a dataset with
        one would be counted as moved without being loaded."""
        backend, _ = self.read(monkeypatch, FakeKernels, "read256")
        with pytest.raises(BandwidthError, match="whole 512-byte bursts, got a 511-byte"):
            backend.run_read("read256", 511, [0])
        rec = backend.run_read("read256", 512, [0])
        assert rec.bytes_moved == 512 * ((64 << 20) // 512)


class TestReadStart:
    def test_every_worker_waits_at_the_barrier_before_each_run(self, monkeypatch):
        events = []

        class Logged(threading.Barrier):
            def wait(self, timeout=None):
                events.append(("wait", threading.get_ident()))
                return super().wait(timeout)

        class Kernels(FakeKernels):
            def mc_read256(self, addr, nbytes, reps, check):
                events.append(("read", threading.get_ident()))
                return 1000

        monkeypatch.setattr(native, "load_kernels", Kernels)
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        monkeypatch.setattr(threading, "Barrier", Logged)
        backend = native.NativeBandwidthBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        backend.run_read("read256", 16 << 10, [0, 1])
        workers = {ident for _, ident in events}
        assert len(workers) == 2
        for worker in workers:
            assert [kind for kind, ident in events if ident == worker] == ["wait", "read"] * 3


class TestWorkerErrors:
    """A worker's error reaches the caller at once, and every worker joins."""

    def test_read_worker_that_cannot_pin_fails_the_read(self, monkeypatch):
        def pin(core):
            if core == 5:
                raise PinningError(f"cannot pin to core {core}")

        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_pin_current_thread", pin)
        backend = native.NativeBandwidthBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(PinningError, match="core 5"):
            backend.run_read("read256", 16 << 10, [0, 5])
        assert time.monotonic() - start < 5.0
        assert set(threading.enumerate()) == before

    # A local point's requester applies the script itself, so the owner's
    # write fails on the requester's own thread.
    @pytest.mark.parametrize("owner", [0, 1], ids=["cross-core", "local"])
    def test_preparer_error_reaches_the_caller(self, monkeypatch, owner):
        class Failing(FakeKernels):
            def mc_write_touch(self, addr, nbytes, stride, value):
                raise RuntimeError("owner write failed")

        chain = chain_spec(16 << 10, 512, seed=1, huge_pages=False)
        chain.successors  # shuffled by the real kernels, before they are faked
        monkeypatch.setattr(native, "load_kernels", Failing)
        monkeypatch.setattr(native, "_load_libnuma", lambda: None)
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        graph = load_topology_file(fixture_path("rome_2s.json"))
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        policy = MeasurementPolicy(
            inner_repeats=2, outer_repeats=1, sizes_per_level=1, flush_levels=frozenset()
        )
        script = plan_state("M", "MOESI", owner=owner, requester=1, level="L1")
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="owner write failed"):
            measure_latency([chain], script, Placement(1, owner, 0, label="x"), policy, backend)
        assert set(threading.enumerate()) == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
class TestSweep:
    def test_each_point_starts_its_workers_once(self, monkeypatch):
        class Kernels(FakeKernels):
            def mc_chase(self, addr, count, sink):
                return 100 + count

        events = []

        class Logged(native._Region):
            def __init__(self, nbytes, *args):
                super().__init__(nbytes, *args)
                events.append(("open", nbytes))

            def close(self):
                events.append(("close", self.nbytes))
                super().close()

        start = threading.Thread.start

        def logged_start(thread):
            events.append(("start",))
            start(thread)

        chains = [chain_spec(nbytes, 512, seed=1, huge_pages=False)
                  for nbytes in (16 << 10, 32 << 10)]
        for c in chains:
            c.successors  # shuffled by the real kernels, before they are faked
        monkeypatch.setattr(native, "load_kernels", Kernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: None)
        monkeypatch.setattr(native, "_Region", Logged)
        monkeypatch.setattr(threading.Thread, "start", logged_start)
        before = os.sched_getaffinity(0)
        threads = set(threading.enumerate())
        # A local point and, where the caller may run on two cores, a cross-core one.
        a, b = min(before), max(before)
        points = [
            (plan_state("M", "MOESI", owner=a, requester=a, level="L1"),
             Placement(a, a, 0, label="local")),
            (plan_state("M", "MOESI", owner=b, requester=a, level="L1"),
             Placement(a, b, 0, label="pair")),
        ]
        policy = MeasurementPolicy(
            inner_repeats=2, outer_repeats=3, sizes_per_level=2, flush_levels=frozenset()
        )
        backend = native.NativeBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        swept = backend.run_sweep(chains, points, policy)
        assert os.sched_getaffinity(0) == before
        assert set(threading.enumerate()) == threads
        opened = [("open", 16 << 10), ("open", 32 << 10)]
        closed = [("close", 16 << 10), ("close", 32 << 10)]
        assert events == [
            *opened, ("start",), *closed,
            *opened, *[("start",)] * (1 if a == b else 2), *closed,
        ]
        assert swept.shape == (2, 3, 2, 2)
        assert swept.dtype == np.float64
        per_chain = np.array([100.0 + c.element_count for c in chains])
        np.testing.assert_array_equal(swept, np.broadcast_to(per_chain[:, None], swept.shape))


def _resident(addr: int, nbytes: int) -> np.ndarray:
    """Residency flag of every page under ``[addr, addr + nbytes)``, by mincore(2)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
    start = addr - addr % mmap.PAGESIZE
    pages = -(-(addr + nbytes - start) // mmap.PAGESIZE)
    vec = (ctypes.c_ubyte * pages)()
    if libc.mincore(start, pages * mmap.PAGESIZE, vec) != 0:
        raise OSError(ctypes.get_errno(), "mincore failed")
    return np.frombuffer(vec, dtype=np.uint8) & 1


def _thp_mode():
    """The bracketed transparent-huge-page mode, or None where there is none."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return None
    m = re.search(r"\[(\w+)\]", text)
    return m and m.group(1)


def _smaps_entry(addr: int) -> tuple[int, int, dict]:
    """The start, the end and the kB fields (``Rss``, ``AnonHugePages``, ...)
    of the ``/proc/self/smaps`` entry that holds ``addr``."""
    entry = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            field = line.split()[0]
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", field):
                if entry is not None:
                    break
                lo, hi = (int(x, 16) for x in field.split("-"))
                if lo <= addr < hi:
                    entry = (lo, hi, {})
            elif entry is not None and line.split()[-1] == "kB":
                entry[2][field.rstrip(":")] = int(line.split()[1])
    if entry is None:
        raise LookupError(f"no mapping holds {addr:#x}")
    return entry


class FakeNuma:
    """libnuma stand-in whose ``mbind`` returns ``result`` and records
    (mode, first mask word, maxnode, flags, region still all zero), and
    which puts every CPU on node 0."""

    def __init__(self, result: int):
        self.result = result
        self.calls = []

    def mbind(self, addr, nbytes, mode, mask, maxnode, flags):
        untouched = ctypes.string_at(addr, nbytes) == bytes(nbytes)
        self.calls.append((mode, mask[0], maxnode, flags, untouched))
        return self.result

    def numa_node_of_cpu(self, cpu):
        return 0


class TestRegion:
    """Every native buffer is one private mapping whose flags are outcomes."""

    @staticmethod
    def materialize(monkeypatch, libnuma=None, huge=True, nbytes=64 << 10, home=0):
        chain = chain_spec(nbytes, 512, seed=3, huge_pages=huge)
        chain.successors  # shuffled by the real kernels, before they are faked
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: libnuma)
        graph = load_topology_file(fixture_path("single_core.json"))
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        return chain, backend.materialize_chain(chain, home_node=home)

    @pytest.mark.skipif(
        _thp_mode() in (None, "never"), reason="transparent huge pages are off on this host"
    )
    def test_huge_chain_is_backed_by_huge_pages(self, monkeypatch):
        _, region = self.materialize(monkeypatch, nbytes=4 << 20)
        try:
            assert region.huge_pages
            assert _smaps_entry(region.addr)[2]["AnonHugePages"] > 0
        finally:
            region.close()

    def test_chain_without_huge_pages_is_not_flagged(self, monkeypatch):
        _, region = self.materialize(monkeypatch, huge=False)
        region.close()
        assert region.huge_pages is False

    def test_failed_bind_is_recorded_and_the_chain_still_written(self, monkeypatch):
        chain, region = self.materialize(monkeypatch, FakeNuma(-1), home=1)
        try:
            assert region.numa_bound is False
            first = ctypes.c_uint64.from_address(region.addr).value
            assert first == region.addr + chain.successors[0] * 512
        finally:
            region.close()

    def test_bind_to_the_home_node_precedes_the_chain_write(self, monkeypatch):
        numa = FakeNuma(0)
        _, region = self.materialize(monkeypatch, numa, home=1)
        region.close()
        assert region.numa_bound is True
        assert numa.calls == [(native.MPOL_BIND, 1 << 1, 65, 0, True)]

    def test_close_unmaps_at_once_and_again_is_a_no_op(self):
        region = native._Region(4 << 20, None, None, huge=False)
        ctypes.memset(region.addr, 1, region.nbytes)
        assert _resident(region.addr, region.nbytes).all()
        region.close()
        with pytest.raises(OSError) as exc:
            _resident(region.addr, region.nbytes)
        assert exc.value.errno == errno.ENOMEM
        region.close()


def _assert_reads_fresh(region, chain):
    """The region holds the chain and zeros only, as a fresh mapping would."""
    words = np.ctypeslib.as_array(
        (ctypes.c_uint64 * (region.nbytes // 8)).from_address(region.addr)
    ).copy()
    slots = np.arange(chain.element_count) * (chain.stride_alignment // 8)
    expected = region.addr + chain.stride_alignment * np.asarray(chain.successors)
    assert words[slots].tolist() == expected.tolist()
    words[slots] = 0
    assert not words.any()


class TriadKernels(FakeKernels):
    """Fake kernels whose triad computes ``a = b + s*c`` and records ``a``."""

    def __init__(self):
        self.outputs = []

    def mc_triad(self, a, b, c, s, n, nontemporal):
        self.outputs.append(a)
        view = [np.ctypeslib.as_array((ctypes.c_double * n).from_address(p)) for p in (a, b, c)]
        np.add(view[1], s * view[2], out=view[0])
        return 1000


class SpanKernels(TriadKernels):
    """Triad kernels that also record the span of every chain write, with
    the shipped write-touch of a measured point's ``WRITE`` step."""

    def __init__(self):
        super().__init__()
        self.spans = []

    def mc_chain_write(self, base, succ, n, stride, span):
        self.spans.append(span)
        super().mc_chain_write(base, succ, n, stride, span)

    def mc_write_touch(self, addr, nbytes, stride, value):
        _real_kernels().mc_write_touch(addr, nbytes, stride, value)


class Unwritten(TriadKernels):
    """A triad that times nothing and writes nothing."""

    def mc_triad(self, a, b, c, s, n, nontemporal):
        self.outputs.append(a)
        return 1000


class TestRecycling:
    """Closed bound mappings are handed to later regions of their key."""

    def test_next_fitting_request_of_the_key_takes_it_without_a_second_bind(self):
        numa = FakeNuma(0)
        first = native._Region(64 << 10, 1, numa, False)
        addr = first.addr
        first.close()
        again = native._Region(32 << 10, 1, numa, False)
        assert (again.addr, again.nbytes, again.numa_bound) == (addr, 32 << 10, True)
        assert (first.holds, again.holds) == (native._ZERO, None)
        assert len(numa.calls) == 1
        # Another node, another huge-page request or a larger size maps afresh.
        others = [native._Region(64 << 10, 0, numa, False),
                  native._Region(64 << 10, 1, numa, True),
                  native._Region(128 << 10, 1, numa, False)]
        assert addr not in {r.addr for r in others}
        assert len(numa.calls) == 4
        for r in [again, *others]:
            r.close()

    def test_smallest_fitting_mapping_is_taken(self):
        numa = FakeNuma(0)
        big = native._Region(256 << 10, 0, numa, False)
        small = native._Region(64 << 10, 0, numa, False)
        addrs = big.addr, small.addr
        big.close()
        small.close()
        taken = native._Region(48 << 10, 0, numa, False), native._Region(48 << 10, 0, numa, False)
        assert tuple(r.addr for r in taken) == addrs[::-1]
        for r in taken:
            r.close()

    def test_live_regions_never_share_and_a_second_close_returns_once(self, idle_mappings):
        numa = FakeNuma(0)
        region = native._Region(64 << 10, 0, numa, False)
        region.close()
        region.close()
        assert len(idle_mappings[(0, False)]) == 1
        live = native._Region(64 << 10, 0, numa, False), native._Region(64 << 10, 0, numa, False)
        assert live[0].addr == region.addr != live[1].addr
        for r in live:
            r.close()
        assert len(idle_mappings[(0, False)]) == 2

    def test_threads_never_take_one_mapping_twice(self, monkeypatch, idle_mappings):
        class Yielding(native._Mapping):
            """A mapping whose size, read while a region picks one, lets
            other threads run."""

            @property
            def nbytes(self):
                time.sleep(0)
                return self._nbytes

            @nbytes.setter
            def nbytes(self, value):
                self._nbytes = value

        monkeypatch.setattr(native, "_Mapping", Yielding)
        numa = FakeNuma(0)
        live, guard, clashes, errors = set(), threading.Lock(), [], []

        def churn():
            try:
                churn_regions()
            except Exception as exc:  # a race may raise as well as clash
                errors.append(exc)

        def churn_regions():
            for _ in range(50):
                regions = [native._Region(4096 * (1 + i), 0, numa, False) for i in range(2)]
                with guard:
                    for r in regions:
                        if r.addr in live:
                            clashes.append(r.addr)
                        live.add(r.addr)
                with guard:
                    live.difference_update(r.addr for r in regions)
                for r in regions:
                    r.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (clashes, errors) == ([], [])
        idle = [m for mappings in idle_mappings.values() for m in mappings]
        assert len({id(m) for m in idle}) == len(idle) == len(numa.calls)

    def test_a_miss_unmaps_the_idle_mappings_of_every_other_key(self, idle_mappings):
        numa = FakeNuma(0)
        for r in [native._Region(64 << 10, node, numa, huge)
                  for node, huge in [(0, False), (0, True), (1, False)]]:
            r.close()
        [own], [huge], [remote] = idle_mappings.values()
        kept = [native._Region(32 << 10, 0, numa, False),  # takes its key's mapping
                native._Region(64 << 10, None, None, False)]  # unbound: never pooled
        assert not (own.mm.closed or huge.mm.closed or remote.mm.closed)
        kept.append(native._Region(128 << 10, 0, numa, False))
        assert (own.mm.closed, huge.mm.closed, remote.mm.closed) == (False, True, True)
        assert list(idle_mappings) == [(0, False)]
        for r in kept:
            r.close()
        assert len(idle_mappings[(0, False)]) == 2

    def test_a_sweep_over_two_nodes_leaves_one_points_mappings_idle(self, monkeypatch,
                                                                     idle_mappings):
        chains = [self.chain(nbytes, 512) for nbytes in (32 << 10, 64 << 10)]
        backend = native.NativeBackend(self.fake_host(monkeypatch, FakeKernels()),
                                       frequency_mhz=1000.0)
        policy = MeasurementPolicy(
            inner_repeats=1, outer_repeats=1, sizes_per_level=2, flush_levels=frozenset()
        )
        state = plan_state("M", "MOESI", owner=0, requester=0, level="L1")
        footprint = sorted(c.total_bytes for c in chains)
        left = {}
        for home in (0, 1, 1, 0):
            backend.run_sweep(chains, [(state, Placement(0, 0, home, label="local"))], policy)
            assert list(idle_mappings) == [(home, True)]
            idle = idle_mappings[(home, True)]
            assert sorted(m.nbytes for m in idle) == footprint
            assert not any(m.mm.closed for m in idle)
            left.setdefault(home, set(idle))
        # Each node's first point unmapped what the other node left idle.
        assert all(m.mm.closed for m in left[0] | left[1])

    def test_unbound_region_is_unmapped_at_close(self, idle_mappings):
        region = native._Region(64 << 10, 0, FakeNuma(-1), False)
        region.close()
        assert idle_mappings == {}
        with pytest.raises(OSError):
            _resident(region.addr, region.nbytes)

    @staticmethod
    def fake_host(monkeypatch, kernels):
        """The single-core graph on ``kernels``, a libnuma that binds every
        mapping, and no pinning."""
        monkeypatch.setattr(native, "load_kernels", lambda: kernels)
        monkeypatch.setattr(native, "_load_libnuma", lambda: FakeNuma(0))
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        return load_topology_file(fixture_path("single_core.json"))

    @staticmethod
    def chain(nbytes, align):
        chain = chain_spec(nbytes, align, seed=7, huge_pages=True)
        chain.successors  # shuffled by the real kernels, before they are faked
        return chain

    def test_chain_after_a_triad_has_zero_gaps(self, monkeypatch, idle_mappings):
        chain = self.chain(64 << 10, 512)
        kernels = TriadKernels()
        graph = self.fake_host(monkeypatch, kernels)
        record = native.NativeBandwidthBackend(graph, frequency_mhz=1000.0).run_triad(
            24 << 10, [0], nontemporal=False)
        # The triad's region is bound to its core's node and advised for huge pages.
        assert list(idle_mappings) == [(0, True)]
        assert record.flags == ("huge_pages",)
        region = native.NativeBackend(graph, frequency_mhz=1000.0).materialize_chain(chain, 0)
        try:
            assert region.addr == kernels.outputs[0]  # the triad's mapping
            _assert_reads_fresh(region, chain)
        finally:
            region.close()

    @pytest.mark.parametrize("before, after", [(64, 512), (512, 64), (512, 512), (1024, 512)])
    def test_chain_after_a_chain_of_any_alignment_has_zero_gaps(self, monkeypatch, before,
                                                                  after):
        old, chain = self.chain(128 << 10, before), self.chain(64 << 10, after)
        graph = self.fake_host(monkeypatch, FakeKernels())
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        first = backend.materialize_chain(old, 0)
        addr = first.addr
        first.close()
        region = backend.materialize_chain(chain, 0)
        try:
            assert region.addr == addr
            _assert_reads_fresh(region, chain)
        finally:
            region.close()

    def test_chain_after_a_measured_point_has_zero_gaps(self, monkeypatch):
        written = []

        class Writing(FakeKernels):
            def mc_write_touch(self, addr, nbytes, stride, value):
                written.append(addr - 8)
                for offset in range(0, nbytes, stride):
                    ctypes.memset(addr + offset, value[0], 1)

        chain = self.chain(64 << 10, 512)
        graph = self.fake_host(monkeypatch, Writing())
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        policy = MeasurementPolicy(
            inner_repeats=1, outer_repeats=1, sizes_per_level=1, flush_levels=frozenset()
        )
        point = (plan_state("M", "MOESI", owner=0, requester=0, level="L1"),
                 Placement(0, 0, 0, label="local"))
        backend.run_sweep([chain], [point], policy)
        region = backend.materialize_chain(chain, 0)
        try:
            assert region.addr == written[0]  # the point's mapping
            _assert_reads_fresh(region, chain)
        finally:
            region.close()

    # Steps before the 64 KiB, 512-byte-stride chain is materialized again,
    # and the span of every chain write, the last one that chain's.
    @pytest.mark.parametrize("steps, spans", [
        ([("chain", 64, 512)], [0, 64]),
        ([("point",)], [0, 64]),
        ([("chain", 64, 512), ("point",), ("point",)], [0, 64, 64, 64]),
        ([("chain", 128, 512)], [0, 512]),
        ([("chain", 64, 512), ("chain", 32, 512)], [0, 512, 512]),
        ([("chain", 64, 512), ("triad",)], [0, 512]),
        ([("chain", 64, 512), ("raw", 64)], [0, 512]),
        ([("chain", 64, 512), ("chain", 64, 64)], [0, 64, 512]),
        ([("chain", 64, 512), ("chain", 64, 1024)], [0, 1024, 512]),
        ([("raw", 128), ("chain", 32, 512)], [512, 512]),
    ], ids=["chain-again", "measured-point", "chain-then-points", "longer-chain-of-the-stride",
            "shorter-chain-of-the-stride", "triad", "raw-region", "chain-of-stride-64",
            "chain-of-stride-1024", "chain-longer-than-the-record"])
    def test_chain_streams_first_lines_only_where_its_stride_last_wrote(
            self, monkeypatch, idle_mappings, steps, spans):
        """A recycled chain streams each element's first line (span 64) only
        when its mapping's last writer was a chain of this stride and
        element count, measured points on it aside; otherwise it streams
        whole elements (span ``stride``).  Either way every word of the
        region is zero except the slots."""

        chain = self.chain(64 << 10, 512)
        others = {tuple(size): self.chain(size[0] << 10, size[1])
                  for kind, *size in steps if kind == "chain"}
        kernels = SpanKernels()
        graph = self.fake_host(monkeypatch, kernels)
        backend = native.NativeBackend(graph, frequency_mhz=1000.0)
        policy = MeasurementPolicy(
            inner_repeats=1, outer_repeats=1, sizes_per_level=1, flush_levels=frozenset()
        )
        point = (plan_state("M", "MOESI", owner=0, requester=0, level="L1"),
                 Placement(0, 0, 0, label="local"))
        for kind, *size in steps:
            if kind == "chain":
                backend.materialize_chain(others[tuple(size)], 0).close()
            elif kind == "point":  # its WRITE step dirties each element's first line
                backend.run_sweep([chain], [point], policy)
            elif kind == "triad":
                native.NativeBandwidthBackend(graph, frequency_mhz=1000.0).run_triad(
                    8 * 1001, [0], nontemporal=False)
            else:
                raw = native._Region(size[0] << 10, 0, backend.libnuma, True)
                ctypes.memset(raw.addr, 0xFF, raw.nbytes)
                raw.close()
        [used] = idle_mappings[(0, True)]
        region = backend.materialize_chain(chain, 0)
        try:
            assert (region.addr, kernels.spans) == (used.addr, spans)
            assert region.holds != native._ZERO
            _assert_reads_fresh(region, chain)
        finally:
            region.close()

    def test_two_bench_like_passes_stream_first_lines_on_their_own_layouts(
            self, monkeypatch, idle_mappings):
        """Two passes of a scaled-down ``native-host`` benchmark pass: three
        chains at a 512-byte stride materialized at four placements, then
        triads of two sizes with and without NT stores.  The smaller triad's
        region (96 KiB) is larger than the middle chain's mapping (64 KiB),
        so both triads take the largest chain's.  Every chain write streams
        nothing on a fresh mapping (span 0) and first lines on its own
        layout (span 64), except the largest chain's first write of the
        second pass, which follows the triads and streams whole elements."""
        chains = [self.chain(kib << 10, 512) for kib in (16, 64, 256)]
        kernels = SpanKernels()
        graph = self.fake_host(monkeypatch, kernels)
        latency = native.NativeBackend(graph, frequency_mhz=1000.0)
        bandwidth = native.NativeBandwidthBackend(graph, frequency_mhz=1000.0)
        largest = set()
        for _ in range(2):
            for _ in range(4):
                for chain in chains:
                    region = latency.materialize_chain(chain, 0)
                    _assert_reads_fresh(region, chain)
                    region.close()
                largest.add(region.addr)
            for array_bytes in (32 << 10, 64 << 10):
                for nontemporal in (True, False):
                    bandwidth.run_triad(array_bytes, [0], nontemporal)
        assert set(kernels.outputs) == largest and len(largest) == 1
        assert kernels.spans == [0, 0, 0] + 3 * [64, 64, 64] + [64, 64, 512] + 3 * [64, 64, 64]

    def test_triad_that_writes_nothing_fails_on_a_recycled_mapping(self, monkeypatch):
        kernels = TriadKernels()
        backend = native.NativeBandwidthBackend(self.fake_host(monkeypatch, kernels),
                                                frequency_mhz=1000.0)
        assert backend.run_triad(8 * 1001, [0], nontemporal=True).bytes_moved == 3 * 8 * 1001
        backend.lib = Unwritten()
        with pytest.raises(TriadVerificationError):
            backend.run_triad(8 * 1001, [0], nontemporal=True)
        assert backend.lib.outputs == kernels.outputs  # the same mapping, recycled

    # Steps before a triad of 1001 elements (array stride 1008) runs on the
    # same mapping, and the operands flag of every triad's init, the last
    # one that triad's.
    @pytest.mark.parametrize("steps, flags", [
        ([], [1]),
        ([("triad", 1001, True)], [1, 0]),
        ([("triad", 1001, False)], [1, 0]),
        ([("triad", 1001, True), ("triad", 1001, False)], [1, 0, 0]),
        ([("triad", 1003, True)], [1, 1]),
        ([("triad", 1001, True), ("triad", 500, True)], [1, 1, 1]),
        ([("chain", 24)], [1]),
        ([("triad", 1001, True), ("chain", 23)], [1, 1]),
        ([("triad", 1001, True), ("raw",)], [1, 1]),
        ([("triad", 1001, True), ("failed", 1001)], [1, 0, 1]),
    ], ids=["fresh", "after-nt", "after-no-nt", "after-two", "other-n-same-stride",
            "other-stride", "after-a-chain", "chain-after-a-triad", "raw-region",
            "after-a-failed-triad"])
    def test_triad_writes_operands_unless_its_mapping_holds_them(
            self, monkeypatch, idle_mappings, steps, flags):
        """A triad writes ``b`` and ``c`` (flag 1) unless the last writer of
        its mapping was a triad of the same element count and array stride
        that passed its checks; either way each timed kernel starts from the
        oracle operands and a zeroed ``a``."""

        class Checked(FakeKernels):
            """The shipped init and triad; each timed kernel first checks
            what the init left, and an ``unwritten`` one writes nothing."""

            def __init__(self):
                self.flags, self.outputs, self.unwritten = [], [], False

            def mc_triad_init(self, a, b, c, n, operands):
                self.flags.append(operands)
                super().mc_triad_init(a, b, c, n, operands)

            def mc_triad(self, a, b, c, s, n, nontemporal):
                self.outputs.append(a)
                va, vb, vc = (np.ctypeslib.as_array((ctypes.c_double * n).from_address(p))
                              for p in (a, b, c))
                want_b, want_c = np.empty(n), np.empty(n)
                triad_operands(want_b, want_c)
                np.testing.assert_array_equal(vb, want_b)
                np.testing.assert_array_equal(vc, want_c)
                assert not va.any()
                if self.unwritten:
                    return 1000
                return _real_kernels().mc_triad(a, b, c, s, n, nontemporal)

        chains = {args[0]: self.chain(args[0] << 10, 512)
                  for kind, *args in steps if kind == "chain"}
        kernels = Checked()
        graph = self.fake_host(monkeypatch, kernels)
        bandwidth = native.NativeBandwidthBackend(graph, frequency_mhz=1000.0)
        for kind, *args in steps:
            if kind == "triad":
                bandwidth.run_triad(8 * args[0], [0], nontemporal=args[1])
            elif kind == "failed":
                kernels.unwritten = True
                with pytest.raises(TriadVerificationError):
                    bandwidth.run_triad(8 * args[0], [0], nontemporal=True)
                kernels.unwritten = False
            elif kind == "chain":
                native.NativeBackend(graph, frequency_mhz=1000.0).materialize_chain(
                    chains[args[0]], 0).close()
            else:
                [idle] = idle_mappings[(0, True)]
                raw = native._Region(idle.nbytes, 0, bandwidth.libnuma, True)
                ctypes.memset(raw.addr, 0xFF, raw.nbytes)
                raw.close()
        record = bandwidth.run_triad(8 * 1001, [0], nontemporal=False)
        assert kernels.flags == flags
        [used] = idle_mappings[(0, True)]
        assert set(kernels.outputs) == {used.addr}
        assert used.holds == ("triad", 1008, 1001)
        assert record.bytes_moved == 3 * 8 * 1001

    @pytest.mark.parametrize("array, expected", [("b", 0.0), ("c", 1001.0)], ids=["b", "c"])
    def test_stale_operands_in_a_recorded_mapping_fail_the_triad(self, monkeypatch,
                                                                 idle_mappings, array,
                                                                 expected):
        """``a = b + s*c`` on corrupted operands agrees with them, so only the
        operand check catches a record that no longer holds, and it names
        the stale array."""
        kernels = TriadKernels()
        backend = native.NativeBandwidthBackend(self.fake_host(monkeypatch, kernels),
                                                frequency_mhz=1000.0)
        backend.run_triad(8 * 1001, [0], nontemporal=True)
        [idle] = idle_mappings[(0, True)]
        offset = 8 * 1008 * "abc".index(array)
        stale = np.ctypeslib.as_array((ctypes.c_double * 1001).from_address(idle.addr + offset))
        stale[:] = -1.0
        message = rf"at {array}\[0\]: expected {expected}, got -1.0"
        with pytest.raises(TriadVerificationError, match=message) as err:
            backend.run_triad(8 * 1001, [0], nontemporal=True)
        assert err.value.array == array
        assert idle.holds is None
        # The mapping is unknown now, so the next triad writes its operands.
        assert backend.run_triad(8 * 1001, [0], nontemporal=True).bytes_moved == 3 * 8 * 1001
        assert set(kernels.outputs) == {idle.addr}


def _triad_backend():
    graph = load_topology_file(fixture_path("single_core.json"))
    return native.NativeBandwidthBackend(graph, frequency_mhz=1000.0)


class TestTriad:
    @pytest.mark.parametrize("nontemporal", [True, False])
    def test_kernel_starts_on_resident_pages(self, monkeypatch, nontemporal):
        """First-touch page faults happen before the timer, not inside it."""
        lib = _kernels_or_skip()
        backend = _triad_backend()
        kernel = lib.mc_triad
        resident = []

        def watched(a, b, c, s, n, nt):
            resident.extend(bool(_resident(p, 8 * n).all()) for p in (a, b, c))
            return kernel(a, b, c, s, n, nt)

        monkeypatch.setattr(lib, "mc_triad", watched)
        array_bytes = 4 << 20
        core = min(os.sched_getaffinity(0))
        rec = backend.run_triad(array_bytes, [core], nontemporal)
        assert resident == [True, True, True]
        assert rec.bytes_moved == 3 * array_bytes

    @pytest.mark.parametrize("n", [1, 2, 7, 1001, 32769])
    def test_init_kernel_writes_the_oracle_operands_over_stale_values(self, n):
        lib = _kernels_or_skip()
        # Stale values, as a recycled mapping holds them.
        a, b, c = np.full(n, 5.0), np.full(n, -1.0), np.full(n, 7.5)
        lib.mc_triad_init(a.ctypes.data, b.ctypes.data, c.ctypes.data, n, 1)
        want_b, want_c = np.empty(n), np.empty(n)
        triad_operands(want_b, want_c)
        np.testing.assert_array_equal(b, want_b)
        np.testing.assert_array_equal(c, want_c)
        assert not a.any()
        # Without the operands flag, b and c are left as they are.
        a, b, c = np.full(n, 5.0), np.full(n, -1.0), np.full(n, 7.5)
        lib.mc_triad_init(a.ctypes.data, b.ctypes.data, c.ctypes.data, n, 0)
        assert (b == -1.0).all() and (c == 7.5).all()
        assert not a.any()

    def test_runs_without_random_inputs(self, monkeypatch):
        _kernels_or_skip()

        def no_rng(*args, **kwargs):
            raise AssertionError("the triad draws no random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        backend = _triad_backend()
        core = min(os.sched_getaffinity(0))
        for nontemporal in (True, False):
            assert backend.run_triad(8 * 1001, [core], nontemporal).bytes_moved == 3 * 8 * 1001

    def test_more_than_one_core_is_rejected(self, monkeypatch):
        # One thread runs the kernel, so a wider core set would be mislabelled.
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        backend = _triad_backend()
        with pytest.raises(BandwidthError, match="one core"):
            backend.run_triad(4096, [0, 1], nontemporal=True)

    def test_partial_element_is_rejected(self, monkeypatch):
        # 12 bytes would run one element and record 36 bytes moved.
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        backend = _triad_backend()
        with pytest.raises(BandwidthError, match="whole number of 8-byte elements, got 12"):
            backend.run_triad(12, [0], nontemporal=True)


class TestKernelCache:
    def test_path_keyed_on_source_flags_and_compiler(self, tmp_path, monkeypatch):
        src = tmp_path / "kernels.c"
        src.write_text("int mc_one(void) { return 1; }\n")
        monkeypatch.setattr(native, "_SRC", src)
        monkeypatch.setattr(native, "_compiler_identity", lambda cc: "cc 1.0")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        paths = [native._kernel_path("cc"), native._kernel_path("cc")]
        src.write_text("int mc_one(void) { return 2; }\n")
        paths.append(native._kernel_path("cc"))
        monkeypatch.setattr(native, "_CFLAGS", native._CFLAGS + ("-g",))
        paths.append(native._kernel_path("cc"))
        monkeypatch.setattr(native, "_compiler_identity", lambda cc: "cc 1.1")
        paths.append(native._kernel_path("cc"))
        assert paths[0] == paths[1]
        assert len(set(paths)) == 4
        for path in paths:
            assert path.parent == tmp_path / "cache" / "memchar"


class TestKernelRuns:
    """The compiled kernels compute what they claim, on this host."""

    @pytest.mark.parametrize("kernel", ["mc_read128", "mc_read256"])
    def test_read_check_folds_every_lane_bit_for_bit(self, kernel):
        lib = _kernels_or_skip()
        if kernel == "mc_read256" and not lib.mc_cpu_has_avx():
            pytest.skip("this CPU has no AVX")
        region = native._Region(4096, None, None, False)
        try:
            words = np.ctypeslib.as_array((ctypes.c_uint64 * 512).from_address(region.addr))
            # Word i lies in lane i of a 256-bit load and lane i % 2 of a
            # 128-bit one; the check XORs the lanes of the ORed loads.
            words[0], words[1], words[-1] = 1, 2, 1 << 63
            check = ctypes.c_uint64()
            getattr(lib, kernel)(region.addr, 4096, 2, ctypes.byref(check))
            assert check.value == 1 << 63 | 3
        finally:
            region.close()

    def test_chase_follows_the_chain(self):
        lib = _kernels_or_skip()
        region = native._Region(4096, None, None, False)
        try:
            words = np.ctypeslib.as_array((ctypes.c_uint64 * 512).from_address(region.addr))
            # A 16-slot cycle chased 21 times: two unrolled rounds and 5 more.
            words[:16] = region.addr + 8 * ((np.arange(16) + 1) % 16)
            sink = ctypes.c_void_p()
            lib.mc_chase(region.addr, 21, ctypes.byref(sink))
            assert sink.value == region.addr + 8 * 5
        finally:
            region.close()

    @pytest.mark.parametrize("nontemporal", [1, 0])
    def test_triad_computes_every_element(self, nontemporal):
        lib = _kernels_or_skip()
        b, c = np.empty(1001), np.empty(1001)
        triad_operands(b, c)
        a = np.zeros(1001)
        lib.mc_triad(a.ctypes.data, b.ctypes.data, c.ctypes.data, TRIAD_SCALAR, 1001,
                     nontemporal)
        np.testing.assert_array_equal(a, b + TRIAD_SCALAR * c)


# How many fenced TSC reads each timed kernel makes.
TSC_READS = {"mc_tsc": 1, "mc_timer_overhead": 2, "mc_chase": 2, "mc_read128": 2,
             "mc_read256": 2, "mc_triad": 2}
MEM = r"-?(?:0x[0-9a-f]+)?\([^)]*\)"  # an AT&T memory operand


def disassembly(path) -> dict:
    """name -> [(address, instruction)] of every function in the library."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump not installed")
    out = subprocess.run([objdump, "-d", "--no-show-raw-insn", str(path)],
                         capture_output=True, text=True, check=True).stdout
    functions, body = {}, None
    for line in out.splitlines():
        if m := re.fullmatch(r"[0-9a-f]+ <(\w+)>:", line):
            body = functions[m.group(1)] = []
        elif body is not None and (m := re.match(r"\s+([0-9a-f]+):\s+([^#]+)", line)):
            body.append((int(m.group(1), 16), m.group(2).strip()))
    return functions


def loop_bodies(function) -> list:
    """The instructions of each loop a backward conditional branch closes,
    shortest first."""
    bodies = []
    for addr, ins in function:
        m = re.match(r"j(?!mp)\w+\s+([0-9a-f]+) <", ins)
        if m and int(m.group(1), 16) <= addr:
            start = int(m.group(1), 16)
            bodies.append([i for a, i in function if start <= a <= addr])
    return sorted(bodies, key=len)


def loop_with(function, pattern) -> list:
    """The shortest loop holding an instruction that matches ``pattern``,
    or ``[]``."""
    return next(
        (b for b in loop_bodies(function) if any(re.fullmatch(pattern, i) for i in b)), []
    )


def dependent_loads(body) -> int:
    """The longest run of ``mov (%a),%b`` in which each load's address is
    the previous load's result."""
    best = run = 0
    prev = None
    for ins in body:
        m = re.fullmatch(r"mov\s+\((%\w+)\),(%\w+)", ins)
        run = 0 if m is None else run + 1 if m.group(1) == prev else 1
        prev = m and m.group(2)
        best = max(best, run)
    return best


@pytest.fixture(scope="module")
def code():
    """The disassembly of the library ``build_kernels`` makes."""
    try:
        return disassembly(native.build_kernels())
    except native.BackendUnavailable as exc:
        pytest.skip(f"native kernels unavailable: {exc}")


class TestKernelCodegen:
    """The compiled timed regions run the instructions the kernels claim."""

    def test_source_includes_no_intrinsics_header(self):
        src = native._SRC.read_text()
        includes = re.findall(r"^\s*#\s*include\s*[<\"]([^>\"]+)", src, re.M)
        assert set(includes) == {"stdint.h", "stddef.h"}

    def test_only_read256_holds_vex_or_wider_registers(self, code):
        """The build is for any x86-64 CPU: every function but the AVX read
        kernel, which runs only where ``mc_cpu_has_avx`` allows, keeps to
        the baseline, with no VEX or EVEX instruction and no 256- or 512-bit
        register."""
        wide = {
            name: [ins for _, ins in body
                   if ins.startswith("v") or "%ymm" in ins or "%zmm" in ins]
            for name, body in code.items() if name != "mc_read256"
        }
        assert {name: ins for name, ins in wide.items() if ins} == {}
        assert any("%ymm" in ins for _, ins in code["mc_read256"])

    def test_every_tsc_read_is_fenced(self, code):
        for name, reads in TSC_READS.items():
            fences = [
                op for op in (ins.split()[0] for _, ins in code[name])
                if op in ("mfence", "lfence", "sfence", "rdtsc")
            ]
            at = [i for i, op in enumerate(fences) if op == "rdtsc"]
            assert len(at) == reads, name
            for i in at:
                assert fences[i - 2:i + 2] == ["mfence", "lfence", "rdtsc", "lfence"], name

    def test_chase_unrolls_eight_dependent_loads(self, code):
        loops = loop_bodies(code["mc_chase"])
        assert sorted(map(dependent_loads, loops)) == [1, 8]

    def test_read128_ors_eight_16_byte_loads_per_iteration(self, code):
        load = rf"v?(?:movdq[au]|por)\s+{MEM},(?:%xmm\d+,)?%xmm\d+"
        body = loop_with(code["mc_read128"], load)
        loads = sum(bool(re.fullmatch(load, i)) for i in body)
        assert loads == 8
        assert loads * 16 == native.READ_BURST_BYTES["read128"]
        assert sum(i.split()[0] in ("por", "vpor") for i in body) == 8
        assert not any("%ymm" in i or "%zmm" in i for i in body)

    def test_read256_ors_sixteen_32_byte_loads_per_iteration(self, code):
        load = rf"vorpd\s+{MEM},%ymm\d+,%ymm\d+"
        body = loop_with(code["mc_read256"], load)
        loads = sum(bool(re.fullmatch(load, i)) for i in body)
        assert loads == 16
        assert loads * 32 == native.READ_BURST_BYTES["read256"]
        assert sum(i.startswith("vorpd") for i in body) == 16

    def test_triad_streams_its_stores_and_fences_them(self, code):
        triad = code["mc_triad"]
        store = rf"v?movntpd\s+%xmm\d+,{MEM}"
        assert loop_with(triad, store)
        first = next(k for k, (_, ins) in enumerate(triad) if re.fullmatch(store, ins))
        assert "sfence" in (ins for _, ins in triad[first:])

    def test_chain_write_streams_whole_elements_and_fences_them(self, code):
        write = code["mc_chain_write"]
        store = rf"v?movnt(?:dq|ps|pd)\s+%xmm\d+,{MEM}"
        assert loop_with(write, store)
        first = next(k for k, (_, ins) in enumerate(write) if re.fullmatch(store, ins))
        assert "sfence" in (ins for _, ins in write[first:])
        assert not any(ins.startswith("rdtsc") for _, ins in write)  # untimed

    def test_triad_init_is_untimed(self, code):
        init = code["mc_triad_init"]
        assert init
        assert not any(ins.startswith("rdtsc") for _, ins in init)

    def test_triad_init_writes_packed_plain_stores(self, code):
        """The timed triad starts from the cache state plain stores leave,
        so the init streams nothing past the caches, and it writes the
        operands two elements per store."""
        init = code["mc_triad_init"]
        assert loop_with(init, rf"v?mov[au]p[sd]\s+%xmm\d+,{MEM}")
        assert not any(re.match(r"v?movnt|rdtsc", ins) for _, ins in init)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
class TestPinning:
    def test_caller_mask_unchanged_after_success_and_after_error(self, monkeypatch):
        class Failing(FakeKernels):
            def mc_read256(self, addr, nbytes, reps, check):
                raise RuntimeError("read failed")

        before = os.sched_getaffinity(0)
        core = min(before)
        graph = load_topology_file(fixture_path("single_core.json"))
        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        native.NativeBandwidthBackend(graph, frequency_mhz=1000.0).run_read(
            "read256", 16 << 10, [core]
        )
        assert os.sched_getaffinity(0) == before
        monkeypatch.setattr(native, "load_kernels", Failing)
        with pytest.raises(RuntimeError, match="read failed"):
            native.NativeBandwidthBackend(graph, frequency_mhz=1000.0).run_read(
                "read256", 16 << 10, [core]
            )
        assert os.sched_getaffinity(0) == before
