"""Native backend pieces that need no quiet x86 host, so they run ungated;
tests that need the compiled kernels skip where they cannot be built."""

import ctypes
import errno
import mmap
import os
import re
import shutil
import subprocess
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from memchar import native
from memchar.bandwidth import TRIAD_SCALAR, BandwidthError, SimBandwidthBackend, triad_operands
from memchar.chain import chain_spec
from memchar.cli import main
from memchar.coherence import plan_state
from memchar.harness import MeasurementPolicy, measure_latency
from memchar.topology import Placement, fixture_path, load_topology_file

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


class TestTscRate:
    def test_backends_share_one_measurement(self, monkeypatch):
        reads = []

        class Kernels:
            def mc_tsc(self):
                reads.append(True)
                return 1000 * len(reads)

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


class FakeKernels:
    """Kernel table stand-in: every kernel returns at once."""

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
    """A native read runs the widest kernel the library exports at or below
    the request, and flags a narrower one, as the simulator does."""

    @staticmethod
    def read(monkeypatch, kernels, kernel):
        monkeypatch.setattr(native, "load_kernels", kernels)
        monkeypatch.setattr(native, "_pin_current_thread", lambda core: None)
        backend = native.NativeBandwidthBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        return backend, backend.run_read(kernel, 16 << 10, [0])

    def test_build_without_avx_degrades_read256_to_read128(self, monkeypatch):
        class NoAvx:
            """The kernels of a build without AVX: no ``mc_read256``."""

            mc_write_touch = FakeKernels.mc_write_touch

            def mc_read128(self, addr, nbytes, reps, check):
                return 1000

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
        _, rec = self.read(monkeypatch, Declared, "read512")
        assert (rec.kernel, rec.degraded_from, rec.flags) == (
            "read256", "read512", ("width_degraded",)
        )


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
                raise native.PinningError(f"cannot pin to core {core}")

        monkeypatch.setattr(native, "load_kernels", FakeKernels)
        monkeypatch.setattr(native, "_pin_current_thread", pin)
        backend = native.NativeBandwidthBackend(
            load_topology_file(fixture_path("rome_2s.json")), frequency_mhz=1000.0
        )
        before = set(threading.enumerate())
        start = time.monotonic()
        with pytest.raises(native.PinningError, match="core 5"):
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


def _anon_huge_kb(addr: int) -> int:
    """``AnonHugePages`` of the ``/proc/self/smaps`` mapping that holds ``addr``."""
    inside = False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            field = line.split()[0]
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", field):
                lo, hi = (int(x, 16) for x in field.split("-"))
                inside = lo <= addr < hi
            elif inside and field == "AnonHugePages:":
                return int(line.split()[1])
    raise LookupError(f"no mapping holds {addr:#x}")


class FakeNuma:
    """libnuma stand-in whose ``mbind`` returns ``result`` and records
    (mode, first mask word, maxnode, flags, region still all zero)."""

    def __init__(self, result: int):
        self.result = result
        self.calls = []

    def mbind(self, addr, nbytes, mode, mask, maxnode, flags):
        untouched = ctypes.string_at(addr, nbytes) == bytes(nbytes)
        self.calls.append((mode, mask[0], maxnode, flags, untouched))
        return self.result


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
            assert _anon_huge_kb(region.addr) > 0
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
        monkeypatch.setattr(native, "load_kernels", lambda: None)
        backend = _triad_backend()
        with pytest.raises(BandwidthError, match="one core"):
            backend.run_triad(4096, [0, 1], nontemporal=True)


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


@pytest.fixture(scope="module")
def fallback_build(tmp_path_factory):
    """The library ``build_kernels`` makes in an empty cache when the
    compiler rejects ``_AVX_CFLAGS``."""
    try:
        native.build_kernels()
    except native.BackendUnavailable as exc:
        pytest.skip(f"native kernels unavailable: {exc}")
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache))
        mp.setattr(native, "_AVX_CFLAGS", ("-mno-such-flag",))
        path = native.build_kernels()
    assert path.parent == cache / "memchar"
    return path


class TestFallbackBuild:
    def test_plain_build_exports_all_but_read256_and_runs(self, fallback_build, monkeypatch):
        native.load_kernels.cache_clear()
        monkeypatch.setattr(native, "build_kernels", lambda: fallback_build)
        try:
            lib = native.load_kernels()
        finally:
            native.load_kernels.cache_clear()
        exported = {name for name in native.KERNEL_SIGNATURES if hasattr(lib, name)}
        assert exported == set(native.KERNEL_SIGNATURES) - {"mc_read256"}

        region = native._Region(4096, None, None, False)
        try:
            words = np.ctypeslib.as_array((ctypes.c_uint64 * 512).from_address(region.addr))
            # The check ORs the low and the high 8 bytes of every 16-byte load.
            words[0], words[-1] = 1, 1 << 63
            check = ctypes.c_uint64()
            lib.mc_read128(region.addr, 4096, 2, ctypes.byref(check))
            assert check.value == 1 | 1 << 63
            # A 16-slot cycle chased 21 times: two unrolled rounds and 5 more.
            words[:16] = region.addr + 8 * ((np.arange(16) + 1) % 16)
            sink = ctypes.c_void_p()
            lib.mc_chase(region.addr, 21, ctypes.byref(sink))
            assert sink.value == region.addr + 8 * 5
        finally:
            region.close()
        b, c = triad_operands(1001)
        for nontemporal in (1, 0):
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


@pytest.fixture(params=["default", "fallback"])
def kernel_build(request):
    """The library from ``build_kernels`` as it is, and from its plain-flags
    fallback."""
    if request.param == "fallback":
        return request.getfixturevalue("fallback_build")
    try:
        return native.build_kernels()
    except native.BackendUnavailable as exc:
        pytest.skip(f"native kernels unavailable: {exc}")


class TestKernelCodegen:
    """The compiled timed regions run the instructions the kernels claim."""

    def test_source_includes_no_intrinsics_header(self):
        src = native._SRC.read_text()
        includes = re.findall(r"^\s*#\s*include\s*[<\"]([^>\"]+)", src, re.M)
        assert set(includes) == {"stdint.h", "stddef.h"}

    def test_every_tsc_read_is_fenced(self, kernel_build):
        code = disassembly(kernel_build)
        for name, reads in TSC_READS.items():
            if name not in code:
                assert name == "mc_read256"  # built without AVX
                continue
            fences = [
                op for op in (ins.split()[0] for _, ins in code[name])
                if op in ("mfence", "lfence", "sfence", "rdtsc")
            ]
            at = [i for i, op in enumerate(fences) if op == "rdtsc"]
            assert len(at) == reads, name
            for i in at:
                assert fences[i - 2:i + 2] == ["mfence", "lfence", "rdtsc", "lfence"], name

    def test_chase_unrolls_eight_dependent_loads(self, kernel_build):
        loops = loop_bodies(disassembly(kernel_build)["mc_chase"])
        assert sorted(map(dependent_loads, loops)) == [1, 8]

    def test_read128_ors_eight_16_byte_loads_per_iteration(self, kernel_build):
        load = rf"v?(?:movdq[au]|por)\s+{MEM},(?:%xmm\d+,)?%xmm\d+"
        body = loop_with(disassembly(kernel_build)["mc_read128"], load)
        assert sum(bool(re.fullmatch(load, i)) for i in body) == 8
        assert sum(i.split()[0] in ("por", "vpor") for i in body) == 8
        assert not any("%ymm" in i or "%zmm" in i for i in body)

    def test_read256_ors_sixteen_32_byte_loads_per_iteration(self, kernel_build):
        code = disassembly(kernel_build)
        if "mc_read256" not in code:
            pytest.skip("built without AVX")
        load = rf"vorpd\s+{MEM},%ymm\d+,%ymm\d+"
        body = loop_with(code["mc_read256"], load)
        assert sum(bool(re.fullmatch(load, i)) for i in body) == 16
        assert sum(i.startswith("vorpd") for i in body) == 16

    def test_triad_streams_its_stores_and_fences_them(self, kernel_build):
        triad = disassembly(kernel_build)["mc_triad"]
        store = rf"v?movntpd\s+%xmm\d+,{MEM}"
        assert loop_with(triad, store)
        first = next(k for k, (_, ins) in enumerate(triad) if re.fullmatch(store, ins))
        assert "sfence" in (ins for _, ins in triad[first:])


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
