"""Native x86 measurement backend.

Implements the hardware contract behind the backend interface: serialized
TSC timestamps, a dependent-load chase loop, core pinning via
``sched_setaffinity``, and NUMA-bound buffers backed by huge pages.

Every buffer is one private anonymous mapping.  Before its first touch it
gets ``madvise(MADV_HUGEPAGE)`` when huge pages are asked for, and libnuma's
``mbind`` to the home node when libnuma is present.  It is private because
shared anonymous memory is shmem, which gets huge pages only through
``shmem_enabled``.  The ``huge_pages`` and ``numa_bound`` flags are the
outcomes of those two calls, not the request.  Unbound,
:meth:`NativeBackend.materialize_chain` writes the chain on the caller's
unpinned thread, so first touch places it on that thread's node.

The C kernels are compiled with the system compiler into a cache directory,
named after a hash of their inputs, and loaded by :func:`load_kernels`; when
no compiler or no x86-64 is available every entry point raises
:class:`BackendUnavailable` so callers can degrade cleanly.  ``kernels.c``
includes no intrinsics header: parsing ``<x86intrin.h>`` and
``<immintrin.h>`` was almost all of a cold build (about 0.6 s of gcc 12
against 0.15 s without them), so it calls the compiler builtins and vector
types those headers wrap.  ``objdump -d`` of the two builds matched byte for
byte under gcc 12.2, with ``-mavx2`` and without, and the tests read the
timed regions' instructions back from ``objdump``.

Orchestration follows the measurement listing.  All native work runs in
:func:`_on_cores`: one new thread per job, pinned to its core and
synchronized by barriers, so the caller's thread is never pinned and no
affinity needs restoring.  A sweep (:meth:`NativeBackend.run_sweep`) runs
its points in order.  Each point materializes its chain regions on the
caller's thread, starts its workers once, and closes the regions after
them: a requester alone for a local point, a requester and a preparer for
a cross-core one.  The workers loop over the outer repeats, the chains and
the inner repeats themselves, and local and cross-core points share one
procedure.  Per outer repeat and chain, the requester flushes and touches
the region.  Per inner repeat, the script prepares the line, on the
requester itself when every worker of the script is the requester, else on
the preparer between two barriers while the requester waits, and then the
requester times one chase.

The requester's flush sweeps a scratch region that displaces the levels in
the policy's ``flush_levels``
(:func:`~memchar.harness.flush_scratch_bytes`).  Those levels come from the
run's argv, ``latency --flush`` (none for ``--flush ""``), not from the
environment.  The ``EVICT_L1``/``EVICT_L2`` script steps sweep the same way
for their one level.  Every size comes from
:meth:`~memchar.topology.TopologyGraph.cache_bytes`, so a topology without
cache sizes is rejected rather than guessed at.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
import math
import mmap
import os
import platform
import shutil
import subprocess
import threading
import time
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from .backends import BackendError, PinningError
from .bandwidth import (
    KERNELS, TRIAD_SCALAR, BandwidthError, BandwidthRecord, dataset_level, resolve_kernel,
    triad_operands, verify_triad,
)
from .chain import ChainBuffer
from .coherence import Action, CoherenceScript
from .harness import HarnessError, MeasurementPolicy, flush_scratch_bytes
from .topology import TopologyGraph

__all__ = ["BackendUnavailable", "PinningError", "NativeBackend", "build_kernels"]

_SRC = Path(__file__).parent / "native_src" / "kernels.c"
MPOL_BIND = 2
_CFLAGS = ("-O2", "-shared", "-fPIC", "-msse2")
# Tried first; dropped when the compiler rejects it (mc_read256 is then absent).
_AVX_CFLAGS = ("-mavx2",)

_u64, _ptr = ctypes.c_uint64, ctypes.c_void_p
# (restype, argtypes) of every exported kernel in kernels.c.
KERNEL_SIGNATURES = {
    "mc_timer_overhead": (_u64, ()),
    "mc_tsc": (_u64, ()),
    "mc_chase": (_u64, (_ptr, _u64, _ptr)),
    "mc_touch": (_u64, (_ptr, _u64, _u64)),
    "mc_write_touch": (None, (_ptr, _u64, _u64, ctypes.c_char)),
    "mc_clflush": (None, (_ptr, _u64, _u64)),
    "mc_read128": (_u64, (_ptr, _u64, _u64, _ptr)),
    "mc_read256": (_u64, (_ptr, _u64, _u64, _ptr)),
    "mc_triad": (_u64, (_ptr, _ptr, _ptr, ctypes.c_double, _u64, ctypes.c_int)),
    "mc_sattolo": (None, (_ptr, _u64, _u64)),
    "mc_chain_walk": (_u64, (_ptr, _u64, _ptr, _ptr)),
    "mc_has_avx512": (ctypes.c_int, ()),
}


class BackendUnavailable(BackendError):
    pass


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    d = Path(root) / "memchar"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _compiler_identity(cc: str) -> str:
    res = subprocess.run([cc, "--version"], capture_output=True, text=True)
    return f"{os.path.realpath(shutil.which(cc) or cc)}\n{res.stdout}"


def _kernel_path(cc: str) -> Path:
    """Cache path named after a sha256 of everything the build depends on."""
    inputs = (_SRC.read_bytes(), _AVX_CFLAGS + _CFLAGS, _compiler_identity(cc))
    key = hashlib.sha256(repr(inputs).encode()).hexdigest()
    return _cache_dir() / f"memchar_kernels-{key[:16]}.so"


def build_kernels() -> Path:
    """Compile the C kernels unless a build from the same inputs is cached;
    returns the shared-object path."""
    if platform.machine() not in ("x86_64", "AMD64"):
        raise BackendUnavailable(f"native backend needs x86-64, got {platform.machine()}")
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise BackendUnavailable("no C compiler found for the native kernels")
    try:
        out = _kernel_path(cc)
        if out.exists():
            return out
        # Compile beside the target and rename, so a partial build is never loaded.
        tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
        for flags in (_AVX_CFLAGS + _CFLAGS, _CFLAGS):
            cmd = [cc, *flags, str(_SRC), "-o", str(tmp)]
            res = subprocess.run(cmd, capture_output=True, text=True)
            if res.returncode == 0:
                break
    except OSError as exc:
        raise BackendUnavailable(f"cannot build the native kernels: {exc}") from exc
    if res.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise BackendUnavailable(f"kernel compile failed: {res.stderr[-400:]}")
    os.replace(tmp, out)
    return out


@cache
def load_kernels() -> ctypes.CDLL:
    """Build (or reuse) the kernels and declare every signature, once per
    process; a failed build raises and is tried again on the next call."""
    try:
        lib = ctypes.CDLL(str(build_kernels()))
    except OSError as exc:
        raise BackendUnavailable(f"cannot load the native kernels: {exc}") from exc
    for name, (restype, argtypes) in KERNEL_SIGNATURES.items():
        fn = getattr(lib, name, None)  # absent when built without AVX
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
    return lib


@cache
def _tsc_mhz(lib) -> float:
    """TSC ticks per microsecond over a short sleep window, measured once per
    process (the kernels are loaded once, so ``lib`` is always the same)."""
    t0 = time.perf_counter_ns()
    c0 = lib.mc_tsc()
    time.sleep(0.05)
    c1 = lib.mc_tsc()
    t1 = time.perf_counter_ns()
    return (c1 - c0) * 1000.0 / max(1, t1 - t0)


def _frequency(lib, frequency_mhz: Optional[float]) -> float:
    """The operator-pinned frequency, which a backend records and never sets,
    or the TSC rate when none is given."""
    if frequency_mhz is None:
        return _tsc_mhz(lib)
    if not 0 < frequency_mhz < math.inf:
        raise HarnessError(f"frequency must be a positive number of MHz, got {frequency_mhz}")
    return frequency_mhz


def _load_libnuma():
    path = ctypes.util.find_library("numa")
    if not path:
        return None
    try:
        lib = ctypes.CDLL(path)
        if lib.numa_available() < 0:
            return None
        lib.mbind.restype = ctypes.c_long
        lib.mbind.argtypes = (_ptr, _u64, ctypes.c_int, _ptr, _u64, ctypes.c_uint)
        return lib
    except OSError:
        return None


class _Region:
    """Private anonymous mapping, advised and bound before its first touch.

    Private, because a shared one is shmem and ignores ``MADV_HUGEPAGE``
    unless ``shmem_enabled`` allows it.  ``huge_pages`` and ``numa_bound``
    are outcomes: each is true only when its own call succeeded.
    """

    def __init__(self, nbytes: int, numa_node: Optional[int], libnuma, huge: bool):
        self.nbytes = nbytes
        self._mm = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.addr = ctypes.addressof(ctypes.c_char.from_buffer(self._mm))
        self.huge_pages = huge
        if huge:
            try:
                self._mm.madvise(mmap.MADV_HUGEPAGE)
            except OSError:
                self.huge_pages = False
        self.numa_bound = False
        if libnuma is not None and numa_node is not None:
            mask = (_u64 * (numa_node // 64 + 1))()
            mask[-1] = 1 << numa_node % 64
            bound = libnuma.mbind(self.addr, nbytes, MPOL_BIND, mask, 64 * len(mask) + 1, 0)
            self.numa_bound = bound == 0

    def close(self):
        self._mm.close()


def _pin_current_thread(core: int) -> None:
    """Pin the calling thread to ``core``."""
    try:
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError, ValueError) as exc:
        raise PinningError(f"cannot pin to core {core}: {exc}") from exc


def _on_cores(jobs, barriers=()) -> list:
    """Run each ``(core, fn)`` job on its own new thread pinned to ``core``
    and return the results in job order.

    A worker that raises aborts ``barriers``, so its peers stop waiting.
    Once every thread has joined, the first worker error is re-raised; a
    broken barrier with no other error (a timeout) becomes
    :class:`BackendError`.  The caller's thread is never pinned.
    """
    results = [None] * len(jobs)
    errors: list[BaseException] = []

    def work(i, core, fn):
        try:
            _pin_current_thread(core)
            results[i] = fn()
        except BaseException as exc:
            errors.append(exc)
            for b in barriers:
                b.abort()

    threads = [
        threading.Thread(target=work, args=(i, core, fn), daemon=True)
        for i, (core, fn) in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for exc in errors:
        if not isinstance(exc, threading.BrokenBarrierError):
            raise exc
    if errors:
        raise BackendError("native measurement aborted before completing")
    return results


class NativeBackend:
    """Pinned-thread x86 backend timing real pointer chases."""

    name = "native"

    def __init__(self, topology: TopologyGraph, frequency_mhz: Optional[float] = None):
        self.topology = topology
        self.lib = load_kernels()
        self.libnuma = _load_libnuma()
        self.frequency_mhz = _frequency(self.lib, frequency_mhz)
        self._scratch: Optional[_Region] = None

    def time_empty(self) -> float:
        return float(self.lib.mc_timer_overhead())

    # -- memory ------------------------------------------------------------

    def materialize_chain(self, chain: ChainBuffer, home_node: int) -> _Region:
        region = _Region(chain.total_bytes, home_node, self.libnuma, chain.huge_pages)
        align = chain.stride_alignment
        # Built here on a spec's first materialization; viewed, not copied.
        succ = np.frombuffer(chain.successors, dtype=np.int64)
        words = np.ctypeslib.as_array(
            (ctypes.c_uint64 * (region.nbytes // 8)).from_address(region.addr)
        )
        words[:: align // 8][: chain.element_count] = succ * align + region.addr
        return region

    def _flush(self, levels) -> None:
        """Displace ``levels`` from the calling core's caches by sweeping a
        scratch region sized by :func:`~memchar.harness.flush_scratch_bytes`;
        no levels, no sweep."""
        nbytes = flush_scratch_bytes(self.topology, levels)
        if not nbytes:
            return
        if self._scratch is None or self._scratch.nbytes < nbytes:
            self._scratch = _Region(nbytes, None, None, False)
        self.lib.mc_touch(self._scratch.addr, nbytes, 64)

    # -- measurement ---------------------------------------------------------

    def run_sweep(self, chains, points, policy: MeasurementPolicy):
        """The elapsed ticks of every point, shaped (points, outer, sizes, inner)."""
        ticks = [self._time_point(chains, script, placement, policy)
                 for script, placement in points]
        shape = (len(points), policy.outer_repeats, len(chains), policy.inner_repeats)
        return np.array(ticks, dtype=np.float64).reshape(shape)

    def _time_point(self, chains, script, placement, policy) -> list:
        """One point's ticks in (outer, sizes, inner) order, from one set of
        workers over regions that live as long as the point."""
        requester = placement.requester
        local = all(c == requester for c in script.worker_cores.values())
        regions = [self.materialize_chain(c, placement.home_node) for c in chains]
        # Every (outer repeat, chain) in the order the ticks are returned.
        repeats = policy.outer_repeats * list(zip(chains, regions))
        # The preparer sets the state between these while the requester waits.
        ready = threading.Barrier(2, timeout=60)
        done = threading.Barrier(2, timeout=60)

        def measure():
            ticks = []
            for chain, region in repeats:
                self._flush(policy.flush_levels)
                self.lib.mc_touch(region.addr, region.nbytes, chain.stride_alignment)
                for _ in range(policy.inner_repeats):
                    if local:
                        self._apply_script(script, region, chain, requester)
                    else:
                        ready.wait()
                        done.wait()
                    ticks.append(self._chase(region, chain.element_count))
            return ticks

        def prepare():
            core = placement.owner
            for chain, region in repeats:
                for _ in range(policy.inner_repeats):
                    ready.wait()
                    core = self._apply_script(script, region, chain, core)
                    done.wait()

        preparer = [] if local else [(placement.owner, prepare)]
        try:
            return _on_cores([(requester, measure), *preparer], (ready, done))[0]
        finally:
            for r in regions:
                r.close()

    def _chase(self, region, count: int) -> int:
        sink = ctypes.c_void_p()
        return self.lib.mc_chase(region.addr, count, ctypes.byref(sink))

    def _apply_script(self, script: CoherenceScript, region, chain: ChainBuffer, core: int) -> int:
        """Touch data for the target state, stepping through the script in
        order on a thread pinned to ``core``; a step of a worker on another
        core moves the thread there first.  Returns the core it ends on."""
        stride = chain.stride_alignment
        for step in script.steps:
            step_core = script.worker_cores.get(step.worker)
            if step_core is None:
                continue
            if step_core != core:
                _pin_current_thread(step_core)
                core = step_core
            if step.action is Action.READ:
                self.lib.mc_touch(region.addr, region.nbytes, stride)
            elif step.action is Action.WRITE:
                # Dirty the line next to the pointer; the chase stays intact.
                self.lib.mc_write_touch(region.addr + 8, region.nbytes - 8, stride, b"\x01")
            elif step.action is Action.FLUSH:
                self.lib.mc_clflush(region.addr, region.nbytes, 64)
            elif step.action is Action.EVICT_L1:
                self._flush({"L1"})  # capacity eviction of the level being vacated
            elif step.action is Action.EVICT_L2:
                self._flush({"L2"})
        return core


class NativeBandwidthBackend:
    """Compiled streaming-read and triad kernels on the host CPU.

    Reports TSC-tick cycle counts; the bandwidth derives from the
    operator-pinned frequency, which this backend records but never sets.
    Used by the hardware-gated smoke checks; the simulated backend is the
    regression surface.  ``supported`` holds the read kernels the loaded
    library exports (``mc_<kernel>``); ``mc_read256`` is absent from a build
    without AVX.
    """

    name = "native"

    def __init__(self, topology: TopologyGraph, frequency_mhz: Optional[float] = None):
        self.topology = topology
        self.lib = load_kernels()
        self.frequency_mhz = _frequency(self.lib, frequency_mhz)
        self.supported = tuple(k for k in KERNELS if hasattr(self.lib, f"mc_{k}"))

    def run_read(self, kernel_name: str, dataset_bytes: int, core_set):
        cores = tuple(core_set)
        level = dataset_level(self.topology, dataset_bytes, cores)
        kernel_name, degraded_from = resolve_kernel(kernel_name, self.supported)
        fn = getattr(self.lib, f"mc_{kernel_name}")
        reps = max(1, (64 << 20) // dataset_bytes)
        start = threading.Barrier(len(cores), timeout=120)

        def read():
            region = _Region(dataset_bytes, None, None, False)
            self.lib.mc_write_touch(region.addr, dataset_bytes, 64, b"\x01")
            check = ctypes.c_uint64()
            ticks = []
            for _ in range(3):
                start.wait()  # every worker starts each run together
                ticks.append(fn(region.addr, dataset_bytes, reps, ctypes.byref(check)))
            region.close()
            return min(ticks)

        # The aggregate elapsed time is the slowest worker's.
        elapsed = max(_on_cores([(c, read) for c in cores], (start,)))
        total = dataset_bytes * reps * len(cores)
        flags = ("width_degraded",) if degraded_from else ()
        return BandwidthRecord.from_raw(
            kernel_name, dataset_bytes, cores, level, total, float(elapsed),
            self.frequency_mhz, self.name, flags=flags, degraded_from=degraded_from,
        )

    def run_triad(self, array_bytes: int, core_set, nontemporal: bool):
        """One worker pinned to the one core of ``core_set`` runs the triad
        over the closed-form operands of :func:`~memchar.bandwidth.triad_operands`;
        1% of ``a`` is verified.  ``a`` is write-touched on that core before the
        timer, so the kernel times no first-touch faults and the pages land on
        the core's node."""
        cores = tuple(core_set)
        if len(cores) != 1:
            raise BandwidthError(
                f"the native triad runs one thread, so it takes one core, got {len(cores)}"
            )
        n = array_bytes // 8

        def triad():
            b, c = triad_operands(n)
            a = np.empty(n)
            a.fill(0.0)
            ticks = self.lib.mc_triad(
                a.ctypes.data, b.ctypes.data, c.ctypes.data,
                TRIAD_SCALAR, n, 1 if nontemporal else 0,
            )
            return a, b, c, ticks

        [(a, b, c, ticks)] = _on_cores([(cores[0], triad)])
        verify_triad(a, b, c, TRIAD_SCALAR, sample_fraction=0.01)
        return BandwidthRecord.from_raw(
            "triad-nt" if nontemporal else "triad",
            array_bytes, cores, "RAM", 3 * array_bytes, float(ticks),
            self.frequency_mhz, self.name,
        )
