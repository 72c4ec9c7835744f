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

Bound mappings are recycled, so a run of requests of one kind faults its
buffers in once.  Closing a region whose mapping ``mbind`` placed hands the
mapping to one process-wide idle list, keyed by (NUMA node, huge-page
request); a new region takes the smallest idle mapping of its key that holds
it.  Only when none does is a fresh one mapped, advised and bound, and the
idle mappings of every other key are unmapped first: a sweep that moves to
another home node holds one node's buffers, not one set per node, and a
triad's mapping never sits idle beside a chain's.  Idle mappings of the last
key are held until the process exits.  Unbound mappings (no libnuma, a
failed bind, read datasets, the flush scratch) are unmapped at close.

A recycled mapping still holds what its last user wrote, so a mapping keeps
one record of what it holds, and a writer reuses what is there only when
that record is its own exact layout.  A fresh mapping records ``_ZERO``.  A
chain records ``("chain", stride, n)``: nothing but zeros outside each of
its ``n`` elements' first 64-byte line.  A triad records ``("triad",
stride, n)``: its operands ``b`` and ``c`` still lie at that array stride.
A region that takes the mapping forgets the record, and only the writer
that re-establishes it records it again:
:meth:`NativeBackend.materialize_chain` once the chain is written,
:meth:`NativeBandwidthBackend.run_triad` once its kernel has run and its
checks have passed.  A read dataset, a failed triad or any other writer
leaves the mapping unknown.  A chain writes its slot words alone on a zero
mapping, streams each element's first line with non-temporal stores on its
own layout, and streams its elements whole on any other mapping, that of a
chain of another stride or element count or of a triad.  A measured point
keeps a chain's record true: its ``WRITE`` step stores at each slot plus 8
bytes, inside the first line.  Either way the chain reads as on a fresh
mapping: zero except its slots.  The triad's three arrays are views of one
such region, advised for huge pages like a chain's, bound to the node
libnuma gives for the triad's core.  A triad on its own layout zeroes its
result array alone before the timer; any other writes its operands too.

The C kernels are compiled with the system compiler into a cache directory,
named after a hash of their inputs, and loaded by :func:`load_kernels`; when
no compiler or no x86-64 is available, or the library lacks a declared
kernel, every entry point raises :class:`BackendUnavailable` so callers can
degrade cleanly.  There is one build, with no ``-m`` flag: every kernel
keeps to the x86-64 baseline except ``mc_read256``, which ``kernels.c``
compiles under ``target("avx")`` and which runs only where
``mc_cpu_has_avx`` says the CPU can.  ``kernels.c`` includes no intrinsics
header: parsing ``<x86intrin.h>`` and ``<immintrin.h>`` was almost all of a
cold build (about 0.6 s of gcc 12 against 0.15 s without them), so it calls
the compiler builtins and vector types those headers wrap.  When the
headers went, ``objdump -d`` of the two spellings matched byte for byte
under gcc 12.2; the tests read the timed regions' instructions back from
``objdump``.

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
    TRIAD_SCALAR, BandwidthError, BandwidthRecord, TriadVerificationError,
    dataset_level, resolve_kernel, triad_elements, verify_triad,
)
from .chain import ChainBuffer
from .coherence import Action, CoherenceScript
from .harness import HarnessError, MeasurementPolicy, flush_scratch_bytes
from .topology import TopologyGraph

__all__ = ["BackendUnavailable", "NativeBackend", "build_kernels"]

_SRC = Path(__file__).parent / "native_src" / "kernels.c"
MPOL_BIND = 2
_CFLAGS = ("-O2", "-shared", "-fPIC")

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
    "mc_cpu_has_avx": (ctypes.c_int, ()),
    "mc_read256": (_u64, (_ptr, _u64, _u64, _ptr)),
    "mc_triad": (_u64, (_ptr, _ptr, _ptr, ctypes.c_double, _u64, ctypes.c_int)),
    "mc_sattolo": (None, (_ptr, _u64, _u64)),
    "mc_chain_write": (None, (_ptr, _ptr, _u64, _u64, _u64)),
    "mc_triad_init": (None, (_ptr, _ptr, _ptr, _u64, ctypes.c_int)),
    "mc_chain_walk": (_u64, (_ptr, _u64, _ptr, _ptr)),
}
# Bytes one loop iteration of each read kernel loads; the kernel skips any
# tail shorter than this, so a read's dataset is a whole number of them.
READ_BURST_BYTES = {"read128": 8 * 16, "read256": 16 * 32}


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
    inputs = (_SRC.read_bytes(), _CFLAGS, _compiler_identity(cc))
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
        res = subprocess.run([cc, *_CFLAGS, str(_SRC), "-o", str(tmp)],
                             capture_output=True, text=True)
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
    process.  A failed build, or a library that lacks a declared kernel,
    raises :class:`BackendUnavailable` and is tried again on the next call."""
    try:
        lib = ctypes.CDLL(str(build_kernels()))
    except OSError as exc:
        raise BackendUnavailable(f"cannot load the native kernels: {exc}") from exc
    for name, (restype, argtypes) in KERNEL_SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise BackendUnavailable(f"the native kernels lack {name}") from None
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


@cache
def _load_libnuma():
    """libnuma with ``mbind`` and ``numa_node_of_cpu`` declared, loaded once
    per process; None where it is missing or reports NUMA unavailable."""
    path = ctypes.util.find_library("numa")
    if not path:
        return None
    try:
        lib = ctypes.CDLL(path)
        if lib.numa_available() < 0:
            return None
        lib.mbind.restype = ctypes.c_long
        lib.mbind.argtypes = (_ptr, _u64, ctypes.c_int, _ptr, _u64, ctypes.c_uint)
        lib.numa_node_of_cpu.restype = ctypes.c_int
        lib.numa_node_of_cpu.argtypes = (ctypes.c_int,)
        return lib
    except OSError:
        return None


# The record of a mapping no one has written (see _Mapping.holds).
_ZERO = ("zero", 0, 0)


class _Mapping:
    """Private anonymous mapping, advised and bound before its first touch.

    Private, because a shared one is shmem and ignores ``MADV_HUGEPAGE``
    unless ``shmem_enabled`` allows it.  ``huge_pages`` and ``numa_bound``
    are outcomes: each is true only when its own call succeeded.
    ``holds`` is the exact layout the mapping is known to hold, else None:

    * ``_ZERO``, as mapped: every byte is zero;
    * ``("chain", stride, n)``: the first ``n * stride`` bytes are zero
      outside the first 64-byte line of each ``stride``-byte element;
    * ``("triad", stride, n)``: the ``n`` words from word ``stride`` on are
      ``b[i] = i``, and the ``n`` from word ``2 * stride`` on ``c[i] = n - i``.
    """

    def __init__(self, nbytes: int, numa_node: Optional[int], libnuma, huge: bool):
        self.nbytes = nbytes
        self.holds: Optional[tuple[str, int, int]] = _ZERO
        self.mm = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.addr = ctypes.addressof(ctypes.c_char.from_buffer(self.mm))
        self.huge_pages = huge
        if huge:
            try:
                self.mm.madvise(mmap.MADV_HUGEPAGE)
            except OSError:
                self.huge_pages = False
        self.numa_bound = False
        if libnuma is not None and numa_node is not None:
            mask = (_u64 * (numa_node // 64 + 1))()
            mask[-1] = 1 << numa_node % 64
            bound = libnuma.mbind(self.addr, nbytes, MPOL_BIND, mask, 64 * len(mask) + 1, 0)
            self.numa_bound = bound == 0


# Closed bound mappings by (NUMA node, huge-page request), held until a
# region of another key maps afresh, or the process exits.
_idle: dict[tuple[int, bool], list[_Mapping]] = {}
_idle_lock = threading.Lock()


class _Region:
    """The first ``nbytes`` of a :class:`_Mapping`, recycled where one fits.

    A new region takes the smallest idle mapping with its key (NUMA node,
    huge-page request) and at least its size.  Only when none fits does it
    map, advise and bind a fresh one, after unmapping the idle mappings of
    every other key.  ``close()`` hands a mapping that ``mbind`` placed back
    to the process-wide idle list, once, and unmaps any other at once.  A
    recycled region holds what the mapping's last user wrote.  The region
    takes the mapping's ``holds`` (``_ZERO`` when it is fresh) and leaves it
    None, so the mapping reads as unknown to its next region unless the
    writer that re-establishes its exact layout records it again:
    :meth:`NativeBackend.materialize_chain` or
    :meth:`NativeBandwidthBackend.run_triad`.
    """

    def __init__(self, nbytes: int, numa_node: Optional[int], libnuma, huge: bool):
        self.nbytes = nbytes
        self._key = (numa_node, huge)
        stale = []
        with _idle_lock:
            fits = [m for m in _idle.get(self._key, ()) if m.nbytes >= nbytes]
            if fits:
                self.mapping = min(fits, key=lambda m: m.nbytes)
                _idle[self._key].remove(self.mapping)
            elif numa_node is not None:
                for key in [k for k in _idle if k != self._key]:
                    stale += _idle.pop(key)
        for mapping in stale:
            mapping.mm.close()
        if not fits:
            self.mapping = _Mapping(nbytes, numa_node, libnuma, huge)
        self.holds, self.mapping.holds = self.mapping.holds, None
        self.addr = self.mapping.addr
        self.huge_pages = self.mapping.huge_pages
        self.numa_bound = self.mapping.numa_bound

    def close(self):
        mapping, self.mapping = self.mapping, None
        if mapping is None:
            return
        if self.numa_bound:
            with _idle_lock:
                _idle.setdefault(self._key, []).append(mapping)
        else:
            mapping.mm.close()


def _mem_available() -> int:
    """The host's ``MemAvailable`` in bytes, from ``/proc/meminfo``."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    raise BackendUnavailable("cannot read MemAvailable from /proc/meminfo")


# The cache level each capacity-eviction step of a script sweeps.
_EVICTS = {Action.EVICT_L1: "L1", Action.EVICT_L2: "L2"}


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
        """A region for ``home_node`` that reads as a fresh mapping with the
        chain written in: every slot points at its successor, every other
        word is zero.  ``mc_chain_write`` writes it in one pass, and
        ``span``, one lookup of the region's ``holds``, is how many bytes of
        each element it streams:

        * a fresh mapping (``_ZERO``) gets its slot words only (span 0);
        * a mapping that holds this chain's layout, the same stride and
          element count, is zero outside each element's first line, so that
          line alone is streamed (span 64);
        * any other mapping, whose last user may have written anywhere in
          it, has each element streamed whole (span ``stride``).

        The mapping then records this chain's layout.  Whoever uses the
        region writes only inside each element's first line, as a measured
        point's ``WRITE`` step does (slot plus 8 bytes), so the record holds
        when it is closed."""
        stride, n = chain.stride_alignment, chain.element_count
        region = _Region(chain.total_bytes, home_node, self.libnuma, chain.huge_pages)
        layout = ("chain", stride, n)
        span = {_ZERO: 0, layout: 64}.get(region.holds, stride)
        # Built here on a spec's first materialization; read in place.
        self.lib.mc_chain_write(region.addr, chain.successors.buffer_info()[0], n, stride, span)
        region.mapping.holds = layout
        return region

    def _flush(self, levels) -> None:
        """Displace ``levels`` from the calling core's caches by sweeping a
        scratch region sized by :func:`~memchar.harness.flush_scratch_bytes`;
        no levels, no sweep.  The scratch is written once, one store per
        page, when it is mapped: a page never written reads the kernel's one
        shared zero page, and sweeping that evicts nothing."""
        nbytes = flush_scratch_bytes(self.topology, levels)
        if not nbytes:
            return
        if self._scratch is None or self._scratch.nbytes < nbytes:
            self._scratch = _Region(nbytes, None, None, False)
            self.lib.mc_write_touch(self._scratch.addr, nbytes, mmap.PAGESIZE, b"\x01")
        self.lib.mc_touch(self._scratch.addr, nbytes, 64)

    # -- measurement ---------------------------------------------------------

    def run_sweep(self, chains, points, policy: MeasurementPolicy):
        """The elapsed ticks of every point, shaped (points, outer, sizes, inner).

        A point maps all its chains at once, beside the flush scratch, so
        before any chain is built or mapped the sweep is refused
        (:class:`~memchar.harness.HarnessError`) when their sum exceeds the
        host's ``MemAvailable``.  The scratch is sized for the policy's
        ``flush_levels`` and every level a script's ``EVICT`` step sweeps."""
        levels = set(policy.flush_levels)
        for script, _ in points:
            levels.update(_EVICTS[s.action] for s in script.steps if s.action in _EVICTS)
        chain_bytes = sum(c.total_bytes for c in chains)
        scratch = flush_scratch_bytes(self.topology, levels)
        available = _mem_available()
        if chain_bytes + scratch > available:
            raise HarnessError(
                f"a native point maps {chain_bytes / 2**20:.1f} MiB of chains and a "
                f"{scratch / 2**20:.1f} MiB flush scratch, more than the host's "
                f"MemAvailable of {available / 2**20:.1f} MiB")
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
            elif step.action in _EVICTS:
                self._flush({_EVICTS[step.action]})  # capacity eviction of the level vacated
        return core


# Every 100th element of a native triad is checked: 1% of ``a``, and ``b``
# and ``c`` at the same indices.
_TRIAD_SAMPLE_STEP = 100


def _check_operands(b: np.ndarray, c: np.ndarray) -> None:
    """Raise :class:`TriadVerificationError`, naming the array, at the
    first sampled index where ``b[i] != i`` or ``c[i] != n - i``."""
    n, step = len(b), _TRIAD_SAMPLE_STEP
    i = np.arange(0, n, step, dtype=np.float64)
    for array, got, want in (("b", b[::step], i), ("c", c[::step], n - i)):
        bad = np.flatnonzero(got != want)
        if bad.size:
            k = int(bad[0])
            raise TriadVerificationError(k * step, float(want[k]), float(got[k]), array)


class NativeBandwidthBackend:
    """Compiled streaming-read and triad kernels on the host CPU.

    Reports TSC-tick cycle counts; the bandwidth derives from the
    operator-pinned frequency, which this backend records but never sets.
    Used by the hardware-gated smoke checks; the simulated backend is the
    regression surface.  ``supported`` holds the read kernels this CPU
    runs: ``read128`` always, and ``read256`` where ``mc_cpu_has_avx``
    reports AVX.
    """

    name = "native"

    def __init__(self, topology: TopologyGraph, frequency_mhz: Optional[float] = None):
        self.topology = topology
        self.lib = load_kernels()
        self.libnuma = _load_libnuma()
        self.frequency_mhz = _frequency(self.lib, frequency_mhz)
        self.supported = ("read256", "read128") if self.lib.mc_cpu_has_avx() else ("read128",)

    def run_read(self, kernel_name: str, dataset_bytes: int, core_set):
        cores = tuple(core_set)
        level = dataset_level(self.topology, dataset_bytes, cores)
        kernel_name, degraded_from = resolve_kernel(kernel_name, self.supported)
        burst = READ_BURST_BYTES[kernel_name]
        if dataset_bytes < burst or dataset_bytes % burst:
            raise BandwidthError(f"{kernel_name} reads whole {burst}-byte bursts, "
                                 f"got a {dataset_bytes}-byte dataset")
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
        over closed-form operands (``b[i] = i``, ``c[i] = n - i``); 1% of
        ``a`` is verified, and ``b`` and ``c`` at the same indices.

        ``a``, ``b`` and ``c`` are three line-aligned views of one region
        bound to the core's NUMA node, as libnuma's ``numa_node_of_cpu``
        gives it.  It asks for huge pages, as a chain's does, so the triad
        and the chains share one key and a later triad or chain reuses the
        mapping; the record is flagged ``huge_pages`` when the advice took.
        The worker writes before the timer in one untimed C pass,
        ``mc_triad_init``, so the kernel times no first-touch faults.  It
        always zeroes ``a``, so a result a recycled mapping still holds
        cannot pass the check.  It writes ``b`` and ``c`` too unless the
        mapping's ``holds`` is this triad's layout, its array stride and
        element count, whose operands are still in place.  The record is set
        only once the kernel has run and both checks have passed; any error
        leaves the mapping unknown.  The operand check fails a triad that a
        stale record let run on other operands, which ``verify_triad``
        alone would pass when ``a`` agrees with them.
        """
        cores = tuple(core_set)
        if len(cores) != 1:
            raise BandwidthError(
                f"the native triad runs one thread, so it takes one core, got {len(cores)}"
            )
        n = triad_elements(array_bytes)
        stride = -(-n // 8) * 8  # elements, a whole number of 64-byte lines
        node = self.libnuma.numa_node_of_cpu(cores[0]) if self.libnuma else -1
        region = _Region(3 * 8 * stride, node if node >= 0 else None, self.libnuma, True)
        words = np.ctypeslib.as_array((ctypes.c_double * (3 * stride)).from_address(region.addr))
        a, b, c = (words[i * stride:i * stride + n] for i in range(3))
        held = ("triad", stride, n)
        operands = 0 if region.holds == held else 1

        def triad():
            self.lib.mc_triad_init(a.ctypes.data, b.ctypes.data, c.ctypes.data, n, operands)
            return self.lib.mc_triad(
                a.ctypes.data, b.ctypes.data, c.ctypes.data,
                TRIAD_SCALAR, n, 1 if nontemporal else 0,
            )

        try:
            [ticks] = _on_cores([(cores[0], triad)])
            _check_operands(b, c)
            verify_triad(a, b, c, TRIAD_SCALAR, _TRIAD_SAMPLE_STEP)
            region.mapping.holds = held
        finally:
            region.close()
        return BandwidthRecord.from_raw(
            "triad-nt" if nontemporal else "triad",
            array_bytes, cores, "RAM", 3 * array_bytes, float(ticks),
            self.frequency_mhz, self.name, flags=("huge_pages",) if region.huge_pages else (),
        )
