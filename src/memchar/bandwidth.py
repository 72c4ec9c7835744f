"""Streaming-read throughput kernels and the triad benchmark.

Read kernels issue bursts of independent SIMD loads, so the measured figure
is bandwidth-bound rather than dependency-bound; the burst depth of each
width lives with the kernels in ``native_src/kernels.c``, and a native read
takes whole bursts only (``native.READ_BURST_BYTES``).  :data:`KERNELS`
lists the read kernels once, widest first, and both backends pick the widest
one they support at or below a request through :func:`resolve_kernel`,
flagging a narrower pick ``width_degraded``.  The triad mode
is ``a[i] = b[i] + s*c[i]`` over three arrays of a whole number of float64
elements, counting all three as moved bytes, with optional non-temporal
stores.  Only the native triad computes: it runs over whole arrays of
closed-form operands (``b[i] = i``, ``c[i] = n - i``, written by the
``mc_triad_init`` kernel), so every expected value ``3n - 2i`` is distinct
and exact, and spot-checks 1% of them with :func:`verify_triad`.  The simulated
triad prices its record from the fixture tables and computes nothing.

The simulated backend prices runs from per-level per-core bytes/cycle tables
plus shared-resource caps (per L3 domain, per memory node/die) carried in
the topology fixture; per-core streams are independent, so aggregate
bandwidth is the capped sum.  The topology's ``bandwidth`` object holds:

  frequency_mhz       clock the rates are counted in
  supported_kernels   read kernels of :data:`KERNELS` (default: all)
  read_b_per_cycle    {level: {kernel: bytes per cycle per core}}, a rate
                      for every supported kernel at every level
  shared_caps_gbps    {"l3_domain", "ram_node", "ram_ccd"?, "ram_socket"?}
  triad_gbps          {"per_core", "node_cap", "ccd_cap"?, "socket_cap"?}

Every number is positive and finite.  :class:`SimBandwidthBackend` reads
the object once, and a malformed field, or a name in one of these objects
that the reader does not read, is a ``SchemaError`` naming it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coherence import LEVELS
from .topology import GraphKind, SchemaError, TopologyGraph, _entries, _known, _positive, _req

__all__ = [
    "BandwidthError",
    "TriadVerificationError",
    "KERNELS",
    "BandwidthRecord",
    "BandwidthSeries",
    "SimBandwidthBackend",
    "resolve_kernel",
    "run_throughput",
    "run_triad",
    "scaling_series",
    "verify_triad",
    "triad_elements",
    "bandwidth_dataset_ladder",
    "dataset_level",
    "TRIAD_SCALAR",
]

TRIAD_SCALAR = 3.0
SATURATION_TOLERANCE = 0.05


class BandwidthError(Exception):
    pass


class TriadVerificationError(BandwidthError):
    """A sampled element of ``array`` (``a``, the result, unless an operand
    was found stale) does not hold its expected value."""

    def __init__(self, index: int, expected: float, got: float, array: str = "a"):
        super().__init__(
            f"triad verification failed at {array}[{index}]: expected {expected}, got {got}"
        )
        self.array = array
        self.index = index
        self.expected = expected
        self.got = got


# Every streaming-read kernel, widest first; a backend runs the widest one
# it supports at or below the request (:func:`resolve_kernel`).
KERNELS = ("read512", "read256", "read128")


def resolve_kernel(requested: str, supported) -> tuple[str, Optional[str]]:
    """``(kernel, degraded_from)``: the widest kernel in ``supported`` at or
    below ``requested``, and the request when that is narrower (else None)."""
    if requested not in KERNELS:
        raise BandwidthError(f"unknown kernel {requested!r}")
    for kernel in KERNELS[KERNELS.index(requested):]:
        if kernel in supported:
            return kernel, None if kernel == requested else requested
    raise BandwidthError(f"no supported kernel at or below {requested}")


@dataclass(frozen=True)
class BandwidthRecord:
    """One throughput result; gbps and bytes/cycle satisfy their defining
    relations against bytes_moved/elapsed exactly."""

    kernel: str
    dataset_bytes: int
    core_set: tuple[int, ...]
    level: str
    bytes_moved: int
    elapsed_cycles: float
    bandwidth_gbps: float
    bytes_per_cycle: float
    frequency_mhz: float
    backend: str
    flags: tuple[str, ...] = ()
    degraded_from: Optional[str] = None

    @classmethod
    def from_raw(
        cls,
        kernel: str,
        dataset_bytes: int,
        core_set,
        level: str,
        bytes_moved: int,
        elapsed_cycles: float,
        frequency_mhz: float,
        backend: str,
        flags=(),
        degraded_from=None,
    ) -> "BandwidthRecord":
        if elapsed_cycles <= 0:
            raise BandwidthError("elapsed cycles must be positive")
        elapsed_seconds = elapsed_cycles / (frequency_mhz * 1e6)
        return cls(
            kernel=kernel,
            dataset_bytes=dataset_bytes,
            core_set=tuple(core_set),
            level=level,
            bytes_moved=bytes_moved,
            elapsed_cycles=elapsed_cycles,
            bandwidth_gbps=bytes_moved / elapsed_seconds / 1e9,
            bytes_per_cycle=bytes_moved / elapsed_cycles,
            frequency_mhz=frequency_mhz,
            backend=backend,
            flags=tuple(flags),
            degraded_from=degraded_from,
        )

    @classmethod
    def from_rate(
        cls,
        kernel: str,
        dataset_bytes: int,
        core_set,
        level: str,
        bandwidth_gbps: float,
        frequency_mhz: float,
        backend: str,
        bytes_moved: Optional[int] = None,
        flags=(),
        degraded_from=None,
    ) -> "BandwidthRecord":
        """Record anchored at an exact aggregate rate (simulated runs)."""
        bytes_moved = bytes_moved if bytes_moved is not None else dataset_bytes * len(tuple(core_set))
        bytes_per_cycle = bandwidth_gbps * 1000.0 / frequency_mhz
        return cls(
            kernel=kernel,
            dataset_bytes=dataset_bytes,
            core_set=tuple(core_set),
            level=level,
            bytes_moved=bytes_moved,
            elapsed_cycles=bytes_moved / bytes_per_cycle,
            bandwidth_gbps=bandwidth_gbps,
            bytes_per_cycle=bytes_per_cycle,
            frequency_mhz=frequency_mhz,
            backend=backend,
            flags=tuple(flags),
            degraded_from=degraded_from,
        )


def triad_elements(array_bytes: int) -> int:
    """Elements of one triad array of ``array_bytes``: a whole, positive
    number of 8-byte floats, else :class:`BandwidthError`."""
    n, tail = divmod(array_bytes, 8)
    if n < 1 or tail:
        raise BandwidthError(
            f"triad arrays need a whole number of 8-byte elements, got {array_bytes} bytes"
        )
    return n


def verify_triad(a: np.ndarray, b: np.ndarray, c: np.ndarray, s: float, step: int = 1) -> int:
    """Check of a = b + s*c at every ``step``-th element from the first;
    returns the number of checked elements.

    Raises :class:`TriadVerificationError` with the first failing index.
    """
    n = len(a)
    checked = a[::step]
    expected = s * c[:n:step]
    expected += b[:n:step]
    mismatch = checked != expected
    if mismatch.any():
        i = int(np.flatnonzero(mismatch)[0]) * step
        raise TriadVerificationError(i, float(b[i] + s * c[i]), float(a[i]))
    return len(checked)


def _l3_domain_counts(topology: TopologyGraph, core_set) -> dict[str, int]:
    """Cores of ``core_set`` per L3 domain."""
    domains: dict[str, int] = {}
    for c in core_set:
        d = topology.l3_domain_of_core(c)
        domains[d] = domains.get(d, 0) + 1
    return domains


def dataset_level(topology: TopologyGraph, dataset_bytes: int, core_set) -> str:
    """Level that holds a per-core dataset of ``dataset_bytes`` when every
    core of ``core_set`` streams its own copy: L1 and L2 are private, and an
    L3 domain holds the copies of all the set's cores in it."""
    if dataset_bytes <= topology.cache_bytes("L1"):
        return "L1"
    if dataset_bytes <= topology.cache_bytes("L2"):
        return "L2"
    share = max(_l3_domain_counts(topology, core_set).values(), default=1)
    if dataset_bytes * share <= topology.cache_bytes("L3"):
        return "L3"
    return "RAM"


# ---------------------------------------------------------------------------
# Simulated backend


class SimBandwidthBackend:
    """Fixture-table bandwidth: per-core rates with shared caps."""

    name = "simulated"

    def __init__(self, topology: TopologyGraph):
        self.topology = topology
        if not topology.bandwidth:
            raise BandwidthError(
                f"topology '{topology.name}' carries no bandwidth fixture tables"
            )
        (self.frequency_mhz, self.supported, self.read_b_per_cycle, self.l3_cap, self.ram_caps,
         self.triad_per_core, self.triad_caps) = _read_tables(topology)

    # -- read throughput -------------------------------------------------------

    def read_rate_gbps(self, kernel_name: str, level: str, core_set) -> float:
        per_core_bpc = self.read_b_per_cycle[level][kernel_name]
        per_core_gbps = per_core_bpc * self.frequency_mhz / 1000.0
        if level in ("L1", "L2"):
            return per_core_gbps * len(core_set)
        if level == "L3":
            total = 0.0
            for _domain, n in sorted(_l3_domain_counts(self.topology, core_set).items()):
                total += min(n * per_core_gbps, self.l3_cap)
            return total
        return self._memory_gbps(core_set, per_core_gbps, *self.ram_caps)

    def _memory_gbps(self, core_set, per_core: float, ccd_cap, node_cap, socket_cap) -> float:
        """Capped sum of ``per_core`` GB/s over the memory path: per compute
        die (chiplet graphs with a ``ccd_cap``), then per memory node, then
        per socket."""
        g = self.topology
        per_node: dict[int, float] = {}
        if g.kind is GraphKind.CHIPLET_IF and ccd_cap is not None:
            per_die: dict[tuple, int] = {}
            for c in core_set:
                n = g.core(c)
                key = (n.socket, n.numa_node, n.ccd)
                per_die[key] = per_die.get(key, 0) + 1
            for (_sock, node, _ccd), n in sorted(per_die.items()):
                per_node[node] = per_node.get(node, 0.0) + min(n * per_core, ccd_cap)
        else:
            for c in core_set:
                node = g.node_of_core(c)
                per_node[node] = per_node.get(node, 0.0) + per_core
        per_socket: dict[int, float] = {}
        for node, bw in sorted(per_node.items()):
            sock = g.memory_controller(node).socket
            per_socket[sock] = per_socket.get(sock, 0.0) + min(bw, node_cap)
        return sum(min(bw, socket_cap) for bw in per_socket.values())

    def run_read(self, kernel_name: str, dataset_bytes: int, core_set) -> BandwidthRecord:
        actual, degraded_from = resolve_kernel(kernel_name, self.supported)
        level = dataset_level(self.topology, dataset_bytes, core_set)
        gbps = self.read_rate_gbps(actual, level, core_set)
        flags = ("width_degraded",) if degraded_from else ()
        return BandwidthRecord.from_rate(
            kernel=actual,
            dataset_bytes=dataset_bytes,
            core_set=core_set,
            level=level,
            bandwidth_gbps=gbps,
            frequency_mhz=self.frequency_mhz,
            backend=self.name,
            flags=flags,
            degraded_from=degraded_from,
        )

    # -- triad ------------------------------------------------------------------

    def triad_rate_gbps(self, core_set, nontemporal: bool) -> float:
        per_core = self.triad_per_core * (1.0 if nontemporal else 0.75)
        return self._memory_gbps(core_set, per_core, *self.triad_caps)

    def run_triad(self, array_bytes: int, core_set, nontemporal: bool) -> BandwidthRecord:
        """Triad record priced from the fixture tables; nothing is computed,
        since no field of the record depends on the arithmetic."""
        triad_elements(array_bytes)
        gbps = self.triad_rate_gbps(core_set, nontemporal)
        return BandwidthRecord.from_rate(
            kernel="triad-nt" if nontemporal else "triad",
            dataset_bytes=array_bytes,
            core_set=core_set,
            level="RAM",
            bandwidth_gbps=gbps,
            frequency_mhz=self.frequency_mhz,
            backend=self.name,
            bytes_moved=3 * array_bytes * len(tuple(core_set)),
        )


@functools.lru_cache(maxsize=8)
def _read_tables(topology: TopologyGraph) -> tuple:
    """The topology's ``bandwidth`` object as :class:`SimBandwidthBackend`
    keeps it: the clock, the supported kernels, the read rates by level and
    kernel, the L3-domain cap, the (CCD, node, socket) caps of RAM reads, the
    per-core triad rate and the triad's (CCD, node, socket) caps; an absent
    CCD cap is None and an absent socket cap infinite.  Read once per graph,
    which is immutable, and :func:`~memchar.topology.load_topology_file`
    shares one graph per file."""
    tables = topology.bandwidth
    _known(tables, ("frequency_mhz", "supported_kernels", "read_b_per_cycle",
                    "shared_caps_gbps", "triad_gbps"), "bandwidth")
    frequency_mhz = _positive(_req(tables, "frequency_mhz", "bandwidth"),
                              "bandwidth.frequency_mhz")
    supported = tuple(_entries(tables, "supported_kernels", "bandwidth", str, list(KERNELS)))
    for kernel in supported:
        if kernel not in KERNELS:
            raise SchemaError(f"bandwidth.supported_kernels: unknown kernel {kernel!r}, "
                              f"not one of {', '.join(KERNELS)}")
    reads = _req(tables, "read_b_per_cycle", "bandwidth", dict)
    _known(reads, LEVELS, "bandwidth.read_b_per_cycle")
    read_b_per_cycle = {
        level: _rates(reads, level, "bandwidth.read_b_per_cycle", supported) for level in LEVELS
    }
    caps = _rates(tables, "shared_caps_gbps", "bandwidth", ("l3_domain", "ram_node"),
                  ("ram_ccd", "ram_socket"))
    triad = _rates(tables, "triad_gbps", "bandwidth", ("per_core", "node_cap"),
                   ("ccd_cap", "socket_cap"))
    return (
        frequency_mhz, supported, read_b_per_cycle, caps["l3_domain"],
        (caps.get("ram_ccd"), caps["ram_node"], caps.get("ram_socket", math.inf)),
        triad["per_core"],
        (triad.get("ccd_cap"), triad["node_cap"], triad.get("socket_cap", math.inf)),
    )


def _rates(doc: dict, key: str, ctx: str, required, optional=()) -> dict[str, float]:
    """The ``required`` entries and the present ``optional`` entries of the
    object ``doc[key]``, each a positive finite number; the object holds no
    other name."""
    table = _req(doc, key, ctx, dict)
    where = f"{ctx}.{key}"
    _known(table, (*required, *optional), where)
    names = [*required, *(name for name in optional if name in table)]
    return {name: _positive(_req(table, name, where), f"{where}.{name}") for name in names}


# ---------------------------------------------------------------------------
# Operations


def _validate_core_set(topology: TopologyGraph, core_set, allow_cross_socket: bool):
    cores = tuple(core_set)
    if not cores:
        raise BandwidthError("core set must not be empty")
    if len(set(cores)) != len(cores):
        raise BandwidthError("core set has duplicates")
    sockets = {topology.core(c).socket for c in cores}
    if len(sockets) > 1 and not allow_cross_socket:
        raise BandwidthError(
            "core set crossing sockets rejected in single-node mode"
        )
    return cores


def run_throughput(
    kernel: str,
    dataset_bytes: int,
    core_set,
    repeats: int,
    backend,
    allow_cross_socket: bool = False,
) -> BandwidthRecord:
    """One streaming-read throughput point: the fastest of ``repeats`` runs."""
    if repeats < 1:
        raise BandwidthError(f"repeats must be positive, got {repeats}")
    if dataset_bytes <= 0:
        raise BandwidthError("dataset must be non-empty")
    cores = _validate_core_set(backend.topology, core_set, allow_cross_socket)
    runs = (backend.run_read(kernel, dataset_bytes, cores) for _ in range(repeats))
    return max(runs, key=lambda rec: rec.bandwidth_gbps)


def run_triad(array_bytes: int, core_set, nontemporal: bool, backend) -> BandwidthRecord:
    """STREAM-style triad over three arrays of ``array_bytes`` each; the
    core set may span sockets."""
    cores = _validate_core_set(backend.topology, core_set, allow_cross_socket=True)
    return backend.run_triad(array_bytes, cores, nontemporal)


@dataclass(frozen=True)
class BandwidthSeries:
    labels: tuple[str, ...]
    records: tuple[BandwidthRecord, ...]
    saturation_index: int

    @property
    def saturation_label(self) -> str:
        return self.labels[self.saturation_index]


def scaling_series(
    ladder: Sequence[tuple[str, Sequence[int]]],
    backend,
    kernel: Optional[str] = None,
    dataset_bytes: Optional[int] = None,
    triad_bytes: Optional[int] = None,
    nontemporal: bool = True,
    allow_cross_socket: bool = True,
) -> BandwidthSeries:
    """Bandwidth per ladder rung plus the saturation point.

    The saturation point is the smallest rung within 5% of the series
    maximum.  Rungs are (label, core id list); either a read kernel plus
    dataset size or a triad array size selects the workload.  Each rung is
    one :func:`run_throughput` (one repeat) or :func:`run_triad`, checked as
    a single run is; ``allow_cross_socket`` applies to triad rungs too.
    """
    if not ladder:
        raise BandwidthError("empty core ladder")
    if triad_bytes is None and (kernel is None or dataset_bytes is None):
        raise BandwidthError("scaling series needs a kernel and dataset size")
    records = []
    for label, cores in ladder:
        if triad_bytes is not None:
            _validate_core_set(backend.topology, cores, allow_cross_socket)
            records.append(run_triad(triad_bytes, cores, nontemporal, backend))
        else:
            records.append(run_throughput(kernel, dataset_bytes, cores, 1, backend,
                                          allow_cross_socket=allow_cross_socket))
    peak = max(r.bandwidth_gbps for r in records)
    sat = next(
        i
        for i, r in enumerate(records)
        if r.bandwidth_gbps >= (1.0 - SATURATION_TOLERANCE) * peak
    )
    return BandwidthSeries(
        labels=tuple(l for l, _ in ladder),
        records=tuple(records),
        saturation_index=sat,
    )


def bandwidth_dataset_ladder(topology: TopologyGraph, level: str) -> list[int]:
    """Per-level dataset presets: 1/4x, 1/2x, 1x, 2x of the level capacity."""
    if level == "RAM":
        l3 = topology.cache_bytes("L3")
        return [2 * l3, 4 * l3, 8 * l3, 16 * l3]
    cap = topology.cache_bytes(level)
    return [cap // 4, cap // 2, cap, 2 * cap]
