"""Latency measurement harness.

The measurement protocol, independent of backend:

1. pin requester / owner (/ helper) workers per the placement,
2. flush the policy's ``flush_levels`` (all of L1/L2/L3 unless a
   ``MEMCHAR_FLUSH_L1/L2/L3`` variable is 0) from the requester's cache path
   with a scratch sweep of :func:`flush_scratch_bytes` bytes,
3. drive the line into the requested coherence state with a script,
4. time serialized pointer chases over the chain,
5. subtract the calibrated timing overhead and reduce the sample matrix.

A reported point aggregates ``outer_repeats x sizes_per_level x
inner_repeats`` samples (default 10x4x3 = 120); the default reducer is the
minimum, with median recommended for noisy remote-L1 configurations.

A sweep is an ordered list of ``(script, placement)`` points over one set
of chains.  :func:`measure_sweep` calibrates the timing overhead once per
point, then makes one backend call, ``run_sweep``, which returns the raw
timings of every point as one float64 array of elapsed cycles per chase,
shaped (points, outer, sizes, inner).  The overhead/normalization algebra,
the reduction and the conversion to Python floats run once over that
array, as numpy operations, so the same arithmetic applies to native and
simulated runs alike.  A point whose minimum sample equals its maximum
(every simulated point) holds one value: every such point of a sweep with
that value shares one ``(value,) * width`` samples tuple, and its minimum,
maximum, median and reduced latency are that tuple's float, with no
per-sample conversion.  That is the only place samples are reduced;
:func:`measure_latency` is the one-point sweep.

Shared work in a simulated sweep is created in two places and recognised
in two.  The planner (``cli._latency_points``) gives every placement of
one core pattern one step tuple, and :func:`measure_sweep` gives every
point of one value one samples tuple and one float.  The simulated
backend's class key numbers each step tuple object once, equal tuples
sharing a number (so separately planned sweeps share classes), and the
latency CSV writer keys each row's value block by the ids of its samples
and value objects.

Records are built in one step each.  The fields every point of a sweep
shares (sizes, frequency, backend, alignment, huge pages, seed, reducer)
are gathered once into a dict in field order; each record is a bare
``MeasurementRecord`` whose ``__dict__`` is that dict with the point's own
fields filled in, then checked by ``__post_init__``.  It equals, hashes,
prints and ``dataclasses.replace``-s like ``MeasurementRecord(**fields)``
and stays frozen; the keyword constructor's 17 frozen attribute stores
cost more than the sweep's numpy algebra.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .chain import ChainBuffer
from .coherence import LEVELS, CoherenceScript, WorkerRole
from .topology import Placement, TopologyGraph

__all__ = [
    "LEVELS",
    "HarnessError",
    "AggregationError",
    "PolicyError",
    "MeasurementPolicy",
    "MeasurementRecord",
    "calibrate_overhead",
    "cycles_to_ns",
    "flush_scratch_bytes",
    "measure_latency",
    "measure_sweep",
    "level_dataset_bytes",
    "auto_helper",
    "policy_from_env",
]

ENV_ALIGNMENT = "MEMCHAR_ALIGNMENT"
ENV_HUGEPAGES = "MEMCHAR_HUGEPAGES"
ENV_FLUSH = {"L1": "MEMCHAR_FLUSH_L1", "L2": "MEMCHAR_FLUSH_L2", "L3": "MEMCHAR_FLUSH_L3"}
# Every variable policy_from_env reads; a run's manifest records each.
ENV_VARS = (ENV_ALIGNMENT, ENV_HUGEPAGES, *ENV_FLUSH.values())
# Timings of the empty timing routine whose minimum is a point's overhead.
CALIBRATION_REPEATS = 10


class HarnessError(Exception):
    pass


class AggregationError(HarnessError):
    pass


class PolicyError(HarnessError):
    pass


@dataclass(frozen=True)
class MeasurementPolicy:
    """Sampling shape, reduction and flushed cache levels for one reported
    point."""

    inner_repeats: int = 3
    outer_repeats: int = 10
    sizes_per_level: int = 4
    reducer: str = "min"
    flush_levels: frozenset = frozenset({"L1", "L2", "L3"})

    def __post_init__(self):
        if min(self.inner_repeats, self.outer_repeats, self.sizes_per_level) < 1:
            raise PolicyError("policy repeat counts must be positive")
        if self.reducer not in ("min", "max", "median"):
            raise PolicyError(f"unknown reducer {self.reducer!r}")
        if not self.flush_levels <= {"L1", "L2", "L3"}:
            raise PolicyError(f"flush_levels must be within L1/L2/L3")


def policy_from_env(**overrides) -> tuple[MeasurementPolicy, int, bool]:
    """(policy, alignment, huge_pages) honoring the MEMCHAR_* variables."""
    raw = os.environ.get(ENV_ALIGNMENT, "512")
    try:
        alignment = int(raw)
    except ValueError:
        raise PolicyError(f"{ENV_ALIGNMENT}={raw!r} is not an integer") from None
    huge = os.environ.get(ENV_HUGEPAGES, "1") not in ("0", "off", "false")
    flush = frozenset(
        lv for lv, var in ENV_FLUSH.items() if os.environ.get(var, "1") not in ("0",)
    )
    policy = MeasurementPolicy(flush_levels=flush, **overrides)
    return policy, alignment, huge


def _sample_grid(samples, policy: MeasurementPolicy, points: int) -> np.ndarray:
    """``samples`` as a float64 array shaped (points, outer, sizes, inner)
    by the policy; empty, ragged or misshapen input is rejected."""
    try:
        grid = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError):
        raise AggregationError("ragged sample set") from None
    if grid.size == 0:
        raise AggregationError("empty sample set")
    shape = (points, policy.outer_repeats, policy.sizes_per_level, policy.inner_repeats)
    if grid.shape != shape:
        raise AggregationError(
            f"sample shape {grid.shape} != policy (points, outer, sizes, inner) {shape}"
        )
    return grid


def _order_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(minimum, maximum, median) of each row of a (points, samples) array;
    the median is the lower of the two middles for even counts."""
    ordered = np.sort(samples, axis=1)
    return ordered[:, 0], ordered[:, -1], ordered[:, (ordered.shape[1] - 1) // 2]


def cycles_to_ns(cycles: float, frequency_mhz: float) -> float:
    """Exact unit relation: ns = cycles * 1000 / MHz."""
    if frequency_mhz <= 0:
        raise HarnessError(f"frequency must be positive, got {frequency_mhz}")
    return cycles * 1000.0 / frequency_mhz


@dataclass(frozen=True)
class MeasurementRecord:
    """One reported latency point with its full sample set and environment."""

    placement: Placement
    state: str
    level: str
    dataset_bytes: int
    dataset_sizes: tuple[int, ...]
    latency_cycles: float  # policy-reduced value
    min_cycles: float
    max_cycles: float
    median_cycles: float
    samples: tuple[float, ...]
    frequency_mhz: float
    backend: str
    alignment: int
    huge_pages: bool
    seed: int
    overhead_cycles: float
    reducer: str

    def __post_init__(self):
        if self.latency_cycles < 0:
            raise HarnessError("latency must be non-negative after overhead subtraction")


def calibrate_overhead(backend) -> float:
    """Minimum over :data:`CALIBRATION_REPEATS` runs of the timing routine
    with no accesses."""
    return min(backend.time_empty() for _ in range(CALIBRATION_REPEATS))


def _validate_placement(placement: Placement, script: CoherenceScript) -> None:
    if script.owner != placement.owner:
        raise HarnessError(
            f"script targets core {script.owner}, placement owner is {placement.owner}"
        )
    requester = script.worker_cores.get(WorkerRole.REQUESTER_0)
    if requester is not None and requester != placement.requester:
        raise HarnessError(
            f"script prepares for requester {requester}, placement requester is "
            f"{placement.requester}"
        )
    helper = script.helper
    if helper is not None and helper == placement.owner:
        raise HarnessError("helper must be a third core, distinct from the owner")
    # requester == owner is the local case (matrix diagonals included).


def measure_latency(
    chain: Union[ChainBuffer, Sequence[ChainBuffer]],
    script: CoherenceScript,
    placement: Placement,
    policy: MeasurementPolicy,
    backend,
) -> MeasurementRecord:
    """Timed pointer chase for one placement/state/level point: the
    one-point case of :func:`measure_sweep`.

    ``chain`` is one buffer or one buffer per dataset size.
    """
    chains = (chain,) if isinstance(chain, ChainBuffer) else tuple(chain)
    return measure_sweep(chains, [(script, placement)], policy, backend)[0]


def measure_sweep(
    chains: Sequence[ChainBuffer],
    points: Sequence[tuple[CoherenceScript, Placement]],
    policy: MeasurementPolicy,
    backend,
) -> list[MeasurementRecord]:
    """One record per ``(script, placement)`` point, in order, all timed
    over the same chains, one per dataset size (the policy's
    ``sizes_per_level`` must match).

    Latency per access is ``(elapsed - overhead) / element_count`` with the
    overhead taken as the point's calibrated minimum; reduction follows the
    policy.  The backend times every point in one ``run_sweep`` call, and
    the arithmetic runs once over the whole (points, outer, sizes, inner)
    array.
    """
    if len(chains) != policy.sizes_per_level:
        raise PolicyError(
            f"{len(chains)} chains given, policy expects sizes_per_level="
            f"{policy.sizes_per_level}"
        )
    alignments = {c.stride_alignment for c in chains}
    seeds = {c.seed for c in chains}
    if len(alignments) != 1 or len(seeds) != 1:
        raise HarnessError("all chains of a point must share alignment and seed")
    for script, placement in points:
        _validate_placement(placement, script)
    if not points:
        return []

    overheads = [calibrate_overhead(backend) for _ in points]
    elapsed = _sample_grid(backend.run_sweep(chains, points, policy), policy, len(points))
    excess = elapsed - np.array(overheads)[:, None, None, None]
    accesses = np.array([c.element_count for c in chains], dtype=np.float64)[:, None]
    # max(0, e - o) / n per sample: np.maximum would keep a -0.0, max() does not.
    samples = (np.where(excess > 0.0, excess, 0.0) / accesses).reshape(len(points), -1)
    lows, highs, mids = (a.tolist() for a in _order_stats(samples))
    reduced = {"min": lows, "max": highs, "median": mids}[policy.reducer]
    sizes = tuple(c.total_bytes for c in chains)
    # Each record's __dict__ is the one MeasurementRecord(**fields) leaves:
    # the sweep's shared fields, in field order, with the point's own filled
    # in, made without the 17 frozen-dataclass attribute stores.
    shared = dict.fromkeys(f.name for f in fields(MeasurementRecord))
    shared.update(
        dataset_bytes=max(sizes),
        dataset_sizes=sizes,
        frequency_mhz=backend.frequency_mhz,
        backend=backend.name,
        alignment=chains[0].stride_alignment,
        huge_pages=all(c.huge_pages for c in chains),
        seed=chains[0].seed,
        reducer=policy.reducer,
    )
    width = samples.shape[1]
    constant_rows: dict[float, tuple] = {}
    records = []
    for i, (script, placement) in enumerate(points):
        lo = lows[i]
        if lo == highs[i]:
            # No sample is -0.0 (see above), so the row holds one value, bit
            # for bit, and every point of that value shares one tuple.
            row = constant_rows.get(lo) or constant_rows.setdefault(lo, (lo,) * width)
            lo = hi = mid = value = row[0]
        else:
            row = tuple(samples[i].tolist())
            hi, mid, value = highs[i], mids[i], reduced[i]
        record = object.__new__(MeasurementRecord)
        own = record.__dict__
        own.update(shared)
        own["placement"] = placement
        own["state"] = script.target_state.value
        own["level"] = script.target_level
        own["latency_cycles"] = value
        own["min_cycles"] = lo
        own["max_cycles"] = hi
        own["median_cycles"] = mid
        own["samples"] = row
        own["overhead_cycles"] = overheads[i]
        record.__post_init__()
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Cache flushing


def flush_scratch_bytes(topology: TopologyGraph, levels) -> int:
    """Bytes of scratch a backend touches to displace ``levels``: twice the
    summed capacities along the requester's cache path (0 for no levels).
    The inclusive L2 takes L1 content with it, and filling L2 spills the
    victims into L3."""
    levels = frozenset(levels)
    if not levels <= {"L1", "L2", "L3"}:
        raise HarnessError(f"flush levels must be within L1/L2/L3, got {sorted(levels)}")
    return 2 * sum(topology.cache_bytes(lv) for lv in levels)


# ---------------------------------------------------------------------------
# Dataset ladders and helpers


_LEVEL_FRACTIONS = (8, 4, 2, 1)  # capacity / fraction, smallest first
_RAM_MULTIPLES = (2, 4, 8, 16)  # multiples of the L3 domain size


def level_dataset_bytes(topology: TopologyGraph, level: str, count: int = 4) -> list[int]:
    """Power-of-two dataset ladder targeting one memory level."""
    if level not in LEVELS:
        raise HarnessError(f"unknown level {level!r}")
    if level == "RAM":
        l3 = topology.cache_bytes("L3")
        sizes = [m * l3 for m in _RAM_MULTIPLES]
    else:
        cap = topology.cache_bytes(level)
        sizes = [cap // f for f in _LEVEL_FRACTIONS]
    if count > len(sizes):
        raise HarnessError(f"at most {len(sizes)} dataset sizes per level, got {count}")
    return sizes[-count:]


def auto_helper(graph: TopologyGraph, owner: int, requester: int) -> int:
    """Helper-core policy: a sibling in the owner's L3 domain, else any
    other core; required by shared-class state preparation."""
    for c in graph.cores_of_ccx(owner):
        if c not in (owner, requester):
            return c
    for c in graph.cores:
        if c not in (owner, requester):
            return c
    raise HarnessError("no third core available for helper")

