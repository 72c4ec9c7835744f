"""memchar: memory-hierarchy characterization toolkit.

Latency and bandwidth benchmarking with controlled cache-coherence states,
backed by a deterministic protocol simulator plus an analytic interconnect
latency model, so every procedure is testable at desk scale and runnable
natively on x86 servers.
"""

from .chain import ChainBuffer, generate_chain
from .coherence import (
    CoherenceScript,
    CoherenceState,
    Protocol,
    ProtocolModel,
    plan_state,
    simulate,
)
from .harness import (
    MeasurementPolicy,
    MeasurementRecord,
    calibrate_overhead,
    cycles_to_ns,
    flush_scratch_bytes,
    measure_latency,
    measure_sweep,
)
from .model import LatencyModel, compare, fit, load_fixture_model
from .topology import (
    PlacementScope,
    TopologyGraph,
    enumerate_placements,
    load_topology,
    mesh_hops,
)

__version__ = "0.1.0"

__all__ = [
    "ChainBuffer",
    "CoherenceScript",
    "CoherenceState",
    "LatencyModel",
    "MeasurementPolicy",
    "MeasurementRecord",
    "PlacementScope",
    "Protocol",
    "ProtocolModel",
    "TopologyGraph",
    "calibrate_overhead",
    "compare",
    "cycles_to_ns",
    "enumerate_placements",
    "fit",
    "flush_scratch_bytes",
    "generate_chain",
    "load_fixture_model",
    "load_topology",
    "measure_latency",
    "measure_sweep",
    "mesh_hops",
    "plan_state",
    "simulate",
]
