"""Test oracles: fake clock backends, a synthetic protocol model, each
protocol's states, the single-owner invariant and a route's switch count."""

import numpy as np

from memchar.coherence import OWNERSHIP_STATES, CoherenceState, ProtocolModel
from memchar.topology import NodeRole


def protocol_model(protocol, cores, cores_per_domain=4) -> ProtocolModel:
    """Synthetic model: consecutive cores grouped into L3 domains."""
    cores = tuple(cores)
    domains = {c: f"d{i // cores_per_domain}" for i, c in enumerate(cores)}
    return ProtocolModel(protocol, cores, domains)


class SyntheticBackend:
    """Deterministic fake clock: `overhead + cost_per_access * n` per chase."""

    name = "synthetic"

    def __init__(self, cost_per_access=10.0, timer_overhead=0.0, frequency_mhz=1000.0):
        self.cost_per_access = cost_per_access
        self.timer_overhead = timer_overhead
        self.frequency_mhz = frequency_mhz

    def time_empty(self):
        return self.timer_overhead

    def run_sweep(self, chains, points, policy):
        n = np.array([c.element_count for c in chains], dtype=np.float64)[:, None]
        return np.broadcast_to(
            self.timer_overhead + self.cost_per_access * n,
            (len(points), policy.outer_repeats, len(chains), policy.inner_repeats),
        )


class ReplayBackend:
    """Backend whose sweep took the given elapsed cycles: ``elapsed`` is the
    (points, outer, sizes, inner) array ``run_sweep`` returns as is."""

    name = "replay"
    frequency_mhz = 1000.0

    def __init__(self, elapsed, overhead=0.0):
        self.elapsed = elapsed
        self.overhead = overhead

    def time_empty(self):
        return self.overhead

    def run_sweep(self, chains, points, policy):
        return self.elapsed


def protocol_states(protocol) -> tuple:
    """The states of ``protocol``: M, O, E, S, I for MOESI and M, E, S, F, I
    for MESIF."""
    return tuple(s for s in CoherenceState if s.valid_for(protocol))


def check_single_owner(state_map) -> bool:
    """At most one cache system-wide holds the line in M, E, O, or F."""
    return sum(k != "mem" and v.state in OWNERSHIP_STATES for k, v in state_map.items()) <= 1


def switch_count(graph, path) -> int:
    """Interconnect-switch nodes on ``path`` (an ``if_path`` route): the
    reference ``switch_hops_to_memory`` must equal."""
    return sum(1 for n in path.nodes if graph.nodes[n].role is NodeRole.IF_SWITCH)
