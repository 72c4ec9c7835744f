"""Test oracles: a fake clock backend and the single-owner invariant."""

import numpy as np

from memchar.coherence import OWNERSHIP_STATES


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


def check_single_owner(state_map) -> bool:
    """At most one cache system-wide holds the line in M, E, O, or F."""
    return sum(k != "mem" and v.state in OWNERSHIP_STATES for k, v in state_map.items()) <= 1
