"""Measurement backends.

Every backend exposes the same narrow surface the harness drives:

* ``name`` and ``frequency_mhz``
* ``time_empty()`` -- one run of the timing routine with zero accesses
* ``run_sweep(chains, points, policy)`` -- the elapsed cycles of every
  chase of every ``(script, placement)`` point, in order, as one float64
  array shaped (points, outer, sizes, inner); the harness knows each
  chain's access count

The simulated backend checks every point, in order, raising at the first
point that fails: the point's coherence script must reach its target state
on the protocol simulator, and one read by the requester on the state map
the script leaves must be supplied by the kind of agent (a core's cache,
an L3 domain or home memory) the latency model expects.  The backend holds
one protocol model for every point, since the simulator names home memory
``"mem"`` whatever the home node.  The simulator's answer depends only on
the point's coherence class (the script and the pattern of its cores and
their L3 domains), so the backend keeps one memo, the source kind of each
class it has replayed, and replays a class once; every point's kind is
still compared with the model's.  The memo is keyed by value: a class key
holds the script's step tuple itself, so equal steps from separately
planned sweeps share a class.  The backend then fills the whole array
with one broadcast of each point's ``model.predict`` times each chain's
access count; the model memoizes the locality class of each core pair it
has priced, and reads switch hops from the topology's table.  ``run_point``
is the one-point sweep.  The native backend lives in :mod:`memchar.native`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .coherence import (
    Action,
    CoherenceScript,
    ProtocolModel,
    apply_event,
    verify_script,
)
from .harness import MeasurementPolicy
from .model import LatencyModel
from .topology import Placement

__all__ = [
    "BackendError",
    "PinningError",
    "ScriptPlacementError",
    "SimulatedBackend",
]


class BackendError(Exception):
    pass


class PinningError(BackendError):
    """A worker thread could not be pinned to its core (native backend)."""


class ScriptPlacementError(BackendError):
    """The script does not produce the state the placement was asked for."""


class SimulatedBackend:
    """Protocol-simulator-backed measurement: deterministic and exact.

    For each point the backend (1) replays the flush + state-preparation
    script from an all-Invalid line on its one protocol model and verifies the
    target state, (2) has the requester perform one read on the resulting
    state map to learn which kind of agent supplies the data,
    cross-checking the latency model's expectation, and (3) charges every
    chase access ``model.predict(...)`` cycles.  The zero-cost timer makes calibration
    return 0, so the harness algebra returns the prediction bit-for-bit.

    Step (1) and the read of step (2) run once per coherence class for the
    life of the backend (see :meth:`_class_key`); only passing classes are
    kept.
    """

    name = "simulated"

    def __init__(self, model: LatencyModel):
        self.model = model
        self.graph = model.graph
        self.frequency_mhz = model.core_mhz
        self._protocol_model = ProtocolModel.from_topology(self.graph)
        # Probe source kind of each coherence class replayed so far; only
        # passing points are remembered.
        self._source_kinds: dict[tuple, str] = {}

    def time_empty(self) -> float:
        return 0.0

    # -- internals ---------------------------------------------------------

    def _forwarder_arg(self, placement: Placement) -> Optional[int]:
        if placement.owner == placement.requester:
            return None
        return placement.owner

    def predict_placement(self, placement: Placement, state, level: str) -> float:
        return self.model.predict(
            placement.requester,
            placement.home_node,
            self._forwarder_arg(placement),
            state,
            level,
        )

    def _class_key(self, script: CoherenceScript, placement: Placement) -> Optional[tuple]:
        """Everything the replay and the probe read depend on, or None when
        a core is not in the graph (the replay then reports it).

        That is the protocol, step tuple and target of the script, its
        worker roles, and which of the requester and the workers are the
        same core and which of their L3 domains are the same: the simulator
        only compares cores and domains for equality.  The simulator does
        not see the home node, so it is not part of the key.
        """
        cores = (placement.requester, *script.worker_cores.values())
        domains = tuple(map(self._protocol_model.l3_domain_of.get, cores))
        if None in domains:
            return None
        return (
            script.protocol,
            script.steps,
            script.target_state,
            script.target_level,
            tuple(script.worker_cores),
            tuple(map(cores.index, cores)),
            tuple(map(domains.index, domains)),
        )

    def _replay(self, script: CoherenceScript, placement: Placement) -> str:
        """Source kind of the requester's read after ``script``."""
        try:
            state_map = verify_script(script, self._protocol_model)
        except Exception as exc:
            raise ScriptPlacementError(f"state preparation failed: {exc}") from exc
        # One probe read by the requester: which agent answers?
        _, source, _ = apply_event(
            self._protocol_model, state_map, placement.requester, Action.READ
        )
        return source.kind

    def prepare(self, script: CoherenceScript, placement: Placement) -> None:
        key = self._class_key(script, placement)
        kind = self._source_kinds.get(key) or self._replay(script, placement)
        state, level = script.target_state, script.target_level
        expected = self.model.expected_source_kind(
            placement.requester, self._forwarder_arg(placement), state, level
        )
        if kind != expected:
            raise ScriptPlacementError(
                f"simulator sourced {state.value}@{level} from {kind}, model expects {expected}"
            )
        if key is not None:
            self._source_kinds[key] = kind

    def run_sweep(self, chains, points, policy: MeasurementPolicy):
        per_access = []
        for script, placement in points:
            self.prepare(script, placement)
            per_access.append(
                self.predict_placement(placement, script.target_state, script.target_level)
            )
        n = np.array([c.element_count for c in chains], dtype=np.float64)[:, None]
        cycles = np.array(per_access, dtype=np.float64)[:, None, None, None] * n
        return np.broadcast_to(
            cycles, (len(points), policy.outer_repeats, len(chains), policy.inner_repeats)
        )

    def run_point(self, chains, script, placement, policy: MeasurementPolicy):
        return self.run_sweep(chains, [(script, placement)], policy)[0]
