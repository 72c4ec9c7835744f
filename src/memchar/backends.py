"""Measurement backends.

Every backend exposes the same narrow surface the harness drives:

* ``name`` and ``frequency_mhz``
* ``time_empty()`` -- one run of the timing routine with zero accesses
* ``run_sweep(chains, points, policy)`` -- the elapsed cycles of every
  chase of every ``(script, placement)`` point, in order, as one float64
  array shaped (points, outer, sizes, inner); the harness knows each
  chain's access count

The simulated backend replays each point's coherence script on the protocol
simulator and checks the resulting state and data source against the latency
model's expectation, point by point, raising at the first point that fails.
It then fills the whole array with one broadcast of each point's
``model.predict`` times each chain's access count; ``run_point`` is its
one-point sweep.  The native backend lives in :mod:`memchar.native`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .coherence import (
    Action,
    CacheEvent,
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
    "ScriptPlacementError",
    "SimulatedBackend",
]


class BackendError(Exception):
    pass


class ScriptPlacementError(BackendError):
    """The script does not produce the state the placement was asked for."""


class SimulatedBackend:
    """Protocol-simulator-backed measurement: deterministic and exact.

    For each point the backend (1) replays the flush + state-preparation
    script from an all-Invalid line on the protocol model of the point's home
    node (built once per home node) and verifies the target state, (2) has
    the requester perform one read to learn which agent supplies the data,
    cross-checking the latency model's expectation, and (3) charges every
    chase access ``model.predict(...)`` cycles.  The zero-cost timer makes
    calibration return 0, so the harness algebra returns the prediction
    bit-for-bit.
    """

    name = "simulated"

    def __init__(self, model: LatencyModel):
        self.model = model
        self.graph = model.graph
        self.frequency_mhz = model.core_mhz
        # One per home node: the simulator only reads a ProtocolModel.
        self._protocol_models: dict[int, ProtocolModel] = {}

    def time_empty(self) -> float:
        return 0.0

    # -- internals ---------------------------------------------------------

    def _protocol_model(self, placement: Placement) -> ProtocolModel:
        home = placement.home_node
        if home not in self._protocol_models:
            self._protocol_models[home] = ProtocolModel.from_topology(
                self.graph, self.model.protocol, home_node=home
            )
        return self._protocol_models[home]

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

    def prepare(self, script: CoherenceScript, placement: Placement):
        pmodel = self._protocol_model(placement)
        try:
            result = verify_script(script, pmodel)
        except Exception as exc:
            raise ScriptPlacementError(f"state preparation failed: {exc}") from exc
        # One probe read by the requester: which agent answers?
        _, source, _ = apply_event(
            pmodel, dict(result.state_map), CacheEvent(placement.requester, Action.READ)
        )
        expected = self.model.expected_source_kind(
            placement.requester,
            placement.home_node,
            self._forwarder_arg(placement),
            script.target_state,
            script.target_level,
        )
        if source is not None and source.kind != expected:
            raise ScriptPlacementError(
                f"simulator sourced {script.target_state.value}@{script.target_level} "
                f"from {source.kind}, model expects {expected}"
            )
        return result

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
