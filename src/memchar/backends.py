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
on the protocol simulator, and the data source of one read by the
requester must be the kind the latency model expects.  The simulator's
answer depends only on the point's coherence class (the script and the
pattern of its cores and their L3 domains), so each class is replayed once
per backend and later points of the class reuse its source kind; the
comparison with the model still runs per point.  The backend then fills
the whole array with one broadcast of each point's ``model.predict`` times
each chain's access count; ``run_point`` is its one-point sweep.  The
native backend lives in :mod:`memchar.native`.
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
    node and verifies the target state, (2) has the requester perform one
    read to learn which kind of agent supplies the data, cross-checking the
    latency model's expectation, and (3) charges every chase access
    ``model.predict(...)`` cycles.  The zero-cost timer makes calibration
    return 0, so the harness algebra returns the prediction bit-for-bit.

    Steps (1) and (2) run once per coherence class for the life of the
    backend (see :meth:`_class_key`); only a replay that succeeds is kept,
    and step (2)'s comparison runs for every point.  Protocol models are
    built on a class's first replay, one per home node.
    """

    name = "simulated"

    def __init__(self, model: LatencyModel):
        self.model = model
        self.graph = model.graph
        self.frequency_mhz = model.core_mhz
        self._l3_domain_of = self.graph.l3_domains
        self._protocol_models: dict[int, ProtocolModel] = {}
        # Probe source kind of each coherence class replayed so far.
        self._source_kinds: dict[tuple, str] = {}

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

    def _class_key(self, script: CoherenceScript, placement: Placement) -> Optional[tuple]:
        """Everything the replay and the probe read depend on, or None when
        a core is not in the graph (the replay then reports it).

        That is the protocol, steps and target of the script, its worker
        roles, which of the requester and the workers are the same core,
        and which of their L3 domains are the same and in what ``str``
        order: the simulator only compares cores and domains for equality,
        except that MESIF breaks ties between L3 copies by ``str(domain)``.
        The home node only names a RAM source's supplier, which
        :meth:`prepare` never compares, so it is not part of the key.
        """
        cores = (placement.requester, *script.worker_cores.values())
        domains = [self._l3_domain_of.get(c) for c in cores]
        if None in domains:
            return None
        ranked = sorted(set(domains))
        return (
            script.protocol,
            script.steps,
            script.target_state,
            script.target_level,
            tuple(script.worker_cores),
            tuple(map(cores.index, cores)),
            tuple(map(ranked.index, domains)),
        )

    def _replay(self, script: CoherenceScript, placement: Placement) -> str:
        """Source kind of the requester's read after ``script``."""
        pmodel = self._protocol_model(placement)
        try:
            result = verify_script(script, pmodel)
        except Exception as exc:
            raise ScriptPlacementError(f"state preparation failed: {exc}") from exc
        # One probe read by the requester: which agent answers?
        _, source, _ = apply_event(
            pmodel, result.state_map, CacheEvent(placement.requester, Action.READ)
        )
        return source.kind

    def prepare(self, script: CoherenceScript, placement: Placement) -> None:
        key = self._class_key(script, placement)
        known = self._source_kinds.get(key)
        kind = known or self._replay(script, placement)
        expected = self.model.expected_source_kind(
            placement.requester,
            placement.home_node,
            self._forwarder_arg(placement),
            script.target_state,
            script.target_level,
        )
        if kind != expected:
            raise ScriptPlacementError(
                f"simulator sourced {script.target_state.value}@{script.target_level} "
                f"from {kind}, model expects {expected}"
            )
        if known is None and key is not None:
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
