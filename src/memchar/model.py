"""Analytic latency model over a topology graph.

Latency for a placement decomposes into a base term keyed on (memory level,
coherence-state class, locality class) plus one hop cost, the one the
graph's kind charges:

* chiplet graphs price remote-socket RAM reads linearly in I/O-die switch
  traversals, at ``if_switch_ns`` nanoseconds per traversal per direction
  (a plain read crosses every switch twice); intra-socket distances are
  calibrated per-distance classes;
* mesh graphs add a per-hop gradient between requester and owner tiles for
  private-cache (L1/L2) transfers of M/E lines, at
  ``mesh_hop_uncore_cycles`` uncore cycles per hop per direction.

The coherence protocol, the clock frequencies and the rule for clean shared
lines come from the graph, so a model document carries none of them.  The
rule is the protocol simulator's: under MOESI a Shared line held outside
the requester's L3 domain is not forwarded, and home memory answers.

State classes collapse the pairs the source tables report jointly (M/E and
O/S on the chiplet system; S/F on the mesh system, where M and E stay
distinct for remote L1).  Dirty three-party flows (requester, home node,
forwarding node) use a dedicated base table keyed by the effective node:
the home node, unless the requester itself is home, in which case the
forwarding node decides.

Fitting is ordinary least squares on the linear parameterization, with an
explicit rank check and disclosed ridge damping for near-singular systems.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .coherence import LEVELS, CoherenceState, Protocol
from .topology import (
    GraphKind,
    SchemaError,
    TopologyGraph,
    _as,
    _known,
    extra_switch_hops,
    load_topology_file,
    mesh_hops,
    fixture_path,
)

__all__ = [
    "LatencyModel",
    "ModelError",
    "FitError",
    "FitObservation",
    "FitTerm",
    "FitTemplate",
    "FitResult",
    "CompareReport",
    "load_model_file",
    "load_fixture_model",
    "fit",
    "compare",
    "classify_values",
    "SWITCH_HOP_BASES",
    "switch_hop_template",
]

RIDGE_LAMBDA = 1e-9

# Mesh transfers that pay the per-hop gradient: private-cache levels, and the
# state classes of M and E lines.
MESH_GRADIENT_LEVELS = frozenset({"L1", "L2"})
MESH_GRADIENT_CLASSES = frozenset({"M", "E", "ME"})
# The keys a model document of each graph kind reads.  The first three are
# required; the third is the kind's one hop cost, in the unit its name says.
_KEYS = {
    GraphKind.CHIPLET_IF: ("base_cycles", "state_classes", "if_switch_ns",
                           "numa_class_by_extra_hops", "remote_anchor_extra_hops",
                           "triple_base_cycles", "ccx_penalty_cycles"),
    GraphKind.MESH_2D: ("base_cycles", "state_classes", "mesh_hop_uncore_cycles"),
}


class ModelError(Exception):
    pass


class FitError(ModelError):
    pass


class LatencyModel:
    """A model document read against a :class:`TopologyGraph`, with predict.

    The constructor is the one reader of a model document.  A chiplet
    document carries ``base_cycles``, ``state_classes`` and ``if_switch_ns``
    (ns per switch traversal per direction), and may carry
    ``numa_class_by_extra_hops``, ``remote_anchor_extra_hops``,
    ``triple_base_cycles`` and ``ccx_penalty_cycles``.  A mesh document
    carries ``base_cycles``, ``state_classes`` and ``mesh_hop_uncore_cycles``
    (uncore cycles per mesh hop per direction), and needs the topology's
    ``frequencies.uncore_mhz``.  The hop cost is kept in core cycles,
    :attr:`hop_cycles`.

    A key the graph's kind does not read, a missing key, an entry of the
    wrong type (numbers convert as the topology reader converts them: no
    booleans, no fractional integers), a level with neither its own
    ``state_classes`` entry nor ``state_classes.default``, and a CCX penalty
    table that does not cover the graph's largest CCX are each a
    :class:`ModelError` naming the key.  ``protocol``, ``frequencies``,
    ``mesh_gradient_levels`` and ``mesh_gradient_classes`` are unread keys
    like any other: the protocol and the clocks come from the topology, and
    the mesh gradient's scope is fixed.
    """

    def __init__(self, doc: dict, graph: TopologyGraph):
        what = f"a {graph.kind.value} model document"
        try:
            _as(dict, doc, what)
        except SchemaError as exc:
            raise ModelError(str(exc)) from None
        keys = _KEYS[graph.kind]
        _known(doc, keys, what, ModelError)
        missing = [k for k in keys[:3] if k not in doc]
        if missing:
            raise ModelError(f"model document lacks key(s) {', '.join(missing)}")
        self.graph = graph
        self.base = _table(doc, "base_cycles", float, "a number")
        self.state_classes = _table(doc, "state_classes", dict, "an object")
        for level in LEVELS:
            if not (self.state_classes.get(level) or "default" in self.state_classes):
                raise ModelError(f"model lacks state_classes.default, and state_classes has "
                                 f"no {level} entry")
        # Core cycles per hop per direction, converted from the document's unit.
        hop = _scalar(doc, keys[2], float)
        if graph.kind is GraphKind.CHIPLET_IF:
            self.hop_cycles = hop * self.core_mhz / 1000.0
        elif "uncore_mhz" in graph.frequencies:
            self.hop_cycles = hop * self.core_mhz / graph.frequencies["uncore_mhz"]
        else:
            raise ModelError(f"model {keys[2]} counts uncore cycles, but topology "
                             f"'{graph.name}' has no frequencies.uncore_mhz")
        self.numa_class_by_extra_hops = _table(
            doc, "numa_class_by_extra_hops", str, "a class name under an integer key", int
        )
        self.remote_anchor_extra_hops = _scalar(doc, "remote_anchor_extra_hops", int, 0)
        self.triple_base = _table(doc, "triple_base_cycles", float, "a number")
        self.ccx_penalty = _ccx_penalty(doc.get("ccx_penalty_cycles"), graph)
        # Memo of a pure function of the graph and the parameters above:
        # locality class per (requester, owner).  It lives as long as the
        # model, one CLI run.
        self._localities: dict[tuple[int, int], str] = {}
        for key, v in self.base.items():
            if v < 0:
                raise ModelError(f"negative base latency for {key}")

    @property
    def protocol(self) -> Protocol:
        return self.graph.protocol

    @property
    def core_mhz(self) -> float:
        return self.graph.frequencies["core_mhz"]

    # -- classification ------------------------------------------------------

    def state_class(self, level: str, state: CoherenceState) -> str:
        table = self.state_classes.get(level) or self.state_classes["default"]
        try:
            return table[state.value]
        except KeyError:
            raise ModelError(
                f"state {state.value} has no class at level {level}"
            ) from None

    def locality_class(self, requester: int, owner: int) -> str:
        locality = self._localities.get((requester, owner))
        if locality is None:
            locality = self._localities[requester, owner] = self._locality(requester, owner)
        return locality

    def _locality(self, requester: int, owner: int) -> str:
        g = self.graph
        if requester == owner:
            return "local"
        a, b = g.core(requester), g.core(owner)
        if g.kind is GraphKind.CHIPLET_IF:
            if g.l3_domain_of_core(requester) == g.l3_domain_of_core(owner):
                return "same_ccx"
            if (a.socket, a.numa_node) == (b.socket, b.numa_node):
                return "same_ccd"
            if a.socket == b.socket:
                return self._numa_class(requester, b.numa_node)
            return "remote_socket"
        if a.socket != b.socket:
            return "remote_socket"
        return "same_snc" if a.numa_node == b.numa_node else "other_snc"

    def _numa_class(self, requester: int, node: int) -> str:
        extra = extra_switch_hops(self.graph, requester, node)
        table = self.numa_class_by_extra_hops
        if extra in table:
            return table[extra]
        # Pairs farther than the farthest calibrated distance saturate at it.
        if table and extra > max(table):
            return table[max(table)]
        raise ModelError(f"no distance class for {extra} extra switch hops")

    def holder_class(
        self, requester: int, forwarder: Optional[int], state: CoherenceState, level: str
    ) -> Optional[str]:
        """Locality class of the core holding the line (the requester when
        ``forwarder`` is None), or None when home memory answers: an Invalid
        line, the RAM level, or, under MOESI, a Shared line held outside the
        requester's L3 domain (clean lines are not forwarded past it)."""
        if state is CoherenceState.I or level == "RAM":
            return None
        holder = requester if forwarder is None else forwarder
        g = self.graph
        if (
            state is CoherenceState.S
            and g.protocol is Protocol.MOESI
            and g.l3_domain_of_core(holder) != g.l3_domain_of_core(requester)
        ):
            return None
        return self.locality_class(requester, holder)

    def _remote_snc_class(self, home: int) -> str:
        socket = self.graph.memory_controller(home).socket
        local_nodes = self.graph.numa_nodes_of_socket(socket)
        return "remote_near" if home == local_nodes[0] else "remote_far"

    # -- prediction ----------------------------------------------------------

    def _base(self, level: str, cls: str, locality: str) -> float:
        key = f"{level}/{cls}/{locality}"
        try:
            return self.base[key]
        except KeyError:
            raise ModelError(f"model has no base entry {key}") from None

    def _ram_cycles(self, requester: int, home: int) -> float:
        g = self.graph
        req_socket = g.core(requester).socket
        home_socket = g.memory_controller(home).socket
        if g.kind is GraphKind.CHIPLET_IF:
            if req_socket == home_socket:
                cls = (
                    "local"
                    if home == g.node_of_core(requester)
                    else self._numa_class(requester, home)
                )
                return self._base("RAM", "any", cls)
            extra = extra_switch_hops(self.graph, requester, home)
            return self._base("RAM", "any", "remote_socket") + (
                extra - self.remote_anchor_extra_hops
            ) * (2.0 * self.hop_cycles)
        if req_socket == home_socket:
            cls = "local" if home == g.node_of_core(requester) else "other_snc"
            return self._base("RAM", "any", cls)
        return self._base("RAM", "any", self._remote_snc_class(home))

    def _mesh_gradient(self, requester: int, owner: int) -> float:
        hops = mesh_hops(self.graph, self.graph.core(requester).id, self.graph.core(owner).id)
        return 2.0 * hops * self.hop_cycles

    def _ccx_position(self, core: int) -> int:
        return self.graph.cores_of_ccx(core).index(core)

    def predict(
        self,
        requester: int,
        home: int,
        forwarder: Optional[int],
        state: CoherenceState | str,
        level: str,
    ) -> float:
        """Predicted read latency in core cycles.

        ``forwarder`` is the core holding the line; None means the requester
        holds it, so ``home`` then matters only for an Invalid line or the
        RAM level.  A forwarder whose node differs from ``home`` selects the
        dirty three-party flow.
        """
        state = CoherenceState(state)
        if level not in LEVELS:
            raise ModelError(f"unknown level {level!r}")
        if not state.valid_for(self.protocol):
            raise ModelError(f"state {state.value} not valid under {self.protocol.value}")
        g = self.graph
        if forwarder == requester:
            raise ModelError("illegal tuple: forwarder given for local access")
        if forwarder is not None and g.node_of_core(forwarder) != home:
            return self._predict_triple(requester, home, forwarder, state, level)

        locality = self.holder_class(requester, forwarder, state, level)
        if locality is None:
            return self._ram_cycles(requester, home)
        # Past this point a locality other than "local" has a forwarder.
        cls = self.state_class(level, state)
        value = self._base(level, cls, locality)
        if g.kind is GraphKind.CHIPLET_IF:
            if (
                locality == "same_ccx"
                and self.ccx_penalty is not None
                and level in ("L1", "L2")
            ):
                value += self.ccx_penalty[self._ccx_position(requester)][
                    self._ccx_position(forwarder)
                ]
        else:
            if (
                locality in ("same_snc", "other_snc")
                and level in MESH_GRADIENT_LEVELS
                and cls in MESH_GRADIENT_CLASSES
            ):
                value += self._mesh_gradient(requester, forwarder)
        return value

    def _predict_triple(
        self, requester: int, home: int, forwarder: int, state: CoherenceState, level: str
    ) -> float:
        if self.graph.kind is not GraphKind.CHIPLET_IF:
            raise ModelError("three-party flows are modeled on chiplet graphs only")
        if state is not CoherenceState.M:
            raise ModelError("forwarder is only legal for dirty-remote (Modified) lines")
        g = self.graph
        req_node = g.node_of_core(requester)
        fwd_node = g.node_of_core(forwarder)
        if g.core(forwarder).socket != g.core(requester).socket:
            raise ModelError("three-party flow fixture covers one socket")
        # The home node decides the latency unless the requester itself is
        # home; then the forwarding node does.
        effective = home if home != req_node else fwd_node
        cls = self.state_class(level, state)
        key = f"{level}/{cls}/{self._numa_class(requester, effective)}"
        try:
            return self.triple_base[key]
        except KeyError:
            raise ModelError(f"no three-party base entry {key}") from None

    def expected_source_kind(
        self, requester: int, forwarder: Optional[int], state: CoherenceState, level: str
    ) -> str:
        """Which memory agent should supply the data ("cache"|"l3"|"ram"),
        for the holder :meth:`predict` charges."""
        state = CoherenceState(state)
        locality = self.holder_class(requester, forwarder, state, level)
        if locality is None:
            return "ram"
        if level == "L3":
            return "l3"
        if self.protocol is Protocol.MESIF and state in (
            CoherenceState.S,
            CoherenceState.F,
        ) and locality != "local":
            return "l3"
        return "cache"


def _table(doc: dict, key: str, value, expected: str, key_type=str) -> dict:
    """``doc[key]`` (empty when absent), an object whose keys ``key_type``
    and values ``value`` convert as the topology reader's ``_as`` converts;
    anything else is a :class:`ModelError` naming the key and the entry."""
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        raise ModelError(f"model {key} must be an object, got {type(raw).__name__}")
    table = {}
    for k, v in raw.items():
        try:
            table[_as(key_type, k, key)] = _as(value, v, key)
        except SchemaError:
            raise ModelError(f"model {key} entry {k!r} must be {expected}, got {v!r}") from None
    return table


def _scalar(doc: dict, key: str, kind, default=None):
    """``doc[key]`` (``default`` when absent) converted by ``kind`` as the
    topology reader's ``_as`` does; a value it does not take is a
    :class:`ModelError` naming the key."""
    try:
        return _as(kind, doc.get(key, default), f"model {key}")
    except SchemaError as exc:
        raise ModelError(str(exc)) from None


def _ccx_penalty(raw, graph: TopologyGraph) -> Optional[list[list[float]]]:
    """``ccx_penalty_cycles`` (None when absent): rows of numbers, indexed by
    the requester's and the forwarder's positions in their CCX, covering
    every position of the graph's largest CCX."""
    if raw is None:
        return None
    size = max(Counter(graph.l3_domains.values()).values())
    try:
        rows = [[_as(float, x, "") for x in _as(list, row, "")] for row in _as(list, raw, "")]
    except SchemaError:
        rows = []
    if len(rows) < size or any(len(row) < size for row in rows):
        raise ModelError(f"model ccx_penalty_cycles must be rows of numbers covering the "
                         f"{size} core positions of the largest CCX, got {raw!r}")
    return rows


def load_model_file(path: str | Path, graph: TopologyGraph) -> LatencyModel:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise ModelError(f"{path}: not a JSON document: {exc}") from None
    return LatencyModel(doc, graph)


def load_fixture_model(name: str) -> LatencyModel:
    """Load a shipped (topology, model) fixture pair by system name."""
    graph = load_topology_file(fixture_path(f"{name}.json"))
    return load_model_file(fixture_path(f"{name}_latency_model.json"), graph)


# ---------------------------------------------------------------------------
# Fitting


@dataclass(frozen=True)
class FitObservation:
    """One measured point the design matrix is built from."""

    requester: int
    home: int
    cycles: float
    forwarder: Optional[int] = None
    state: str = ""
    level: str = "RAM"


@dataclass(frozen=True)
class FitTerm:
    name: str
    coeff: Callable[[FitObservation], float]


@dataclass(frozen=True)
class FitTemplate:
    """A linear parameterization: cycles = sum(param[i] * coeff_i(obs))."""

    name: str
    terms: tuple[FitTerm, ...]

    def design_row(self, obs: FitObservation) -> list[float]:
        return [t.coeff(obs) for t in self.terms]


@dataclass
class FitResult:
    template: FitTemplate
    params: dict[str, float]
    residuals: np.ndarray
    rank: int
    ridge_used: bool
    observations: list[FitObservation]

    def predict_observation(self, obs: FitObservation) -> float:
        return float(
            sum(self.params[t.name] * t.coeff(obs) for t in self.template.terms)
        )

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residuals))) if len(self.residuals) else 0.0

    def report(self) -> str:
        lines = [f"fit template: {self.template.name}"]
        for name, value in self.params.items():
            lines.append(f"  {name} = {value!r}")
        lines.append(f"  rank = {self.rank}/{len(self.template.terms)}")
        if self.ridge_used:
            lines.append(f"  ridge damping applied (lambda={RIDGE_LAMBDA})")
        lines.append("  per-entry residuals:")
        for obs, r in zip(self.observations, self.residuals):
            lines.append(
                f"    req={obs.requester} home={obs.home} "
                f"measured={obs.cycles!r} residual={float(r)!r}"
            )
        lines.append(f"  max_abs_residual = {self.max_abs_residual!r}")
        return "\n".join(lines) + "\n"


def fit(template: FitTemplate, observations: Sequence[FitObservation]) -> FitResult:
    """Ordinary least squares via normal equations.

    Raises :class:`FitError` on a rank-deficient design matrix, naming the
    unidentifiable parameters.  Near-singular but full-rank systems are
    solved with ridge damping, disclosed in the result.
    """
    obs = list(observations)
    p = len(template.terms)
    if len(obs) < p:
        raise FitError(
            f"{len(obs)} observations cannot identify {p} parameters"
        )
    X = np.array([template.design_row(o) for o in obs], dtype=float)
    y = np.array([o.cycles for o in obs], dtype=float)
    rank = int(np.linalg.matrix_rank(X))
    if rank < p:
        _, _, vt = np.linalg.svd(X)
        null_mix = np.abs(vt[rank:]).sum(axis=0)
        bad = [t.name for t, m in zip(template.terms, null_mix) if m > 1e-9]
        raise FitError(f"rank-deficient design matrix; unidentifiable parameters: {bad}")
    xtx = X.T @ X
    xty = X.T @ y
    ridge_used = False
    cond = np.linalg.cond(xtx)
    if not np.isfinite(cond) or cond > 1e12:
        xtx = xtx + RIDGE_LAMBDA * np.eye(p)
        ridge_used = True
    beta = np.linalg.solve(xtx, xty)
    residuals = X @ beta - y
    return FitResult(
        template=template,
        params={t.name: float(b) for t, b in zip(template.terms, beta)},
        residuals=residuals,
        rank=rank,
        ridge_used=ridge_used,
        observations=obs,
    )


# Base-term name of each switch-hop template: ``ram_hops`` fits the RAM rows
# of one socket, ``remote_socket`` cross-socket observations.
SWITCH_HOP_BASES = {"ram_hops": "base_ram_cycles", "remote_socket": "base_remote_cycles"}


def switch_hop_template(graph: TopologyGraph, name: str) -> FitTemplate:
    """cycles = base + 2 * extra_switch_hops * switch_ns * f_core, with the
    base term named after the template (:data:`SWITCH_HOP_BASES`); the switch
    term is the round trip over the extra switches."""
    ghz = graph.frequencies["core_mhz"] / 1000.0
    return FitTemplate(
        name=name,
        terms=(
            FitTerm(SWITCH_HOP_BASES[name], lambda o: 1.0),
            FitTerm(
                "if_switch_ns",
                lambda o: 2.0 * extra_switch_hops(graph, o.requester, o.home) * ghz,
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Comparison


def classify_values(
    values: dict, tolerance: float = 1.0
) -> list[tuple[float, list]]:
    """Group keys into latency classes by value; classes sorted ascending."""
    classes: list[tuple[float, list]] = []
    for key, v in sorted(values.items(), key=lambda kv: (kv[1], str(kv[0]))):
        if classes and abs(v - classes[-1][0]) <= tolerance:
            classes[-1][1].append(key)
        else:
            classes.append((v, [key]))
    return classes


@dataclass
class CompareReport:
    entries: list[tuple[FitObservation, float, float]]  # (obs, predicted, error)
    classes: list[tuple[float, list]]
    max_abs: float
    mean_abs: float
    ordering_consistent: bool

    def render(self) -> str:
        lines = [
            f"compare: {len(self.entries)} entries, "
            f"max_abs={self.max_abs!r}, mean_abs={self.mean_abs!r}, "
            f"class ordering {'consistent' if self.ordering_consistent else 'INCONSISTENT'}"
        ]
        for value, members in self.classes:
            lines.append(f"  class @ {value!r}: {members}")
        return "\n".join(lines) + "\n"


def compare(predictor, observations: Sequence[FitObservation], tolerance: float = 1.0) -> CompareReport:
    """Prediction-vs-measurement report with latency-class breakdown.

    ``predictor`` is a LatencyModel or FitResult.  Classes are formed from
    predicted values; ordering is checked against the measured ordering of
    class means.
    """
    entries = []
    predicted_by_key = {}
    measured_by_key = {}
    for obs in observations:
        if isinstance(predictor, FitResult):
            pred = predictor.predict_observation(obs)
        else:
            pred = predictor.predict(
                obs.requester, obs.home, obs.forwarder, obs.state or "I", obs.level
            )
        entries.append((obs, pred, pred - obs.cycles))
        key = (obs.requester, obs.home)
        predicted_by_key[key] = pred
        measured_by_key[key] = obs.cycles
    errors = np.array([e for _, _, e in entries])
    classes = classify_values(predicted_by_key, tolerance)
    means = [
        float(np.mean([measured_by_key[k] for k in members])) for _, members in classes
    ]
    ordering = all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
    return CompareReport(
        entries=entries,
        classes=classes,
        max_abs=float(np.max(np.abs(errors))) if len(errors) else 0.0,
        mean_abs=float(np.mean(np.abs(errors))) if len(errors) else 0.0,
        ordering_consistent=ordering,
    )
