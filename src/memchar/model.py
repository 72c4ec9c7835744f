"""Analytic latency model over a topology graph.

Latency for a placement decomposes into a base term keyed on (memory level,
coherence-state class, locality class) plus per-hop link costs:

* chiplet graphs price remote-socket accesses linearly in interconnect
  switch traversals (costs are ns per traversal per direction; a plain read
  crosses every hop twice), with intra-socket values carried as calibrated
  per-distance classes;
* mesh graphs add a per-hop gradient between requester and owner tiles for
  private-cache (L1/L2) transfers of M/E lines (cost kept natively in uncore
  cycles).

The coherence protocol and the clock frequencies come from the graph, so a
model document carries neither: a model written for another protocol or
other clocks is rejected, not silently re-read.  A model prices one link
class, the one its graph's kind charges (see ``_PRICED_LINK``).

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
    LinkClass,
    SchemaError,
    TopologyGraph,
    _as,
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
# Keys a model document may no longer carry: the protocol and the clocks
# come from the topology, and the mesh gradient's scope is fixed above.
_RETIRED_KEYS = ("protocol", "frequencies", "mesh_gradient_levels", "mesh_gradient_classes")
# The one link class a model prices on each graph kind: the switch traversal
# of remote RAM reads on chiplet graphs, the mesh gradient on mesh graphs.
_PRICED_LINK = {
    GraphKind.CHIPLET_IF: LinkClass.IF_SWITCH_HOP.value,
    GraphKind.MESH_2D: LinkClass.MESH_HOP.value,
}
# The topology clock each link-cost unit counts; nanoseconds need none.
_UNIT_CLOCKS = {"ns": None, "uncore_cycles": "uncore_mhz", "fclk_cycles": "fclk_mhz"}


class ModelError(Exception):
    pass


class FitError(ModelError):
    pass


@dataclass(frozen=True)
class LinkCost:
    value: float
    unit: str  # "ns" | "uncore_cycles" | "fclk_cycles"


class LatencyModel:
    """A model document read against a :class:`TopologyGraph`, with predict.

    The constructor is the one reader of a model document.  A key the
    document may no longer carry, a missing table, an entry of the wrong
    type (numbers convert as the topology reader converts them: no
    booleans, no fractional integers), a link cost the graph's kind does not
    price or whose clock the graph lacks, a level with neither its own
    ``state_classes`` entry nor ``state_classes.default``, and a CCX penalty
    table that does not cover the graph's largest CCX are each a
    :class:`ModelError` naming the key.
    """

    def __init__(self, doc: dict, graph: TopologyGraph):
        for key in _RETIRED_KEYS:
            if key in doc:
                raise ModelError(f"model document carries '{key}': the protocol and the clocks "
                                 "come from the topology, and the mesh gradient covers M/E "
                                 "lines at L1/L2")
        missing = [k for k in ("base_cycles", "state_classes") if k not in doc]
        if missing:
            raise ModelError(f"model document lacks key(s) {', '.join(missing)}")
        self.graph = graph
        self.base = _table(doc, "base_cycles", float, "a number")
        self.state_classes = _table(doc, "state_classes", dict, "an object")
        for level in LEVELS:
            if not (self.state_classes.get(level) or "default" in self.state_classes):
                raise ModelError(f"model lacks state_classes.default, and state_classes has "
                                 f"no {level} entry")
        self.link_costs = _table(
            doc, "link_costs",
            lambda v: LinkCost(_as(float, v["value"], "value"), _as(str, v["unit"], "unit")),
            "an object with a numeric 'value' and a 'unit'",
        )
        priced = _PRICED_LINK[graph.kind]
        for name, cost in self.link_costs.items():
            if name != priced:
                raise ModelError(f"model link_costs entry {name!r} is not priced on a "
                                 f"{graph.kind.value} graph, which prices only {priced!r}")
            if cost.unit not in _UNIT_CLOCKS:
                raise ModelError(f"model link_costs entry {name!r} has unknown unit "
                                 f"{cost.unit!r}, not one of {', '.join(_UNIT_CLOCKS)}")
            clock = _UNIT_CLOCKS[cost.unit]
            if clock is not None and clock not in graph.frequencies:
                raise ModelError(f"model link_costs entry {name!r} counts {cost.unit}, but "
                                 f"topology '{graph.name}' has no frequencies.{clock}")
        self.numa_class_by_extra_hops = _table(
            doc, "numa_class_by_extra_hops", str, "a class name under an integer key", int
        )
        try:
            self.remote_anchor_extra_hops = _as(
                int, doc.get("remote_anchor_extra_hops", 0), "model remote_anchor_extra_hops")
        except SchemaError as exc:
            raise ModelError(str(exc)) from None
        self.triple_base = _table(doc, "triple_base_cycles", float, "a number")
        self.ccx_penalty = _ccx_penalty(doc.get("ccx_penalty_cycles"), graph)
        self.clean_shared_ram_beyond = doc.get("clean_shared_ram_beyond")
        if not isinstance(self.clean_shared_ram_beyond, (str, type(None))):
            raise ModelError("model clean_shared_ram_beyond must be a locality class name or "
                             f"null, got {self.clean_shared_ram_beyond!r}")
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

    # -- unit conversion ---------------------------------------------------

    @property
    def core_mhz(self) -> float:
        return self.graph.frequencies["core_mhz"]

    def _link_cost(self, link_class: str) -> LinkCost:
        try:
            return self.link_costs[link_class]
        except KeyError:
            raise ModelError(f"model has no link_costs entry {link_class!r}") from None

    def link_cost_ns(self, link_class: str) -> float:
        """Cost per traversal per direction, in nanoseconds."""
        lc = self._link_cost(link_class)
        clock = _UNIT_CLOCKS[lc.unit]
        return lc.value if clock is None else lc.value * 1000.0 / self.graph.frequencies[clock]

    def link_cost_core_cycles(self, link_class: str) -> float:
        lc = self._link_cost(link_class)
        if lc.unit == "uncore_cycles":
            return lc.value * self.core_mhz / self.graph.frequencies["uncore_mhz"]
        return self.link_cost_ns(link_class) * self.core_mhz / 1000.0

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
        line, the RAM level, or a clean shared line beyond
        ``clean_shared_ram_beyond`` (such lines are not forwarded past the
        L3 domain)."""
        if state is CoherenceState.I or level == "RAM":
            return None
        locality = self.locality_class(
            requester, requester if forwarder is None else forwarder
        )
        if (
            self.clean_shared_ram_beyond is not None
            and state is CoherenceState.S
            and locality not in ("local", self.clean_shared_ram_beyond)
        ):
            return None
        return locality

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
            rt_switch = 2.0 * self.link_cost_core_cycles(LinkClass.IF_SWITCH_HOP.value)
            return self._base("RAM", "any", "remote_socket") + (
                extra - self.remote_anchor_extra_hops
            ) * rt_switch
        if req_socket == home_socket:
            cls = "local" if home == g.node_of_core(requester) else "other_snc"
            return self._base("RAM", "any", cls)
        return self._base("RAM", "any", self._remote_snc_class(home))

    def _mesh_gradient(self, requester: int, owner: int) -> float:
        hops = mesh_hops(self.graph, self.graph.core(requester).id, self.graph.core(owner).id)
        per_direction = self.link_cost_core_cycles(LinkClass.MESH_HOP.value)
        return 2.0 * hops * per_direction

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
    and values ``value`` convert (a type converts as the topology reader's
    ``_as`` does, a function by itself); anything else is a
    :class:`ModelError` naming the key and the entry."""
    raw = doc.get(key, {})
    if not isinstance(raw, dict):
        raise ModelError(f"model {key} must be an object, got {type(raw).__name__}")
    table = {}
    for k, v in raw.items():
        try:
            converted = _as(value, v, key) if isinstance(value, type) else value(v)
            table[_as(key_type, k, key)] = converted
        except (KeyError, TypeError, SchemaError):
            raise ModelError(f"model {key} entry {k!r} must be {expected}, got {v!r}") from None
    return table


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
