"""Machine topology as an annotated graph.

Two graph kinds are supported:

* ``chiplet_if`` -- compute dies hang off a central I/O die whose switches
  form the interconnect; sockets are joined by point-to-point links.
* ``mesh_2d`` -- a per-socket grid of tiles (cores, memory controllers,
  socket-link tiles); a route between two tiles of one socket takes as many
  hops as their Manhattan distance (:func:`mesh_hops`).

Graphs are loaded from JSON documents (the schema below, and the fixtures
shipped under ``memchar/fixtures``), validated, and frozen.  All
route/placement queries are pure functions over the loaded graph.

The topology document (JSON); its field names are a stable contract.

Common:
  kind            "chiplet_if" | "mesh_2d"
  name            free-form system name
  protocol        "MOESI" | "MESIF": the processor's coherence protocol,
                  which state planning, the protocol simulator and the
                  latency model all read from the graph
  socket_count    1 or 2
  frequencies     {"core_mhz": F, "fclk_mhz": F?, "uncore_mhz": F?}
  link_costs      {class: {"cycles": C, "domain": "core"|"fclk"|"uncore"}}
                  (cycles of the link's clock; "domain" names that clock
                  for the reader and is not read)
  caches          {"l1_kib": K, "l2_kib": K, "l3_mib": M}   (positive
                  numbers; L1 and L2 per core, L3 per L3 domain; read
                  through TopologyGraph.cache_bytes, which names a missing
                  size)
  bandwidth       optional fixture tables for the simulated bandwidth
                  backend (see bandwidth module docs)

kind=chiplet_if sockets entry:
  {"id": S,
   "switches": ["sw_a", ...],
   "switch_links": [["sw_a","sw_b"], ...],
   "repeaters": [{"id": "rp1", "between": ["sw_a","sw_b"]}, ...]?,
   "xgmi_ports": [{"id": "xg1", "switch": "sw_x"}, ...],
   "numa_nodes": [{"id": N, "switch": "sw_a" | null,
                   "ccds": [{"ccxs": [[core ids], ...]}, ...]}, ...]}
  plus top-level "xgmi_links": [["s0.xg1","s1.xg1"], ...]

kind=mesh_2d sockets entry:
  {"id": S,
   "grid": {"rows": R, "cols": C},
   "snc_cols": {"0": [cols...], "1": [cols...]},
   "numa_base": first global NUMA id of this socket,
   "tiles": [{"row": r, "col": c, "core": id} |
             {"row": r, "col": c, "mc": numa_id} |
             {"row": r, "col": c, "upi": true}, ...]}
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from .coherence import Protocol

__all__ = [
    "GraphKind",
    "NodeRole",
    "LinkClass",
    "PlacementScope",
    "TopoNode",
    "TopoEdge",
    "TopologyGraph",
    "Placement",
    "TopologyError",
    "SchemaError",
    "ScopeError",
    "RouteError",
    "load_topology",
    "load_topology_file",
    "mesh_hops",
    "enumerate_placements",
    "enumerate_triples",
    "fixture_path",
]

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# Level -> (key in the document's ``caches``, bytes per unit of that key).
_CACHE_KEYS = {"L1": ("l1_kib", 1 << 10), "L2": ("l2_kib", 1 << 10), "L3": ("l3_mib", 1 << 20)}


class TopologyError(Exception):
    """Base class for topology failures."""


class SchemaError(TopologyError):
    """Document does not conform to the topology schema."""


class ScopeError(TopologyError):
    """Placement scope is not valid for the graph kind."""


class RouteError(TopologyError):
    """No route exists between the requested endpoints."""


class GraphKind(str, Enum):
    CHIPLET_IF = "chiplet_if"
    MESH_2D = "mesh_2d"


class NodeRole(str, Enum):
    CORE = "core"
    L3_DOMAIN = "l3_domain"
    IF_SWITCH = "if_switch"
    IF_REPEATER = "if_repeater"
    MEMORY_CONTROLLER = "memory_controller"
    XGMI_PORT = "xgmi_port"
    UPI_PORT = "upi_port"


class LinkClass(str, Enum):
    IF_SWITCH_HOP = "if_switch_hop"
    IF_REPEATER_HOP = "if_repeater_hop"
    MESH_HOP = "mesh_hop"
    XGMI = "xgmi"
    UPI = "upi"
    LOCAL = "local"


class PlacementScope(str, Enum):
    LOCAL = "local"
    SAME_CCX = "same_ccx"
    SAME_CCD = "same_ccd"
    INTRA_SOCKET = "intra_socket"
    INTER_SOCKET = "inter_socket"
    ALL_PAIRS = "all_pairs"


# Default per-traversal costs in cycles of the link's clock (FCLK for the
# fabric links, uncore for mesh and UPI, none for local edges).
# if_switch_hop must be >= 2 FCLK; if_repeater_hop is 1 FCLK.
DEFAULT_LINK_COSTS = {
    LinkClass.IF_SWITCH_HOP: 2.0,
    LinkClass.IF_REPEATER_HOP: 1.0,
    LinkClass.MESH_HOP: 1.0,
    LinkClass.XGMI: 90.0,
    LinkClass.UPI: 120.0,
    LinkClass.LOCAL: 0.0,
}


@dataclass(frozen=True)
class TopoNode:
    """One resource in the machine graph.

    ``location`` is (socket, numa_node, ccd, ccx, core_index) for chiplet
    graphs and (socket, row, col) for mesh graphs; unused slots are None.
    """

    id: str
    role: NodeRole
    socket: int
    numa_node: Optional[int] = None
    ccd: Optional[int] = None
    ccx: Optional[int] = None
    core_index: Optional[int] = None
    row: Optional[int] = None
    col: Optional[int] = None


@dataclass(frozen=True)
class TopoEdge:
    a: str
    b: str
    link_class: LinkClass

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a


@dataclass(frozen=True)
class Placement:
    """One measurement placement: who asks, who holds, where memory lives."""

    requester: int
    owner: int
    home_node: int
    forwarder_node: Optional[int] = None
    label: str = ""


class TopologyGraph:
    """Immutable annotated machine graph.

    Built by :func:`load_topology`; do not mutate after construction.  Safe
    to share read-only between concurrent workers.  :func:`load_topology_file`
    shares one graph per distinct file content for the life of the process,
    so its indices and routing trees are paid for once per process.

    Per-graph facts are computed once and memoized on the graph, which is
    sound only because it is never mutated:

    * at construction, the sorted core list, the cores of each NUMA node and
      of each L3 domain, each core's L3-domain id and each node's memory
      controller, so :attr:`cores`, :meth:`cores_of_node`,
      :meth:`cores_of_ccx`, :meth:`first_core_of_node`,
      :meth:`l3_domain_of_core`, :attr:`l3_domains` and
      :meth:`memory_controller` are lookups (list and dict results are
      fresh copies a caller may change);
    * on the first route query, the costed adjacency the route search
      walks, and per source node, the shortest-path tree that
      :func:`switch_hops_to_memory` counts switches along.
    """

    def __init__(
        self,
        kind: GraphKind,
        socket_count: int,
        nodes: dict[str, TopoNode],
        edges: list[TopoEdge],
        frequencies: dict[str, float],
        link_costs: dict[LinkClass, float],
        protocol: Protocol,
        caches: Optional[dict] = None,
        bandwidth: Optional[dict] = None,
        name: str = "",
    ):
        self.kind = kind
        self.socket_count = socket_count
        self.nodes = nodes
        self.edges = tuple(edges)
        self.frequencies = dict(frequencies)
        self.link_costs = dict(link_costs)
        self.protocol = protocol
        self.caches = dict(caches) if caches else {}
        self.bandwidth = dict(bandwidth) if bandwidth else {}
        self.name = name
        self._adj: dict[str, list[TopoEdge]] = {n: [] for n in nodes}
        for e in self.edges:
            for end in (e.a, e.b):
                if end not in self._adj:
                    raise SchemaError(f"{e.link_class.value} link {e.a} - {e.b} names "
                                      f"unknown node '{end}'")
                self._adj[end].append(e)
        self._core_by_id = {
            n.core_index: n for n in nodes.values() if n.role is NodeRole.CORE
        }
        self._cores = tuple(sorted(self._core_by_id))
        self._cores_by_node: dict[int, list[int]] = {}
        self._l3_domain: dict[int, str] = {}
        self._cores_by_l3: dict[str, list[int]] = {}
        for c in self._cores:
            n = self._core_by_id[c]
            self._cores_by_node.setdefault(n.numa_node, []).append(c)
            if kind is GraphKind.MESH_2D:
                # Mesh L3 slices are shared per NUMA node (per SNC under SNC mode).
                self._l3_domain[c] = f"l3.snc{n.numa_node}"
            else:
                self._l3_domain[c] = next(
                    e.other(n.id) for e in self._adj[n.id]
                    if nodes[e.other(n.id)].role is NodeRole.L3_DOMAIN
                )
            self._cores_by_l3.setdefault(self._l3_domain[c], []).append(c)
        self._mc_by_node: dict[int, TopoNode] = {}
        for n in nodes.values():
            if n.role is NodeRole.MEMORY_CONTROLLER:
                self._mc_by_node.setdefault(n.numa_node, n)
        # Routing memos, built on the first route query (see _route_tree).
        self._route_adj: Optional[dict[str, list]] = None
        self._route_trees: dict[str, dict[str, tuple[str, LinkClass]]] = {}
        self._validate()

    # -- queries ----------------------------------------------------------

    def core(self, core_id: int) -> TopoNode:
        try:
            return self._core_by_id[core_id]
        except KeyError:
            raise TopologyError(f"unknown core id {core_id}") from None

    @property
    def cores(self) -> list[int]:
        return list(self._cores)

    def cores_of_node(self, numa_node: int) -> list[int]:
        return list(self._cores_by_node.get(numa_node, ()))

    def cores_of_ccx(self, core_id: int) -> list[int]:
        """All cores sharing the given core's L3 domain (CCX or SNC)."""
        return list(self._cores_by_l3[self.l3_domain_of_core(core_id)])

    @property
    def numa_nodes(self) -> list[int]:
        return sorted(
            {n.numa_node for n in self.nodes.values() if n.numa_node is not None}
        )

    def numa_nodes_of_socket(self, socket: int) -> list[int]:
        return sorted(
            {
                n.numa_node
                for n in self.nodes.values()
                if n.socket == socket and n.numa_node is not None
            }
        )

    def node_of_core(self, core_id: int) -> int:
        return self.core(core_id).numa_node

    def memory_controller(self, numa_node: int) -> TopoNode:
        try:
            return self._mc_by_node[numa_node]
        except KeyError:
            raise TopologyError(f"no memory controller for NUMA node {numa_node}") from None

    def l3_domain_of_core(self, core_id: int) -> str:
        self.core(core_id)
        return self._l3_domain[core_id]

    @property
    def l3_domains(self) -> dict[int, str]:
        """Every core's L3-domain id, as a fresh dict."""
        return dict(self._l3_domain)

    def first_core_of_node(self, numa_node: int) -> int:
        cores = self._cores_by_node.get(numa_node)
        if not cores:
            raise TopologyError(f"NUMA node {numa_node} has no cores")
        return cores[0]

    def link_cost_cycles(self, link_class: LinkClass) -> float:
        return self.link_costs.get(link_class, DEFAULT_LINK_COSTS[link_class])

    def cache_bytes(self, level: str) -> int:
        """Capacity in bytes of ``level``: per core for L1 and L2, per L3
        domain for L3.  The one reader of the document's ``caches`` sizes."""
        key, unit = _CACHE_KEYS[level]
        if key not in self.caches:
            raise TopologyError(
                f"topology '{self.name}' lacks cache size {key} needed for {level}"
            )
        return int(self.caches[key] * unit)

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        if self.socket_count < 1 or self.socket_count > 2:
            raise SchemaError(f"socket_count must be 1 or 2, got {self.socket_count}")
        if not self._core_by_id:
            raise SchemaError("graph has no cores")
        self._check_coordinates()
        self._check_connectivity()
        sw_cost = self.link_cost_cycles(LinkClass.IF_SWITCH_HOP)
        if sw_cost < 2.0:
            raise SchemaError(
                f"if_switch_hop cost must be >= 2 cycles, got {sw_cost}"
            )

    def _check_coordinates(self) -> None:
        if self.kind is not GraphKind.MESH_2D:
            return
        seen: dict[tuple[int, int, int], str] = {}
        for n in self.nodes.values():
            if n.role in (NodeRole.CORE, NodeRole.MEMORY_CONTROLLER, NodeRole.UPI_PORT):
                key = (n.socket, n.row, n.col)
                if key in seen:
                    raise SchemaError(
                        f"duplicate grid coordinate {key}: nodes {seen[key]} and {n.id}"
                    )
                seen[key] = n.id

    def _check_connectivity(self) -> None:
        # Every core must reach every memory controller.  Mesh edges are
        # implicit (grid neighbours), so only chiplet graphs are walked.
        if self.kind is GraphKind.MESH_2D:
            return
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for e in self._adj[u]:
                v = e.other(u)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        missing = sorted(set(self.nodes) - seen)
        if missing:
            raise SchemaError(f"graph is disconnected; unreachable nodes: {missing}")


# ---------------------------------------------------------------------------
# Loading


# What a field converted by _as must be, as its error message says it.
_KINDS = {
    int: "an integer", float: "a number", dict: "an object", list: "a list", str: "a string",
    Protocol: "MOESI or MESIF", GraphKind: "chiplet_if or mesh_2d",
}
# Kinds that take only a value of their own type, not one they could convert.
_STRICT_KINDS = (dict, list, str)


def _as(kind, value, what: str):
    """``value`` converted by ``kind`` (one of :data:`_KINDS`; ``dict``,
    ``list`` and ``str`` take only their own type, no kind takes a boolean,
    and ``int`` takes no fraction); a value it does not take is a
    :class:`SchemaError` naming ``what``."""
    try:
        if not isinstance(value, bool) and (kind not in _STRICT_KINDS or isinstance(value, kind)):
            if kind is not int or not isinstance(value, float) or value.is_integer():
                return kind(value)
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"{what} must be {_KINDS[kind]}, got {value!r}")


def _req(doc: dict, key: str, ctx: str, kind=None):
    """``doc[key]``, converted by ``kind`` when given (see :func:`_as`)."""
    if key not in doc:
        raise SchemaError(f"{ctx}: missing required field '{key}'")
    return doc[key] if kind is None else _as(kind, doc[key], f"{ctx}: field '{key}'")


def _opt(doc: dict, key: str, ctx: str, kind, default):
    """``doc[key]`` converted by ``kind`` (see :func:`_as`), or ``default``
    when the field is absent."""
    return _as(kind, doc[key], f"{ctx}: field '{key}'") if key in doc else default


def _entries(doc: dict, key: str, ctx: str, kind, default=None) -> list:
    """The entries of the list ``doc[key]``, each converted by ``kind``;
    without a ``default`` the field is required."""
    what = f"{ctx}: {key} entry"
    items = _req(doc, key, ctx, list) if default is None else _opt(doc, key, ctx, list, default)
    return [_as(kind, item, what) for item in items]


def _pair(value, what: str) -> tuple[str, str]:
    """The two node names of a link entry such as ``["sw_a", "sw_b"]``."""
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{what} must be a list of two names, got {value!r}")
    return _as(str, value[0], what), _as(str, value[1], what)


def _parse_caches(doc: dict) -> dict[str, float]:
    """The ``caches`` sizes, each a positive finite number."""
    caches = {
        key: _as(float, size, f"caches.{key}")
        for key, size in _opt(doc, "caches", "topology", dict, {}).items()
    }
    for key, size in caches.items():
        if not 0 < size < math.inf:
            raise SchemaError(f"caches.{key} must be a positive number, got {size!r}")
    return caches


def _parse_link_costs(doc: dict) -> dict[LinkClass, float]:
    costs = dict(DEFAULT_LINK_COSTS)
    for name, spec in _opt(doc, "link_costs", "topology", dict, {}).items():
        try:
            cls = LinkClass(name)
        except ValueError:
            raise SchemaError(f"link_costs: unknown link class '{name}'") from None
        try:
            costs[cls] = _as(float, spec["cycles"], name)
        except (KeyError, TypeError, SchemaError):
            raise SchemaError(
                f"link_costs entry '{name}' must be an object with a numeric 'cycles', "
                f"got {spec!r}"
            ) from None
    return costs


def _load_chiplet(doc: dict) -> tuple[dict[str, TopoNode], list[TopoEdge]]:
    nodes: dict[str, TopoNode] = {}
    edges: list[TopoEdge] = []
    seen_cores: set[int] = set()

    def add(node: TopoNode) -> None:
        if node.id in nodes:
            raise SchemaError(f"duplicate node id '{node.id}'")
        nodes[node.id] = node

    for sock in _entries(doc, "sockets", "topology", dict):
        sid = _req(sock, "id", "socket", int)
        prefix = f"s{sid}."
        ctx = f"socket {sid}"
        for sw in _entries(sock, "switches", ctx, str, []):
            add(TopoNode(prefix + sw, NodeRole.IF_SWITCH, sid))
        for link in _entries(sock, "switch_links", ctx, list, []):
            a, b = _pair(link, f"{ctx}: switch_links entry")
            edges.append(TopoEdge(prefix + a, prefix + b, LinkClass.IF_SWITCH_HOP))
        for rp in _entries(sock, "repeaters", ctx, dict, []):
            rid = prefix + _req(rp, "id", f"{ctx} repeater", str)
            add(TopoNode(rid, NodeRole.IF_REPEATER, sid))
            a, b = _pair(_req(rp, "between", f"repeater {rid}"), f"repeater {rid}: 'between'")
            edges.append(TopoEdge(prefix + a, rid, LinkClass.IF_REPEATER_HOP))
            edges.append(TopoEdge(rid, prefix + b, LinkClass.IF_REPEATER_HOP))
        for port in _entries(sock, "xgmi_ports", ctx, dict, []):
            pid = prefix + _req(port, "id", f"{ctx} xgmi port", str)
            add(TopoNode(pid, NodeRole.XGMI_PORT, sid))
            edges.append(TopoEdge(prefix + _req(port, "switch", f"xgmi port {pid}", str), pid,
                                  LinkClass.LOCAL))
        for nd in _entries(sock, "numa_nodes", ctx, dict):
            nid = _req(nd, "id", "numa_node", int)
            switch = nd.get("switch")
            sw_id = None if switch is None else prefix + _as(
                str, switch, f"numa_node {nid}: field 'switch'"
            )
            mc_id = f"mc{nid}"
            add(TopoNode(mc_id, NodeRole.MEMORY_CONTROLLER, sid, numa_node=nid))
            for ccd_i, ccd in enumerate(_entries(nd, "ccds", f"numa_node {nid}", dict)):
                ccxs = _entries(ccd, "ccxs", f"node {nid} ccd {ccd_i}", list)
                if not 1 <= len(ccxs) <= 2:
                    raise SchemaError(
                        f"node {nid} ccd {ccd_i}: a CCD hosts 1-2 CCXs, got {len(ccxs)}"
                    )
                for ccx_i, core_ids in enumerate(ccxs):
                    if not 1 <= len(core_ids) <= 4:
                        raise SchemaError(
                            f"node {nid} ccd {ccd_i} ccx {ccx_i}: "
                            f"a CCX holds 1-4 cores, got {len(core_ids)}"
                        )
                    l3_id = f"l3.n{nid}d{ccd_i}x{ccx_i}"
                    add(
                        TopoNode(
                            l3_id, NodeRole.L3_DOMAIN, sid, numa_node=nid,
                            ccd=ccd_i, ccx=ccx_i,
                        )
                    )
                    for c in core_ids:
                        c = _as(int, c, f"node {nid} ccd {ccd_i} ccx {ccx_i}: core id")
                        if c in seen_cores:
                            raise SchemaError(f"core id {c} appears twice")
                        seen_cores.add(c)
                        cid = f"core{c}"
                        add(
                            TopoNode(
                                cid, NodeRole.CORE, sid, numa_node=nid,
                                ccd=ccd_i, ccx=ccx_i, core_index=c,
                            )
                        )
                        edges.append(TopoEdge(cid, l3_id, LinkClass.LOCAL))
                    # IFOP: the CCX reaches the I/O die switch; CCXs on one
                    # CCD are NOT connected to each other directly.
                    if sw_id is not None:
                        edges.append(TopoEdge(l3_id, sw_id, LinkClass.LOCAL))
                    else:
                        edges.append(TopoEdge(l3_id, mc_id, LinkClass.LOCAL))
            if sw_id is not None:
                edges.append(TopoEdge(mc_id, sw_id, LinkClass.LOCAL))
    for link in _entries(doc, "xgmi_links", "topology", list, []):
        a, b = _pair(link, "xgmi_links entry")
        for end in (a, b):
            if end not in nodes or nodes[end].role is not NodeRole.XGMI_PORT:
                raise SchemaError(f"xgmi_links: '{end}' is not an xGMI port")
        edges.append(TopoEdge(a, b, LinkClass.XGMI))
    return nodes, edges


def _load_mesh(doc: dict) -> tuple[dict[str, TopoNode], list[TopoEdge]]:
    nodes: dict[str, TopoNode] = {}
    seen_cores: set[int] = set()
    for sock in _entries(doc, "sockets", "topology", dict):
        sid = _req(sock, "id", "socket", int)
        grid = _req(sock, "grid", f"socket {sid}", dict)
        rows, cols = (_req(grid, key, f"socket {sid} grid", int) for key in ("rows", "cols"))
        snc_cols = {
            _as(int, k, f"socket {sid}: snc_cols key"): {
                _as(int, col, f"socket {sid}: snc_cols '{k}' column")
                for col in _as(list, v, f"socket {sid}: snc_cols '{k}'")
            }
            for k, v in _req(sock, "snc_cols", f"socket {sid}", dict).items()
        }
        numa_base = _as(int, sock.get("numa_base", 2 * sid), f"socket {sid}: numa_base")

        def snc_of(col: int) -> int:
            for local, colset in snc_cols.items():
                if col in colset:
                    return numa_base + local
            raise SchemaError(f"socket {sid}: column {col} not assigned to an SNC")

        for tile in _entries(sock, "tiles", f"socket {sid}", dict):
            ctx = f"socket {sid} tile {tile}"
            r, c = _req(tile, "row", ctx, int), _req(tile, "col", ctx, int)
            if not (0 <= r < rows and 0 <= c < cols):
                raise SchemaError(f"socket {sid}: tile ({r},{c}) outside {rows}x{cols} grid")
            if "core" in tile:
                core = _req(tile, "core", ctx, int)
                if core in seen_cores:
                    raise SchemaError(f"core id {core} appears twice")
                seen_cores.add(core)
                nid = f"core{core}"
                node = TopoNode(
                    nid, NodeRole.CORE, sid, numa_node=snc_of(c),
                    core_index=core, row=r, col=c,
                )
            elif "mc" in tile:
                mc_node = _req(tile, "mc", ctx, int)
                nid = f"mc{mc_node}"
                node = TopoNode(
                    nid, NodeRole.MEMORY_CONTROLLER, sid, numa_node=mc_node, row=r, col=c,
                )
            elif tile.get("upi"):
                nid = f"s{sid}.upi"
                node = TopoNode(nid, NodeRole.UPI_PORT, sid, row=r, col=c)
            else:
                raise SchemaError(f"socket {sid}: tile ({r},{c}) has no role")
            if nid in nodes:
                raise SchemaError(f"duplicate node id '{nid}'")
            nodes[nid] = node
    # UPI link between sockets (edges between UPI tiles).
    edges = []
    upis = [n for n in nodes.values() if n.role is NodeRole.UPI_PORT]
    if len(upis) == 2:
        a, b = sorted(upis, key=lambda n: n.id)
        edges.append(TopoEdge(a.id, b.id, LinkClass.UPI))
    return nodes, edges


def load_topology(doc: dict) -> TopologyGraph:
    """Validate a topology document and build the graph.

    Raises :class:`SchemaError` naming the offending node/field on schema
    violations, disconnected graphs, and duplicate coordinates.
    """
    doc = _as(dict, doc, "topology document")
    kind = _req(doc, "kind", "topology", GraphKind)
    protocol = _req(doc, "protocol", "topology", Protocol)
    freqs = _req(doc, "frequencies", "topology", dict)
    freqs = {k: _as(float, v, f"frequencies.{k}") for k, v in freqs.items()}
    if freqs.get("core_mhz", 0) <= 0:
        raise SchemaError("frequencies.core_mhz must be positive")
    if kind is GraphKind.CHIPLET_IF:
        nodes, edges = _load_chiplet(doc)
    else:
        nodes, edges = _load_mesh(doc)
    return TopologyGraph(
        kind=kind,
        socket_count=_req(doc, "socket_count", "topology", int),
        nodes=nodes,
        edges=edges,
        frequencies=freqs,
        link_costs=_parse_link_costs(doc),
        protocol=protocol,
        caches=_parse_caches(doc),
        bandwidth=doc.get("bandwidth"),
        name=doc.get("name", ""),
    )


_GRAPHS_BY_SHA256: dict[str, TopologyGraph] = {}


def load_topology_file(path: str | Path) -> TopologyGraph:
    """The graph of a topology file, one per distinct file content per
    process: the same bytes give the same (immutable) graph, with its
    indices and route memos; an edited file hashes differently and is
    loaded fresh."""
    with open(path, "rb") as f:
        data = f.read()
    key = hashlib.sha256(data).hexdigest()
    graph = _GRAPHS_BY_SHA256.get(key)
    if graph is None:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise SchemaError(f"{path}: not a JSON document: {exc}") from None
        graph = _GRAPHS_BY_SHA256[key] = load_topology(doc)
    return graph


def fixture_path(name: str) -> Path:
    """Path of a fixture file shipped with the package."""
    p = FIXTURE_DIR / name
    if not p.exists():
        raise FileNotFoundError(f"no such fixture: {name}")
    return p


# ---------------------------------------------------------------------------
# Routing


def mesh_hops(graph: TopologyGraph, a: TopoNode | str, b: TopoNode | str) -> int:
    """Mesh hops between two tiles: their Manhattan distance, the length of
    the vertical-then-horizontal route.  Both tiles must sit on the same
    socket's mesh; mesh routing is undefined across sockets.
    """
    if graph.kind is not GraphKind.MESH_2D:
        raise ScopeError("mesh_hops requires a mesh_2d graph")
    na = graph.nodes[a] if isinstance(a, str) else a
    nb = graph.nodes[b] if isinstance(b, str) else b
    if na.socket != nb.socket:
        raise RouteError(
            f"{na.id} and {nb.id} are on different sockets; "
            "mesh routing is undefined across sockets"
        )
    return abs(na.row - nb.row) + abs(na.col - nb.col)


def _route_tree(
    graph: TopologyGraph, source: str, target: str
) -> dict[str, tuple[str, LinkClass]]:
    """The memoized shortest-path tree of ``source``, checked to reach
    ``target``: the minimum-cost routes through the interconnect fabric from
    ``source``, searched once per graph and source.

    Uses per-link-class costs; ties broken by lexicographic node id so routes
    are deterministic.  A route crossing sockets traverses exactly one xGMI
    edge; CCX-to-CCX routes always pass the I/O die (the graph has no direct
    CCX-CCX edges by construction).
    """
    if graph.kind is not GraphKind.CHIPLET_IF:
        raise ScopeError("fabric routes require a chiplet_if graph")
    prev = graph._route_trees.get(source)
    if prev is None:
        prev = graph._route_trees[source] = _shortest_path_tree(graph, source)
    if target != source and target not in prev:
        raise RouteError(f"no route from {source} to {target} (malformed graph)")
    return prev


def _shortest_path_tree(graph: TopologyGraph, source: str) -> dict[str, tuple[str, LinkClass]]:
    """Dijkstra from ``source`` over the whole graph: each reached node's
    (predecessor, link class).

    A node's predecessor is fixed when the node is settled, and the search
    settles nodes in the same order whether or not it stops at a target, so
    every route equals the one a search stopping at its target finds.
    """
    import heapq

    if graph._route_adj is None:
        # Neighbours in lexicographic id order, the tie-break; edge costs
        # looked up once per graph.  Each entry carries the (predecessor,
        # link class) pair a tree stores, shared by every tree.
        graph._route_adj = {
            u: [
                (e.other(u), graph.link_cost_cycles(e.link_class), (u, e.link_class))
                for e in sorted(edges, key=lambda e: e.other(u))
            ]
            for u, edges in graph._adj.items()
        }
    adj = graph._route_adj
    dist: dict[str, float] = {source: 0.0}
    prev: dict[str, tuple[str, LinkClass]] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        for v, cost, hop in adj[u]:
            nd = d + cost + 1e-9  # epsilon prefers fewer hops on ties
            if nd < dist.get(v, float("inf")) - 1e-12:
                dist[v] = nd
                prev[v] = hop
                heapq.heappush(heap, (nd, v))
    return prev


def switch_hops_to_memory(graph: TopologyGraph, core_id: int, numa_node: int) -> int:
    """Switches traversed from a core to a node's memory controller: the
    switch nodes on the minimum-cost route, counted along the core's route
    tree."""
    source = graph.core(core_id).id
    cur = graph.memory_controller(numa_node).id
    prev = _route_tree(graph, source, cur)
    switches = 0
    while cur != source:
        cur = prev[cur][0]
        switches += graph.nodes[cur].role is NodeRole.IF_SWITCH
    return switches


def extra_switch_hops(graph: TopologyGraph, core_id: int, numa_node: int) -> int:
    """Switch traversals beyond the local access (one mandatory I/O-die hop)."""
    local = switch_hops_to_memory(graph, core_id, graph.node_of_core(core_id))
    return switch_hops_to_memory(graph, core_id, numa_node) - local


# ---------------------------------------------------------------------------
# Placement enumeration


def enumerate_placements(graph: TopologyGraph, scope: PlacementScope | str) -> list[Placement]:
    """Deterministically ordered placement tuples for a measurement scope.

    Representative-core policy: matrix scopes use the first core of each
    NUMA node; cache scopes anchor at the lowest-id core.
    """
    scope = PlacementScope(scope)
    chiplet = graph.kind is GraphKind.CHIPLET_IF
    if scope in (PlacementScope.SAME_CCX, PlacementScope.SAME_CCD) and not chiplet:
        raise ScopeError(f"scope {scope.value} is only valid for chiplet graphs")

    out: list[Placement] = []
    if scope is PlacementScope.LOCAL:
        for c in graph.cores:
            out.append(Placement(c, c, graph.node_of_core(c), label="local"))
    elif scope is PlacementScope.SAME_CCX:
        anchor = graph.cores[0]
        ccx = graph.cores_of_ccx(anchor)
        for i in ccx:
            for j in ccx:
                out.append(Placement(i, j, graph.node_of_core(j), label="same_ccx"))
    elif scope is PlacementScope.SAME_CCD:
        # The first core of each other CCX on the anchor's CCD and node.
        anchor = graph.core(graph.cores[0])
        firsts = {
            min(graph.cores_of_ccx(c))
            for c in graph.cores_of_node(anchor.numa_node)
            if graph.core(c).ccd == anchor.ccd and graph.core(c).ccx != anchor.ccx
        }
        for c in sorted(firsts):
            out.append(Placement(anchor.core_index, c, anchor.numa_node, label="same_ccd"))
    elif scope is PlacementScope.INTRA_SOCKET:
        anchor = graph.cores[0]
        if chiplet:
            me = graph.core(anchor)
            out.append(Placement(anchor, anchor, me.numa_node, label="local"))
            ccx = [c for c in graph.cores_of_ccx(anchor) if c != anchor]
            if ccx:
                out.append(Placement(anchor, ccx[0], me.numa_node, label="same_ccx"))
            out.extend(enumerate_placements(graph, PlacementScope.SAME_CCD))
            for nd in graph.numa_nodes_of_socket(me.socket):
                if nd == me.numa_node:
                    continue
                hops = extra_switch_hops(graph, anchor, nd)
                out.append(
                    Placement(anchor, graph.first_core_of_node(nd), nd, label=f"numa_h{hops}")
                )
        else:
            me = graph.core(anchor)
            for c in graph.cores:
                if c == anchor:
                    continue
                if graph.core(c).socket != me.socket:
                    continue
                nd = graph.node_of_core(c)
                label = "same_snc" if nd == me.numa_node else "other_snc"
                out.append(Placement(anchor, c, nd, label=label))
    elif scope is PlacementScope.INTER_SOCKET:
        if graph.socket_count < 2:
            raise ScopeError("inter_socket scope needs a 2-socket graph")
        for ni in graph.numa_nodes_of_socket(0):
            for nj in graph.numa_nodes_of_socket(1):
                out.append(
                    Placement(
                        graph.first_core_of_node(ni),
                        graph.first_core_of_node(nj),
                        nj,
                        label="inter_socket",
                    )
                )
    elif scope is PlacementScope.ALL_PAIRS:
        # Node-first-core policy: an NxN node matrix.
        for ni in graph.numa_nodes:
            for nj in graph.numa_nodes:
                out.append(
                    Placement(
                        graph.first_core_of_node(ni),
                        graph.first_core_of_node(nj),
                        nj,
                        label="all_pairs",
                    )
                )
    return out


def enumerate_triples(graph: TopologyGraph) -> list[Placement]:
    """Home/forwarder placements for dirty-remote request-flow matrices over
    socket 0.

    The requester is the socket's first core.  When the forwarding node is
    the requester's own node, the owner is picked from another CCX so the
    request cannot be satisfied CCX-locally.
    """
    if graph.kind is not GraphKind.CHIPLET_IF:
        raise ScopeError("triples are defined on chiplet graphs")
    nodes = graph.numa_nodes_of_socket(0)
    req = graph.first_core_of_node(nodes[0])
    req_ccx = set(graph.cores_of_ccx(req))
    out = []
    for home in nodes:
        for fwd in nodes:
            owner = graph.first_core_of_node(fwd)
            if owner in req_ccx:
                candidates = [c for c in graph.cores_of_node(fwd) if c not in req_ccx]
                if not candidates:
                    raise TopologyError(f"node {fwd} has no core outside the requester CCX")
                owner = candidates[0]
            out.append(
                Placement(req, owner, home, forwarder_node=fwd, label="triple")
            )
    return out
