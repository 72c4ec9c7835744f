"""Machine topology: cores, NUMA nodes, and the distances between them.

Two graph kinds are supported:

* ``chiplet_if`` -- compute dies hang off a central I/O die whose switches
  form the interconnect; sockets are joined by point-to-point xGMI links.
  The loader counts, for every (requester NUMA node, home NUMA node) pair,
  the switches a read crosses (:func:`switch_hops_to_memory`): within a
  socket, one more than the fewest switch links between the two nodes'
  switches; across sockets, the same count through the xGMI link that
  crosses the fewest switches.
* ``mesh_2d`` -- a per-socket grid of tiles (cores, memory controllers,
  socket-link tiles); a route between two tiles of one socket takes as many
  hops as their Manhattan distance (:func:`mesh_hops`).

Graphs are loaded from JSON documents (the schema below, and the fixtures
shipped under ``memchar/fixtures``), validated, and frozen.  All
route/placement queries are pure functions over the loaded graph.

The topology document (JSON); its field names are a stable contract.  An
object of it (the document, a socket, grid, NUMA node, CCD, xGMI port or
tile entry, or ``frequencies``) that carries a key its reader does not read
is refused (exit 2), and the message names the key.

Common:
  kind            "chiplet_if" | "mesh_2d"
  name            free-form system name
  protocol        "MOESI" | "MESIF": the processor's coherence protocol,
                  which state planning, the protocol simulator and the
                  latency model all read from the graph
  frequencies     {"core_mhz": F, "uncore_mhz": F?}   (positive numbers;
                  a mesh graph's latency model needs uncore_mhz, and any
                  other key is refused, exit 2)
  caches          {"l1_kib": K, "l2_kib": K, "l3_mib": M}   (positive
                  numbers; L1 and L2 per core, L3 per L3 domain; read
                  through TopologyGraph.cache_bytes, which names a missing
                  size)
  bandwidth       optional object of fixture tables, read by the simulated
                  bandwidth backend (see bandwidth module docs)
  sockets         1 or 2 entries (below) whose ids are 0..n-1, each once;
                  the graph's socket count is their number

A document carries no route weights and no socket count, so
``link_costs`` and ``socket_count`` are refused like any unread key: a
route counts the switches it crosses, a link's priced cost is the latency
model's hop cost, and the socket count is the number of ``sockets``
entries.  A chiplet document in which a NUMA node pair has no route (a
socket's switches must be joined by its own ``switch_links``), or a
declared switch that no NUMA node's switch reaches, is refused as
disconnected; so is a switch-links entry, xGMI port or NUMA node that
names a switch its socket does not declare.

kind=chiplet_if sockets entry:
  {"id": S,
   "switches": ["sw_a", ...],
   "switch_links": [["sw_a","sw_b"], ...],
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
    "PlacementScope",
    "TopoNode",
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
    MEMORY_CONTROLLER = "memory_controller"
    UPI_PORT = "upi_port"


class PlacementScope(str, Enum):
    LOCAL = "local"
    SAME_CCX = "same_ccx"
    SAME_CCD = "same_ccd"
    INTRA_SOCKET = "intra_socket"
    INTER_SOCKET = "inter_socket"
    ALL_PAIRS = "all_pairs"


# The top-level keys each graph kind's loader reads; any other is refused.
_DOCUMENT_KEYS = {
    GraphKind.CHIPLET_IF: ("kind", "name", "protocol", "frequencies", "caches", "bandwidth",
                           "sockets", "xgmi_links"),
    GraphKind.MESH_2D: ("kind", "name", "protocol", "frequencies", "caches", "bandwidth",
                        "sockets"),
}


@dataclass(frozen=True)
class TopoNode:
    """A core, a memory controller or a mesh socket-link tile.

    Cores and memory controllers give their NUMA node (an SNC on a mesh),
    and a core its id.  A chiplet core gives its CCD and CCX, a mesh node
    its grid row and column.  Fields a node does not use are None.
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
class Placement:
    """One measurement placement: who asks, who holds, where memory lives."""

    requester: int
    owner: int
    home_node: int
    forwarder_node: Optional[int] = None
    label: str = ""


class TopologyGraph:
    """Immutable machine graph.

    Built by :func:`load_topology`; do not mutate after construction.  Safe
    to share read-only between concurrent workers.  :func:`load_topology_file`
    shares one graph per distinct file content for the life of the process,
    so its indices are paid for once per process.

    Every per-graph fact is computed once, at construction, which is sound
    only because the graph is never mutated: the sorted core list, the cores
    of each NUMA node and of each L3 domain, each core's L3-domain id (as
    the loader gives it), each node's memory controller, the sorted NUMA
    nodes of the graph and of each socket, and, on a chiplet graph, the
    switch table the loader counted: the switches a read crosses from each
    NUMA node to each node's memory.  So :attr:`cores`,
    :meth:`cores_of_node`, :meth:`cores_of_ccx`, :meth:`first_core_of_node`,
    :meth:`l3_domain_of_core`, :attr:`l3_domains`, :meth:`memory_controller`,
    :attr:`numa_nodes`, :meth:`numa_nodes_of_socket` and
    :func:`switch_hops_to_memory` are lookups (list and dict results are
    fresh copies a caller may change).
    """

    def __init__(
        self,
        kind: GraphKind,
        socket_count: int,
        nodes: dict[str, TopoNode],
        l3_domains: dict[int, str],
        frequencies: dict[str, float],
        protocol: Protocol,
        switch_hops: Optional[dict[tuple[int, int], int]] = None,
        caches: Optional[dict] = None,
        bandwidth: Optional[dict] = None,
        name: str = "",
    ):
        self.kind = kind
        self.socket_count = socket_count
        self.nodes = nodes
        self.frequencies = dict(frequencies)
        self.protocol = protocol
        self.caches = dict(caches) if caches else {}
        self.bandwidth = dict(bandwidth) if bandwidth else {}
        self.name = name
        self._core_by_id = {
            n.core_index: n for n in nodes.values() if n.role is NodeRole.CORE
        }
        self._cores = tuple(sorted(self._core_by_id))
        self._cores_by_node: dict[int, list[int]] = {}
        self._l3_domain = {c: l3_domains[c] for c in self._cores}
        self._cores_by_l3: dict[str, list[int]] = {}
        for c in self._cores:
            self._cores_by_node.setdefault(self._core_by_id[c].numa_node, []).append(c)
            self._cores_by_l3.setdefault(self._l3_domain[c], []).append(c)
        numa_sockets = sorted({(n.numa_node, n.socket) for n in nodes.values()
                               if n.numa_node is not None})
        self._numa_nodes = sorted({numa for numa, _ in numa_sockets})
        self._numa_nodes_by_socket: dict[int, list[int]] = {}
        for numa, socket in numa_sockets:
            self._numa_nodes_by_socket.setdefault(socket, []).append(numa)
        self._mc_by_node: dict[int, TopoNode] = {}
        for n in nodes.values():
            if n.role is NodeRole.MEMORY_CONTROLLER:
                self._mc_by_node.setdefault(n.numa_node, n)
        # (requester NUMA node, home NUMA node) -> switches crossed.
        self._switch_hops = switch_hops
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
        return list(self._numa_nodes)

    def numa_nodes_of_socket(self, socket: int) -> list[int]:
        return list(self._numa_nodes_by_socket.get(socket, ()))

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
        if not self._core_by_id:
            raise SchemaError("graph has no cores")
        if self.kind is GraphKind.MESH_2D:
            seen: dict[tuple[int, int, int], str] = {}
            for n in self.nodes.values():
                key = (n.socket, n.row, n.col)
                if key in seen:
                    raise SchemaError(
                        f"duplicate grid coordinate {key}: nodes {seen[key]} and {n.id}"
                    )
                seen[key] = n.id


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


def _known(doc: dict, names, what: str, error=SchemaError) -> None:
    """An ``error`` naming the first key of ``doc`` not among ``names``, the
    keys its reader reads."""
    for key in doc:
        if key not in names:
            raise error(f"{what} carries '{key}', which is not read; the keys read are "
                        f"{', '.join(names)}")


def _pair(value, what: str) -> tuple[str, str]:
    """The two node names of a link entry such as ``["sw_a", "sw_b"]``."""
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{what} must be a list of two names, got {value!r}")
    return _as(str, value[0], what), _as(str, value[1], what)


def _positive(value, what: str) -> float:
    """``value`` as a positive finite number; anything else is a
    :class:`SchemaError` naming ``what``."""
    number = _as(float, value, what)
    if not 0 < number < math.inf:
        raise SchemaError(f"{what} must be a positive number, got {number!r}")
    return number


def _sockets(doc: dict) -> list[tuple[int, dict]]:
    """``(id, entry)`` of each ``sockets`` entry.  The ids are 0..n-1, each
    once, since scopes address sockets 0 and 1 by id."""
    entries = _entries(doc, "sockets", "topology", dict)
    if not 1 <= len(entries) <= 2:
        raise SchemaError(f"a topology has 1 or 2 sockets, got {len(entries)}")
    ids = [_req(sock, "id", "socket", int) for sock in entries]
    for sid in ids:
        if ids.count(sid) > 1 or not 0 <= sid < len(ids):
            raise SchemaError(f"socket id {sid}: the ids of {len(ids)} socket entries must be "
                              f"{list(range(len(ids)))}, each once")
    return list(zip(ids, entries))


def _load_chiplet(
    doc: dict, sockets: list[tuple[int, dict]]
) -> tuple[dict[str, TopoNode], dict[int, str], dict[tuple[int, int], int]]:
    """The cores and memory controllers of a chiplet document, each core's
    L3-domain id, and its switch table (see :func:`_switch_table`)."""
    nodes: dict[str, TopoNode] = {}
    l3_domains: dict[int, str] = {}
    links: dict[str, list[str]] = {}  # declared switch -> switches one link away
    ports: dict[str, tuple[int, str]] = {}  # xGMI port -> (socket, its switch)
    homes: dict[int, tuple[int, Optional[str]]] = {}  # NUMA node -> (socket, its switch)

    def add(node_id: str, table: dict, value) -> None:
        if node_id in nodes or node_id in links or node_id in ports:
            raise SchemaError(f"duplicate node id '{node_id}'")
        table[node_id] = value

    def switch(name: str, entry: str) -> str:
        """``name``, a switch that ``entry`` names, if the socket declares it."""
        if name not in links:
            raise SchemaError(f"{entry} names undeclared switch '{name}'")
        return name

    for sid, sock in sockets:
        prefix = f"s{sid}."
        ctx = f"socket {sid}"
        _known(sock, ("id", "switches", "switch_links", "xgmi_ports", "numa_nodes"), ctx)
        for sw in _entries(sock, "switches", ctx, str, []):
            add(prefix + sw, links, [])
        for link in _entries(sock, "switch_links", ctx, list, []):
            a, b = (switch(prefix + end, f"{ctx}: switch_links entry {link}")
                    for end in _pair(link, f"{ctx}: switch_links entry"))
            links[a].append(b)
            links[b].append(a)
        for port in _entries(sock, "xgmi_ports", ctx, dict, []):
            pid = prefix + _req(port, "id", f"{ctx} xgmi port", str)
            _known(port, ("id", "switch"), f"xgmi port {pid}")
            sw = prefix + _req(port, "switch", f"xgmi port {pid}", str)
            add(pid, ports, (sid, switch(sw, f"xgmi port {pid}")))
        for nd in _entries(sock, "numa_nodes", ctx, dict):
            nid = _req(nd, "id", "numa_node", int)
            _known(nd, ("id", "switch", "ccds"), f"numa_node {nid}")
            switch_name = nd.get("switch")
            sw_id = None if switch_name is None else switch(prefix + _as(
                str, switch_name, f"numa_node {nid}: field 'switch'"
            ), f"numa_node {nid}")
            mc_id = f"mc{nid}"
            add(mc_id, nodes, TopoNode(mc_id, NodeRole.MEMORY_CONTROLLER, sid, numa_node=nid))
            ccds = _entries(nd, "ccds", f"numa_node {nid}", dict)
            homes[nid] = (sid, sw_id)
            for ccd_i, ccd in enumerate(ccds):
                _known(ccd, ("ccxs",), f"node {nid} ccd {ccd_i}")
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
                    for c in core_ids:
                        c = _as(int, c, f"node {nid} ccd {ccd_i} ccx {ccx_i}: core id")
                        if c in l3_domains:
                            raise SchemaError(f"core id {c} appears twice")
                        l3_domains[c] = l3_id
                        cid = f"core{c}"
                        add(cid, nodes, TopoNode(cid, NodeRole.CORE, sid, numa_node=nid,
                                                 ccd=ccd_i, ccx=ccx_i, core_index=c))
    crossings = []
    linked: set[str] = set()
    for link in _entries(doc, "xgmi_links", "topology", list, []):
        a, b = _pair(link, "xgmi_links entry")
        for end in (a, b):
            if end not in ports:
                raise SchemaError(f"xgmi_links: '{end}' is not an xGMI port")
        if ports[a][0] == ports[b][0]:
            raise SchemaError(f"xgmi_links entry {link}: both ends are ports of socket "
                              f"{ports[a][0]}; an xGMI link joins the two sockets")
        for end in (a, b):
            if end in linked:
                raise SchemaError(f"xgmi_links entry {link}: port '{end}' is already linked")
            linked.add(end)
        crossings += [(ports[a], ports[b]), (ports[b], ports[a])]
    return nodes, l3_domains, _switch_table(links, homes, crossings)


def _switch_table(
    links: dict[str, list[str]],
    homes: dict[int, tuple[int, Optional[str]]],
    crossings: list[tuple[tuple[int, str], tuple[int, str]]],
) -> dict[tuple[int, int], int]:
    """The switches a read crosses from each NUMA node to each node's memory
    controller, keyed (requester node, home node).

    ``links`` joins the switches of one socket, ``homes`` gives each node's
    (socket, switch) and ``crossings`` each xGMI link's (socket, switch)
    ends, both ways round.  Within a socket a read crosses its node's
    switch, the fewest switch links to the home node's switch, and that
    switch; across sockets, the same through the xGMI link that crosses the
    fewest switches.  A node without a switch reaches only its own memory,
    crossing none.  A node pair without a route, or a declared switch that
    no node's switch reaches, is a :class:`SchemaError`.
    """
    # Fewest switch links from each switch to each switch it reaches.
    dist: dict[str, dict[str, int]] = {}
    for start in links:
        reach = dist[start] = {start: 0}
        order = [start]
        for u in order:  # breadth first: ``order`` grows as switches are reached
            for v in links[u]:
                if v not in reach:
                    reach[v] = reach[u] + 1
                    order.append(v)
    reached = {sw for _, home in homes.values() if home is not None for sw in dist[home]}
    unreached = sorted(set(links) - reached)
    if unreached:
        raise SchemaError(f"graph is disconnected; unreachable nodes: {unreached}")
    table: dict[tuple[int, int], int] = {}
    for n, (n_socket, n_sw) in homes.items():
        for m, (m_socket, m_sw) in homes.items():
            if n_sw is None or m_sw is None:
                hops = 0 if n == m else math.inf
            elif n_socket == m_socket:
                hops = dist[n_sw].get(m_sw, math.inf) + 1
            else:
                hops = min((dist[n_sw].get(a, math.inf) + dist[b].get(m_sw, math.inf) + 2
                            for (a_socket, a), (b_socket, b) in crossings
                            if (a_socket, b_socket) == (n_socket, m_socket)), default=math.inf)
            if hops == math.inf:
                raise SchemaError(f"graph is disconnected; no route from NUMA node {n} to "
                                  f"NUMA node {m}'s memory")
            table[n, m] = hops
    return table


def _load_mesh(
    sockets: list[tuple[int, dict]]
) -> tuple[dict[str, TopoNode], dict[int, str], None]:
    """The tiles of a mesh document and each core's L3-domain id: mesh L3
    slices are shared per NUMA node (per SNC under SNC mode).  A mesh graph
    has no switch table."""
    nodes: dict[str, TopoNode] = {}
    l3_domains: dict[int, str] = {}
    for sid, sock in sockets:
        _known(sock, ("id", "grid", "snc_cols", "numa_base", "tiles"), f"socket {sid}")
        grid = _req(sock, "grid", f"socket {sid}", dict)
        _known(grid, ("rows", "cols"), f"socket {sid} grid")
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
            _known(tile, ("row", "col", "core", "mc", "upi"), ctx)
            r, c = _req(tile, "row", ctx, int), _req(tile, "col", ctx, int)
            if not (0 <= r < rows and 0 <= c < cols):
                raise SchemaError(f"socket {sid}: tile ({r},{c}) outside {rows}x{cols} grid")
            if "core" in tile:
                core = _req(tile, "core", ctx, int)
                if core in l3_domains:
                    raise SchemaError(f"core id {core} appears twice")
                snc = snc_of(c)
                l3_domains[core] = f"l3.snc{snc}"
                nid = f"core{core}"
                node = TopoNode(
                    nid, NodeRole.CORE, sid, numa_node=snc, core_index=core, row=r, col=c,
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
    return nodes, l3_domains, None


def load_topology(doc: dict) -> TopologyGraph:
    """Validate a topology document and build the graph.

    Raises :class:`SchemaError` naming the offending node/field on schema
    violations, disconnected graphs, and duplicate coordinates.
    """
    doc = _as(dict, doc, "topology document")
    kind = _req(doc, "kind", "topology", GraphKind)
    _known(doc, _DOCUMENT_KEYS[kind], "topology document")
    protocol = _req(doc, "protocol", "topology", Protocol)
    freqs = {k: _positive(v, f"frequencies.{k}")
             for k, v in _req(doc, "frequencies", "topology", dict).items()}
    _known(freqs, ("core_mhz", "uncore_mhz"), "frequencies")
    _req(freqs, "core_mhz", "frequencies")
    sockets = _sockets(doc)
    if kind is GraphKind.CHIPLET_IF:
        nodes, l3_domains, switch_hops = _load_chiplet(doc, sockets)
    else:
        nodes, l3_domains, switch_hops = _load_mesh(sockets)
    return TopologyGraph(
        kind=kind,
        socket_count=len(sockets),
        nodes=nodes,
        l3_domains=l3_domains,
        frequencies=freqs,
        protocol=protocol,
        switch_hops=switch_hops,
        caches={k: _positive(v, f"caches.{k}")
                for k, v in _opt(doc, "caches", "topology", dict, {}).items()},
        bandwidth=_opt(doc, "bandwidth", "topology", dict, {}),
        name=doc.get("name", ""),
    )


_GRAPHS_BY_SHA256: dict[str, TopologyGraph] = {}


def load_topology_file(path: str | Path) -> TopologyGraph:
    """The graph of a topology file, one per distinct file content per
    process: the same bytes give the same (immutable) graph, with its
    indices; an edited file hashes differently and is loaded fresh."""
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


def switch_hops_to_memory(graph: TopologyGraph, core_id: int, numa_node: int) -> int:
    """Switches a read crosses from a core to a node's memory controller:
    the entry of the graph's switch table for the core's node and that
    node."""
    if graph.kind is not GraphKind.CHIPLET_IF:
        raise ScopeError("fabric routes require a chiplet_if graph")
    graph.memory_controller(numa_node)  # an unknown node is a TopologyError
    return graph._switch_hops[graph.node_of_core(core_id), numa_node]


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
