"""Test oracles: fake clock backends, a synthetic protocol model, each
protocol's states, the single-owner invariant, the chain walk, its generator
and the reference shuffle, a chiplet document's fabric graph with its routes
and their switch count, the three-term hop-cost fit template, a latency
record's CSV fields, and the native triad's operands."""

import heapq
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from memchar import chain, native
from memchar.coherence import OWNERSHIP_STATES, CoherenceState, ProtocolModel
from memchar.model import FitTemplate, FitTerm
from memchar.topology import extra_switch_hops


def protocol_model(protocol, cores, cores_per_domain=4) -> ProtocolModel:
    """Synthetic model: consecutive cores grouped into L3 domains."""
    domains = {c: f"d{i // cores_per_domain}" for i, c in enumerate(cores)}
    return ProtocolModel(protocol, domains)


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


class Xorshift64:
    """The chain generator stepped one state at a time: seeded as
    ``chain._seed_state``, then ``s ^= s << 13; s ^= s >> 7; s ^= s << 17``."""

    def __init__(self, seed: int):
        self.state = chain._seed_state(seed)

    def next(self) -> int:
        mask = (1 << 64) - 1
        s = self.state
        s = (s ^ (s << 13)) & mask
        s ^= s >> 7
        s = (s ^ (s << 17)) & mask
        self.state = s
        return s


def sattolo_py(n: int, seed: int) -> array:
    """Reference shuffle: the same table as ``mc_sattolo``, one swap at a
    time, with the xorshift step of :class:`Xorshift64` inlined."""
    perm = list(range(n))
    s = chain._seed_state(seed)
    mask = (1 << 64) - 1
    for i in range(n - 1, 0, -1):
        s = (s ^ (s << 13)) & mask
        s ^= s >> 7
        s = (s ^ (s << 17)) & mask
        j = s % i
        perm[i], perm[j] = perm[j], perm[i]
    return array("q", perm)


@dataclass(frozen=True)
class ChainReport:
    """Validation result for a chain buffer."""

    element_count: int
    cycle_length: int
    first_revisit_index: int
    alignment_violations: int

    @property
    def ok(self) -> bool:
        return (
            self.cycle_length == self.element_count
            and self.first_revisit_index == self.element_count
            and self.alignment_violations == 0
        )


def verify_chain(buffer) -> ChainReport:
    """Traverse the successor table and report its cycle structure.

    A valid chain first revisits an element exactly at step ``element_count``
    (landing back on the start) having touched every element once.  The check
    is a plain walk, independent of how the chain was built: in C
    (``mc_chain_walk``) after a numpy range check when the native kernels
    load, else :func:`verify_chain_py`.
    """
    n = buffer.element_count
    succ = buffer.successors
    if n < 1 or len(succ) != n:
        # Sizes the C walk cannot take safely; the reference reports them.
        return verify_chain_py(buffer)
    try:
        lib = native.load_kernels()
    except native.BackendUnavailable:
        return verify_chain_py(buffer)
    s = np.frombuffer(succ, dtype=np.int64)
    violations = int(np.count_nonzero((s < 0) | (s >= n)))
    if violations:
        return ChainReport(n, 0, 0, violations)
    first_seen = array("q", [0]) * n
    cycle_length = array("Q", [0])
    step = lib.mc_chain_walk(
        succ.buffer_info()[0], n, first_seen.buffer_info()[0], cycle_length.buffer_info()[0]
    )
    return ChainReport(n, cycle_length[0], step, 0)


def verify_chain_py(buffer) -> ChainReport:
    """Reference walk: the same report as the C walk, one step at a time."""
    n = buffer.element_count
    succ = buffer.successors
    violations = sum(1 for s in succ if not 0 <= s < n)
    if violations:
        return ChainReport(n, 0, 0, violations)
    # first_seen[e] = walk step at which element e was first reached, -1 if
    # never.  A revisit must occur within n steps (pigeonhole).
    first_seen = array("q", [-1]) * n
    first_seen[0] = 0
    idx = 0
    step = 0
    while True:
        idx = succ[idx]
        step += 1
        if first_seen[idx] >= 0:
            return ChainReport(n, step - first_seen[idx], step, 0)
        first_seen[idx] = step


# Route weight of each link class: an xGMI link outweighs any path within a
# socket, and a local link (a core to its L3 domain, anything onto its
# switch) weighs nothing.
ROUTE_WEIGHTS = {"if_switch_hop": 2.0, "xgmi": 90.0, "local": 0.0}


@dataclass(frozen=True)
class Fabric:
    """A chiplet topology document as a node-and-edge graph: ``roles`` maps
    each node id to its role, and ``adjacency`` each node id to its
    ``(neighbour, link class)`` pairs in neighbour-id order."""

    roles: dict
    adjacency: dict


def fabric(doc) -> Fabric:
    """The fabric graph of a ``chiplet_if`` topology document, built from
    the document alone.  A core hangs off its CCX's L3 domain; an L3 domain
    and a memory controller hang off their NUMA node's switch (an L3 domain
    off the memory controller when the node has none); an xGMI port hangs
    off its switch; switch links and xGMI links join the rest.  Node ids
    are ``core{c}``, ``mc{n}``, ``l3.n{n}d{ccd}x{ccx}`` and
    ``s{socket}.{name}``."""
    roles, edges = {}, []
    for sock in doc["sockets"]:
        prefix = f"s{sock['id']}."
        for sw in sock["switches"]:
            roles[prefix + sw] = "switch"
        edges += [(prefix + a, prefix + b, "if_switch_hop") for a, b in sock["switch_links"]]
        for port in sock["xgmi_ports"]:
            roles[prefix + port["id"]] = "xgmi_port"
            edges.append((prefix + port["switch"], prefix + port["id"], "local"))
        for nd in sock["numa_nodes"]:
            mc = f"mc{nd['id']}"
            roles[mc] = "memory_controller"
            hub = mc if nd.get("switch") is None else prefix + nd["switch"]
            if hub != mc:
                edges.append((mc, hub, "local"))
            for d, ccd in enumerate(nd["ccds"]):
                for x, cores in enumerate(ccd["ccxs"]):
                    l3 = f"l3.n{nd['id']}d{d}x{x}"
                    roles[l3] = "l3_domain"
                    edges.append((l3, hub, "local"))
                    for c in cores:
                        roles[f"core{c}"] = "core"
                        edges.append((f"core{c}", l3, "local"))
    edges += [(a, b, "xgmi") for a, b in doc.get("xgmi_links", [])]
    adjacency = {n: [] for n in roles}
    for a, b, link_class in edges:
        adjacency[a].append((b, link_class))
        adjacency[b].append((a, link_class))
    return Fabric(roles, {n: sorted(pairs) for n, pairs in adjacency.items()})


def route(fabric: Fabric, a: str, b: str) -> tuple:
    """``(nodes, link_classes)`` of the minimum-cost route from node ``a``
    to node ``b`` of ``fabric``: a fresh Dijkstra that stops at ``b`` and
    keeps nothing, with :data:`ROUTE_WEIGHTS`, ties broken by lexicographic
    node id and fewer hops preferred on equal cost.  The reference the
    switch table of ``memchar.topology`` must agree with."""
    if a == b:
        return (a,), ()
    dist = {a: 0.0}
    prev = {}
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == b:
            break
        if d > dist.get(u, float("inf")):
            continue
        for v, link_class in fabric.adjacency[u]:
            nd = d + ROUTE_WEIGHTS[link_class] + 1e-9
            if nd < dist.get(v, float("inf")) - 1e-12:
                dist[v] = nd
                prev[v] = (u, link_class)
                heapq.heappush(heap, (nd, v))
    nodes, classes = [b], []
    while nodes[-1] != a:
        u, link_class = prev[nodes[-1]]
        nodes.append(u)
        classes.append(link_class)
    return tuple(reversed(nodes)), tuple(reversed(classes))


def switch_count(fabric: Fabric, nodes) -> int:
    """Switches among ``nodes`` (a route's node ids): the reference
    ``switch_hops_to_memory`` must equal."""
    return sum(1 for n in nodes if fabric.roles[n] == "switch")


def hop_cost_template(graph, fabric: Fabric) -> FitTemplate:
    """Base plus switch and socket-link costs, the socket link counted per
    crossing of the :func:`route` through ``fabric`` (``graph``'s document)
    from the requester to the home memory controller: cycles = base + 2 *
    (extra switches * switch_ns + xGMI crossings * xgmi_ns) * f_core."""
    ghz = graph.frequencies["core_mhz"] / 1000.0

    @lru_cache(maxsize=None)
    def xgmi_crossings(requester: int, home: int) -> int:
        _, classes = route(fabric, graph.core(requester).id, graph.memory_controller(home).id)
        return classes.count("xgmi")

    return FitTemplate(
        name="hop_costs",
        terms=(
            FitTerm("base_cycles", lambda o: 1.0),
            FitTerm(
                "if_switch_ns",
                lambda o: 2.0 * extra_switch_hops(graph, o.requester, o.home) * ghz,
            ),
            FitTerm("xgmi_ns", lambda o: 2.0 * xgmi_crossings(o.requester, o.home) * ghz),
        ),
    )


def latency_csv_fields(r) -> list:
    """The 21 ``LATENCY_COLUMNS`` fields of record ``r``, each read off the
    record and formatted on its own: the row ``csv.writer`` is given."""
    p = r.placement
    return [
        r.backend,
        str(p.requester),
        str(p.owner),
        str(p.home_node),
        "" if p.forwarder_node is None else str(p.forwarder_node),
        r.state,
        r.level,
        str(r.dataset_bytes),
        ";".join(repr(float(v)) for v in r.samples),
        repr(float(r.min_cycles)),
        repr(float(r.max_cycles)),
        repr(float(r.median_cycles)),
        repr(float(r.frequency_mhz)),
        repr(float(r.latency_cycles)),
        r.reducer,
        ";".join(str(int(v)) for v in r.dataset_sizes),
        str(r.alignment),
        "1" if r.huge_pages else "0",
        str(r.seed),
        repr(float(r.overhead_cycles)),
        p.label,
    ]


def triad_operands(b: np.ndarray, c: np.ndarray) -> None:
    """Fill the inputs of an ``n``-element native triad in place, as the
    ``mc_triad_init`` kernel does: ``b[i] = i`` and ``c[i] = n - i``, in
    float64 arrays of ``n`` elements.

    Every value is an integer far below 2**53, so ``b + 3c = 3n - 2i`` is
    exact however the kernel computes it, and no two elements of ``b``, of
    ``c`` or of the result are equal, so an index shift, a dropped tail or
    an unwritten slot fails ``verify_triad``.
    """
    n = len(b)
    b[:] = np.arange(n)
    c[:] = n - b
